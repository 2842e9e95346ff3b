"""The README's Python examples run as written and print what they claim.

Its CLI synopsis and stated --out-dir default match the parser.
"""

import contextlib
import io
import re
from pathlib import Path

from expen.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_quick_start_and_verification_snippet_print_their_documented_values():
    blocks = _python_blocks()
    assert len(blocks) == 2, "expected the Quick start and the verification snippet"
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # the snippet reuses the Quick start's names
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0] == "GradTol 658"
    assert lines[1] == "7.64290399776555"
    assert lines[-2] == "True"
    assert lines[-1].startswith("check=fd_gradient ")
    assert lines[-1].endswith(" status=PASS")
    # every "# value" comment on a print line of the snippets matches the output
    documented = [
        line.split("#", 1)[1].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert documented[0] == lines[0]
    assert documented[1].startswith(lines[1] + " ")
    assert documented[-1] == lines[-1]


def test_cli_synopsis_lists_the_parser_options_and_choices():
    (block,) = re.findall(r"```\n(expen-bench .*?)```", README.read_text(), flags=re.S)
    actions = [a for a in _build_parser()._actions if a.dest != "help"]
    assert re.findall(r"--[a-z-]+", block) == [opt for a in actions for opt in a.option_strings]
    choices = ["{" + ",".join(a.choices) + "}" for a in actions if a.choices]
    assert re.findall(r"\{[^}]*\}", block) == choices


def test_out_dir_default_is_the_parsers():
    (stated,) = re.findall(r"Outputs in `--out-dir` \((.*?) by default\)", README.read_text())
    assert stated.strip("`") == _build_parser().get_default("out_dir")
