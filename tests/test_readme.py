"""The README's Python examples run as written and print what they claim."""

import contextlib
import io
import re
from pathlib import Path

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
