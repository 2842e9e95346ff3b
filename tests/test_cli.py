"""Tests for the benchmark driver: spec validation, aggregation, emission, exit codes."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import expen as ep
import expen.cli
from expen.exceptions import DimensionError, ExPenError, NumericalError

from helpers import CountingClock


def _spec(**overrides):
    base = dict(problem="brockett", n=6, p=2, seed=0, repeats=2,
                beta_override=20.0, grad_tol=1e-4, max_iters=2000)
    base.update(overrides)
    return ep.RunSpec(**base)


class TestRunSpec:
    def test_valid_spec_constructs(self):
        spec = _spec()
        assert spec.solver == "frcg"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem": "bogus"},
            {"solver": "bogus"},
            {"n": 2, "p": 5},
            {"p": 0},
            {"problem": "nleig", "alpha": -1.0},
            {"seed": -1},
            {"repeats": 0},
            {"beta_override": 0.0},
            {"grad_tol": -1e-3},
            {"max_iters": 0},
            {"beta_override": float("inf")},
            {"problem": "nleig", "alpha": float("inf")},
            {"grad_tol": float("inf")},
            {"repeats": float("nan")},
            {"repeats": 2.5},
        ],
    )
    def test_invalid_spec_rejected(self, overrides):
        with pytest.raises(DimensionError):
            _spec(**overrides)


class TestRunBenchmark:
    def test_aggregates_means_and_reference_value(self):
        result = ep.run_benchmark(_spec(), clock=CountingClock())
        reports = result.reports
        assert len(reports) == 2
        row = result.row
        assert row.solver == "frcg"
        assert row.fval == sum(r.fval for r in reports) / 2.0
        assert row.iteration == sum(r.iterations for r in reports) / 2.0
        assert row.stationarity == sum(r.stationarity for r in reports) / 2.0
        assert row.feasibility == sum(r.feasibility for r in reports) / 2.0
        assert result.f_ref == min(r.fval for r in reports)
        assert row.wall_seconds == 1.0  # injected counter: one tick per solve

    def test_beta_rule_matches_documented_default(self):
        spec = _spec(beta_override=None, repeats=2)
        result = ep.run_benchmark(spec, clock=CountingClock())
        obj = ep.brockett_make(ep.random_symmetric(6, [0, 1]),
                               ep.random_symmetric(2, [0, 2]))
        for r, beta in enumerate(result.betas):
            X0 = ep.random_stiefel(ep.RandomSpec(6, 2, r))
            assert beta == ep.default_beta(obj, X0)

    def test_beta_override_used_verbatim(self):
        result = ep.run_benchmark(_spec(beta_override=33.0), clock=CountingClock())
        assert result.betas == (33.0, 33.0)

    def test_repeats_use_distinct_seeds(self):
        result = ep.run_benchmark(_spec(), clock=CountingClock())
        a, b = result.reports
        assert not np.array_equal(a.final_point, b.final_point)

    def test_trace_rows_mirror_solver_trace(self):
        result = ep.run_benchmark(_spec(repeats=1), trace=True, clock=CountingClock())
        (trace,) = result.traces
        (report,) = result.reports
        assert len(trace) == report.iterations + 1
        k, h, gnorm, feas, gap = trace[-1]
        assert k == report.iterations
        assert gnorm == report.raw_grad_h_norm
        assert feas == report.raw_feasibility
        obj = ep.brockett_make(ep.random_symmetric(6, [0, 1]),
                               ep.random_symmetric(2, [0, 2]))
        assert gap == obj.value(report.raw_point) - result.f_ref

    def test_deterministic_given_injected_clock(self):
        a = ep.run_benchmark(_spec(), trace=True, clock=CountingClock())
        b = ep.run_benchmark(_spec(), trace=True, clock=CountingClock())
        assert a.row == b.row
        assert a.traces == b.traces


class TestEmitOutputs:
    @pytest.fixture()
    def result(self):
        return ep.run_benchmark(_spec(), trace=True, clock=CountingClock())

    def test_csv_schema_and_formatting(self, result, tmp_path):
        paths = ep.emit_outputs([result.row], result.traces, "csv", str(tmp_path))
        table = tmp_path / "table.csv"
        assert str(table) in paths
        lines = table.read_text().splitlines()
        assert lines[0] == "solver,fval,iteration,stationarity,feasibility,wall_seconds"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "frcg"
        assert cells[1] == f"{result.row.fval:.9g}"
        assert cells[5] == f"{result.row.wall_seconds:.9g}"

    def test_trace_files_schema(self, result, tmp_path):
        ep.emit_outputs([result.row], result.traces, "csv", str(tmp_path))
        for r, rows in enumerate(result.traces):
            lines = (tmp_path / f"trace_{r:03d}.csv").read_text().splitlines()
            assert lines[0] == "k,h,grad_h_norm,feasibility,fval_gap"
            assert len(lines) == len(rows) + 1
            assert lines[1].startswith("0,")

    def test_json_round_trip(self, result, tmp_path):
        meta = {"spec": {"problem": "brockett"}}
        ep.emit_outputs([result.row], None, "json", str(tmp_path), metadata=meta)
        doc = json.loads((tmp_path / "table.json").read_text())
        assert doc["metadata"] == meta
        assert ep.TableRow(**doc["rows"][0]) == result.row
        assert not (tmp_path / "table.csv").exists()

    def test_both_writes_all_files(self, result, tmp_path):
        paths = ep.emit_outputs([result.row], result.traces, "both", str(tmp_path))
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["table.csv", "table.json", "trace_000.csv", "trace_001.csv"]

    def test_byte_identical_across_reruns(self, tmp_path):
        out = []
        for sub in ("a", "b"):
            result = ep.run_benchmark(_spec(), trace=True, clock=CountingClock())
            ep.emit_outputs([result.row], result.traces, "both", str(tmp_path / sub))
            out.append({
                name.name: name.read_bytes() for name in sorted((tmp_path / sub).iterdir())
            })
        assert out[0] == out[1]

    def test_validation(self, result, tmp_path):
        with pytest.raises(DimensionError):
            ep.emit_outputs([], None, "csv", str(tmp_path))
        with pytest.raises(DimensionError):
            ep.emit_outputs([result.row], None, "yaml", str(tmp_path))

    @pytest.mark.parametrize(
        "blocked, match", [("out", "cannot create output directory"), ("out/table.csv", "cannot write")]
    )
    def test_os_error_becomes_expen_error(self, result, tmp_path, blocked, match):
        # a file where the output directory should be, or a directory where table.csv should be
        if blocked == "out":
            (tmp_path / "out").write_text("")
        else:
            (tmp_path / blocked).mkdir(parents=True)
        with pytest.raises(ExPenError, match=match):
            ep.emit_outputs([result.row], None, "csv", str(tmp_path / "out"))


class TestMain:
    def _argv(self, tmp_path, *extra):
        return [
            "--problem", "brockett", "--n", "6", "--p", "2",
            "--beta", "20", "--grad-tol", "1e-4", "--max-iters", "2000",
            "--out-dir", str(tmp_path),
        ] + list(extra)

    def test_success_exit_zero_and_files(self, tmp_path, capsys):
        code = ep.main(self._argv(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "solver  fval" in out
        assert (tmp_path / "table.csv").exists()
        assert (tmp_path / "table.json").exists()
        assert f"wrote {tmp_path}/table.csv" in out

    def test_trace_flag_writes_trace_files(self, tmp_path):
        code = ep.main(self._argv(tmp_path, "--trace", "--repeats", "2"))
        assert code == 0
        assert (tmp_path / "trace_000.csv").exists()
        assert (tmp_path / "trace_001.csv").exists()

    def test_trace_flag_writes_trace_files_with_json_format(self, tmp_path):
        code = ep.main(self._argv(tmp_path, "--trace", "--repeats", "2", "--format", "json"))
        assert code == 0
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["table.json", "trace_000.csv", "trace_001.csv"]

    def test_metadata_records_spec_and_betas(self, tmp_path):
        assert ep.main(self._argv(tmp_path)) == 0
        doc = json.loads((tmp_path / "table.json").read_text())
        meta = doc["metadata"]
        assert meta["spec"]["problem"] == "brockett"
        assert meta["spec"]["beta_override"] == 20.0
        assert meta["betas"] == [20.0]
        assert meta["terminations"] == ["GradTol"]
        assert meta["certified"] == [True]
        assert meta["termination_detail"] == [""]
        # a failed repeat keeps the text of the error behind its stop
        argv = ["--problem", "brockett", "--n", "30", "--p", "4", "--seed", "1", "--beta", "50",
                "--grad-tol", "1e-6", "--out-dir", str(tmp_path / "escape")]
        assert ep.main(argv) == 2
        meta = json.loads((tmp_path / "escape" / "table.json").read_text())["metadata"]
        assert meta["terminations"] == ["LineSearchFailure"]
        assert meta["termination_detail"] == ["LineSearchError: trial step 1.718e+10 exceeded cap 1e+10"]

    def test_unknown_problem_exits_one(self, tmp_path, capsys):
        code = ep.main(["--problem", "bogus", "--n", "4", "--p", "2",
                        "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_dimensions_exit_one(self, tmp_path, capsys):
        code = ep.main(["--problem", "nleig", "--n", "2", "--p", "5",
                        "--out-dir", str(tmp_path)])
        assert code == 1
        assert "invalid run specification" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [("--beta", "inf"), ("--problem", "nleig", "--alpha", "inf"), ("--grad-tol", "inf")]
    )
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, extra):
        code = ep.main(self._argv(tmp_path, *extra))
        assert code == 1
        assert "invalid run specification" in capsys.readouterr().err

    def test_all_repeats_failing_line_search_exits_two(self, tmp_path, monkeypatch, capsys):
        real_solve = ep.frcg_solve

        def failing_solve(model, X0, config, **kwargs):
            report = real_solve(model, X0, config, **kwargs)
            return dataclasses.replace(
                report, termination=ep.Termination.LINE_SEARCH_FAILURE
            )

        monkeypatch.setitem(expen.cli._SOLVERS, "frcg", failing_solve)
        code = ep.main(self._argv(tmp_path, "--repeats", "2"))
        assert code == 2
        assert "line search failed" in capsys.readouterr().err
        # outputs are still written so a failed benchmark remains inspectable
        assert (tmp_path / "table.csv").exists()

    def test_benchmark_error_exits_two(self, tmp_path, monkeypatch, capsys):
        def no_beta(obj, X0):
            raise NumericalError("||grad f(X0)||_F is nan, so the beta rule has no value")

        monkeypatch.setattr(expen.cli, "default_beta", no_beta)
        argv = ["--problem", "brockett", "--n", "6", "--p", "2", "--out-dir", str(tmp_path)]
        assert ep.main(argv) == 2
        assert "error: benchmark run failed: ||grad f(X0)||_F is nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_uncertified_gradtol_stop_exits_two(self, tmp_path, capsys):
        # nleig 60x8 seed 0 stops GradTol at raw feasibility 1.01, outside
        # the region 1/6 where a small grad h certifies the projected point
        code = ep.main(["--problem", "nleig", "--n", "60", "--p", "8", "--seed", "0",
                        "--out-dir", str(tmp_path)])
        assert code == 2
        assert "stopped uncertified" in capsys.readouterr().err
        meta = json.loads((tmp_path / "table.json").read_text())["metadata"]
        assert meta["terminations"] == ["GradTol"]
        assert meta["certified"] == [False]

    @pytest.mark.parametrize(
        "ends, expected",
        [
            (("NON_FINITE", "NON_FINITE"), 2),
            (("LINE_SEARCH_FAILURE", "NON_FINITE"), 2),
            (("NON_FINITE", "GRAD_TOL"), 0),
            (("MAX_ITERS", "MAX_ITERS"), 0),
        ],
    )
    def test_non_finite_repeats_count_as_failures(self, tmp_path, monkeypatch, capsys, ends, expected):
        real_solve = ep.frcg_solve
        ends = iter(ends)

        def ending_solve(model, X0, config, **kwargs):
            report = real_solve(model, X0, config, **kwargs)
            return dataclasses.replace(report, termination=ep.Termination[next(ends)])

        monkeypatch.setitem(expen.cli._SOLVERS, "frcg", ending_solve)
        code = ep.main(self._argv(tmp_path, "--repeats", "2"))
        assert code == expected
        assert ("went non-finite" in capsys.readouterr().err) == (expected == 2)
        assert (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize(
        "ends, expected",
        [
            (("RANK_DEFICIENT", "RANK_DEFICIENT"), 2),
            (("LINE_SEARCH_FAILURE", "RANK_DEFICIENT"), 2),
            (("RANK_DEFICIENT", "GRAD_TOL"), 0),
        ],
    )
    def test_rank_deficient_repeats_count_as_failures(self, tmp_path, monkeypatch, capsys, ends, expected):
        real_solve = ep.frcg_solve
        ends = iter(ends)
        fvals = []

        def ending_solve(model, X0, config, **kwargs):
            report = real_solve(model, X0, config, **kwargs)
            end = ep.Termination[next(ends)]
            if end is ep.Termination.RANK_DEFICIENT:
                nan = float("nan")
                report = dataclasses.replace(
                    report, final_point=None, fval=nan, stationarity=nan, feasibility=nan
                )
            fvals.append(report.fval)
            return dataclasses.replace(report, termination=end)

        monkeypatch.setitem(expen.cli._SOLVERS, "frcg", ending_solve)
        code = ep.main(self._argv(tmp_path, "--repeats", "2"))
        assert code == expected
        assert ("lost rank" in capsys.readouterr().err) == (expected == 2)
        meta = json.loads((tmp_path / "table.json").read_text())["metadata"]
        # the reference value skips the NaN fval of a rank-deficient repeat,
        # wherever it comes
        finite = [f for f in fvals if np.isfinite(f)]
        assert (meta["f_ref"] == min(finite)) if finite else np.isnan(meta["f_ref"])


def test_python_m_runs_without_runtime_warning(tmp_path):
    # importing the package must not import expen.cli, or runpy warns that
    # the module it is about to run as __main__ is already loaded
    src = os.path.dirname(os.path.dirname(ep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "expen.cli", "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: expen-bench")
    assert proc.stderr == ""


def test_public_names_are_the_modules_all():
    # each module's __all__ is the one list of the package's top-level names;
    # the CLI's are listed again in _CLI_NAMES only because they load lazily
    modules = ("exceptions", "linalg", "model", "geometry", "problems", "solvers", "verify")
    declared = set().union(*(importlib.import_module(f"expen.{m}").__all__ for m in modules))
    eager = {
        name for name in dir(ep)
        if not name.startswith("_") and not isinstance(getattr(ep, name), types.ModuleType)
    }
    assert eager == declared
    assert set(ep._CLI_NAMES) == set(expen.cli.__all__)
    assert not declared & set(ep._CLI_NAMES)
    for name in ep._CLI_NAMES:
        assert getattr(ep, name) is getattr(expen.cli, name)
