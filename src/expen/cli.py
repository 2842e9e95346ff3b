"""Benchmark driver: build a problem, solve repeatedly, emit table rows and traces.

Protocol per run: for repeat r the initial point is drawn from seed + r, the
penalty parameter follows the ||grad f(X0)||_F / 10 rule unless overridden,
the solver runs to the gradient tolerance, and the final iterate is projected
onto the manifold before scoring. Numeric columns are averaged over repeats.

Exit codes: 0 when some repeat succeeded, 1 invalid run specification, 2
when no repeat succeeded or the run raised an ExPenError. A repeat succeeds
when it stops MaxIters, or GradTol inside the region where the stationarity
certificate holds; every other termination counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .exceptions import DimensionError, ExPenError
from .linalg import _check_int, _check_param
from .model import ExPenModel, default_beta
from .problems import RandomSpec, brockett_make, nleig_make, random_stiefel, random_symmetric
from .solvers import SolverConfig, Termination, frcg_solve, gd_solve

__all__ = ["RunSpec", "TableRow", "BenchResult", "run_benchmark", "emit_outputs", "main"]

_SOLVERS = {"frcg": frcg_solve, "gd": gd_solve}
_PROBLEMS = ("nleig", "brockett")
_FORMATS = ("csv", "json", "both")

TRACE_HEADER = "k,h,grad_h_norm,feasibility,fval_gap"


def _fmt(x):
    # 9 significant digits for every float column
    return f"{float(x):.9g}"


def _cells(row):
    """The TABLE_HEADER cells of a TableRow: its solver name, then each float field."""
    return [row.solver] + [_fmt(getattr(row, f.name)) for f in fields(row)[1:]]


@dataclass(frozen=True)
class RunSpec:
    """Validated benchmark request.

    RandomSpec checks n, p and seed, SolverConfig grad_tol and max_iters (and gives
    their defaults); alpha, beta and repeats go through the guards their owners call.
    """

    problem: str
    n: int
    p: int
    alpha: float = 1.0
    seed: int = 0
    repeats: int = 1
    beta_override: Optional[float] = None
    grad_tol: float = SolverConfig.grad_tol
    max_iters: int = SolverConfig.max_iters
    solver: str = "frcg"

    def __post_init__(self):
        if self.problem not in _PROBLEMS:
            raise DimensionError(f"unknown problem {self.problem!r}, expected one of {_PROBLEMS}")
        if self.solver not in _SOLVERS:
            raise DimensionError(f"unknown solver {self.solver!r}, expected one of {tuple(_SOLVERS)}")
        RandomSpec(self.n, self.p, self.seed)
        SolverConfig(self.grad_tol, self.max_iters)
        if self.problem == "nleig":
            _check_param(self.alpha, "alpha")
        _check_int(self.repeats, 1, "repeats")
        if self.beta_override is not None:
            _check_param(self.beta_override, "beta", positive=True)


@dataclass(frozen=True)
class TableRow:
    """One averaged result row, mirroring the benchmark table schema."""

    solver: str
    fval: float
    iteration: float
    stationarity: float
    feasibility: float
    wall_seconds: float


TABLE_HEADER = ",".join(f.name for f in fields(TableRow))


@dataclass(frozen=True)
class BenchResult:
    """Everything a benchmark run produced, before serialization."""

    row: TableRow
    f_ref: float
    betas: tuple
    terminations: tuple
    reports: tuple
    traces: Optional[tuple]


def _build_objective(spec):
    if spec.problem == "nleig":
        return nleig_make(spec.n, spec.p, spec.alpha)
    # symmetric random Brockett data, streams separated from the X0 seeds
    B = random_symmetric(spec.n, [spec.seed, 1])
    C = random_symmetric(spec.p, [spec.seed, 2])
    return brockett_make(B, C)


def run_benchmark(spec, *, trace=False, clock=time.perf_counter):
    """Execute a RunSpec and aggregate the repeats into a TableRow.

    The clock is injectable so tests can pin wall_seconds; everything else is
    fully determined by the RunSpec argument.
    """
    obj = _build_objective(spec)
    solve = _SOLVERS[spec.solver]
    reports = []
    betas = []
    for r in range(spec.repeats):
        X0 = random_stiefel(RandomSpec(spec.n, spec.p, spec.seed + r))
        beta = spec.beta_override if spec.beta_override is not None else default_beta(obj, X0)
        model = ExPenModel(obj, beta)
        config = SolverConfig(
            grad_tol=spec.grad_tol, max_iters=spec.max_iters, trace_enabled=trace
        )
        reports.append(solve(model, X0, config, clock=clock))
        betas.append(beta)

    # a RankDeficient repeat's fval is nan, and min returns nan when a nan comes first
    f_ref = min((rep.fval for rep in reports if math.isfinite(rep.fval)), default=math.nan)
    k = float(len(reports))
    row = TableRow(
        solver=spec.solver,
        fval=sum(rep.fval for rep in reports) / k,
        iteration=sum(rep.iterations for rep in reports) / k,
        stationarity=sum(rep.stationarity for rep in reports) / k,
        feasibility=sum(rep.feasibility for rep in reports) / k,
        wall_seconds=sum(rep.wall_seconds for rep in reports) / k,
    )
    traces = None
    if trace:
        traces = tuple(
            tuple((t.k, t.h_val, t.grad_h_norm, t.feas, t.f_val - f_ref) for t in rep.trace)
            for rep in reports
        )
    return BenchResult(
        row=row,
        f_ref=f_ref,
        betas=tuple(betas),
        terminations=tuple(rep.termination.value for rep in reports),
        reports=tuple(reports),
        traces=traces,
    )


def emit_outputs(rows, traces, fmt, destination, *, metadata=None):
    """Write table and trace files under `destination`; returns the paths written.

    CSV columns and headers are fixed; floats carry 9 significant digits.
    JSON mirrors the TableRow fields exactly so rows round-trip. One trace
    CSV per repeat is written whenever traces are given, in every format.
    """
    if not rows:
        raise DimensionError("emit_outputs needs at least one row")
    if fmt not in _FORMATS:
        raise DimensionError(f"unknown format {fmt!r}, expected one of {_FORMATS}")
    try:
        os.makedirs(destination, exist_ok=True)
    except OSError as exc:
        raise ExPenError(f"cannot create output directory {destination!r}: {exc}") from exc

    paths = []

    def _write(relpath, text):
        path = os.path.join(destination, relpath)
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ExPenError(f"cannot write {path!r}: {exc}") from exc
        paths.append(path)

    if fmt in ("csv", "both"):
        lines = [TABLE_HEADER] + [",".join(_cells(row)) for row in rows]
        _write("table.csv", "\n".join(lines) + "\n")

    for r, rows_r in enumerate(traces or ()):
        tlines = [TRACE_HEADER]
        for k, h, gnorm, feas, gap in rows_r:
            tlines.append(f"{int(k)},{_fmt(h)},{_fmt(gnorm)},{_fmt(feas)},{_fmt(gap)}")
        _write(f"trace_{r:03d}.csv", "\n".join(tlines) + "\n")

    if fmt in ("json", "both"):
        doc = {
            "rows": [asdict(row) for row in rows],
            "metadata": metadata if metadata is not None else {},
        }
        _write("table.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")

    return paths


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for solver failure, so parse errors become exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    # run parameters left unset stay out of the namespace, so RunSpec's
    # defaults apply; only the output options default here
    parser = _Parser(
        prog="expen-bench",
        description="Penalty-model benchmark runner for orthogonality-constrained problems.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--problem", required=True, choices=list(_PROBLEMS))
    parser.add_argument("--n", type=int, required=True, help="number of rows")
    parser.add_argument("--p", type=int, required=True, help="number of columns")
    parser.add_argument("--alpha", type=float, help="nleig coupling weight")
    parser.add_argument("--seed", type=int, help="base seed; repeat r uses seed+r")
    parser.add_argument("--repeats", type=int)
    parser.add_argument(
        "--beta", type=float, dest="beta_override", metavar="BETA", help="penalty override (default: rule)"
    )
    parser.add_argument("--grad-tol", type=float)
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--solver", choices=sorted(_SOLVERS))
    parser.add_argument("--trace", action="store_true", default=False, help="write per-iteration trace CSVs")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--format", choices=list(_FORMATS), default="both")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
        trace, out_dir, fmt = args.pop("trace"), args.pop("out_dir"), args.pop("format")
        spec = RunSpec(**args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExPenError, ValueError) as exc:
        print(f"error: invalid run specification: {exc}", file=sys.stderr)
        return 1

    try:
        result = run_benchmark(spec, trace=trace)
    except ExPenError as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 2

    metadata = {
        "spec": asdict(spec),
        "f_ref": result.f_ref,
        "betas": list(result.betas),
        "terminations": list(result.terminations),
        "certified": [rep.certified for rep in result.reports],
        "termination_detail": [rep.termination_detail for rep in result.reports],
    }
    paths = emit_outputs([result.row], result.traces, fmt, out_dir, metadata=metadata)

    print(TABLE_HEADER.replace(",", "  "))
    print("  ".join(_cells(result.row)))
    for path in paths:
        print(f"wrote {path}")

    if not any(
        rep.termination is Termination.MAX_ITERS or (rep.termination is Termination.GRAD_TOL and rep.certified)
        for rep in result.reports
    ):
        print(
            "error: line search failed, went non-finite, lost rank or stopped uncertified on every repeat",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
