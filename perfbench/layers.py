"""Per-layer tracing of expen from outside the package.

A Tracer wraps the public functions at each module boundary (problems,
linalg, model, solvers, geometry, verify, cli) by replacing the module
attributes through which callers reach them, and restores them on exit.
Every wrapped call records its duration and its self time, which is the
duration minus the time spent in wrapped calls it made. Spans stay in
memory; nothing inside `src/` changes.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

import expen.cli as cli
import expen.geometry as geometry
import expen.linalg as linalg
import expen.model as model
import expen.problems as problems
import expen.solvers as solvers
import expen.verify as verify


class Tracer:
    """Durations and self times of wrapped calls, keyed by layer.function."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self._children = []  # one accumulator of child time per open span

    def clear(self):
        self.durations.clear()
        self.self_s.clear()

    def wrap(self, key, fn):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.durations[key].append(elapsed)
                self.self_s[key] += elapsed - inner

        return traced

    def calls(self, key):
        return len(self.durations[key])

    def median_us(self, key):
        d = self.durations[key]
        return statistics.median(d) * 1e6 if d else 0.0

    def total_s(self, key):
        return sum(self.durations[key])

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def _traced_objectives(self, make):
        def traced_make(*args, **kwargs):
            obj = make(*args, **kwargs)
            hv = obj.hess_vec
            return replace(
                obj,
                value=self.wrap("problems.value", obj.value),
                gradient=self.wrap("problems.grad", obj.gradient),
                hess_vec=None if hv is None else self.wrap("problems.hessvec", hv),
            )

        return traced_make

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        # (owners whose attribute callers read, attribute, replacement)
        sites = [
            ((problems, cli), "nleig_make", self._traced_objectives(problems.nleig_make)),
            ((problems, cli), "brockett_make", self._traced_objectives(problems.brockett_make)),
            ((linalg, problems), "tridiag_solve", self.wrap("linalg.tridiag_solve", linalg.tridiag_solve)),
            ((linalg.TridiagMatrix,), "matvec", self.wrap("linalg.matvec", linalg.TridiagMatrix.matvec)),
            ((model.ExPenModel,), "value", self.wrap("model.value", model.ExPenModel.value)),
            ((model.ExPenModel,), "grad", self.wrap("model.grad", model.ExPenModel.grad)),
            ((model.ExPenModel,), "hess_vec", self.wrap("model.hessvec", model.ExPenModel.hess_vec)),
            ((solvers,), "strong_wolfe", self.wrap("solvers.wolfe", solvers.strong_wolfe)),
            ((solvers, geometry, problems), "project_stiefel", self.wrap("geometry.project", geometry.project_stiefel)),
            ((geometry,), "stationarity_report", self.wrap("geometry.stationarity_report", geometry.stationarity_report)),
            ((verify,), "tangent_basis", self.wrap("verify.tangent_basis", verify.tangent_basis)),
            ((verify,), "assemble_hessian", self.wrap("verify.assemble_hessian", verify.assemble_hessian)),
            ((verify,), "spectrum_correspondence", self.wrap("verify.spectrum", verify.spectrum_correspondence)),
            ((verify,), "fd_gradient_check", self.wrap("verify.fd_gradient", verify.fd_gradient_check)),
            ((verify,), "fd_hessvec_check", self.wrap("verify.fd_hessvec", verify.fd_hessvec_check)),
            ((cli,), "run_benchmark", self.wrap("cli.run_benchmark", cli.run_benchmark)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owners, name, _ in sites for owner in owners]
        # the CLI reaches the solvers through its name -> function table
        saved_solvers = dict(cli._SOLVERS)
        try:
            for owners, name, traced in sites:
                for owner in owners:
                    setattr(owner, name, traced)
            for name, fn in saved_solvers.items():
                cli._SOLVERS[name] = self.wrap("solvers.solve", fn)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
            cli._SOLVERS.update(saved_solvers)


def layer_metrics(tracer, rounds, iterations):
    """The per-layer metrics: counts and seconds per round, medians per call.

    iterations is the solver iteration count over all rounds, from the
    operations' own results (SciPy's count for L-BFGS-B).
    """
    t = tracer
    per_round = lambda x: x / rounds
    iters = per_round(iterations)
    h_values = per_round(t.calls("model.value"))
    m = {
        "problems.value_calls": (per_round(t.calls("problems.value")), "count"),
        "problems.value_us": (t.median_us("problems.value"), "us"),
        "problems.grad_calls": (per_round(t.calls("problems.grad")), "count"),
        "problems.grad_us": (t.median_us("problems.grad"), "us"),
        "problems.hessvec_calls": (per_round(t.calls("problems.hessvec")), "count"),
        "problems.hessvec_us": (t.median_us("problems.hessvec"), "us"),
        "linalg.tridiag_solve_calls": (per_round(t.calls("linalg.tridiag_solve")), "count"),
        "linalg.tridiag_solve_us": (t.median_us("linalg.tridiag_solve"), "us"),
        "linalg.matvec_calls": (per_round(t.calls("linalg.matvec")), "count"),
        "linalg.matvec_us": (t.median_us("linalg.matvec"), "us"),
        "model.value_calls": (h_values, "count"),
        "model.value_us": (t.median_us("model.value"), "us"),
        "model.grad_calls": (per_round(t.calls("model.grad")), "count"),
        "model.grad_us": (t.median_us("model.grad"), "us"),
        "model.self_s": (per_round(t.layer_self_s("model")), "s"),
        "model.hessvec_calls": (per_round(t.calls("model.hessvec")), "count"),
        "model.hessvec_us": (t.median_us("model.hessvec"), "us"),
        "solvers.iters": (iters, "count"),
        "solvers.trials_per_iter": (h_values / iters if iters else 0.0, "h/iter"),
        "solvers.wolfe_calls": (per_round(t.calls("solvers.wolfe")), "count"),
        "solvers.wolfe_us": (t.median_us("solvers.wolfe"), "us"),
        "solvers.self_s": (per_round(t.layer_self_s("solvers")), "s"),
        "geometry.project_calls": (per_round(t.calls("geometry.project")), "count"),
        "geometry.project_us": (t.median_us("geometry.project"), "us"),
        "geometry.stationarity_report_us": (t.median_us("geometry.stationarity_report"), "us"),
        "verify.tangent_basis_s": (per_round(t.total_s("verify.tangent_basis")), "s"),
        "verify.assemble_hessian_s": (per_round(t.total_s("verify.assemble_hessian")), "s"),
        "verify.spectrum_s": (per_round(t.self_s["verify.spectrum"]), "s"),
        "verify.fd_checks_s": (per_round(t.total_s("verify.fd_gradient") + t.total_s("verify.fd_hessvec")), "s"),
        "cli.run_benchmark_self_s": (per_round(t.self_s["cli.run_benchmark"]), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
