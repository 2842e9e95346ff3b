"""Time-to-tolerance benchmark of expen.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload nleig-wide --seed 0 --seconds 20 --trace 0

A run sets the workload up from --seed, then executes whole rounds of its
operations until --seconds have passed, checks every result against
computations made apart from expen, and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every module boundary of
expen is wrapped and the metrics are the per-layer ones. --rounding runs a
solve workload from the starting points as drawn and again with the seeded
last-bit factor, and prints how far each metric moves. Details of every
operation go to perfbench/out/.

The process pins BLAS to one thread before NumPy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def _import_expen():
    """Import expen from the checkout's src/, never from anywhere else."""
    if not (SRC / "expen" / "__init__.py").is_file():
        sys.exit(f"error: no expen package under {SRC}")
    sys.path.insert(0, str(SRC))
    import expen

    if Path(expen.__file__).resolve().parent != SRC / "expen":
        sys.exit(f"error: imported expen from {expen.__file__}, not from {SRC}")
    import workloads

    return workloads


def _setup_probe(workload, seed):
    # the timed set-up: import, instances, starting points, beta rule
    start = time.perf_counter()
    workloads = _import_expen()
    workloads.WORKLOADS[workload](seed)
    print(repr(time.perf_counter() - start))


def _setup_seconds(workload, seed):
    """Median set-up time over fresh processes, each importing expen anew."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def _execute(op):
    """Run one operation; return (wall s, cpu s, result, failures)."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed operation, counted, not fatal
        wall = time.perf_counter() - wall0
        return wall, time.process_time() - cpu0, None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    try:
        failures = list(op.check(result))
    except Exception as exc:
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, cpu, result, failures


def measure(ops, seconds):
    """Whole rounds of ops until `seconds` have passed; returns the rounds' records.

    Each round must reproduce the first round's results bit for bit, since
    it repeats the same operations on the same inputs.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        records = []
        for i, op in enumerate(ops):
            wall, cpu, result, failures = _execute(op)
            if rounds and result is not None and rounds[0][i]["key"] != result.key:
                failures.append(f"round {len(rounds)} result {result.key} differs from round 0 {rounds[0][i]['key']}")
            records.append({
                "label": op.label,
                "wall_s": wall,
                "cpu_s": cpu,
                "key": None if result is None else result.key,
                "iterations": getattr(result, "iterations", 0),
                "failures": failures,
            })
        rounds.append(records)
    return rounds


def end_to_end(rounds):
    """run_s and cpu_s per round and op_s_p50 per operation, all medians over the run."""
    return {
        "run_s": (statistics.median(sum(r["wall_s"] for r in rnd) for rnd in rounds), "s"),
        "op_s_p50": (statistics.median(r["wall_s"] for rnd in rounds for r in rnd), "s"),
        "cpu_s": (statistics.median(sum(r["cpu_s"] for r in rnd) for rnd in rounds), "s"),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally(rounds):
    records = [r for rnd in rounds for r in rnd]
    failed = [r for r in records if r["failures"]]
    for r in failed:
        print(f"FAILED {r['label']}: " + "; ".join(r["failures"]), file=sys.stderr)
    return len(records), len(failed)


def _write(name, doc):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")


def run(workloads, workload, seed, seconds, trace):
    setup = workloads.WORKLOADS[workload]
    if trace:
        import layers

        tracer = layers.Tracer()
        with tracer.installed():
            ops = setup(seed)
            tracer.clear()
            rounds = measure(ops, seconds)
        iterations = sum(r["iterations"] for rnd in rounds for r in rnd)
        metrics = layers.layer_metrics(tracer, len(rounds), iterations)
        traced = end_to_end(rounds)
        print(f"traced: run_s {traced['run_s'][0]:.4f} s, op_s_p50 {traced['op_s_p50'][0]:.4f} s, {len(rounds)} rounds")
    else:
        setup_s, setup_times = _setup_seconds(workload, seed)
        ops = setup(seed)
        rounds = measure(ops, seconds)
        pairs = end_to_end(rounds)
        pairs["setup_s"] = (setup_s, "s")
        pairs["peak_rss_mb"] = (_peak_rss_mb(), "MiB")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}
    attempted, failed = _tally(rounds)
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    _write(f"{workload}-seed{seed}-trace{int(trace)}.json", {
        **doc, "rounds": rounds, **({} if trace else {"setup_times_s": setup_times}),
    })
    return doc


def rounding(workloads, workload, seed, seconds):
    """The same operations from the drawn starts and from the seeded last-bit perturbation."""
    if workload not in workloads.SOLVE_WORKLOADS:
        sys.exit(f"error: --rounding applies to {workloads.SOLVE_WORKLOADS}, not {workload}")
    setup = workloads.WORKLOADS[workload]
    sides = {}
    for label, perturb in (("drawn", False), ("perturbed", True)):
        rounds = measure(setup(seed, perturb=perturb), seconds)
        pairs = end_to_end(rounds)
        pairs["iterations"] = (sum(r["iterations"] for r in rounds[0]), "count")
        sides[label] = (pairs, rounds)
    attempted = failed = 0
    moves = {}
    for name, (value, unit) in sides["drawn"][0].items():
        moved = sides["perturbed"][0][name][0]
        moves[name] = {"drawn": value, "perturbed": moved, "move": moved / value - 1.0, "unit": unit}
        print(f"{name:12s} drawn {value:12.6g}  perturbed {moved:12.6g}  move {moved / value - 1.0:+.4f}")
    for _, rounds in sides.values():
        a, f = _tally(rounds)
        attempted, failed = attempted + a, failed + f
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed, "moves": moves}
    _write(f"{workload}-seed{seed}-rounding.json", {**doc, "rounds": {k: v[1] for k, v in sides.items()}})
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="nleig-wide, nleig-tall-lbfgs or certify")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounding", action="store_true", help="measure the effect of a last-bit change of the starts")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    workloads = _import_expen()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.rounding:
        doc = rounding(workloads, args.workload, args.seed, args.seconds)
    else:
        doc = run(workloads, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
