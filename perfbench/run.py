"""Layered benchmark for adawish: one workload per run, in one process and thread.

    python3 perfbench/run.py --workload xor-shallow --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/layers.json):

* xor-shallow -- neighbor oracle on n=12 models, c=2, T=30;
* xor-deep    -- ``adawish estimate`` in-process on n=16 models, c=2, T=5;
* curve-exact -- schedules and OPT on exact, pointwise and stub oracles over
  known curves, with no MAP solve.

With ``--trace 0`` the run measures end-to-end metrics with tracing off.
With ``--trace 1`` it runs the same rounds twice, untraced and then traced,
and reports per-layer metrics plus the tracing overhead.  Every estimate is
checked against exact enumeration; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and the full report are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: the benchmark is one thread.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"
# the CLI lets this variable override --seed; the benchmark chooses seeds itself
os.environ.pop("ADAWISH_SEED", None)

import argparse
import itertools
import json
import math
import platform
import resource
import statistics
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_CAL_SHARE = 0.3  # set-up phases are short; calibrate them more densely
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
WORKLOAD_NAMES = ("xor-shallow", "xor-deep", "curve-exact")


def _load_program():
    """Import the package from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "adawish", "__init__.py")):
        sys.exit(f"error: no adawish sources under {SRC}")
    sys.path.insert(0, SRC)
    import adawish

    if not os.path.abspath(adawish.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: adawish imported from {adawish.__file__}, not {SRC}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def cell_p50(estimates) -> float:
    """Geometric mean over cells of each cell's median estimate time.

    Every cell weighs the same however many of its estimates a run completes,
    so the figure does not jump between cells of very different cost.
    """
    by_cell: dict[str, list[float]] = {}
    for e in estimates:
        if not e.failures:
            by_cell.setdefault(e.cell, []).append(e.seconds)
    logs = [math.log(statistics.median(v)) for v in by_cell.values()]
    return math.exp(statistics.fmean(logs))


def cell_summary(estimates) -> dict:
    """Per cell: estimate count, median seconds, mean distinct queries and MAP calls."""
    by_cell: dict[str, list] = {}
    for e in estimates:
        by_cell.setdefault(e.cell, []).append(e)
    return {
        cell: {
            "estimates": len(es),
            "median_s": statistics.median(e.seconds for e in es),
            "distinct": statistics.fmean(e.distinct for e in es),
            "map_calls": statistics.fmean(e.map_calls for e in es),
        }
        for cell, es in by_cell.items()
    }


def tail(seconds: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    values = sorted(seconds)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(values))
        if rank >= 1 and len(values) - rank >= TAIL_MIN_BEYOND:
            return {"value": values[rank - 1], "unit": "s", "percentile": p, "samples": len(values)}
    return None


def timed_setup(workload, calibrator) -> float:
    times = []
    began = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - began < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        calibrator.pace(times[-1])
    return statistics.median(times)


def run_rounds(workload, seconds: float, rounds=None):
    """The given rounds, or whole rounds until `seconds` have passed (at least one)."""
    estimates = []
    done = []
    t0 = time.perf_counter()
    for r in rounds if rounds is not None else itertools.count():
        estimates += workload.run_round(r)
        done.append(r)
        if rounds is None and time.perf_counter() - t0 >= seconds:
            break
    return estimates, done


def end_to_end(estimates, setup_s: float, extras: dict, setup_cal, estimate_cal) -> dict:
    """Gated timings at the calibrated reference speed; the rest as measured."""
    ok = [e for e in estimates if not e.failures]
    timed = sum(e.seconds for e in ok)
    adaptive = [e for e in ok if e.schedule == "adawish"]
    neighbor = [e for e in ok if e.neighbor_queries]
    errors = [e.log10_err for e in ok if e.log10_err is not None]
    p50 = cell_p50(ok)
    m = {
        "setup_s": (setup_s * setup_cal.scale(), "s"),
        "estimate_s.p50": (p50 * estimate_cal.scale(), "s"),
        "setup_s.raw": (setup_s, "s"),
        "estimate_s.p50.raw": (p50, "s"),
        "calibration.setup_slice_ms": (setup_cal.slice_s() * 1e3, "ms"),
        "calibration.estimate_slice_ms": (estimate_cal.slice_s() * 1e3, "ms"),
        "estimates_per_s": (len(ok) / timed, "1/s"),
        "map_calls_per_estimate": (statistics.fmean(e.map_calls for e in ok), "count"),
        "query_fraction": (statistics.fmean(e.distinct / (e.n + 1) for e in adaptive), "ratio"),
        "regret_ratio": (max(e.regret_ratio for e in adaptive), "ratio"),
        "log10_err.max": (max(errors), "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if neighbor:
        covered = sum(e.covered for e in neighbor) / sum(e.neighbor_queries for e in neighbor)
        m["coverage_frac"] = (covered, "ratio")
    if "opt_s" in extras:
        m["opt_s"] = (extras["opt_s"], "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, instances=None, rounds=None) -> dict:
    """One benchmark run; returns the full report (see the module docstring)."""
    from calibrate import Calibrator
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[workload_name](seed, OUT, instances)
    setup_cal = Calibrator(SETUP_CAL_SHARE)
    setup_s = timed_setup(workload, setup_cal)
    workload.prepare()
    extras, opt_checks = workload.opt_pass()
    if "opt_size" not in extras:
        extras["opt_size"] = statistics.fmean(
            ref.opt_size[2 * workload.beta] for ref in workload.refs
        )
    workload.warmup()
    estimate_cal = workload.calibrator = Calibrator()
    budget = seconds / 2 if trace else seconds
    estimates, done = run_rounds(workload, budget, rounds)
    report = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    report["cells"] = cell_summary(estimates)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            workload.setup()
            workload.opt_pass()
            traced_cal = workload.calibrator = Calibrator()
            traced, _ = run_rounds(workload, budget, done)
        finally:
            tracer.remove()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{workload_name}-s{seed}.npz"))
        layers = layer_metrics(tracer, traced, extras)
        replayed = {(e.cell, e.master) for e in traced}
        untraced = [e for e in estimates if (e.cell, e.master) in replayed]
        # each half at the reference speed, so a host slow-down between them cancels
        layers["trace.overhead"] = (cell_p50(traced) * traced_cal.scale()) / (
            cell_p50(untraced) * estimate_cal.scale()
        )
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        report["metrics"] = {k: {"value": v, "unit": units.get(k, "")} for k, v in layers.items()}
        estimates = estimates + traced
    else:
        report["metrics"] = end_to_end(estimates, setup_s, extras, setup_cal, estimate_cal)
        spread = tail([e.seconds for e in estimates if not e.failures])
        if spread is not None:
            report["metrics"]["estimate_s.tail"] = spread
    failures = [e.failures for e in estimates] + opt_checks
    report["attempted"] = len(failures)
    report["failed"] = sum(1 for f in failures if f)
    report["metrics"]["failed_frac"] = {"value": report["failed"] / report["attempted"], "unit": "ratio"}
    report["failures"] = sorted({reason for f in failures for reason in f})[:20]
    report["rounds"] = len(done)
    report["estimates"] = len(estimates)
    env["loadavg_end"] = list(os.getloadavg())
    report["environment"] = env
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    spec = _spec()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for name, metric in report["metrics"].items():
        extra = f"  (p{metric['percentile']:g} of {metric['samples']})" if "percentile" in metric else ""
        print(f"{args.workload}  {name}  {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"# environment {json.dumps(report['environment'])}")
    for reason in report["failures"]:
        print(f"# failure: {reason}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
