"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py --base ../parent --change . --out BENCH.json \
        --seeds 931 932 933 934 935 936 937 938 939 940 --seconds 10

For each workload and each seed, `perfbench/run.py --trace 0` runs once in
each checkout, as it is there, each in its own process; pair i runs the base
first when i is even and the change first when it is odd.  The output file
holds every run's gated metrics (the `end_to_end` list of the change's
BENCHMARK.json) and failure counts, and per workload and metric each side's
median and quartiles, the pairs the change won (ties count for neither),
and whether that is a gain: wins in at least nine tenths of the pairs and
medians apart, in the better direction, by more than the distance between
the base's quartiles.  It also records the seeds, both checkouts' commits
and source trees, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def _git(checkout: str, *args: str) -> str:
    return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True, check=True).stdout.strip()


def describe(checkout: str) -> dict:
    """The checkout's commit, the tree of its src/, and whether its files differ from the commit."""
    return {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "src_tree": _git(checkout, "rev-parse", "HEAD:src"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: the JSON object on its last line of output, with the environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = [line.split(" ", 2)[2] for line in lines if line.startswith("# environment ")]
    result["environment"] = json.loads(env[0]) if env else None
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], gated: list[dict]) -> dict:
    """Per gated metric: each side's median and quartiles, the change's wins, and whether they make a gain."""
    out = {}
    for metric in gated:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
        b, c = spread(base), spread(change)
        gain = wins >= math.ceil(WIN_SHARE * len(pairs)) and sign * (b["median"] - c["median"]) > b["q3"] - b["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "change": c, "change_wins": wins, "pairs": len(pairs), "gain": gain,
            "median_ratio": c["median"] / b["median"] if b["median"] else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of every run")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    gated = spec["end_to_end"]
    sides = {"base": args.base, "change": args.change}
    report = {
        "harness": "perfbench/run.py --trace 0, unchanged in each checkout",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "order": "pair i runs the base first when i is even, the change first when it is odd",
        "base": describe(args.base),
        "change": describe(args.change),
        "environment": {"platform": platform.platform(), "cpu_count": os.cpu_count()},
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{m['name']}={pair[side]['metrics'][m['name']]['value']:.4g}" for m in gated
                ) + f", failed {pair[side]['failed']}/{pair[side]['attempted']}", flush=True)
            pairs.append(pair)
        report["environment"].setdefault("run", pairs[0]["base"]["environment"])
        report["workloads"][workload] = {
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in sides},
            "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in sides},
            "metrics": summarise(pairs, gated),
            "pairs": [
                {"seed": p["seed"], "first": p["first"],
                 **{side: {m["name"]: p[side]["metrics"][m["name"]]["value"] for m in gated}
                    | {"failed": p[side]["failed"], "attempted": p[side]["attempted"]} for side in sides}}
                for p in pairs
            ],
        }
        with open(args.out, "w") as fh:  # rewritten after each workload, so a cut run keeps what finished
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
