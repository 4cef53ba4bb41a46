"""Self-test of the benchmark itself, not of the program.

    python3 perfbench/selftest.py

1. Every metric BENCHMARK.json names is emitted with its unit, by an untraced
   and by a traced run of each workload, and layers.json maps exactly the
   per-layer metrics.
2. The gate flags a deliberately wrong estimate: an exact oracle whose every
   answer is shifted by ln 10.
3. Two runs with the same seed give identical counts and estimates.

Runs are one round each, and xor-deep uses its grid instance only, so the
whole test takes about two minutes.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run

DEEP_GRID = ("grid:4x4:w=1.0:seed=0",)


def check_emission(spec: dict) -> None:
    from workloads import WORKLOADS

    names = {w["name"] for w in spec["workloads"]}
    assert names == set(WORKLOADS) == set(run.WORKLOAD_NAMES), "workload lists disagree"
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        layers = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(layers["per_layer"]) == per_layer, "layers.json and BENCHMARK.json disagree"
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for w in spec["workloads"]:
            instances = DEEP_GRID if w["name"] == "xor-deep" else None
            report = run.run(w["name"], seed=0, seconds=0, trace=trace, instances=instances, rounds=[0])
            assert report["failed"] == 0, (w["name"], report["failures"])
            for m in listed:
                got = report["metrics"].get(m["name"])
                assert got is not None, f"{w['name']}: {m['name']} not emitted"
                assert got["unit"] == m["unit"], f"{w['name']}: {m['name']} in {got['unit']}"
                assert math.isfinite(got["value"]), f"{w['name']}: {m['name']} = {got['value']}"
            print(f"ok  {w['name']} emits every {'per-layer' if trace else 'end-to-end'} metric")


def check_gate() -> None:
    import adawish.oracle
    from workloads import CurveCell, CurveExact

    class ShiftedOracle(adawish.oracle.ExactCurveOracle):
        def _compute(self, i):
            return super()._compute(i) + math.log(10.0)

    workload = CurveExact(0, run.OUT, instances=DEEP_GRID)
    workload.setup()
    workload.prepare()
    ref = workload.refs[DEEP_GRID[0]]
    for schedule, beta in (("wish", None), ("adawish", 2.0)):
        cell = CurveCell(DEEP_GRID[0], "exact", schedule, beta)
        honest = workload.estimate(cell, adawish.oracle.ExactCurveOracle(ref.curve), ref)
        assert not honest.failures, honest.failures
        shifted = workload.estimate(cell, ShiftedOracle(ref.curve), ref)
        assert any("bracket" in f for f in shifted.failures), f"{cell.name}: shift not flagged"
    print("ok  gate flags an oracle shifted by ln 10")


def check_determinism(spec: dict) -> None:
    from workloads import WORKLOADS

    for w in spec["workloads"]:
        instances = DEEP_GRID if w["name"] == "xor-deep" else None
        keys = []
        for _ in range(2):
            workload = WORKLOADS[w["name"]](7, run.OUT, instances)
            workload.setup()
            workload.prepare()
            keys.append([e.key() for e in workload.run_round(3)])
        assert keys[0] == keys[1], f"{w['name']}: same seed, different results"
        print(f"ok  {w['name']} repeats counts and estimates under one seed")


def main() -> int:
    run._load_program()
    spec = run._spec()
    check_gate()
    check_determinism(spec)
    check_emission(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
