"""The benchmark harness in perfbench/ still binds to the program.

perfbench rebinds and calls program names by their module paths
(`adawish.oracle.map_solve`, `adawish.cli.wish_estimate`, ...); a renamed
one would otherwise show up only in a benchmark run.  These tests import the
harness as it stands and change nothing in it.
"""

import os
import sys

import pytest

from adawish.oracle import sweep_depth

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_finds_every_name_it_rebinds(harness):
    tracing, _ = harness
    tracer = tracing.Tracer()
    tracer.install()  # getattr on a missing name raises here
    try:
        patches = list(tracer._patches)
        assert len(patches) == 24
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)


def test_capture_rebinds_and_restores_the_cli_schedules(harness):
    _, workloads = harness
    import adawish.cli

    names = workloads._Capture.NAMES
    originals = [getattr(adawish.cli, name) for name in names]
    with workloads._Capture():
        assert all(getattr(adawish.cli, name) is not fn for name, fn in zip(names, originals))
    assert [getattr(adawish.cli, name) for name in names] == originals


def test_xor_shallow_round_passes_its_gate(harness, tmp_path):
    _, workloads = harness
    workload = workloads.XorShallow(3, str(tmp_path))
    workload.setup()
    workload.prepare()
    estimates = workload.run_round(0)
    assert len(estimates) == 2 * len(workload.specs)
    assert [e.failures for e in estimates] == [[]] * len(estimates)


def test_curve_exact_setup_binds(harness, tmp_path):
    _, workloads = harness
    workload = workloads.CurveExact(3, str(tmp_path))
    workload.setup()
    assert set(workload.specs) <= set(workload.curves)


def test_curve_exact_round_passes_its_gate(harness, tmp_path):
    # on a bare curve the reference is the sandwich's lower end and the
    # exact-oracle sweep reads its upper end, so the gate checks that the
    # two lie within a factor 2
    _, workloads = harness
    workload = workloads.CurveExact(3, str(tmp_path))
    workload.setup()
    workload.prepare()
    estimates = workload.run_round(0)
    assert len(estimates) == len(workload.cells)
    assert [e.failures for e in estimates] == [[]] * len(estimates)
    _, checks = workload.opt_pass()
    assert checks and checks == [[]] * len(checks)


def test_xor_deep_rounds_pass_their_gate(harness, tmp_path):
    # rounds alternate between the two instances, so rounds 0 and 1 run both
    # through `adawish.cli.main` in-process
    _, workloads = harness
    workload = workloads.XorDeep(3, str(tmp_path))
    workload.setup()
    workload.prepare()
    estimates = workload.run_round(0) + workload.run_round(1)
    cells = sorted(f"{spec}/{schedule}" for spec in workload.specs for schedule in ("wish", "adawish"))
    assert sorted(e.cell for e in estimates) == cells
    assert [e.failures for e in estimates] == [[]] * len(estimates)


def test_traced_xor_shallow_round_sees_every_solve(harness, tmp_path):
    # every solve, inconsistent prefixes included, goes through
    # `adawish.oracle.map_solve` with an argument that has .m and .cols, so
    # the tracer's solve count is the ledgers'.  `XorOracle` sweeps indices
    # n - K .. n (K = 8 at T = 30) with no solve, so each band that holds an
    # index below n - K has nodes.  The workload's n = 12 models are scanned
    # and leave the solver almost nothing, so the round runs on n = 14 ones
    tracing, workloads = harness
    instances = ("grid:2x7:w=1.0:seed=2", "clique:n=14:w=0.1:seed=0")
    workload = workloads.XorShallow(3, str(tmp_path), instances=instances)
    workload.setup()
    workload.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
        estimates = workload.run_round(0)
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics(tracer, estimates, {"opt_size": 0})
    assert metrics["oracle.map_solve.calls"] == sum(e.map_calls for e in estimates) / len(estimates)
    n = 14
    solved = {tracing.band_of(i, n) for i in range(n - sweep_depth(n, workload.T))}
    assert solved == {0, 1}
    assert all(metrics[f"oracle.map_solve.band{b}.nodes"] > 0 for b in solved)


def test_traced_xor_shallow_round_sees_each_parity_draw(harness, tmp_path):
    # each estimate builds one `XorOracle`, which draws its T systems in one
    # call of `adawish.oracle.sample_parity_system`, the name the tracer spans
    tracing, workloads = harness
    workload = workloads.XorShallow(3, str(tmp_path))
    workload.setup()
    workload.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
        estimates = workload.run_round(0)
    finally:
        tracer.remove()
    draws = tracer.arrays()["name_id"] == tracer._codes["oracle.sample_parity_system"]
    assert len(estimates) == 4
    assert draws.sum() == len(estimates)
