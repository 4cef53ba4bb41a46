"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from adawish.estimator import adawish_from_oracle
from adawish.errors import ParseError, UnsupportedCardinality
from adawish.model import exact_quantiles, gen_grid_ising, log_weight, parse_uai, serialize_uai
from adawish.optbench import gen_geometric_curve, gen_kvalued_curve, synthetic_oracle
from adawish.verify import (
    check_adversarial_pair,
    check_adversarial_stub,
    check_hash_uniformity,
    check_regret,
    check_sandwich,
    check_schedules,
    check_solver_agreement,
    curve_mix,
    xor_coverage,
)

from conftest import model_zoo

BETAS = (1.1, 2.0, 10.0)


def report(name: str, passed: bool, detail: str = ""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def acceptance_models():
    return model_zoo(50, 16, seed=7_2024)


@pytest.fixture(scope="module")
def schedule_check(acceptance_models):
    """Exact-oracle schedules shared by the accuracy and budget criteria, with the check's run time."""
    start = time.monotonic()
    result = check_schedules(acceptance_models, BETAS)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def stub_check():
    """Adaptive runs against the deterministic worst-case neighbor oracle, at beta 2.

    The curves alternate geometric and plateau shapes over random lengths 6..64.
    """
    rng = np.random.default_rng(31)
    curves = []
    for t in range(50):
        n = int(rng.integers(6, 65))
        if t % 2 == 0:
            curves.append(gen_geometric_curve(n, float(rng.uniform(1.0, 3.5))))
        else:
            k = int(rng.integers(2, min(5, n)))
            bps = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            curves.append(gen_kvalued_curve(n, np.cumsum(-rng.uniform(1.0, 40.0, size=k)).tolist(), bps))
    return check_adversarial_stub(curves, beta=2.0)


def test_exact_sandwich_brackets_integral(acceptance_models):
    start = time.monotonic()
    result = check_sandwich(acceptance_models)
    elapsed = time.monotonic() - start
    report(
        "exact quantile sandwich",
        result.passed and elapsed < 60.0,
        f"LB <= W <= UB <= 2LB: {result.detail}, {elapsed:.1f}s",
    )


def test_schedule_accuracy_under_exact_oracle(schedule_check):
    result, elapsed = schedule_check
    report(
        "schedule accuracy (exact oracle)",
        result.passed and elapsed < 120.0,
        f"{result.detail} within factor bounds, {elapsed:.1f}s",
    )


def test_adaptive_accuracy_under_worst_case_neighbor(stub_check):
    report("worst-case neighbor accuracy", stub_check.passed, f"{stub_check.detail} within 2^(2c)*beta")


def test_query_budget_upper_bound(schedule_check, stub_check):
    for result in (schedule_check[0], stub_check):
        if not result.passed:
            report("query budget", False, result.detail)
    flat = gen_kvalued_curve(32, [1.0], [])
    flat_run = adawish_from_oracle(synthetic_oracle(flat, "exact"), 2.0)
    report(
        "query budget",
        flat_run.ledger.distinct_queries == 2,
        f"all runs <= n+1 within range; flat curve used {flat_run.ledger.distinct_queries} queries",
    )


def test_adaptive_query_count_within_regret_budget():
    curves = [
        curve
        for n in (64, 256)
        for curve in curve_mix(50, n, seed=500 + n, max_k=7, drop=(0.5, 25.0), base=30.0, top=(-5, 5))
    ]
    result = check_regret(curves, beta=2.0)
    report("regret budget", result.passed, result.detail)


def test_few_valued_curves_need_logarithmic_queries():
    beta = 2.0
    k = 3
    curves = {n: gen_kvalued_curve(n, [0.0, -9.0, -21.0], [n // 3, (2 * n) // 3]) for n in (64, 256, 1024)}
    regret = check_regret(list(curves.values()), beta)
    if not regret.passed:
        report("few-valued query growth", False, f"regret budget exceeded: {regret.detail}")
    counts = {}
    for n, curve in curves.items():
        counts[n] = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta).ledger.distinct_queries
        if counts[n] >= n / 2:
            report("few-valued query growth", False, f"not sublinear at n={n}: {counts[n]}")
    bound = 3 * k * (math.log2(1024) + 2)
    report(
        "few-valued query growth",
        counts[1024] <= bound,
        f"counts {counts} (n=1024 bound {bound:.0f})",
    )


def test_xor_median_coverage_on_enumerable_grid():
    # NOTE: the 0.9 per-index threshold is structurally unattainable at the
    # top index i=n: a uniformly sampled n x n affine parity system is
    # infeasible with probability ~0.39, so the lower median of T=30
    # constrained maxima is finite (a precondition for landing in the
    # sandwich, whose floor is the positive minimum weight) only with
    # probability ~0.85, independent of the model.  Indices 0..n-1 clear 0.9
    # comfortably, and every index clears the 0.8 that matches the stated
    # per-query failure probability of 0.2.  The criterion is asserted as
    # stated and fails honestly at the boundary index.
    start = time.monotonic()
    freq = xor_coverage(gen_grid_ising(3, 4, coupling_w=1.0, seed=2), c=2, reps=30, seeds=range(200))
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"coverage run took {elapsed:.0f}s"
    detail = (
        f"per-index frequencies {[f'{f:.2f}' for f in freq]} in {elapsed:.0f}s; "
        f"interior >= 0.9: {bool(np.all(freq[:-1] >= 0.9))}, all >= 0.8: {bool(np.all(freq >= 0.8))}"
    )
    report("xor median coverage >= 0.9 per index", bool(np.all(freq >= 0.9)), detail)


def test_lower_bound_construction_matches_closed_forms():
    result = check_adversarial_pair()
    report("worst-case pair closed forms", result.passed, result.detail)


def test_sampled_hash_pairs_are_uniform():
    result = check_hash_uniformity(20000, seed=2024)
    report("pairwise hash uniformity", result.passed, f"{result.detail} (20000 samples)")


def test_adaptive_saves_queries_on_grid_instances():
    beta = 100.0
    counts = []
    for seed in range(10):
        model = gen_grid_ising(4, 4, coupling_w=1.0, seed=seed)
        curve = exact_quantiles(model)
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
        counts.append(result.ledger.distinct_queries)
    full = 17  # n + 1
    counts.sort()
    median = (counts[4] + counts[5]) / 2
    at_sixty = sum(1 for q in counts if q <= 0.6 * full)
    ok = median < full and at_sixty >= 5
    report(
        "adaptive query savings",
        ok,
        f"counts {counts} vs full sweep {full}; median {median}, {at_sixty}/10 at <= 60%",
    )


def test_branch_and_bound_matches_enumeration_exactly():
    result = check_solver_agreement(model_zoo(20, 14, seed=99), 200, 1234)
    report("solver equivalence", result.passed, result.detail)


def test_model_file_parsing_contract():
    fixture = "MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 2 3 4\n"
    model = parse_uai(fixture)
    golden = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0}
    for (x0, x1), w in golden.items():
        if not math.isclose(math.exp(log_weight(model, [x0, x1])), w, rel_tol=1e-12):
            report("model file contract", False, f"fixture weight {(x0, x1)}")

    rng = np.random.default_rng(55)
    models = model_zoo(20, 16, seed=44)
    for original in models:
        back = parse_uai(serialize_uai(original))
        for _ in range(25):
            bits = [int(b) for b in rng.integers(0, 2, size=original.n)]
            if abs(log_weight(back, bits) - log_weight(original, bits)) > 1e-9:
                report("model file contract", False, f"round trip drift on {original.name}")

    for text, expected_line in (
        ("MARKOV\n2\n2 3\n0\n", 3),
        ("MARKOV\nbogus\n", 2),
        ("MARKOV\n1\n2\n1\n1 0\n2\n1 -2\n", 7),
    ):
        try:
            parse_uai(text)
        except (UnsupportedCardinality, ParseError) as exc:
            if exc.line != expected_line:
                report("model file contract", False, f"wrong line {exc.line} != {expected_line}")
        else:
            report("model file contract", False, "malformed input accepted")
    report(
        "model file contract",
        True,
        "golden fixture, 20 round trips at 1e-9, line-numbered errors",
    )
