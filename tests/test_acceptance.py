"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from adawish import gf2
from adawish.estimator import adawish_from_oracle, sandwich_bounds, wish_from_oracle
from adawish.errors import ParseError, UnsupportedCardinality
from adawish.logspace import LN2
from adawish.model import (
    exact_log_partition,
    exact_quantiles,
    gen_grid_ising,
    log_weight,
    parse_uai,
    serialize_uai,
)
from adawish.optbench import (
    compute_opt,
    gen_adversarial_pair,
    gen_geometric_curve,
    gen_kvalued_curve,
    regret_bound,
    synthetic_oracle,
)
from adawish.oracle import (
    MapSolver,
    OracleConfig,
    QueryLedger,
    XorOracle,
    sample_parity_system,
)
from adawish.seeds import rng_from
from adawish.verify import check_solver_agreement

from conftest import model_zoo

BETAS = (1.1, 2.0, 10.0)


def report(name: str, passed: bool, detail: str = ""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def acceptance_models():
    return model_zoo(50, 16, seed=7_2024)


@pytest.fixture(scope="module")
def model_curves(acceptance_models):
    return [exact_quantiles(m) for m in acceptance_models]


@pytest.fixture(scope="module")
def model_truths(acceptance_models):
    return [exact_log_partition(m) for m in acceptance_models]


def synthetic_curve_suite(count, n, seed):
    """Plateau and geometric mixes used by the schedule/regret criteria."""
    rng = np.random.default_rng(seed)
    curves = []
    for t in range(count):
        if t % 2 == 0:
            k = int(rng.integers(2, 7))
            bps = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            vals = (np.cumsum(-rng.uniform(0.5, 25.0, size=k)) + 30.0).tolist()
            curves.append(gen_kvalued_curve(n, vals, bps))
        else:
            curves.append(
                gen_geometric_curve(n, float(rng.uniform(1.01, 4.0)), top=float(rng.uniform(-5, 5)))
            )
    return curves


@pytest.fixture(scope="module")
def schedule_runs(acceptance_models, model_curves, model_truths):
    """Exact-oracle schedule results shared by the accuracy and budget criteria."""
    runs = []
    for model, curve, log_w in zip(acceptance_models, model_curves, model_truths):
        sweep = wish_from_oracle(synthetic_oracle(curve, "exact"))
        runs.append(("wish", None, model.n, log_w, sweep))
        for beta in BETAS:
            adaptive = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
            runs.append(("adawish", beta, model.n, log_w, adaptive))
    return runs


@pytest.fixture(scope="module")
def stub_runs():
    """Adaptive runs against the deterministic worst-case neighbor oracle."""
    rng = np.random.default_rng(31)
    beta = 2.0
    runs = []
    for t in range(50):
        n = int(rng.integers(6, 65))
        if t % 2 == 0:
            curve = gen_geometric_curve(n, float(rng.uniform(1.0, 3.5)))
        else:
            k = int(rng.integers(2, min(5, n)))
            bps = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            vals = np.cumsum(-rng.uniform(1.0, 40.0, size=k)).tolist()
            curve = gen_kvalued_curve(n, vals, bps)
        implied, _ = sandwich_bounds(curve)
        for c in (2, 3):
            for policy in ("always_upper", "always_lower", "seeded"):
                oracle = synthetic_oracle(curve, "neighbor-stub", c=c, policy=policy, seed=t)
                result = adawish_from_oracle(oracle, beta)
                runs.append((n, c, policy, beta, implied, result))
    return runs


def test_exact_sandwich_brackets_integral(acceptance_models, model_curves, model_truths):
    start = time.monotonic()
    tol = 1e-9
    worst = 0.0
    for model, curve, log_w in zip(acceptance_models, model_curves, model_truths):
        lo, up = sandwich_bounds(curve)
        ok = lo <= log_w + tol and log_w <= up + tol and up <= lo + LN2 + tol
        worst = max(worst, up - lo - LN2)
        if not ok:
            report("exact quantile sandwich", False, f"violated on {model.name}")
    elapsed = time.monotonic() - start
    report(
        "exact quantile sandwich",
        elapsed < 60.0,
        f"LB <= W <= UB <= 2LB on {len(acceptance_models)} models, {elapsed:.1f}s",
    )


def test_schedule_accuracy_under_exact_oracle(schedule_runs):
    start = time.monotonic()
    tol = 1e-9
    for schedule, beta, n, log_w, result in schedule_runs:
        err = abs(result.log_w - log_w)
        bound = LN2 + tol if schedule == "wish" else math.log(2 * beta) + tol
        if err > bound:
            report(
                "schedule accuracy (exact oracle)",
                False,
                f"{schedule} beta={beta} err={err:.3g} > {bound:.3g}",
            )
    elapsed = time.monotonic() - start
    report(
        "schedule accuracy (exact oracle)",
        elapsed < 120.0,
        f"{len(schedule_runs)} runs within factor bounds, {elapsed:.1f}s",
    )


def test_adaptive_accuracy_under_worst_case_neighbor(stub_runs):
    tol = 1e-9
    for n, c, policy, beta, implied, result in stub_runs:
        bound = 2 * c * LN2 + math.log(beta) + tol
        if abs(result.log_w - implied) > bound:
            report(
                "worst-case neighbor accuracy",
                False,
                f"n={n} c={c} {policy}: err {abs(result.log_w - implied):.3g} > {bound:.3g}",
            )
    report(
        "worst-case neighbor accuracy",
        True,
        f"{len(stub_runs)} runs within 2^(2c)*beta",
    )


def test_query_budget_upper_bound(schedule_runs, stub_runs):
    for schedule, beta, n, _, result in schedule_runs:
        ok = (
            result.ledger.distinct_queries <= n + 1
            and result.ledger.queried_indices() <= set(range(n + 1))
        )
        if not ok:
            report("query budget", False, f"{schedule} beta={beta} n={n}")
    for n, c, policy, beta, _, result in stub_runs:
        ok = (
            result.ledger.distinct_queries <= n + 1
            and result.ledger.queried_indices() <= set(range(n + 1))
        )
        if not ok:
            report("query budget", False, f"stub c={c} {policy} n={n}")
    flat = gen_kvalued_curve(32, [1.0], [])
    flat_run = adawish_from_oracle(synthetic_oracle(flat, "exact"), 2.0)
    report(
        "query budget",
        flat_run.ledger.distinct_queries == 2,
        f"all runs <= n+1 within range; flat curve used {flat_run.ledger.distinct_queries} queries",
    )


def test_adaptive_query_count_within_regret_budget():
    beta = 2.0
    violations = 0
    total = 0
    for n in (64, 256):
        for curve in synthetic_curve_suite(50, n, seed=500 + n):
            result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
            # exhaustive certification is out of reach at these sizes, so the
            # (not smaller) greedy optimum feeds the budget
            opt = compute_opt(curve, kappa=2 * beta, method="greedy")
            budget = regret_bound(opt.opt_size, n)
            total += 1
            violations += result.ledger.distinct_queries > budget
    report(
        "regret budget",
        violations == 0,
        f"{total} curves at n in (64, 256), {violations} violations",
    )


def test_few_valued_curves_need_logarithmic_queries():
    beta = 2.0
    k = 3
    counts = {}
    for n in (64, 256, 1024):
        curve = gen_kvalued_curve(n, [0.0, -9.0, -21.0], [n // 3, (2 * n) // 3])
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
        counts[n] = result.ledger.distinct_queries
        opt = compute_opt(curve, kappa=2 * beta, method="greedy")
        if result.ledger.distinct_queries > regret_bound(opt.opt_size, n):
            report("few-valued query growth", False, f"regret budget exceeded at n={n}")
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
    model = gen_grid_ising(3, 4, coupling_w=1.0, seed=2)
    curve = exact_quantiles(model)
    n, c, reps, seeds = model.n, 2, 30, 200
    solver = MapSolver()
    hits = np.zeros(n + 1, dtype=np.int64)
    for s in range(seeds):
        config = OracleConfig(kind="neighbor", c=c, T=reps, master_seed=s)
        oracle = XorOracle(model, config, solver, QueryLedger())
        for i in range(n + 1):
            m = oracle.query(i)
            if curve[min(i + c, n)] - 1e-12 <= m <= curve[max(i - c, 0)] + 1e-12:
                hits[i] += 1
    elapsed = time.monotonic() - start
    freq = hits / seeds
    assert elapsed < 600.0, f"coverage run took {elapsed:.0f}s"
    detail = (
        f"per-index frequencies {[f'{f:.2f}' for f in freq]} in {elapsed:.0f}s; "
        f"interior >= 0.9: {bool(np.all(freq[:-1] >= 0.9))}, all >= 0.8: {bool(np.all(freq >= 0.8))}"
    )
    report("xor median coverage >= 0.9 per index", bool(np.all(freq >= 0.9)), detail)


def test_lower_bound_construction_matches_closed_forms():
    ratios = []
    for n in (64, 256, 1024):
        pair = gen_adversarial_pair(n, 2.0)
        for brute, closed in (
            (pair.w1_brute_force, pair.w1_closed_form),
            (pair.w2_brute_force, pair.w2_closed_form),
        ):
            if abs(brute - closed) > 1e-9 * abs(closed):
                report("worst-case pair closed forms", False, f"n={n}: {brute} != {closed}")
        ratios.append(pair.w2_brute_force / pair.w1_brute_force)
    ok = ratios == sorted(ratios) and all(r < 4.0 for r in ratios)
    report(
        "worst-case pair closed forms",
        ok,
        f"ratios {[f'{r:.4f}' for r in ratios]} increasing toward 4",
    )


def test_sampled_hash_pairs_are_uniform():
    n, m, samples = 8, 3, 20000
    x1, x2 = 0b10110001, 0b01110010
    rng = rng_from(2024, 0xA5)
    counts = np.zeros((1 << m, 1 << m), dtype=np.int64)
    for _ in range(samples):
        system = sample_parity_system(n, m, rng)
        d = gf2.pack_bits(list(system.rhs))
        h1 = gf2.evaluate(system, x1) ^ d
        h2 = gf2.evaluate(system, x2) ^ d
        counts[h1, h2] += 1
    tv = 0.5 * float(np.abs(counts / samples - 1.0 / counts.size).sum())
    report(
        "pairwise hash uniformity",
        tv <= 0.03,
        f"total variation {tv:.4f} over {counts.size} cells ({samples} samples)",
    )


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
