"""Self-check suites surfaced by the `verify` CLI command.

Each check exercises one of the library's core contracts at desk scale and
returns a (name, passed, detail) row.  The fast level keeps models at n <= 12
and finishes in seconds; the full level raises sizes to n <= 16 and adds the
statistical checks (hash uniformity, randomized query coverage).  The
references the checks and the test suite share live here too: the model zoo
and `reference_map`, the coset enumeration that `map_solve` is compared
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import TooLarge
from .estimator import adawish_from_oracle, sandwich_bounds, wish_from_oracle
from .logspace import LN2, NEG_INF, log_sum_exp
from .model import (
    BLOCK_BITS,
    ENUMERATION_LIMIT,
    Factor,
    WeightedModel,
    exact_log_partition,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
    log_weights_at,
)
from .optbench import compute_opt, gen_adversarial_pair, regret_bound, synthetic_oracle
from .oracle import (
    MapResult,
    OracleConfig,
    XorOracle,
    map_solve,
    sample_parity_system,
)
from .seeds import rng_from

_ENUM_BLOCK = 1 << BLOCK_BITS
_MASK_BITS = 62  # enumerated assignments are int64 bitmasks


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_factor_model(n: int, rng: np.random.Generator, max_arity: int = 3) -> WeightedModel:
    n_factors = int(rng.integers(n, 2 * n + 1))
    factors = []
    for _ in range(n_factors):
        arity = int(rng.integers(1, min(max_arity, n) + 1))
        scope = tuple(int(v) for v in rng.choice(n, size=arity, replace=False))
        factors.append(Factor(scope, rng.normal(0.0, 1.5, size=1 << arity)))
    return WeightedModel(n, tuple(factors), name=f"random-n{n}")


def model_zoo(count: int, max_n: int, seed: int) -> list[WeightedModel]:
    """Deterministic mix of clique, grid, and random-factor models with n <= max_n."""
    rng = np.random.default_rng(seed)
    models = []
    for k in range(count):
        family = k % 3
        if family == 0:
            n = int(rng.integers(4, min(11, max_n) + 1))
            models.append(gen_clique_ising(n, coupling_w=0.1, seed=int(rng.integers(0, 2**31))))
        elif family == 1:
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(2, 5))
            while rows * cols > max_n:
                cols = max(2, cols - 1) if cols > 2 else cols
                rows = max(2, rows - 1)
            models.append(
                gen_grid_ising(rows, cols, coupling_w=float(rng.uniform(0.2, 1.5)),
                               seed=int(rng.integers(0, 2**31)))
            )
        else:
            models.append(random_factor_model(int(rng.integers(4, max_n + 1)), rng))
    return models


def reference_map(model: WeightedModel, system: gf2.Gf2System) -> MapResult:
    """Constrained MAP by enumerating the solution coset: the reference for `map_solve`.

    Exact; takes up to 24 free variables (n - rank) over at most 62 variables.
    """
    reduced = gf2.row_reduce(system)
    if not reduced.consistent:
        return MapResult(NEG_INF, None, exact=True, feasible=False)
    free = model.n - reduced.rank
    if free > ENUMERATION_LIMIT or model.n > _MASK_BITS:
        raise TooLarge(
            f"enumeration limited to {ENUMERATION_LIMIT} free variables over n <= {_MASK_BITS},"
            f" got {free} free over n={model.n}"
        )
    sols = np.array([reduced.particular_solution()], dtype=np.int64)
    for vec in reduced.null_basis():
        sols = np.concatenate([sols, sols ^ np.int64(vec)])
    best_val = NEG_INF
    best_idx = None
    for start in range(0, sols.size, _ENUM_BLOCK):
        block = sols[start : start + _ENUM_BLOCK]
        w = log_weights_at(model, block)
        k = int(np.argmax(w))
        if w[k] > best_val:
            best_val = float(w[k])
            best_idx = int(block[k])
    return MapResult(best_val, best_idx, exact=True, feasible=True, nodes=int(sols.size))


def check_enumeration_agreement(models: list[WeightedModel], widths) -> CheckResult:
    """`CompiledModel.blocks` and `exact_log_partition` match the per-point evaluator exactly.

    For each width the concatenated blocks, each copied before the next is
    drawn (the blocks share one buffer), and the table that `blocks` fills
    through `out=` must both equal `log_weights_at` over every bitmask under
    `np.array_equal` (so -inf entries sit at the same positions), and
    `exact_log_partition` must equal the log-sum-exp of that reference's
    per-block log-sum-exps.
    """
    for model in models:
        ref = log_weights_at(model, np.arange(1 << model.n))
        for w in widths:
            if not np.array_equal(np.concatenate([b.copy() for b in model.compiled.blocks(w)]), ref):
                return CheckResult("enumeration agreement", False, f"{model.name}: blocks at width {w}")
            filled = np.full(ref.size, np.nan)
            for _ in model.compiled.blocks(w, out=filled):
                pass
            if not np.array_equal(filled, ref):
                return CheckResult("enumeration agreement", False, f"{model.name}: out= fill at width {w}")
        partials = [log_sum_exp(ref[s : s + _ENUM_BLOCK]) for s in range(0, ref.size, _ENUM_BLOCK)]
        if exact_log_partition(model) != log_sum_exp(partials):
            return CheckResult("enumeration agreement", False, f"{model.name}: exact_log_partition")
    return CheckResult("enumeration agreement", True, f"{len(models)} models x widths {tuple(widths)}")


def check_window_agreement(models: list[WeightedModel]) -> CheckResult:
    """Every table of `CompiledModel.windows` equals `completed` over its window exactly.

    A group's table must cover its scopes (lo at or below each scope
    variable, mask + 1 entries) and entry k must equal completed(v, k << lo)
    for every k <= mask under `np.array_equal`, with equal sign bits, so
    -inf and signed-zero entries sit where `completed` puts them.  Groups past
    the size caps score through `completed` itself and have no table.
    """
    tables = 0
    for model in models:
        compiled = model.compiled
        for v, (lo, mask, table) in enumerate(compiled.windows):
            if not isinstance(table, memoryview):
                continue
            keys = np.arange(mask + 1, dtype=np.int64)
            if v < 63:
                ref = compiled.completed(v, keys << lo)
            else:  # the masks outgrow int64; completed takes Python ints too
                ref = [compiled.completed(v, int(k) << lo) for k in keys]
            ref = np.broadcast_to(np.asarray(ref, dtype=float), keys.shape)
            got = np.array(table)
            covered = all(lo <= min(scope) for scope, _ in compiled.groups[v])
            if not (
                covered
                and np.array_equal(got, ref)
                and np.array_equal(np.signbit(got), np.signbit(ref))
            ):
                return CheckResult("window agreement", False, f"{model.name}: group {v}")
            tables += 1
    return CheckResult("window agreement", True, f"{tables} window tables over {len(models)} models")


def check_cost_to_go(models: list[WeightedModel]) -> CheckResult:
    """No bound of `CompiledModel.branch_tables` falls below a leaf it covers.

    For every assignment x and every variable v, the search's child at v
    scores prefix_v(x) = const + completed(0, x) + ... + completed(v, x)
    (left to right, as the search adds) and adds bound_v at that child's
    window key.  That sum must be >= log w(x): each x is a leaf below the
    child, and two assignments that agree on bits 0..v share the child, its
    prefix and its key.  So every frontier assignment of every level is
    checked against every completion, in the float sums the search forms.
    """
    levels = 0
    for model in models:
        compiled = model.compiled
        xs = np.arange(1 << model.n, dtype=np.int64)
        leaf = log_weights_at(model, xs)
        prefix = np.full(xs.shape, compiled.const)
        for v, (lo, mask, _, bound) in enumerate(compiled.branch_tables):
            prefix = prefix + compiled.completed(v, xs)
            keys, at = np.unique((xs >> lo) & mask, return_inverse=True)
            covered = prefix + np.array([bound[int(k)] for k in keys])[at]
            below = np.flatnonzero(~(covered >= leaf))
            if below.size:
                return CheckResult("cost-to-go bound", False, f"{model.name}: group {v} at x={below[0]}")
            levels += 1
    return CheckResult("cost-to-go bound", True, f"{levels} levels over {len(models)} models")


def check_gf2_counts(trials: int = 25, seed: int = 11) -> CheckResult:
    """Rank-based solution counts match brute-force enumeration.

    Each reduced system must also be in the form the solver relies on:
    pivots ascend, each is its row's highest set bit, and no other row has
    it set.
    """
    rng = np.random.default_rng(seed)
    for t in range(trials):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, n + 2))
        system = sample_parity_system(n, m, rng)
        reduced = gf2.row_reduce(system)
        pivot_bits = sum(1 << p for p in reduced.pivots)
        if not (
            list(reduced.pivots) == sorted(set(reduced.pivots))
            and all(
                row.bit_length() - 1 == p and row & pivot_bits == 1 << p
                for row, p in zip(reduced.rows, reduced.pivots)
            )
        ):
            return CheckResult("gf2 solution counts", False, f"trial {t}: not in reduced echelon form")
        brute = sum(1 for x in range(1 << n) if gf2.satisfies(system, x))
        if brute != reduced.solution_count:
            return CheckResult("gf2 solution counts", False, f"trial {t}: {brute} != {reduced.solution_count}")
    return CheckResult("gf2 solution counts", True, f"{trials} random systems")


def check_sandwich(models: list[WeightedModel]) -> CheckResult:
    """Quantile-derived bounds bracket the exact integral within a factor 2."""
    tol = 1e-9
    for model in models:
        log_w = exact_log_partition(model)
        lo, up = sandwich_bounds(exact_quantiles(model))
        if not (lo <= log_w + tol and log_w <= up + tol and up <= lo + LN2 + tol):
            return CheckResult("quantile sandwich", False, model.name)
    return CheckResult("quantile sandwich", True, f"{len(models)} models")


def check_schedules(models: list[WeightedModel], betas=(1.1, 2.0, 10.0)) -> CheckResult:
    """Exact-oracle schedules land within their approximation factors."""
    tol = 1e-9
    for model in models:
        curve = exact_quantiles(model)
        log_w = exact_log_partition(model)
        full = wish_from_oracle(synthetic_oracle(curve, "exact"))
        if abs(full.log_w - log_w) > LN2 + tol:
            return CheckResult("schedule accuracy", False, f"{model.name}: full sweep off")
        for beta in betas:
            adaptive = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
            if abs(adaptive.log_w - log_w) > math.log(2 * beta) + tol:
                return CheckResult("schedule accuracy", False, f"{model.name}: beta={beta}")
            if adaptive.ledger.distinct_queries > model.n + 1:
                return CheckResult("schedule accuracy", False, f"{model.name}: query budget")
    return CheckResult("schedule accuracy", True, f"{len(models)} models x {len(betas)} betas")


def check_regret(n_curves: int = 30, n: int = 64, beta: float = 2.0, seed: int = 5) -> CheckResult:
    """Adaptive query counts stay within the greedy-OPT regret budget."""
    from .optbench import gen_geometric_curve, gen_kvalued_curve

    rng = np.random.default_rng(seed)
    for t in range(n_curves):
        if t % 2 == 0:
            k = int(rng.integers(2, 6))
            bps = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
            vals = np.cumsum(-rng.uniform(1.0, 12.0, size=k)) + 40.0
            curve = gen_kvalued_curve(n, vals.tolist(), bps)
        else:
            curve = gen_geometric_curve(n, float(rng.uniform(1.01, 4.0)))
        result = adawish_from_oracle(synthetic_oracle(curve, "exact"), beta)
        opt = compute_opt(curve, 2 * beta, "greedy")
        budget = regret_bound(opt.opt_size, n)
        if result.ledger.distinct_queries > budget:
            return CheckResult("regret budget", False, f"curve {t}: {result.ledger.distinct_queries} > {budget}")
    return CheckResult("regret budget", True, f"{n_curves} curves at n={n}")


def check_adversarial_stub(n_curves: int = 10, beta: float = 2.0, seed: int = 7) -> CheckResult:
    """Worst-case neighbor answers keep the output within 2^(2c) * beta."""
    from .optbench import gen_geometric_curve

    rng = np.random.default_rng(seed)
    for t in range(n_curves):
        n = int(rng.integers(8, 33))
        curve = gen_geometric_curve(n, float(rng.uniform(1.0, 3.0)), top=float(rng.uniform(-2, 2)))
        implied, _ = sandwich_bounds(curve)
        for c in (2, 3):
            for policy in ("always_upper", "always_lower", "seeded"):
                oracle = synthetic_oracle(curve, "neighbor-stub", c=c, policy=policy, seed=t)
                result = adawish_from_oracle(oracle, beta)
                bound = 2 * c * LN2 + math.log(beta) + 1e-9
                if abs(result.log_w - implied) > bound:
                    return CheckResult("adversarial stub", False, f"curve {t} c={c} {policy}")
    return CheckResult("adversarial stub", True, f"{n_curves} curves, both c, all policies")


def check_adversarial_pair() -> CheckResult:
    """Block sums of the lower-bound construction match the closed forms."""
    prev_ratio = 0.0
    for n in (64, 256, 1024):
        pair = gen_adversarial_pair(n, 2.0)
        for brute, closed in (
            (pair.w1_brute_force, pair.w1_closed_form),
            (pair.w2_brute_force, pair.w2_closed_form),
        ):
            if abs(brute - closed) > 1e-9 * abs(closed):
                return CheckResult("adversarial pair", False, f"n={n}")
        ratio = pair.w2_brute_force / pair.w1_brute_force
        if ratio <= prev_ratio or ratio >= 4.0:
            return CheckResult("adversarial pair", False, f"ratio not increasing toward 4 at n={n}")
        prev_ratio = ratio
    return CheckResult("adversarial pair", True, "closed forms match, ratio increasing")


def check_solver_agreement(models: list[WeightedModel], trials: int, seed: int) -> CheckResult:
    """`map_solve` matches `reference_map` exactly on random parity systems.

    Feasibility must agree, both solves must be exact, and the maxima must be
    equal or within 1e-12.
    """
    rng = np.random.default_rng(seed)
    for t in range(trials):
        model = models[t % len(models)]
        m = int(rng.integers(0, 7))
        system = sample_parity_system(model.n, m, rng)
        a = reference_map(model, system)
        b = map_solve(model, system)
        same = a.log_value == b.log_value or abs(a.log_value - b.log_value) <= 1e-12
        if not (same and a.feasible == b.feasible and a.exact and b.exact):
            return CheckResult(
                "solver agreement",
                False,
                f"trial {t} on {model.name}: enumeration {a.log_value} vs branch and bound {b.log_value}",
            )
    return CheckResult("solver agreement", True, f"{trials} (model, parity system) pairs match")


def check_hash_uniformity(samples: int = 20000, seed: int = 17) -> CheckResult:
    """Sampled (A, d) hashes two fixed points uniformly over bucket pairs."""
    n, m = 8, 3
    x1, x2 = 0b10110001, 0b01110010
    rng = rng_from(seed, 0xA5)
    counts = np.zeros((1 << m, 1 << m), dtype=np.int64)
    for _ in range(samples):
        system = sample_parity_system(n, m, rng)
        d = gf2.pack_bits(list(system.rhs))
        h1 = gf2.evaluate(system, x1) ^ d
        h2 = gf2.evaluate(system, x2) ^ d
        counts[h1, h2] += 1
    tv = 0.5 * float(np.abs(counts / samples - 1.0 / counts.size).sum())
    return CheckResult(
        "hash pair uniformity", tv <= 0.03, f"total variation {tv:.4f} over {counts.size} cells"
    )


def check_xor_coverage(seeds: int = 40, threshold: float = 0.8) -> CheckResult:
    """Randomized query medians land between the c-shifted quantiles."""
    model = gen_grid_ising(2, 5, coupling_w=1.0, seed=3)
    curve = exact_quantiles(model)
    n = model.n
    c, reps = 2, 30
    hits = np.zeros(n + 1, dtype=np.int64)
    for s in range(seeds):
        config = OracleConfig(kind="neighbor", c=c, T=reps, master_seed=s)
        oracle = XorOracle(model, config)
        for i in range(n + 1):
            m = oracle.query(i)
            if curve[min(i + c, n)] - 1e-12 <= m <= curve[max(i - c, 0)] + 1e-12:
                hits[i] += 1
    freq = hits / seeds
    ok = bool(np.all(freq >= threshold))
    return CheckResult(
        "xor median coverage",
        ok,
        f"min per-index frequency {freq.min():.3f} over {seeds} seeds (threshold {threshold})",
    )


def benchmark_models(max_n: int) -> list[WeightedModel]:
    """The pinned instances of the benchmark workloads with n <= max_n."""
    models = [
        gen_grid_ising(3, 4, coupling_w=1.0, seed=2),
        gen_clique_ising(12, coupling_w=0.1, seed=0),
        gen_grid_ising(4, 4, coupling_w=1.0, seed=0),
        gen_clique_ising(16, coupling_w=0.1, seed=0),
    ]
    return [m for m in models if m.n <= max_n]


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown level {level!r}")
    max_n = 12 if level == "fast" else 16
    models = model_zoo(9 if level == "fast" else 15, max_n, seed=23)
    checks = [
        check_gf2_counts(),
        check_enumeration_agreement(models, (3, BLOCK_BITS)),
        check_window_agreement(models),
        check_cost_to_go(models + benchmark_models(max_n)),
        check_sandwich(models),
        check_schedules(models),
        check_regret(),
        check_adversarial_stub(),
        check_adversarial_pair(),
        check_solver_agreement(model_zoo(6, 12, 3), 40, 3),
    ]
    if level == "full":
        checks.append(check_hash_uniformity())
        checks.append(check_xor_coverage())
    return checks
