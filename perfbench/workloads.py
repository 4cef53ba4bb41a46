"""The benchmark's three workloads and the correctness gate.

Every instance is pinned by its generator spec; every oracle master seed is
derived from the workload seed, the round and the instance, so one seed always
gives the same inputs.  A workload runs in these steps:

* ``setup``: from generator specs to bound oracles (timed as ``setup_s``);
* ``prepare``: exact references by enumeration, never timed;
* ``opt_pass``: timed OPT certification (``curve-exact`` only);
* ``warmup``: one untimed pass over the code paths a round uses;
* ``run_round``: one estimate per cell, each timed and then gated.

After each timed estimate the attached calibrator, if any, gets its seconds
(see ``calibrate.py``).

Program functions are always looked up through their module at call time
(``adawish.oracle.make_oracle``, never a local binding), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
import zlib
from dataclasses import dataclass, field

import adawish.cli
import adawish.estimator
import adawish.model
import adawish.optbench
import adawish.oracle

LN2 = math.log(2.0)
LN10 = math.log(10.0)
TOL = 1e-9


# ---------------------------------------------------------------------------
# Gate


def proven_bracket(kind: str, schedule: str, beta: float | None, gamma: float, c: int) -> float | None:
    """Proven bound on |log estimate - log W|, or None where none is proven.

    Exact curve: the sweep is the upper sandwich (within 2 of W) and the
    adaptive schedule is within 2*beta.  Pointwise jitter within gamma widens
    these to 2*gamma and 2*beta*gamma^2.  The worst-case neighbor stub keeps
    the adaptive schedule within 2^(2c)*beta.
    """
    if kind == "exact":
        return LN2 if schedule == "wish" else math.log(2 * beta)
    if kind == "pointwise":
        return math.log(2 * gamma) if schedule == "wish" else math.log(2 * beta * gamma**2)
    if kind == "neighbor-stub" and schedule == "adawish":
        return 2 * c * LN2 + math.log(beta)
    return None


def gate(log_w: float, reference: float, bound: float | None) -> list[str]:
    """Failure reasons for one estimate checked against its exact reference."""
    if not math.isfinite(log_w):
        return [f"non-finite estimate {log_w}"]
    if bound is not None and abs(log_w - reference) > bound + TOL:
        return [f"outside proven bracket: |{log_w:.9g} - {reference:.9g}| > {bound:.6g}"]
    return []


@dataclass
class Estimate:
    """One timed schedule run and everything the gate and metrics need."""

    cell: str
    schedule: str
    n: int
    seconds: float
    master: int = 0  # oracle master seed
    log_w: float = math.nan
    distinct: int = 0
    map_calls: int = 0
    cache_hits: int = 0
    reps: int = 0  # MAP repetitions per query (T), neighbor oracle only
    wall_time: float | None = None  # schedule time the CLI reports
    regret_ratio: float | None = None
    log10_err: float | None = None
    covered: int = 0
    neighbor_queries: int = 0
    failures: list[str] = field(default_factory=list)

    def key(self) -> tuple:
        """What two runs with the same seed must reproduce exactly."""
        return (self.cell, self.master, self.n, self.log_w, self.distinct, self.map_calls)


@dataclass
class Reference:
    """Exact enumeration of one instance: curve, log W and greedy OPT sizes."""

    name: str
    curve: object  # adawish.model.QuantileCurve
    log_z: float
    opt_size: dict[float, int]  # kappa -> greedy OPT size

    @property
    def n(self) -> int:
        return self.curve.n

    def regret_ratio(self, distinct: int, beta: float) -> float:
        return distinct / adawish.optbench.regret_bound(self.opt_size[2 * beta], self.n)


def model_reference(name: str, model, kappas) -> Reference:
    curve = adawish.model.exact_quantiles(model)
    log_z = adawish.model.exact_log_partition(model)
    return curve_reference(name, curve, kappas, log_z)


def curve_reference(name: str, curve, kappas, log_z: float | None = None) -> Reference:
    # a bare curve's integral is only known to lie in its sandwich; the lower
    # end is attained by a step function, so it serves as W
    if log_z is None:
        log_z = adawish.estimator.sandwich_bounds(curve)[0]
    sizes = {k: adawish.optbench.compute_opt(curve, k, "greedy").opt_size for k in kappas}
    return Reference(name, curve, log_z, sizes)


def derive_seed(*labels) -> int:
    """Oracle master seed from the workload seed and position labels."""
    return zlib.crc32(":".join(str(x) for x in labels).encode()) & 0x7FFFFFFF


def coverage(memo: dict, curve, c: int) -> tuple[int, int]:
    """(inside, total): medians within [b_min(i+c,n), b_max(i-c,0)]."""
    b = curve.log_values
    n = curve.n
    inside = sum(
        1 for i, v in memo.items() if b[min(i + c, n)] - TOL <= v <= b[max(i - c, 0)] + TOL
    )
    return inside, len(memo)


def check_subset(wish: Estimate, ada: Estimate) -> None:
    if ada.distinct > wish.distinct:
        ada.failures.append(f"adawish issued {ada.distinct} distinct queries, wish {wish.distinct}")


def fill_from_result(
    est: Estimate, result, ref: Reference, beta: float | None, bound: float | None = None
) -> None:
    """Counts, accuracy and regret of a finished EstimateResult, then the gate."""
    ledger = result.ledger
    est.log_w = float(result.log_w)
    est.distinct = ledger.distinct_queries
    est.map_calls = ledger.map_calls
    est.cache_hits = ledger.cache_hits
    if ledger.guarantee_void:
        est.failures.append("a MAP solve came back inexact")
    est.failures += gate(est.log_w, ref.log_z, bound)
    if math.isfinite(est.log_w):
        est.log10_err = abs(est.log_w - ref.log_z) / LN10
    if beta is not None:
        est.regret_ratio = ref.regret_ratio(est.distinct, beta)
        if est.regret_ratio > 1.0 + TOL:
            est.failures.append(f"regret ratio {est.regret_ratio:.4g} > 1")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Common workload state; subclasses define the instances and a round."""

    name = ""
    beta = 2.0

    def __init__(self, seed: int, out_dir: str, instances: tuple[str, ...] | None = None):
        self.seed = seed
        self.out_dir = out_dir
        self.calibrator = None
        if instances is not None:
            self.specs = instances

    def setup(self) -> None:
        raise NotImplementedError

    def pace(self, seconds: float) -> None:
        if self.calibrator is not None:
            self.calibrator.pace(seconds)

    def prepare(self) -> None:
        raise NotImplementedError

    def opt_pass(self) -> tuple[dict, list[list[str]]]:
        """Timed OPT certification: (metrics, failure reasons per check)."""
        return {}, []

    def warmup(self) -> None:
        self.run_round(-1)

    def run_round(self, r: int) -> list[Estimate]:
        """One timed estimate per cell of round `r`."""
        raise NotImplementedError


class XorWorkload(Workload):
    """Neighbor-oracle workloads: wish then adawish on one master seed.

    Both schedules of a pair share the seed, so the adaptive query set must be
    a subset of the sweep's.  A round runs one pair on every instance, or with
    ALTERNATE on instance r mod (number of instances) only.
    """

    C = 2
    T = 1
    ALTERNATE = False

    def _config(self, master: int):
        return adawish.oracle.OracleConfig(kind="neighbor", c=self.C, T=self.T, master_seed=master)

    def setup(self) -> None:
        self.models = []
        for spec in self.specs:
            model = adawish.cli.parse_gen_spec(spec)
            adawish.oracle.make_oracle(model, self._config(0))
            self.models.append(model)

    def prepare(self) -> None:
        self.refs = [model_reference(s, m, (2 * self.beta,)) for s, m in zip(self.specs, self.models)]

    def _estimate(self, k: int, schedule: str, master: int) -> Estimate:
        raise NotImplementedError

    def run_round(self, r: int) -> list[Estimate]:
        out = []
        ks = [r % len(self.specs)] if self.ALTERNATE else range(len(self.specs))
        for k in ks:
            master = derive_seed(self.name, self.seed, r, k)
            wish = self._estimate(k, "wish", master)
            ada = self._estimate(k, "adawish", master)
            wish.master = ada.master = master
            check_subset(wish, ada)
            out += [wish, ada]
        return out


class XorShallow(XorWorkload):
    """Neighbor oracle on n=12 models: tiny solves, per-solve overhead dominates."""

    name = "xor-shallow"
    specs = ("grid:3x4:w=1.0:seed=2", "clique:n=12:w=0.1:seed=0")
    T = 30

    def _estimate(self, k: int, schedule: str, master: int) -> Estimate:
        model, ref = self.models[k], self.refs[k]
        est = Estimate(f"{ref.name}/{schedule}", schedule, model.n, 0.0, reps=self.T)
        try:
            t0 = time.perf_counter()
            oracle = adawish.oracle.make_oracle(model, self._config(master))
            if schedule == "wish":
                result = adawish.estimator.wish_from_oracle(oracle)
            else:
                result = adawish.estimator.adawish_from_oracle(oracle, self.beta)
            est.seconds = time.perf_counter() - t0
            self.pace(est.seconds)
        except Exception as exc:  # counted as a failed estimate, the run goes on
            est.failures.append(f"raised {exc!r}")
            return est
        fill_from_result(est, result, ref, self.beta if schedule == "adawish" else None)
        est.covered, est.neighbor_queries = coverage(result.ledger.memo, ref.curve, self.C)
        return est


class _Capture:
    """Keeps the EstimateResult the CLI computes, to read its ledger."""

    NAMES = ("wish_estimate", "adawish_estimate")

    def __init__(self):
        self.results = []

    def __enter__(self):
        self._saved = [getattr(adawish.cli, name) for name in self.NAMES]
        for name, fn in zip(self.NAMES, self._saved):
            setattr(adawish.cli, name, self._keep(fn))
        return self

    def _keep(self, fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result

        return kept

    def __exit__(self, *exc):
        for name, fn in zip(self.NAMES, self._saved):
            setattr(adawish.cli, name, fn)
        return False


class XorDeep(XorWorkload):
    """`adawish estimate` in-process on n=16 models: branch and bound dominates."""

    name = "xor-deep"
    # One estimate's time varies by 15-20% with the oracle seed, so the spread
    # of a run's figure falls only with the number of pairs it holds.  At n=20
    # a pair takes 7-17 s, which leaves one or two per instance in a run; at
    # n=16 a pair takes ~1.2 s, and a solve still spends most of its time in
    # the search.  Rounds alternate between the two instances.
    specs = ("grid:4x4:w=1.0:seed=0", "clique:n=16:w=0.1:seed=0")
    T = 5
    ALTERNATE = True
    WARMUP_SPEC = "grid:3x3:w=1.0:seed=0"

    def prepare(self) -> None:
        super().prepare()
        os.makedirs(self.out_dir, exist_ok=True)
        self.csv_path = os.path.join(self.out_dir, f"{self.name}-{os.getpid()}.csv")

    def argv(self, spec: str, schedule: str, master: int) -> list[str]:
        return [
            "estimate", "--gen", spec, "--oracle", "neighbor",
            "--c", str(self.C), "--T", str(self.T), "--beta", str(self.beta),
            "--schedule", schedule, "--seed", str(master), "--csv", self.csv_path,
        ]

    def warmup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            adawish.cli.main(self.argv(self.WARMUP_SPEC, "adawish", self.seed))

    def _estimate(self, k: int, schedule: str, master: int) -> Estimate:
        ref = self.refs[k]
        est = Estimate(f"{ref.name}/{schedule}", schedule, ref.n, 0.0, reps=self.T)
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        try:
            with _Capture() as cap, contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = adawish.cli.main(self.argv(ref.name, schedule, master))
                est.seconds = time.perf_counter() - t0
            self.pace(est.seconds)
            if rc != 0:
                est.failures.append(f"CLI exit code {rc}")
            with open(self.csv_path, newline="") as fh:
                row = next(csv.DictReader(fh))
            (result,) = cap.results
        except Exception as exc:  # counted as a failed estimate, the run goes on
            est.failures.append(f"raised {exc!r}")
            return est
        fill_from_result(est, result, ref, self.beta if schedule == "adawish" else None)
        est.wall_time = float(row["wall_time"])
        est.covered, est.neighbor_queries = coverage(result.ledger.memo, ref.curve, self.C)
        if abs(float(row["log10_w_estimate"]) - est.log_w / LN10) > TOL:
            est.failures.append("CSV estimate differs from the computed one")
        if int(row["distinct_queries"]) != est.distinct or int(row["map_calls"]) != est.map_calls:
            est.failures.append("CSV counts differ from the ledger")
        if abs(float(row["log10_w_exact"]) - ref.log_z / LN10) > TOL:
            est.failures.append("CLI exact reference differs from enumeration")
        return est


@dataclass
class CurveCell:
    curve: str
    kind: str
    schedule: str
    beta: float | None

    @property
    def name(self) -> str:
        beta = "" if self.beta is None else f"@{self.beta:g}"
        return f"{self.curve}/{self.kind}/{self.schedule}{beta}"


class CurveExact(Workload):
    """Schedules and OPT on known curves: no MAP solve is made."""

    name = "curve-exact"
    specs = ("grid:4x5:w=1.0:seed=0", "clique:n=20:w=0.1:seed=0")
    SIZES = (64, 256, 1024)
    RATIO = 1.5
    KVALUES = (0.0, -20.0, -60.0)
    BETAS = (2.0, 100.0)
    GAMMA = 1.5
    C = 2
    # Exhaustive OPT on the n=20 curves, except grid 4x5 at kappa=4, which
    # alone takes ~18 s per run.
    EXHAUSTIVE = {
        ("grid:4x5:w=1.0:seed=0", 200.0),
        ("clique:n=20:w=0.1:seed=0", 4.0),
        ("clique:n=20:w=0.1:seed=0", 200.0),
    }
    GREEDY_REPS = 3

    def setup(self) -> None:
        self.curves = {}
        for spec in self.specs:
            model = adawish.cli.parse_gen_spec(spec)
            oracle = adawish.oracle.make_oracle(model, adawish.oracle.OracleConfig(kind="exact"))
            self.curves[spec] = (model, oracle.curve)
        optbench = adawish.optbench
        for n in self.SIZES:
            geo = optbench.gen_geometric_curve(n, self.RATIO)
            kval = optbench.gen_kvalued_curve(n, self.KVALUES, (n // 8, n // 2))
            for label, curve in ((f"geometric:n={n}", geo), (f"3-valued:n={n}", kval)):
                optbench.synthetic_oracle(curve, "exact")
                self.curves[label] = (None, curve)

    def prepare(self) -> None:
        kappas = tuple(2 * b for b in self.BETAS)
        self.refs = {}
        for label, (model, curve) in self.curves.items():
            if model is not None:
                log_z = adawish.model.exact_log_partition(model)
            else:
                log_z = None
            self.refs[label] = curve_reference(label, curve, kappas, log_z)
        self.cells = []
        for label, (model, _) in self.curves.items():
            for kind in ("exact", "pointwise") if model is not None else ("exact", "neighbor-stub"):
                self.cells.append(CurveCell(label, kind, "wish", None))
                for beta in self.BETAS:
                    self.cells.append(CurveCell(label, kind, "adawish", beta))

    def opt_pass(self) -> tuple[dict, list[list[str]]]:
        times = []
        checks = []
        greedy_sizes = []
        for label, ref in self.refs.items():
            for beta in self.BETAS:
                kappa = 2 * beta
                greedy_s = []
                for _ in range(self.GREEDY_REPS):
                    t0 = time.perf_counter()
                    greedy = adawish.optbench.compute_opt(ref.curve, kappa, "greedy")
                    greedy_s.append(time.perf_counter() - t0)
                seconds = statistics.median(greedy_s)
                greedy_sizes.append(greedy.opt_size)
                failures = []
                if (label, kappa) in self.EXHAUSTIVE:
                    t0 = time.perf_counter()
                    exhaustive = adawish.optbench.compute_opt(ref.curve, kappa, "exhaustive")
                    seconds += time.perf_counter() - t0
                    if exhaustive.opt_size > greedy.opt_size:
                        failures.append(
                            f"{label} kappa={kappa:g}: exhaustive OPT {exhaustive.opt_size}"
                            f" > greedy {greedy.opt_size}"
                        )
                times.append(seconds)
                checks.append(failures)
        return {"opt_s": statistics.median(times), "opt_size": statistics.mean(greedy_sizes)}, checks

    def estimate(self, cell: CurveCell, oracle, ref: Reference) -> Estimate:
        """Run one schedule on an already bound oracle and gate the result."""
        est = Estimate(cell.name, cell.schedule, ref.n, 0.0)
        try:
            t0 = time.perf_counter()
            if cell.schedule == "wish":
                result = adawish.estimator.wish_from_oracle(oracle)
            else:
                result = adawish.estimator.adawish_from_oracle(oracle, cell.beta)
            est.seconds = time.perf_counter() - t0
        except Exception as exc:  # counted as a failed estimate, the run goes on
            est.failures.append(f"raised {exc!r}")
            return est
        bound = proven_bracket(cell.kind, cell.schedule, cell.beta, self.GAMMA, self.C)
        fill_from_result(est, result, ref, cell.beta, bound)
        return est

    def _timed_estimate(self, cell: CurveCell, master: int) -> Estimate:
        ref = self.refs[cell.curve]
        t0 = time.perf_counter()
        oracle = adawish.optbench.synthetic_oracle(
            ref.curve, cell.kind, gamma=self.GAMMA, c=self.C, seed=master
        )
        bind_s = time.perf_counter() - t0
        est = self.estimate(cell, oracle, ref)
        est.seconds += bind_s
        self.pace(est.seconds)
        return est

    def run_round(self, r: int) -> list[Estimate]:
        master = derive_seed(self.name, self.seed, r)
        by_curve: dict[str, list[Estimate]] = {}
        out = []
        for cell in self.cells:
            est = self._timed_estimate(cell, master)
            est.master = master
            by_curve.setdefault(f"{cell.curve}/{cell.kind}", []).append(est)
            out.append(est)
        for group in by_curve.values():
            wish = group[0]
            for ada in group[1:]:
                check_subset(wish, ada)
        return out


WORKLOADS = {w.name: w for w in (XorShallow, XorDeep, CurveExact)}
