"""Spans for the benchmark's traced run, and the per-layer metrics they give.

The wrappers live here, not in the program.  ``Tracer.install`` rebinds each
traced name where the program looks it up -- a module global such as
``adawish.oracle.map_solve``, a second module's own binding such as
``adawish.estimator.make_oracle``, or a class attribute such as
``QuantileOracle.query`` -- and ``Tracer.remove`` restores the originals.
Spans are kept in memory as (name, start, end, parent) and written out once,
when the run ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import adawish.cli
import adawish.estimator
import adawish.gf2
import adawish.model
import adawish.optbench
import adawish.oracle

BANDS = 4


def band_of(rows: int, n: int) -> int:
    """floor(4 * min(i, n - 1) / n) for a system with i rows over n variables."""
    return BANDS * min(rows, n - 1) // n


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # per-solve records: span index, band, nodes, exact, feasible
        self.solves = array("q")
        self.search_max_depth = 0
        self.segment_bounds_calls = 0
        self.enumerated_points = 0

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _span(self, fn, name, after=None):
        """Wrap fn so each call records a span; name may depend on the arguments."""
        fixed = self.code(name) if isinstance(name, str) else None
        name_id, starts, ends, parents, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(fixed if fixed is not None else self.code(name(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # hooks run after a traced call returns

    def _after_map_solve(self, idx, args, kwargs, result):
        model, system = args[0], args[1]
        self.solves.extend(
            (idx, band_of(system.m, model.n), result.nodes, int(result.exact), int(result.feasible))
        )

    def _after_search(self, idx, args, kwargs, result):
        depth = args[5] if len(args) > 5 else kwargs.get("depth", 0)
        self.search_max_depth = max(self.search_max_depth, depth)

    def _after_exact_quantiles(self, idx, args, kwargs, result):
        self.enumerated_points += 1 << result.n

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.segment_bounds_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        span = self._span
        gf2, model, oracle, estimator, optbench, cli = (
            adawish.gf2, adawish.model, adawish.oracle, adawish.estimator, adawish.optbench, adawish.cli,
        )

        def query_name(args, kwargs):
            self_, i = args[0], args[1] if len(args) > 1 else kwargs["i"]
            return "oracle.query.hit" if i in self_.ledger.memo else "oracle.query"

        def opt_name(args, kwargs):
            method = args[2] if len(args) > 2 else kwargs.get("method", "greedy")
            return f"optbench.compute_opt.{method}"

        self._patch(gf2, "row_reduce", lambda f: span(f, "gf2.row_reduce"))
        self._patch(oracle, "sample_parity_system", lambda f: span(f, "oracle.sample_parity_system"))
        self._patch(oracle, "map_solve", lambda f: span(f, "oracle.map_solve", self._after_map_solve))
        self._patch(oracle.QuantileOracle, "query", lambda f: span(f, query_name))
        for owner in (oracle, estimator):
            self._patch(owner, "make_oracle", lambda f: span(f, "oracle.make_oracle"))
        for owner in (model, oracle, cli):
            self._patch(owner, "exact_quantiles",
                        lambda f: span(f, "model.exact_quantiles", self._after_exact_quantiles))
        for owner in (model, cli):
            self._patch(owner, "exact_log_partition", lambda f: span(f, "model.exact_log_partition"))
            self._patch(owner, "gen_grid_ising", lambda f: span(f, "model.gen"))
            self._patch(owner, "gen_clique_ising", lambda f: span(f, "model.gen"))
        for attr in ("wish_from_oracle", "adawish_from_oracle"):
            self._patch(estimator, attr, lambda f: span(f, "estimator.schedule"))
        self._patch(estimator, "search", lambda f: span(f, "estimator.search", self._after_search))
        for owner in (optbench, cli):
            self._patch(owner, "compute_opt", lambda f: span(f, opt_name))
            self._patch(owner, "segment_bounds", self._counting)
        self._patch(optbench, "synthetic_oracle", lambda f: span(f, "optbench.synthetic_oracle"))
        self._patch(cli, "main", lambda f: span(f, "cli.main"))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_metrics(tracer: Tracer, estimates, extras: dict) -> dict[str, float]:
    """Per-layer numbers from the spans and counters of one traced phase.

    Per-call figures use the layer's own span durations; self time is a span's
    duration minus the time its direct child spans cover; shares divide by the
    total time of the traced estimates.  A layer not reached reads 0.
    """
    a = tracer.arrays()
    codes, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    def pick(name):
        return codes == tracer._codes[name] if name in tracer._codes else np.zeros(codes.shape, bool)

    def count(name):
        return int(pick(name).sum())

    def mean(values, scale=1.0):
        return float(values.mean()) * scale if values.size else 0.0

    n_est = max(len(estimates), 1)
    est_time = sum(e.seconds for e in estimates) or 1.0
    m = {}

    rr = pick("gf2.row_reduce")
    m["gf2.row_reduce.calls"] = rr.sum() / n_est
    m["gf2.row_reduce.us_per_call"] = mean(dur[rr], 1e6)
    m["gf2.row_reduce.share"] = self_t[rr].sum() / est_time

    m["oracle.sample_parity_system.us_per_call"] = mean(dur[pick("oracle.sample_parity_system")], 1e6)
    m["oracle.query.self_ms"] = mean(self_t[pick("oracle.query")], 1e3)

    solves = np.frombuffer(tracer.solves, dtype=np.int64).reshape(-1, 5)
    s_idx, s_band, s_nodes, s_exact, s_feas = solves.T
    s_dur = dur[s_idx]
    nodes = int(s_nodes.sum())
    m["oracle.map_solve.calls"] = len(solves) / n_est
    m["oracle.map_solve.ms_per_call"] = mean(s_dur, 1e3)
    m["oracle.map_solve.nodes_per_call"] = mean(s_nodes.astype(float))
    m["oracle.map_solve.us_per_node"] = s_dur.sum() / nodes * 1e6 if nodes else 0.0
    m["oracle.map_solve.share"] = s_dur.sum() / est_time
    solve_time = s_dur.sum()
    for b in range(BANDS):
        in_band = s_band == b
        m[f"oracle.map_solve.band{b}.share"] = s_dur[in_band].sum() / solve_time if solve_time else 0.0
        m[f"oracle.map_solve.band{b}.nodes"] = s_nodes[in_band].sum() / n_est
    m["oracle.map_solve.inexact"] = int((s_exact == 0).sum())
    m["oracle.map_solve.feasible_frac"] = mean(s_feas.astype(float))

    neighbor = [e for e in estimates if e.reps]
    attempts = sum(e.distinct * e.reps for e in neighbor)
    m["oracle.query.dedup_frac"] = 1.0 - sum(e.map_calls for e in neighbor) / attempts if attempts else 0.0
    lookups = sum(e.cache_hits + e.distinct for e in estimates)
    m["oracle.ledger.cache_hit_frac"] = sum(e.cache_hits for e in estimates) / lookups if lookups else 0.0

    eq = dur[pick("model.exact_quantiles")]
    m["model.exact_quantiles.s"] = mean(eq)
    m["model.exact_quantiles.mpoints_per_s"] = tracer.enumerated_points / eq.sum() / 1e6 if eq.size else 0.0
    m["model.exact_log_partition.s"] = mean(dur[pick("model.exact_log_partition")])
    m["model.gen.s"] = mean(dur[pick("model.gen")])

    adaptive = max(sum(1 for e in estimates if e.schedule == "adawish"), 1)
    m["estimator.search.calls"] = count("estimator.search") / adaptive
    m["estimator.search.max_depth"] = tracer.search_max_depth
    est_self = self_t[pick("estimator.schedule") | pick("estimator.search")].sum()
    m["estimator.self_ms"] = est_self / n_est * 1e3

    m["optbench.compute_opt.exhaustive.s"] = mean(dur[pick("optbench.compute_opt.exhaustive")])
    m["optbench.compute_opt.greedy.ms"] = mean(dur[pick("optbench.compute_opt.greedy")], 1e3)
    opt_calls = count("optbench.compute_opt.exhaustive") + count("optbench.compute_opt.greedy")
    m["optbench.segment_bounds.calls"] = tracer.segment_bounds_calls / opt_calls if opt_calls else 0.0
    m["optbench.opt_size"] = extras["opt_size"]

    cli_runs = [e.seconds - e.wall_time for e in estimates if e.wall_time is not None]
    m["cli.main.overhead_s"] = float(np.mean(cli_runs)) if cli_runs else 0.0
    return {k: float(v) for k, v in m.items()}
