"""Command-line interface.

Subcommands: estimate (run a schedule on a model), gen (write a generated
instance as UAI text), quantiles (exact curve to CSV), opt (optimal query set
for a curve CSV), bench (query-count comparison across instances), verify
(invariant self-checks).  Reported magnitudes are log10 to match the usual
partition-function plots; internal math is natural log throughout.

Exit codes: 0 success, 1 error, 2 finished without a guarantee (some MAP
solve hit its limits).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

import numpy as np

from .errors import InvalidSize, ParseError, StructuralError, TooLarge
from .estimator import adawish_estimate, wish_estimate
from .logspace import LN10, NEG_INF
from .model import (
    ENUMERATION_LIMIT,
    QuantileCurve,
    WeightedModel,
    exact_log_partition,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
    parse_uai,
    serialize_uai,
)
from .optbench import compute_opt, segment_bounds
from .oracle import OracleConfig

_FLOAT_FMT = "{:.17g}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def parse_gen_spec(spec: str) -> WeightedModel:
    """Colon-delimited generator spec, e.g. grid:3x3:w=0.5:seed=2 or clique:n=10:w=0.1:seed=7."""
    parts = spec.split(":")
    kind = parts[0]
    kv: dict[str, str] = {}
    shape = None
    for part in parts[1:]:
        if "=" in part:
            key, val = part.split("=", 1)
            kv[key] = val
        elif "x" in part and shape is None:
            shape = part
        else:
            raise StructuralError(f"cannot parse spec fragment {part!r}")
    seed = int(kv.get("seed", "0"))
    if kind == "grid":
        if shape is None:
            raise StructuralError("grid spec needs a RxC shape, e.g. grid:3x3")
        rows, cols = (int(x) for x in shape.split("x"))
        return gen_grid_ising(rows, cols, coupling_w=float(kv.get("w", "1.0")), seed=seed)
    if kind == "clique":
        if "n" not in kv:
            raise StructuralError("clique spec needs n=, e.g. clique:n=10")
        return gen_clique_ising(int(kv["n"]), coupling_w=float(kv.get("w", "0.1")), seed=seed)
    raise StructuralError(f"unknown generator kind {kind!r}")


def _load_model(args) -> WeightedModel:
    if getattr(args, "model", None):
        with open(args.model) as fh:
            return parse_uai(fh.read(), name=os.path.basename(args.model))
    if getattr(args, "gen", None):
        return parse_gen_spec(args.gen)
    raise StructuralError("provide --model FILE or --gen SPEC")


def _oracle_config(args) -> OracleConfig:
    return OracleConfig(
        kind=args.oracle,
        c=args.c,
        T=args.T,
        delta=args.delta,
        alpha=args.alpha,
        gamma=args.gamma,
        master_seed=args.seed,
        node_limit=args.node_limit,
        time_limit=args.map_timeout,
    )


def _run_schedule(model, args):
    config = _oracle_config(args)
    start = time.monotonic()
    if args.schedule == "wish":
        result = wish_estimate(model, config)
    else:
        result = adawish_estimate(model, config, args.beta)
    wall = time.monotonic() - start
    return result, wall


def _report(model, args, result, wall) -> dict:
    """The run's report, keyed by CSV column in column order."""
    log10_estimate = result.log_w / LN10
    log10_exact = None
    log10_err = None
    if args.auto_exact and model.n <= ENUMERATION_LIMIT:
        log10_exact = exact_log_partition(model) / LN10
        # equal values err by 0, both -inf (W = 0) included, where the difference is NaN
        log10_err = 0.0 if log10_estimate == log10_exact else abs(log10_estimate - log10_exact)
    if result.guarantee.proven:
        guarantee = f"proven(kappa={result.guarantee.kappa:.6g},delta={result.guarantee.delta:g})"
    else:
        guarantee = "heuristic"
    neighbor = args.oracle == "neighbor"
    return {
        "instance": model.name,
        "n": model.n,
        "schedule": result.schedule,
        "oracle": args.oracle,
        "beta": result.beta,
        "c": args.c if neighbor else None,
        "T": _oracle_config(args).repetitions(model.n) if neighbor else None,
        "delta": args.delta if neighbor else None,
        "gamma": args.gamma if args.oracle == "pointwise" else None,
        "seed": args.seed,
        "log10_w_estimate": log10_estimate,
        "log10_w_exact": log10_exact,
        "log10_error": log10_err,
        "distinct_queries": result.ledger.distinct_queries,
        "map_calls": result.ledger.map_calls,
        "search_nodes": result.ledger.search_nodes,
        "wall_time": wall,
        "guarantee": guarantee,
    }


def cmd_estimate(args) -> int:
    model = _load_model(args)
    result, wall = _run_schedule(model, args)
    report = {column: _fmt(value) for column, value in _report(model, args, result, wall).items()}
    for column, value in report.items():
        print(f"{column}: {value}")
    if args.csv:
        _write_csv(args.csv, report, [report.values()])
    return 2 if result.ledger.guarantee_void else 0


def cmd_gen(args) -> int:
    model = parse_gen_spec(args.spec)
    text = serialize_uai(model)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {model.name} ({model.n} variables) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_quantiles(args) -> int:
    model = _load_model(args)
    curve = exact_quantiles(model)
    rows = [(i, _fmt(curve[i] / LN10)) for i in range(curve.n + 1)]
    if args.out:
        _write_csv(args.out, ("index", "log10_value"), rows)
        print(f"wrote {curve.n + 1} quantiles to {args.out}")
    else:
        print("index,log10_value")
        for i, v in rows:
            print(f"{i},{v}")
    return 0


def read_curve_csv(path: str) -> QuantileCurve:
    """The curve in an index,log10_value CSV; a malformed file raises ParseError naming it and the line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "index" not in reader.fieldnames or "log10_value" not in reader.fieldnames:
            raise ParseError(f"{path}: expected header with index,log10_value columns")
        pairs = []
        for row in reader:
            try:  # a missing field reads as None
                pairs.append((int(row["index"]), float(row["log10_value"]) * LN10))
            except (TypeError, ValueError):
                raise ParseError(f"{path}: line {reader.line_num}: missing or non-numeric field") from None
    pairs.sort()
    if not pairs or [i for i, _ in pairs] != list(range(len(pairs))):
        raise ParseError(f"{path}: indices must be 0..n without gaps")
    return QuantileCurve(len(pairs) - 1, np.array([v for _, v in pairs]))


def _log10_bound(log_value: float) -> float | None:
    """A bound on log W as log10 for the JSON line; -inf (W = 0) is null, as JSON has no infinity."""
    return None if log_value == NEG_INF else log_value / LN10


def cmd_opt(args) -> int:
    curve = read_curve_csv(args.curve)
    methods = [args.method] if args.method != "both" else ["greedy", "exhaustive"]
    for method in methods:
        result = compute_opt(curve, args.kappa, method)
        lo, up = segment_bounds(curve, result.query_indices)
        print(json.dumps({
            "method": result.method,
            "kappa": result.kappa,
            "opt_size": result.opt_size,
            "query_indices": list(result.query_indices),
            "certified_global": result.certified_global,
            "log10_lower": _log10_bound(lo),
            "log10_upper": _log10_bound(up),
        }, allow_nan=False))
    return 0


def _expand_suite(spec: str):
    """Suite spec = generator spec with seeds=a..b, e.g. grid:4x4:w=1.0:seeds=0..9."""
    parts = spec.split(":")
    seed_range = None
    rest = []
    for part in parts:
        if part.startswith("seeds="):
            lo, _, hi = part[len("seeds="):].partition("..")
            seed_range = range(int(lo), int(hi) + 1)
            if not seed_range:
                raise StructuralError(f"empty seed range seeds={lo}..{hi}")
        else:
            rest.append(part)
    if seed_range is None:
        seed_range = range(0, 1)
    base = ":".join(rest)
    for seed in seed_range:
        yield parse_gen_spec(f"{base}:seed={seed}")


def cmd_bench(args) -> int:
    rows = []
    exit_code = 0
    for model in _expand_suite(args.suite):
        config = _oracle_config(args)
        full = wish_estimate(model, config)
        adaptive = adawish_estimate(model, config, args.beta)
        wq = full.ledger.distinct_queries
        aq = adaptive.ledger.distinct_queries
        savings = 100.0 * (1.0 - aq / wq)
        rows.append((model.name, model.n, wq, aq, _fmt(savings)))
        if full.ledger.guarantee_void or adaptive.ledger.guarantee_void:
            exit_code = 2
        print(f"{model.name}: full={wq} adaptive={aq} savings={savings:.1f}%")
    if args.out:
        _write_csv(args.out, ("instance", "n", "wish_queries", "adawish_queries", "savings_pct"), rows)
    return exit_code


def cmd_verify(args) -> int:
    # imported here, so the other commands start without loading the self-checks
    from .verify import run_checks

    checks = run_checks(args.level)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += not check.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache  # one parser per process, however many times `main` runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adawish",
        description="Estimate the total weight of binary models via quantile queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", help="UAI model file")
        p.add_argument("--gen", help="generator spec, e.g. grid:3x3:w=0.5:seed=2")

    def add_oracle_args(p):
        p.add_argument("--oracle", choices=("exact", "pointwise", "neighbor"), default="neighbor")
        p.add_argument("--beta", type=float, default=2.0, help="adaptive stop factor (> 1)")
        p.add_argument("--c", type=int, default=5, help="neighbor slack in quantile indices")
        p.add_argument("--T", type=int, default=None, help="repetitions per query (default from delta/alpha)")
        p.add_argument("--delta", type=float, default=0.01, help="failure probability")
        p.add_argument("--alpha", type=float, default=None, help="concentration rate (default 0.078 for c=5)")
        p.add_argument("--gamma", type=float, default=1.0, help="pointwise ratio >= 1")
        p.add_argument("--seed", type=int, default=0, help="master seed of the XOR and pointwise oracles")
        p.add_argument("--node-limit", type=int, default=None, dest="node_limit")
        p.add_argument("--map-timeout", type=float, default=None, dest="map_timeout",
                       help="wall-clock cap in seconds per MAP solve (a query runs up to T solves)")

    p_est = sub.add_parser("estimate", help="run a schedule and report the estimate")
    add_model_args(p_est)
    add_oracle_args(p_est)
    p_est.add_argument("--schedule", choices=("wish", "adawish"), default="adawish")
    p_est.add_argument("--csv", help="also write the report to this CSV file, replacing it")
    p_est.add_argument("--no-auto-exact", dest="auto_exact", action="store_false",
                       help="skip automatic ground truth even when enumerable")
    p_est.set_defaults(func=cmd_estimate, auto_exact=True)

    p_gen = sub.add_parser("gen", help="write a generated instance as UAI text")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", help="output path (stdout when omitted)")
    p_gen.set_defaults(func=cmd_gen)

    p_q = sub.add_parser("quantiles", help="exact quantile curve to CSV")
    add_model_args(p_q)
    p_q.add_argument("--out", help="CSV path (stdout when omitted)")
    p_q.set_defaults(func=cmd_quantiles)

    p_opt = sub.add_parser("opt", help="optimal query set for a curve CSV")
    p_opt.add_argument("--curve", required=True, help="CSV with index,log10_value columns")
    p_opt.add_argument("--kappa", type=float, required=True)
    p_opt.add_argument("--method", choices=("greedy", "exhaustive", "both"), default="greedy")
    p_opt.set_defaults(func=cmd_opt)

    p_bench = sub.add_parser("bench", help="compare query counts across a suite")
    p_bench.add_argument("--suite", required=True, help="spec with seeds=a..b, e.g. grid:4x4:seeds=0..9")
    p_bench.add_argument("--out", help="CSV output path")
    add_oracle_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_ver = sub.add_parser("verify", help="run the invariant self-checks")
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, StructuralError, TooLarge, InvalidSize, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
