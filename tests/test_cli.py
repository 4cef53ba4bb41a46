import csv
import json
import math
import os
import re
import shlex

import pytest

from adawish.cli import build_parser, main, parse_gen_spec, read_curve_csv
from adawish.estimator import adawish_estimate
from adawish.model import exact_log_partition, exact_quantiles, parse_uai, serialize_uai
from adawish.oracle import OracleConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
FIXTURE = "MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 2 3 4\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    report = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        report[key] = value
    return report


class TestEstimate:
    def test_adaptive_exact_on_generated_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=0.5:seed=2",
            "--schedule", "adawish", "--oracle", "exact", "--beta", "2",
        )
        assert code == 0
        report = parse_report(out)
        assert report["schedule"] == "adawish"
        assert float(report["log10_error"]) <= math.log10(4.0) + 1e-9
        assert int(report["distinct_queries"]) <= 10

    def test_neighbor_auto_repetitions(self, capsys, tmp_path):
        path = tmp_path / "fixture.uai"
        path.write_text(FIXTURE)
        code, out, _ = run_cli(
            capsys, "estimate", "--model", str(path), "--schedule", "wish",
            "--oracle", "neighbor", "--c", "5", "--delta", "0.01",
        )
        assert code == 0
        report = parse_report(out)
        expected_t = math.ceil(math.log(100.0) / 0.078 * math.log(2))
        assert int(report["T"]) == expected_t
        assert report["guarantee"].startswith("proven")

    def test_guarantee_reports_the_delta_T_buys(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=1.0:seed=0", "--oracle", "neighbor",
            "--c", "5", "--T", "1",
        )
        assert code == 0
        report = parse_report(out)
        assert report["T"] == "1"
        delta = math.exp(-0.078 * 1 / math.log(9))
        assert report["guarantee"] == f"proven(kappa=2048,delta={delta:g})"

    def test_delta_column_is_empty_when_T_is_given(self, capsys, tmp_path):
        # a given T ignores --delta, so the column must not show it beside
        # the delta the guarantee proves
        argv = ["estimate", "--gen", "grid:3x3:w=1.0:seed=0", "--c", "5"]
        for extra, delta in ((["--T", "1"], ""), ([], "0.01")):
            path = tmp_path / "report.csv"
            code, out, _ = run_cli(capsys, *argv, *extra, "--csv", str(path))
            assert code == 0
            assert parse_report(out)["delta"] == delta
            with open(path, newline="") as fh:
                assert next(csv.DictReader(fh))["delta"] == delta

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--model", "/nonexistent/path.uai")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--oracle", "pointwise", "--gamma", "nan"), "gamma must be >= 1"),
            (("--oracle", "pointwise", "--gamma", "inf"), "gamma must be finite"),
            (("--T", "3", "--beta", "nan"), "beta must be > 1"),
            (("--T", "3", "--beta", "inf"), "beta must be finite"),
            (("--T", "3", "--node-limit", "0"), "node_limit must be >= 1"),
            (("--T", "3", "--map-timeout", "0"), "time_limit must be > 0"),
            (("--T", "3", "--map-timeout", "nan"), "time_limit must be > 0"),
            ((), "no concentration rate known for c=2; pass --T"),
        ],
        ids=["gamma-nan", "gamma-inf", "beta-nan", "beta-inf",
             "node-limit-0", "map-timeout-0", "map-timeout-nan", "no-rate"],
    )
    def test_invalid_parameter_exits_one(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=1.0:seed=0", "--oracle", "neighbor",
            "--c", "2", *flags,
        )
        assert code == 1
        assert err.strip() == f"error: {message}"
        assert out == ""

    def test_guarantee_void_exits_two(self, capsys):
        # T 2^n > SWEEP_POINTS, so the indices below the sweep's are solved under the limit
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:4x4:w=1.0:seed=1",
            "--schedule", "adawish", "--oracle", "neighbor", "--c", "2", "--T", "3",
            "--node-limit", "4",
        )
        assert code == 2
        assert "heuristic" in parse_report(out)["guarantee"]

    def test_overflowing_kappa_is_heuristic(self, capsys):
        # 2^(2c) * beta overflows a float at c = 5 and beta = 1e306, and a kappa that overflows proves nothing
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=1.0:seed=0", "--oracle", "neighbor",
            "--c", "5", "--T", "1", "--beta", "1e306",
        )
        assert code == 0
        report = parse_report(out)
        assert report["beta"] == "1e+306"
        assert report["guarantee"] == "heuristic"

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        # as a T too large for its parity systems would; nothing is allocated
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.46 TiB for an array")

        monkeypatch.setattr("adawish.cli.wish_estimate", exhausted)
        code, out, err = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=1.0:seed=0", "--oracle", "neighbor",
            "--schedule", "wish", "--T", "100000000000",
        )
        assert code == 1
        assert err.strip() == "error: Unable to allocate 8.46 TiB for an array"
        assert out == ""

    def test_no_auto_exact_leaves_the_exact_columns_empty(self, capsys, tmp_path):
        out_csv = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:2x3:w=0.5:seed=4", "--oracle", "exact",
            "--no-auto-exact", "--csv", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            (row,) = csv.DictReader(fh)
        for report in (parse_report(out), row):
            assert report["log10_w_exact"] == report["log10_error"] == ""
            assert float(report["log10_w_estimate"]) > 0.0

    def test_csv_report_round_trips(self, capsys, tmp_path):
        out_csv = tmp_path / "report.csv"
        for _ in range(2):  # the second run replaces the file
            code, out, _ = run_cli(
                capsys, "estimate", "--gen", "grid:2x3:w=0.5:seed=4",
                "--oracle", "exact", "--schedule", "adawish", "--csv", str(out_csv),
            )
            assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        printed = parse_report(out)
        assert rows[0]["log10_w_estimate"] == printed["log10_w_estimate"]
        assert float(rows[0]["log10_w_estimate"]) == float(printed["log10_w_estimate"])

    def test_search_nodes_reported(self, capsys, tmp_path):
        # the ledger's sum of MapResult.nodes and of the points the sweep
        # scored, printed and written as a column; T 2^n > SWEEP_POINTS, so
        # the indices below the sweep's are solved
        out_csv = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:4x4:w=0.5:seed=4", "--oracle", "neighbor",
            "--c", "2", "--T", "3", "--seed", "5", "--csv", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            (row,) = csv.DictReader(fh)
        config = OracleConfig(kind="neighbor", c=2, T=3, master_seed=5)
        ledger = adawish_estimate(parse_gen_spec("grid:4x4:w=0.5:seed=4"), config, 2.0).ledger
        assert ledger.search_nodes > ledger.map_calls > 0
        assert int(row["search_nodes"]) == int(parse_report(out)["search_nodes"]) == ledger.search_nodes

    def test_seed_comes_from_the_flag_only(self, capsys, monkeypatch):
        # the environment is not read: --seed alone sets the master seed
        argv = ("estimate", "--gen", "grid:2x3:w=0.5:seed=4", "--oracle", "neighbor",
                "--c", "2", "--T", "3", "--seed", "5")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("ADAWISH_SEED", "99")
        code, again, _ = run_cli(capsys, *argv)
        assert code == 0
        report = parse_report(again)
        assert report["seed"] == "5"
        assert report["log10_w_estimate"] == parse_report(out)["log10_w_estimate"]

    def test_zero_partition_function_errs_by_zero(self, capsys, tmp_path):
        # W = 0: estimate and exact value are both -inf, whose difference is NaN
        path = tmp_path / "zero.uai"
        path.write_text("MARKOV\n1\n2\n1\n1 0\n2\n0 0\n")
        out_csv = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "estimate", "--model", str(path), "--oracle", "exact", "--csv", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            (row,) = csv.DictReader(fh)
        for report in (parse_report(out), row):
            assert report["log10_w_estimate"] == report["log10_w_exact"] == "-inf"
            assert report["log10_error"] == "0"

    def test_neither_model_nor_gen_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "estimate")
        assert code == 1
        assert err.strip() == "error: provide --model FILE or --gen SPEC"
        assert out == ""

    def test_model_and_gen_are_exclusive(self, capsys, tmp_path):
        # the spec was dropped silently in favour of the file
        path = tmp_path / "fixture.uai"
        path.write_text(FIXTURE)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--model", str(path), "--gen", "grid:2x2", "--oracle", "exact"])
        assert exc.value.code == 1  # 2 is kept for a run without a guarantee
        assert "argument --gen: not allowed with argument --model" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--bogus"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: adawish ")
        assert err.endswith("adawish: error: unrecognized arguments: --bogus\n")

    def test_subcommand_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--gen", "grid:2x2", "--T", "many"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: adawish estimate ")
        assert "adawish estimate: error: argument --T: invalid int value: 'many'" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: adawish estimate ")


class TestGenAndQuantiles:
    def test_gen_writes_parseable_uai(self, capsys, tmp_path):
        path = tmp_path / "model.uai"
        code, _, _ = run_cli(capsys, "gen", "--spec", "clique:n=6:w=0.1:seed=3", "--out", str(path))
        assert code == 0
        model = parse_uai(path.read_text())
        assert model.n == 6

    def test_quantiles_csv_reads_back(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "quantiles", "--gen", "grid:2x3:w=0.8:seed=1", "--out", str(path)
        )
        assert code == 0
        curve = read_curve_csv(str(path))
        assert curve.n == 6

    def test_gen_writes_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--spec", "grid:2x2:w=0.5:seed=1")
        assert code == 0
        assert out == serialize_uai(parse_gen_spec("grid:2x2:w=0.5:seed=1"))

    def test_quantiles_write_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "quantiles", "--gen", "grid:2x2:w=0.8:seed=1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,log10_value" and len(lines) == 6
        curve = exact_quantiles(parse_gen_spec("grid:2x2:w=0.8:seed=1"))
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [v / math.log(10) for v in curve.log_values]

    def test_gen_spec_validation(self):
        with pytest.raises(Exception):
            parse_gen_spec("hypercube:n=4")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("grid:3x3:bogus", "cannot parse spec fragment 'bogus'"),
            ("grid:w=1.0", "grid spec needs a RxC shape, e.g. grid:3x3"),
            ("clique:w=0.1", "clique spec needs n=, e.g. clique:n=10"),
            # each of these ran before, with a value the spec did not ask for
            ("grid:3x3:W=0.5:seed=2", "cannot parse spec fragment 'W=0.5'"),
            ("grid:3x3:sed=2", "cannot parse spec fragment 'sed=2'"),
            ("grid:3x3:seed=1:seed=2", "spec fragment 'seed=2' repeats seed="),
            ("grid:3x3:n=4", "cannot parse spec fragment 'n=4'"),
            ("clique:3x3:n=4", "cannot parse spec fragment '3x3'"),
            ("grid:3x3:seeds=0..1", "cannot parse spec fragment 'seeds=0..1'"),
            # and this one failed unpacking the shape
            ("grid:3x3x3", "cannot parse spec fragment '3x3x3'"),
            # these named the conversion, not the fragment
            ("clique:n=abc", "spec fragment 'n=abc' needs an integer"),
            ("clique:n=5:w=abc", "spec fragment 'w=abc' needs a number"),
            ("grid:2x2:seed=-5", "spec fragment 'seed=-5' needs a non-negative integer"),
            ("grid:2x2:seed=1.5", "spec fragment 'seed=1.5' needs a non-negative integer"),
        ],
        ids=["bad-fragment", "grid-without-shape", "clique-without-n", "unknown-key", "misspelt-key",
             "repeated-key", "clique-key-on-grid", "shape-on-clique", "suite-key-on-model", "three-dims",
             "n-not-integer", "w-not-number", "negative-seed", "seed-not-integer"],
    )
    def test_malformed_spec_exits_one(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "gen", "--spec", spec)
        assert code == 1
        assert err.strip() == f"error: {message}"
        assert out == ""

    @pytest.mark.parametrize("spec", ["grid:2x2:w=nan", "grid:2x2:w=inf", "clique:n=5:w=-1"])
    def test_bad_coupling_exits_one(self, capsys, spec):
        code, out, err = run_cli(capsys, "estimate", "--gen", spec)
        assert code == 1
        assert err.strip() == "error: coupling w must be finite and >= 0"
        assert out == ""


class TestOptCommand:
    def test_flat_curve(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        with open(path, "w") as fh:
            fh.write("index,log10_value\n")
            for i in range(17):
                fh.write(f"{i},0.0\n")
        code, out, _ = run_cli(capsys, "opt", "--curve", str(path), "--kappa", "2", "--method", "both")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(entry["query_indices"] == [0, 16] for entry in lines)
        assert all(entry["opt_size"] == 2 for entry in lines)

    def test_nan_kappa_exits_one(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("index,log10_value\n" + "".join(f"{i},0.0\n" for i in range(5)))
        code, out, err = run_cli(capsys, "opt", "--curve", str(path), "--kappa", "nan")
        assert code == 1
        assert err.strip() == "error: kappa must be > 1"
        assert out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("i,value\n0,0.0\n1,0.0\n", "expected header with index,log10_value columns"),
            ("index,log10_value\n0,0.0\n2,0.0\n", "indices must be 0..n without gaps"),
            ("index,log10_value\n0,1.0\n1\n", "line 3: missing or non-numeric field"),
            ("index,log10_value\n0,1.0\n1,abc\n", "line 3: missing or non-numeric field"),
            ("index,log10_value\n0.5,1.0\n", "line 2: missing or non-numeric field"),
            ("index,log10_value\n0,1,7\n1,0\n", "line 2: more fields than the header"),
        ],
        ids=["bad-header", "index-gap", "missing-field", "non-numeric-value", "non-integer-index",
             "extra-field"],
    )
    def test_malformed_curve_exits_one(self, capsys, tmp_path, text, message):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "opt", "--curve", str(path), "--kappa", "2")
        assert code == 1
        assert err.strip() == f"error: {path}: {message}"
        assert out == ""

    def test_infinite_curve_value_exits_one(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("index,log10_value\n0,inf\n1,0\n")
        code, out, err = run_cli(capsys, "opt", "--curve", str(path), "--kappa", "2")
        assert code == 1
        assert err.strip() == "error: curve values must be finite or -inf"
        assert out == ""

    def test_zero_curve_writes_null_bounds(self, capsys, tmp_path):
        # W = 0 puts both bounds at -inf, which JSON cannot write as a number
        path = tmp_path / "zero.csv"
        path.write_text("index,log10_value\n" + "".join(f"{i},-inf\n" for i in range(5)))
        code, out, _ = run_cli(capsys, "opt", "--curve", str(path), "--kappa", "2", "--method", "both")
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        lines = [json.loads(line, parse_constant=refuse) for line in out.strip().splitlines()]
        assert len(lines) == 2
        assert all(entry["log10_lower"] is None and entry["log10_upper"] is None for entry in lines)

    def test_infinite_kappa_exits_one(self, capsys, tmp_path):
        # json.dumps would write it as Infinity, which is not JSON
        path = tmp_path / "flat.csv"
        path.write_text("index,log10_value\n" + "".join(f"{i},0.0\n" for i in range(5)))
        code, out, err = run_cli(capsys, "opt", "--curve", str(path), "--kappa", "inf")
        assert code == 1
        assert err.strip() == "error: kappa must be finite"
        assert out == ""


class TestBench:
    def test_grid_suite_counts(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--suite", "grid:3x3:w=1.0:seeds=0..3",
            "--oracle", "exact", "--beta", "100", "--out", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            n = int(row["n"])
            assert int(row["wish_queries"]) == n + 1
            assert int(row["adawish_queries"]) <= n + 1

    def test_suite_without_seeds_runs_seed_zero(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "grid:2x2:w=1.0", "--oracle", "exact", "--out", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["instance"] == parse_gen_spec("grid:2x2:w=1.0:seed=0").name
        assert out.startswith(f"{row['instance']}: full=5 ")

    def test_suite_without_seeds_runs_its_seed(self, capsys):
        # the suite ran seed 0 whatever seed= it named
        code, out, _ = run_cli(capsys, "bench", "--suite", "grid:2x2:w=1.0:seed=3", "--oracle", "exact")
        assert code == 0
        assert out.startswith(f"{parse_gen_spec('grid:2x2:w=1.0:seed=3').name}: full=5 ")

    @pytest.mark.parametrize(
        "suite, message",
        [
            ("grid:3x3:w=1.0:seed=4:seeds=0..1", "spec fragment 'seed=4' cannot go with seeds="),
            ("grid:3x3:seeds=0..1:seeds=2..3", "spec fragment 'seeds=2..3' repeats seeds="),
            ("grid:3x3:sed=4:seeds=0..1", "cannot parse spec fragment 'sed=4'"),
            ("grid:2x2:seeds=0..", "spec fragment 'seeds=0..' needs a range a..b of non-negative integers"),
            ("grid:2x2:seeds=-2..1", "spec fragment 'seeds=-2..1' needs a range a..b of non-negative integers"),
            ("grid:2x2:w=x:seeds=0..1", "spec fragment 'w=x' needs a number"),
        ],
        ids=["seed-and-seeds", "repeated-seeds", "misspelt-key", "open-range", "negative-seed", "w-not-number"],
    )
    def test_malformed_suite_exits_one(self, capsys, suite, message):
        code, out, err = run_cli(capsys, "bench", "--suite", suite, "--oracle", "exact")
        assert code == 1
        assert err.strip() == f"error: {message}"
        assert out == ""

    def test_guarantee_void_exits_two(self, capsys):
        # T 2^n > SWEEP_POINTS, so the indices below the sweep's are solved under the limit
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "grid:4x4:w=1.0:seeds=1..1", "--oracle", "neighbor",
            "--c", "2", "--T", "3", "--node-limit", "4",
        )
        assert code == 2
        assert "full=17" in out

    def test_empty_seed_range_exits_one(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, err = run_cli(
            capsys, "bench", "--suite", "grid:2x2:seeds=3..1", "--oracle", "exact",
            "--out", str(out_csv),
        )
        assert code == 1
        assert err.strip() == "error: empty seed range seeds=3..1"
        assert out == ""
        assert not out_csv.exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def readme_cli_examples() -> list[list[str]]:
    """The argv of every `adawish ...` line in README's CLI block, continuations joined."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("adawish ")]


def test_readme_cli_examples_parse():
    # parsed only, nothing runs; argparse exits on an unknown flag or choice
    examples = readme_cli_examples()
    assert len(examples) == 7
    for argv in examples:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestVerifyCommand:
    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_level_passes(self, capsys, level):
        code, out, _ = run_cli(capsys, "verify", "--level", level)
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out
        # each suite reaches every case its check counts
        for name in ("median bracket", "sweep"):
            (line,) = [line for line in out.splitlines() if line.startswith(f"[PASS] {name}:")]
            counts = [int(k) for k in re.findall(r"(\d+) [a-z]", line.split(":", 1)[1])]
            assert len(counts) >= 6 and min(counts) > 0, line


class TestAutoExact:
    def test_exact_ground_truth_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:2x3:w=0.5:seed=4", "--oracle", "exact",
            "--schedule", "wish",
        )
        assert code == 0
        report = parse_report(out)
        model = parse_gen_spec("grid:2x3:w=0.5:seed=4")
        assert float(report["log10_w_exact"]) == pytest.approx(
            exact_log_partition(model) / math.log(10), abs=1e-12
        )

    @pytest.mark.parametrize(
        "spec, flags, code",
        [
            ("grid:6x6:w=1.0:seed=0", ("--T", "7"), 0),
            # the node limit keeps the run under a second and voids the guarantee
            ("grid:10x10:w=1.0:seed=0", ("--T", "3", "--node-limit", "2000"), 2),
        ],
    )
    def test_reference_past_enumeration(self, capsys, spec, flags, code):
        got, out, _ = run_cli(capsys, "estimate", "--gen", spec, "--c", "5", *flags)
        assert got == code
        report = parse_report(out)
        log10_exact = exact_log_partition(parse_gen_spec(spec)) / math.log(10)
        assert float(report["log10_w_exact"]) == log10_exact
        assert float(report["log10_error"]) == abs(float(report["log10_w_estimate"]) - log10_exact)

    def test_no_reference_where_neither_path_reaches(self, capsys):
        # a clique's frontier spans every earlier variable, and n = 30 is past enumeration
        code, out, _ = run_cli(capsys, "estimate", "--gen", "clique:n=30:w=0.1:seed=0", "--c", "5", "--T", "1")
        assert code == 0
        report = parse_report(out)
        assert report["log10_w_exact"] == report["log10_error"] == ""
        assert report["log10_w_estimate"] != ""

    def test_no_auto_exact_past_enumeration(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:6x6:w=1.0:seed=0", "--c", "5", "--T", "7", "--no-auto-exact",
        )
        assert code == 0
        report = parse_report(out)
        assert report["log10_w_exact"] == report["log10_error"] == ""
