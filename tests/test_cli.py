import csv
import json
import math

import pytest

from adawish.cli import main, parse_gen_spec, read_curve_csv
from adawish.model import exact_log_partition, parse_uai

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
            "--oracle", "neighbor", "--c", "5", "--delta", "0.01", "--alpha", "0.078",
        )
        assert code == 0
        report = parse_report(out)
        expected_t = math.ceil(math.log(100.0) / 0.078 * math.log(2))
        assert int(report["T"]) == expected_t
        assert report["guarantee"].startswith("proven")

    def test_guarantee_reports_the_delta_T_buys(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=1.0:seed=0", "--oracle", "neighbor",
            "--c", "2", "--alpha", "0.1", "--T", "1",
        )
        assert code == 0
        report = parse_report(out)
        assert report["T"] == "1"
        delta = math.exp(-0.1 * 1 / math.log(9))
        assert report["guarantee"] == f"proven(kappa=32,delta={delta:g})"

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--model", "/nonexistent/path.uai")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--alpha", "0"), "alpha must be finite and > 0"),
            (("--alpha", "-1"), "alpha must be finite and > 0"),
            (("--alpha", "nan"), "alpha must be finite and > 0"),
            (("--alpha", "inf", "--T", "3"), "alpha must be finite and > 0"),
            (("--oracle", "pointwise", "--gamma", "nan"), "gamma must be >= 1"),
            (("--oracle", "pointwise", "--gamma", "inf"), "gamma must be finite"),
            (("--T", "3", "--beta", "nan"), "beta must be > 1"),
            (("--T", "3", "--beta", "inf"), "beta must be finite"),
            (("--T", "3", "--node-limit", "0"), "node_limit must be >= 1"),
            (("--T", "3", "--map-timeout", "0"), "time_limit must be > 0"),
            (("--T", "3", "--map-timeout", "nan"), "time_limit must be > 0"),
        ],
        ids=["alpha-0", "alpha-negative", "alpha-nan", "alpha-inf", "gamma-nan", "gamma-inf",
             "beta-nan", "beta-inf",
             "node-limit-0", "map-timeout-0", "map-timeout-nan"],
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
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:3x3:w=1.0:seed=1",
            "--schedule", "adawish", "--oracle", "neighbor", "--c", "2", "--T", "3",
            "--node-limit", "4",
        )
        assert code == 2
        assert "heuristic" in parse_report(out)["guarantee"]

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

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ADAWISH_SEED", "99")
        code, out, _ = run_cli(
            capsys, "estimate", "--gen", "grid:2x3:w=0.5:seed=4",
            "--oracle", "neighbor", "--c", "2", "--T", "3", "--seed", "5",
        )
        assert code == 0
        assert parse_report(out)["seed"] == "99"


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

    def test_gen_spec_validation(self):
        with pytest.raises(Exception):
            parse_gen_spec("hypercube:n=4")

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


class TestVerifyCommand:
    def test_fast_level_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "fast")
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out


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
