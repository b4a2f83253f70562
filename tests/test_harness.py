"""Tests for the experiment harness: runners, reporting and the CLI."""

import pytest

from repro.errors import ConfigurationError
from repro.harness import available_experiments, format_table, run_experiment, rows_to_csv
from repro.harness.runner import main

# Small sizes so the harness tests stay fast; the benchmarks run the defaults.
SMALL = dict(n=1 << 14)


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        text = format_table(rows, title="demo")
        assert "== demo ==" in text
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_rows_to_csv(self):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        csv = rows_to_csv(rows)
        assert csv.splitlines()[0] == "x,y"
        assert csv.splitlines()[2] == "2,b"

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""


class TestRunnerRegistry:
    def test_all_paper_experiments_present(self):
        names = set(available_experiments())
        expected = {
            "fig04", "fig06", "fig07", "fig09", "fig10", "fig12", "fig13", "fig14",
            "fig15", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
            "fig24", "table2", "table3",
            "service",  # batched serving traffic (not a paper figure)
            "async",    # sequential vs overlapped dispatch (not a paper figure)
            "hotpath",  # cold vs plan-bank-warm serving cost (not a paper figure)
            "multivector",  # named admit/query/evict lifecycle (not a paper figure)
            "hotfuse",  # fused vs per-query group selection (not a paper figure)
            "spillwarm",  # out-of-core spill tier + warm restart (not a paper figure)
            "tenantfair",  # multi-tenant quotas + isolation (not a paper figure)
        }
        assert expected == names

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_cli_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out and "table2" in out

    def test_cli_runs_and_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        assert main(["fig20", "--csv", str(out_csv)]) == 0
        assert out_csv.exists()
        assert "n" in out_csv.read_text().splitlines()[0]


class TestExperimentShapes:
    """Each runner must produce rows with the columns its figure/table needs,
    and the headline trend of the figure must hold at test scale."""

    def test_fig04_rows(self):
        rows = run_experiment("fig04", n=1 << 14, ks=[16, 256], datasets=("UD", "ND"))
        assert {r["dataset"] for r in rows} == {"UD", "ND"}
        assert all(r["time_ms"] > 0 for r in rows)

    def test_fig06_07_filtering_helps_second_topk(self):
        ks = [1 << 10, 1 << 12]
        base = run_experiment("fig06", n=1 << 16, ks=ks)
        filt = run_experiment("fig07", n=1 << 16, ks=ks)
        for b, f in zip(base, filt):
            assert f["second_topk_ms"] <= b["second_topk_ms"] * 1.05

    def test_fig09_normalisation_baseline_is_one(self):
        rows = run_experiment("fig09", n=1 << 14, ks=[256], betas=(1, 2))
        beta1 = [r for r in rows if r["beta"] == 1][0]
        assert beta1["normalised_to_beta1"] == pytest.approx(1.0)

    def test_fig12_flag_radix_wins(self):
        rows = run_experiment("fig12", n=1 << 17, ks=[64, 1024])
        assert all(r["speedup"] > 1.5 for r in rows)

    def test_fig13_total_is_sum_of_steps(self):
        rows = run_experiment("fig13", n=1 << 15, k=128, alphas=[4, 6, 8])
        for r in rows:
            total = r["delegate_ms"] + r["first_topk_ms"] + r["concat_ms"] + r["second_topk_ms"]
            assert r["total_ms"] == pytest.approx(total, rel=0.01)

    def test_fig14_autotuned_close_to_oracle(self):
        rows = run_experiment("fig14", n=1 << 16, ks=[64, 1024])
        for r in rows:
            assert r["auto_ms"] <= 2.0 * r["oracle_ms"]

    def test_fig15_optimised_construction_not_slower(self):
        ks = [1 << 12]
        warp = run_experiment("fig10", n=1 << 16, ks=ks)
        optimised = run_experiment("fig15", n=1 << 16, ks=ks)
        assert optimised[0]["delegate_ms"] <= warp[0]["delegate_ms"] * 1.05

    def test_fig17_drtopk_beats_baselines_at_largest_size(self):
        rows = run_experiment("fig17", sizes=[1 << 18], k=1024)
        by_system = {r["system"]: r["time_ms"] for r in rows}
        assert by_system["drtopk+radix"] < by_system["radix"]
        assert by_system["drtopk+bitonic"] < by_system["bitonic"]

    def test_fig18_speedups_above_one(self):
        rows = run_experiment("fig18", n=1 << 17, ks=[256], datasets=("UD",), algorithms=("radix", "bitonic"))
        assert all(r["speedup"] > 1.0 for r in rows)

    def test_fig19_realworld_runs_all_datasets(self):
        rows = run_experiment("fig19", n=1 << 14, ks=[64], algorithms=("radix",))
        assert {r["dataset"] for r in rows} == {"AN", "CW", "TR"}

    def test_fig20_fraction_decreases_with_n(self):
        rows = run_experiment("fig20", sizes=[1 << 14, 1 << 16], k=256, include_paper_scale=False)
        assert rows[0]["total_fraction"] > rows[1]["total_fraction"]

    def test_fig21_fraction_increases_with_k(self):
        rows = run_experiment("fig21", n=1 << 16, ks=[16, 4096], include_paper_scale=False)
        assert rows[0]["total_fraction"] < rows[1]["total_fraction"]

    def test_fig22_combined_never_worst(self):
        rows = run_experiment("fig22", n=1 << 16, ks=[1 << 12])
        by_variant = {r["variant"]: r["total_ms"] for r in rows}
        assert by_variant["combined"] <= max(by_variant.values())

    def test_fig23_titanxp_slower_than_v100s(self):
        rows = run_experiment("fig23", n=1 << 15, ks=[256])
        by_device = {r["device"]: r["total_ms"] for r in rows}
        assert by_device["TitanXp"] > by_device["V100S"]
        assert 1.0 < by_device["TitanXp/V100S ratio"] < 3.0

    def test_fig24_bmw_does_more_work(self):
        # The paper's ND-vs-UD magnitude gap (212x vs 6x) only opens up at the
        # full 2^30 scale; the laptop-scale check asserts the robust part of
        # the figure — BMW fully evaluates several times more data than
        # Dr. Top-k touches — on both distributions.
        rows = run_experiment("fig24", n=1 << 14, ks=[64], datasets=("UD", "ND"))
        assert all(r["ratio"] > 1.0 for r in rows)

    def test_table2_columns_and_speedup(self):
        rows = run_experiment("table2", size_exponents=(30,), gpu_counts=(1, 4), measured_n=1 << 14)
        model_rows = [r for r in rows if r["mode"] == "model"]
        assert model_rows[0]["speedup"] == pytest.approx(1.0)
        assert model_rows[1]["speedup"] > 1.0
        assert any(r["mode"] == "measured" for r in rows)

    def test_table3_drtopk_reduces_traffic(self):
        rows = run_experiment("table3", n=1 << 16)
        by_system = {r["system"]: r for r in rows}
        for algo in ("radix", "bucket", "bitonic"):
            assert (
                by_system[f"drtopk+{algo}"]["load_transactions"]
                < by_system[algo]["load_transactions"]
            )
            assert (
                by_system[f"drtopk+{algo}"]["store_transactions"]
                < by_system[algo]["store_transactions"]
            )
