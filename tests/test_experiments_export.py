"""Tests for result export (JSON/CSV artifacts)."""

import csv
import json

from repro.experiments.export import export_fattree_result, export_rate_result
from repro.experiments.catalog import run
from repro.experiments.fattree_eval import FatTreeScenario, run_fattree
from repro.experiments.fig4_traffic_shifting import Fig4Config

TINY = FatTreeScenario(
    duration=0.06,
    perm_size_min=50_000,
    perm_size_max=150_000,
    seed=5,
)


class TestFatTreeExport:
    def test_files_created(self, tmp_path):
        result = run_fattree(TINY)
        out = export_fattree_result(result, tmp_path / "run")
        for name in ("summary.json", "flows.csv", "jct.csv",
                     "rtt_samples.csv", "links.csv"):
            assert (out / name).exists(), name

    def test_summary_contents(self, tmp_path):
        result = run_fattree(TINY)
        out = export_fattree_result(result, tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"]["scheme"] == "xmp"
        assert summary["duration"] == TINY.duration
        assert summary["mean_goodput_bps"] > 0
        assert summary["events"] > 0

    def test_flows_csv_rows(self, tmp_path):
        result = run_fattree(TINY)
        out = export_fattree_result(result, tmp_path)
        rows = list(csv.DictReader(open(out / "flows.csv")))
        expected = sum(
            len(records) for records in result.records.values()
        ) + sum(len(records) for records in result.unfinished.values())
        assert len(rows) == expected
        for row in rows:
            assert float(row["goodput_bps"]) >= 0

    def test_links_csv_covers_all_links(self, tmp_path):
        result = run_fattree(TINY)
        out = export_fattree_result(result, tmp_path)
        rows = list(csv.DictReader(open(out / "links.csv")))
        assert len(rows) == len(result.link_utilization)

    def test_rtt_samples_tagged(self, tmp_path):
        result = run_fattree(TINY)
        out = export_fattree_result(result, tmp_path)
        rows = list(csv.DictReader(open(out / "rtt_samples.csv")))
        categories = {row["category"] for row in rows}
        assert categories <= {"inter-pod", "inter-rack", "inner-rack"}


class TestRateExport:
    def test_fig4_export(self, tmp_path):
        result = run("fig4", Fig4Config(time_scale=0.02))
        out = export_rate_result(result, tmp_path, name="fig4")
        rows = list(csv.reader(open(out / "fig4.csv")))
        assert rows[0][0] == "time"
        assert "flow2-1" in rows[0]
        assert len(rows) == len(result.series) + 1
        config = json.loads((out / "config.json").read_text())
        assert config["beta"] == 4.0
