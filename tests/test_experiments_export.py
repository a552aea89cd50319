"""Tests for result export (JSON/CSV artifacts)."""

import csv
import json

from repro.experiments.export import export_fattree_result
from repro.experiments.fattree_eval import FatTreeScenario, run_fattree

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

