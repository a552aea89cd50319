"""The golden-trace harness: digests, diffs, blessing, and the goldens."""

from __future__ import annotations

import pytest

from repro.validate import golden as golden_module
from repro.validate.golden import (
    canonical,
    check_digest,
    diff_digests,
    digest_hash,
    digest_to_json,
    format_diff,
    golden_dir,
    load_golden,
    save_golden,
)
from repro.validate.scenarios import run_scenario, scenario_names

pytestmark = pytest.mark.invariants


# ----------------------------------------------------------------------
# Digest mechanics
# ----------------------------------------------------------------------


class TestDigestMechanics:
    def test_canonical_rounds_and_sorts(self):
        value = {"b": 0.1 + 0.2, "a": [1, (2, 3)], "nested": {"y": 1, "x": 2}}
        out = canonical(value)
        assert list(out) == ["a", "b", "nested"]
        assert out["a"] == [1, [2, 3]]
        assert out["b"] == 0.3
        assert list(out["nested"]) == ["x", "y"]

    def test_digest_to_json_stable(self):
        d = {"z": 1.0000000000000002, "a": {"k": [3, 2]}}
        assert digest_to_json(d) == digest_to_json(canonical(d))

    def test_diff_empty_on_match(self):
        d = {"events": 100, "flows": [{"goodput": 1.25}]}
        assert diff_digests(d, d) == []

    def test_diff_reports_each_difference(self):
        golden = {"events": 100, "flows": [{"delivered": 10}], "gone": 1}
        actual = {"events": 101, "flows": [{"delivered": 12}], "new": 2}
        lines = diff_digests(golden, actual)
        text = "\n".join(lines)
        assert "events: golden=100 actual=101" in text
        assert "flows[0].delivered: golden=10 actual=12" in text
        assert "gone" in text and "new" in text

    def test_diff_list_length(self):
        lines = diff_digests({"f": [1, 2]}, {"f": [1]})
        assert any("length golden=2 actual=1" in line for line in lines)

    @pytest.fixture
    def scratch_goldens(self, tmp_path, monkeypatch):
        """Point the golden directory at an empty temp directory."""
        monkeypatch.setattr(golden_module, "golden_dir", lambda: tmp_path)

    def test_save_load_roundtrip(self, scratch_goldens):
        digest = {"events": 5, "t": 0.125}
        save_golden("unit", digest)
        assert load_golden("unit") == canonical(digest)

    def test_load_missing_returns_none(self, scratch_goldens):
        assert load_golden("never-blessed") is None

    def test_check_digest_unblessed(self, scratch_goldens):
        lines = check_digest("fresh", {"events": 1})
        assert lines and "--bless" in lines[0]

    def test_check_digest_bless_then_match(self, scratch_goldens):
        digest = {"events": 7}
        assert check_digest("s", digest, bless=True) == []
        assert check_digest("s", digest) == []
        lines = check_digest("s", {"events": 8})
        assert lines == ["events: golden=7 actual=8"]

    def test_format_diff_is_actionable(self):
        message = format_diff("bottleneck-xmp", ["events: golden=1 actual=2"])
        assert "bottleneck-xmp" in message
        assert "--bless" in message
        assert "events: golden=1 actual=2" in message

    def test_digest_hash_stable_and_sensitive(self):
        a = {"events": 1, "x": 0.5}
        assert digest_hash(a) == digest_hash({"x": 0.5, "events": 1})
        assert digest_hash(a) != digest_hash({"events": 2, "x": 0.5})


# ----------------------------------------------------------------------
# The checked-in goldens
# ----------------------------------------------------------------------


class TestGoldenScenarios:
    def test_all_scenarios_have_goldens(self):
        for name in scenario_names():
            assert (golden_dir() / f"{name}.json").exists(), (
                f"golden for {name!r} missing; run "
                "PYTHONPATH=src python -m repro validate --bless"
            )

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_matches_golden(self, name, bless):
        digest, validator = run_scenario(name)
        assert not validator.violations, validator.report()
        differences = check_digest(name, digest, bless=bless)
        assert not differences, format_diff(name, differences)

    def test_run_golden_suite_ok(self):
        from repro.validate.scenarios import run_golden_suite

        report, ok = run_golden_suite(names=["bottleneck-xmp"])
        assert ok
        assert "bottleneck-xmp" in report
        assert "0 violations" in report


# ----------------------------------------------------------------------
# Sensitivity: perturbing a transport constant must trip the harness
# ----------------------------------------------------------------------


class TestPerturbation:
    def test_beta_perturbation_trips_bottleneck_golden(self):
        digest, _ = run_scenario("bottleneck-xmp", beta=8.0)
        golden = load_golden("bottleneck-xmp")
        assert golden is not None
        differences = diff_digests(golden, digest)
        assert differences, (
            "perturbing BOS beta 4 -> 8 left the bottleneck digest "
            "unchanged; the golden is not sensitive to the window law"
        )
        message = format_diff("bottleneck-xmp", differences)
        assert "--bless" in message  # loud and actionable

    def test_marking_threshold_perturbation_trips_golden(self):
        digest, _ = run_scenario("bottleneck-xmp", marking_threshold=40)
        golden = load_golden("bottleneck-xmp")
        assert diff_digests(golden, digest)

    def test_beta_perturbation_trips_fattree_golden(self):
        digest, _ = run_scenario("fattree-xmp-permutation", beta=2.0)
        golden = load_golden("fattree-xmp-permutation")
        assert golden is not None
        assert diff_digests(golden, digest)

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="no overrides"):
            run_scenario("bottleneck-mixed", beta=8.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("no-such-scenario")
