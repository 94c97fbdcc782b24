"""Unit tests for the run-provenance ledger."""

import pytest

from repro import telemetry
from repro.telemetry.provenance import (
    PROVENANCE_SCHEMA,
    capture_ledger,
    load_ledger,
    validate_ledger,
    write_ledger,
)


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    telemetry.get_tracer().clear()
    yield
    telemetry.reset()
    telemetry.get_tracer().clear()


class TestCapture:
    def test_capture_is_schema_valid(self):
        bundle = capture_ledger("unit-test")
        assert validate_ledger(bundle) == []
        assert bundle["schema"] == PROVENANCE_SCHEMA
        assert bundle["kind"] == "unit-test"

    def test_config_hash_is_content_addressed(self):
        a = capture_ledger("k", config={"scale": 10})
        b = capture_ledger("k", config={"scale": 10})
        c = capture_ledger("k", config={"scale": 20})
        assert a["config_hash"] == b["config_hash"]
        assert a["config_hash"] != c["config_hash"]

    def test_inputs_and_seed_recorded_verbatim(self):
        bundle = capture_ledger(
            "grid", inputs={"mixes": ["LowPower"]}, seed=42,
            seed_lineage={"spawn": "SeedSequence(42).spawn(3)"},
        )
        assert bundle["inputs"] == {"mixes": ["LowPower"]}
        assert bundle["seed"]["root"] == 42
        assert "spawn" in bundle["seed"]["lineage"]

    def test_spans_and_metrics_snapshot_included(self):
        telemetry.get_registry().counter("unit.runs").inc(3)
        with telemetry.recording(), telemetry.span("unit.work"):
            pass
        bundle = capture_ledger("unit-test")
        assert [s["name"] for s in bundle["spans"]] == ["unit.work"]
        assert bundle["span_totals"]["unit.work"]["count"] == 1
        assert bundle["metrics"]["counters"]["unit.runs"] == 3.0

    def test_cache_section_reports_ratio(self):
        bundle = capture_ledger("unit-test")
        cache = bundle["cache"]
        assert set(cache) == {"hits", "misses", "hit_ratio"}
        assert 0.0 <= cache["hit_ratio"] <= 1.0

    def test_fault_schedule_digested(self):
        from repro.faults.schedule import FaultSchedule

        schedule = FaultSchedule(name="drop").budget_drop(
            time_s=1.0, budget_w=500.0
        )
        bundle = capture_ledger("faults", fault_schedule=schedule)
        digest = bundle["fault_schedule"]
        assert digest["name"] == "drop"
        assert digest["events"] == 1
        assert digest["digest"]

    def test_versions_and_host_identity(self):
        bundle = capture_ledger("unit-test")
        assert set(bundle["versions"]) == {"repro", "python", "numpy"}
        assert "hostname" in bundle["host"]
        assert "commit" in bundle["git"]


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        bundle = capture_ledger("roundtrip", seed=7)
        path = write_ledger(bundle, tmp_path / "provenance.json")
        loaded = load_ledger(path)
        assert loaded["kind"] == "roundtrip"
        assert loaded["seed"]["root"] == 7
        assert loaded["config_hash"] == bundle["config_hash"]

    def test_write_refuses_invalid_bundle(self, tmp_path):
        bundle = capture_ledger("bad")
        del bundle["config_hash"]
        with pytest.raises(ValueError, match="config_hash"):
            write_ledger(bundle, tmp_path / "provenance.json")

    def test_load_refuses_tampered_file(self, tmp_path):
        bundle = capture_ledger("tampered")
        path = write_ledger(bundle, tmp_path / "provenance.json")
        import json

        data = json.loads(path.read_text())
        data["schema"] = "repro.provenance.v999"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_ledger(path)


class TestValidate:
    def test_missing_key_reported_by_name(self):
        bundle = capture_ledger("k")
        del bundle["spans"]
        problems = validate_ledger(bundle)
        assert any("spans" in p for p in problems)

    def test_wrong_type_reported(self):
        bundle = capture_ledger("k")
        bundle["metrics"] = "not-a-dict"
        assert any("metrics" in p for p in validate_ledger(bundle))

    def test_non_mapping_rejected(self):
        assert validate_ledger([1, 2, 3])

    def test_span_entries_must_be_span_dicts(self):
        bundle = capture_ledger("k")
        bundle["spans"] = [{"not_a_span": True}]
        assert any("span" in p for p in validate_ledger(bundle))
