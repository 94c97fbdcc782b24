"""Unit tests for the run-provenance ledger and its content hash."""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry.provenance import (
    PROVENANCE_SCHEMA,
    canonical,
    capture_ledger,
    load_ledger,
    stable_digest,
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

    def test_v3_bundle_rejected(self, tmp_path):
        # v3 carried a cache hit/miss section; v4 has none and refuses
        # the older tag.
        bundle = capture_ledger("k")
        assert "cache" not in bundle
        v3 = dict(bundle, schema="repro.provenance.v3",
                  cache={"hits": 0.0, "misses": 0.0, "hit_ratio": 0.0})
        assert any("schema" in p for p in validate_ledger(v3))
        path = tmp_path / "provenance.json"
        path.write_text(json.dumps(v3))
        with pytest.raises(ValueError, match="provenance.v3"):
            load_ledger(path)


@dataclasses.dataclass(frozen=True)
class _Opts:
    noise_std: float = 0.008
    seed: int = 7


@dataclasses.dataclass(frozen=True)
class _OtherOpts:
    noise_std: float = 0.008
    seed: int = 7


class _Level(enum.Enum):
    IDEAL = "ideal"
    MAX = "max"


class TestCanonical:
    def test_primitives_pass_through(self):
        assert canonical(None) is None
        assert canonical(3) == 3
        assert canonical("x") == "x"
        assert canonical(1.5) == 1.5

    def test_ndarray_keeps_dtype_shape_values(self):
        array = np.arange(4, dtype=np.float64).reshape(2, 2)
        form = canonical(array)
        assert form["__ndarray__"] == "<f8"
        assert form["shape"] == [2, 2]
        assert form["sha256"] == hashlib.sha256(array.tobytes()).hexdigest()
        # A transposed view hashes its C-order bytes, not its buffer.
        assert canonical(array.T)["sha256"] == \
            hashlib.sha256(array.T.tobytes()).hexdigest()

    def test_one_ulp_changes_the_key(self):
        array = np.linspace(0.0, 1.0, 7)
        nudged = array.copy()
        nudged[3] = np.nextafter(nudged[3], 2.0)
        assert canonical(nudged) != canonical(array)
        assert stable_digest(nudged) != stable_digest(array)

    def test_numpy_scalar_unwraps(self):
        assert canonical(np.float64(2.5)) == 2.5

    def test_dataclass_tagged_by_class(self):
        assert canonical(_Opts()) != canonical(_OtherOpts())

    def test_enum_tagged(self):
        assert canonical(_Level.IDEAL) != canonical("ideal")

    def test_dict_key_order_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="canonicalise"):
            canonical(object())

    def test_object_array_rejected(self):
        with pytest.raises(TypeError, match="canonicalise"):
            canonical(np.array([1, "a"], dtype=object))


class TestStableDigest:
    def test_deterministic(self):
        a = stable_digest("mix", np.ones(3), _Opts())
        b = stable_digest("mix", np.ones(3), _Opts())
        assert a == b

    def test_sensitive_to_float_bits(self):
        eps = np.nextafter(1.0, 2.0)
        assert stable_digest(1.0) != stable_digest(float(eps))

    def test_sensitive_to_dtype(self):
        assert stable_digest(np.ones(2, dtype=np.float64)) != stable_digest(
            np.ones(2, dtype=np.float32)
        )
