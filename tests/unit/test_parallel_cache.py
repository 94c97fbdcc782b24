"""Unit tests for the content-addressed characterization cache."""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.parallel.cache import (
    CharacterizationCache,
    activate_cache,
    active_cache,
    canonical,
    deactivate_cache,
    stable_digest,
)


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


class TestCacheTiers:
    def test_memory_hit(self):
        cache = CharacterizationCache(max_entries=4)
        key = cache.key("char", "payload")
        assert cache.get(key) is None
        cache.put(key, {"value": 1.25})
        assert cache.get(key) == {"value": 1.25}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = CharacterizationCache(max_entries=2)
        for i in range(3):
            cache.put(f"k{i}", {"i": i})
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted
        assert cache.get("k2") == {"i": 2}

    def test_disk_hit_survives_new_instance(self, tmp_path):
        first = CharacterizationCache(cache_dir=tmp_path)
        key = first.key("simulate", 42)
        first.put(key, {"energy_j": 703.042148974})
        second = CharacterizationCache(cache_dir=tmp_path)
        assert second.get(key) == {"energy_j": 703.042148974}

    def test_float_survives_disk_bit_exact(self, tmp_path):
        value = 0.1 + 0.2  # famously not 0.3
        cache = CharacterizationCache(cache_dir=tmp_path)
        cache.put("k", {"v": value})
        rebuilt = CharacterizationCache(cache_dir=tmp_path)
        assert rebuilt.get("k")["v"] == value

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = CharacterizationCache(cache_dir=tmp_path)
        cache.put("bad", {"v": 1})
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        fresh = CharacterizationCache(cache_dir=tmp_path)
        assert fresh.get("bad") is None
        assert fresh.disk_errors == 1
        # recompute-and-overwrite heals the entry
        fresh.put("bad", {"v": 2})
        assert CharacterizationCache(cache_dir=tmp_path).get("bad") == {"v": 2}

    def test_wrong_format_tag_is_a_miss(self, tmp_path):
        cache = CharacterizationCache(cache_dir=tmp_path)
        (tmp_path / "k.json").write_text(
            json.dumps({"format": "other.v9", "payload": {"v": 1}}),
            encoding="utf-8",
        )
        assert cache.get("k") is None
        assert cache.disk_errors == 1

    def test_unwritable_disk_never_fails_put(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory", encoding="utf-8")
        cache = CharacterizationCache(cache_dir=target)
        cache.put("k", {"v": 1})  # must not raise
        assert cache.get("k") == {"v": 1}  # memory tier still works
        assert cache.disk_errors == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CharacterizationCache(max_entries=0)


class TestGlobalActivation:
    def teardown_method(self):
        deactivate_cache()

    def test_activate_and_deactivate(self):
        assert active_cache() is None
        cache = activate_cache(max_entries=8)
        assert active_cache() is cache
        deactivate_cache()
        assert active_cache() is None

    def test_activate_existing_instance(self):
        mine = CharacterizationCache(max_entries=2)
        assert activate_cache(mine) is mine
        assert active_cache() is mine
