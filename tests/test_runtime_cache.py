"""Stable hashing and the content-addressed stage cache."""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CampaignError
from repro.imaging import FibSemCampaign
from repro.layout import SaRegionSpec
from repro.runtime import StageCache, canonicalize, chain_key, stable_hash


class TestStableHash:
    def test_deterministic_across_dict_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
        assert stable_hash({"a": 1}) != stable_hash({"b": 1})

    def test_dataclass_and_enum_canonicalization(self):
        spec = SaRegionSpec(name="x", topology="ocsa", n_pairs=2)
        token = canonicalize(spec)
        assert token["class"] == "SaRegionSpec"
        # dims is keyed by TransistorKind enums → canonical string keys
        assert all(isinstance(k, str) for k in token["fields"]["dims"])

    def test_spec_hash_changes_with_geometry(self):
        a = SaRegionSpec(name="x", topology="ocsa", n_pairs=2)
        b = SaRegionSpec(name="x", topology="ocsa", n_pairs=2, feature_nm=16.0)
        assert stable_hash(a) != stable_hash(b)

    def test_campaign_hash_changes_with_seed(self):
        assert stable_hash(FibSemCampaign(seed=1)) != stable_hash(FibSemCampaign(seed=2))

    def test_unhashable_object_raises(self):
        with pytest.raises(CampaignError):
            stable_hash({"fn": object()})

    def test_int_and_str_keys_never_collide(self):
        """Regression: ``{1: x}`` and ``{"1": x}`` used to share a digest
        (both keys collapsed to the bare string ``"1"``), so two different
        parameter dicts could serve each other's cache entries."""
        assert stable_hash({1: "a"}) != stable_hash({"1": "a"})
        assert stable_hash({True: "a"}) != stable_hash({1: "a"})
        assert stable_hash({1.0: "a"}) != stable_hash({1: "a"})
        assert canonicalize({1: "a"}) == {"int:1": "a"}
        assert canonicalize({"1": "a"}) == {"str:1": "a"}

    def test_non_finite_floats_hash_as_sentinels(self):
        """Regression: NaN/±inf raised (numpy scalars) or leaked the
        non-standard ``NaN``/``Infinity`` JSON tokens."""
        assert canonicalize(float("nan")) == "float:nan"
        assert canonicalize(float("inf")) == "float:inf"
        assert canonicalize(float("-inf")) == "float:-inf"
        digests = {stable_hash(v) for v in
                   (float("nan"), float("inf"), float("-inf"), 0.0)}
        assert len(digests) == 4

    def test_numpy_non_finite_scalars_hash_like_builtins(self):
        assert stable_hash(np.float32("nan")) == stable_hash(float("nan"))
        assert stable_hash(np.float64("inf")) == stable_hash(float("inf"))
        assert stable_hash(np.float64("-inf")) == stable_hash(float("-inf"))
        assert stable_hash({"w": np.float64("nan")}) == stable_hash({"w": float("nan")})

    def test_canonical_json_is_strict(self):
        """The canonical form always survives strict JSON round-tripping."""
        obj = {"a": float("inf"), 3: [float("nan"), np.float32(2.0)]}
        payload = json.dumps(canonicalize(obj), allow_nan=False, sort_keys=True)
        assert json.loads(payload) == canonicalize(obj)

    def test_chain_key_depends_on_parent_and_version(self):
        k1 = chain_key(None, "denoise", "1", {"w": 0.08})
        assert chain_key(None, "denoise", "2", {"w": 0.08}) != k1
        assert chain_key(k1, "denoise", "1", {"w": 0.08}) != k1
        assert chain_key(None, "denoise", "1", {"w": 0.09}) != k1
        assert chain_key(None, "denoise", "1", {"w": 0.08}) == k1


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=12),
)
_key = st.one_of(
    st.text(max_size=8),
    st.booleans(),
    st.integers(min_value=-100, max_value=100),
)
_tree = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_key, children, max_size=4),
    ),
    max_leaves=12,
)


def _comparable(canonical):
    """A type-tagged view of a canonical form under which equality means
    exactly "same canonical JSON text": ``1``/``1.0``/``True`` compare
    equal in Python but encode differently, and ``repr`` separates
    ``-0.0`` from ``0.0`` the same way ``json.dumps`` does."""
    if isinstance(canonical, list):
        return ("list", tuple(_comparable(v) for v in canonical))
    if isinstance(canonical, dict):
        return ("dict", tuple(sorted(
            (k, _comparable(v)) for k, v in canonical.items()
        )))
    if isinstance(canonical, float):
        return ("float", repr(canonical))
    return (type(canonical).__name__, canonical)


class TestDigestInjectivity:
    @given(a=_tree, b=_tree)
    @settings(max_examples=200, deadline=None)
    def test_distinct_canonical_inputs_never_share_a_digest(self, a, b):
        """``stable_hash`` collides iff the canonical forms are identical
        (so ``{1: x}`` vs ``{"1": x}``, NaN vs inf, 0 vs False all stay
        distinct) — the injectivity the cache-key contract promises."""
        ca, cb = _comparable(canonicalize(a)), _comparable(canonicalize(b))
        if ca == cb:
            assert stable_hash(a) == stable_hash(b)
        else:
            assert stable_hash(a) != stable_hash(b)


class TestStageCache:
    def test_roundtrip(self, tmp_path):
        cache = StageCache(tmp_path)
        key = stable_hash({"stage": "test"})
        assert not cache.contains(key)
        nbytes = cache.store(key, {"value": [1, 2, 3]}, {"n": 3.0})
        assert nbytes > 0
        assert cache.contains(key)
        assert cache.entry_bytes(key) == nbytes
        payload, notes = cache.load(key)
        assert payload == {"value": [1, 2, 3]}
        assert notes == {"n": 3.0}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        key = stable_hash("corrupt")
        cache.store(key, {"v": 1}, {})
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.load(key) is None

    def test_disabled_cache(self):
        cache = StageCache(None)
        assert not cache.enabled
        assert not cache.contains("ab" * 32)
        assert cache.load("ab" * 32) is None
        assert cache.store("ab" * 32, {"v": 1}, {}) == 0
        assert cache.entry_bytes("ab" * 32) == 0

    def test_concurrent_writers_share_a_directory(self, tmp_path):
        """Many writers racing on the same keys (the multi-chip campaign
        shape: one shared cache dir, one StageCache per worker) never
        corrupt an entry — every load returns a complete payload."""
        keys = [stable_hash({"stage": "race", "k": k}) for k in range(4)]

        def hammer(worker: int) -> None:
            cache = StageCache(tmp_path)
            for round_ in range(8):
                for k, key in enumerate(keys):
                    cache.store(key, {"k": k, "blob": b"x" * 4096}, {"n": 1.0})
                    loaded = cache.load(key)
                    assert loaded is not None
                    payload, notes = loaded
                    assert payload["k"] == k and len(payload["blob"]) == 4096

        with ThreadPoolExecutor(max_workers=6) as pool:
            for f in [pool.submit(hammer, w) for w in range(6)]:
                f.result()  # re-raises any assertion from the workers

        cache = StageCache(tmp_path)
        for k, key in enumerate(keys):
            payload, _ = cache.load(key)
            assert payload["k"] == k
        assert not list(tmp_path.glob("*/*.tmp"))  # no leaked tmp files

    def test_sweep_removes_only_stale_tmp_files(self, tmp_path):
        cache = StageCache(tmp_path)
        key = stable_hash("sweep")
        cache.store(key, {"v": 1}, {})
        entry_dir = cache.path_for(key).parent
        stale = entry_dir / "dead-writer.tmp"
        stale.write_bytes(b"partial")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = entry_dir / "live-writer.tmp"
        fresh.write_bytes(b"in flight")

        assert cache.sweep_stale_tmp(max_age_s=3600.0) == 1
        assert not stale.exists()
        assert fresh.exists()          # live writer is left alone
        assert cache.contains(key)     # finished entries untouched
        assert cache.sweep_stale_tmp(max_age_s=3600.0) == 0

    def test_sweep_on_disabled_cache_is_a_noop(self):
        assert StageCache(None).sweep_stale_tmp() == 0


class TestBlobSidecars:
    """The mmap-backed ``.npy`` sidecar format and its corruption paths."""

    def _array_payload(self, seed=11):
        rng = np.random.default_rng(seed)
        return {
            "images": [rng.random((64, 48)) for _ in range(3)],
            "drift": [0, 1, -1],
        }

    def test_large_arrays_become_sidecars(self, tmp_path):
        import pickle as _pickle

        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("sidecars")
        payload = self._array_payload()
        cache.store(key, payload, {"n": 3.0})
        sidecars = sorted(cache.path_for(key).parent.glob(f"{key}.b*.npy"))
        assert len(sidecars) == 3
        loaded, notes = cache.load(key)
        assert notes == {"n": 3.0}
        # mmap-backed arrays must pickle byte-identically to the originals
        assert _pickle.dumps(loaded) == _pickle.dumps(payload)
        assert loaded["images"][0].base is not None  # actually mapped

    def test_small_arrays_stay_inline(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=10**9)
        key = stable_hash("inline")
        cache.store(key, self._array_payload(), {})
        assert not list(cache.path_for(key).parent.glob(f"{key}.b*.npy"))
        loaded, _ = cache.load(key)
        assert np.array_equal(
            loaded["images"][1], self._array_payload()["images"][1]
        )

    def test_disabled_sidecars_match_classic_format(self, tmp_path):
        import pickle as _pickle

        classic = StageCache(tmp_path / "classic", blob_min_bytes=None)
        key = stable_hash("classic")
        payload = self._array_payload()
        classic.store(key, payload, {})
        assert not list(classic.path_for(key).parent.glob(f"{key}.b*.npy"))
        loaded, _ = classic.load(key)
        assert _pickle.dumps(loaded) == _pickle.dumps(payload)

    def test_zero_blob_min_bytes_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            StageCache(tmp_path, blob_min_bytes=0)

    def test_legacy_plain_pickle_entry_still_loads(self, tmp_path):
        """Entries written before the sidecar format must keep loading."""
        writer = StageCache(tmp_path, blob_min_bytes=None)
        key = stable_hash("legacy")
        payload = self._array_payload()
        writer.store(key, payload, {"n": 1.0})
        reader = StageCache(tmp_path)  # sidecar-aware reader
        loaded = reader.load(key)
        assert loaded is not None
        assert np.array_equal(loaded[0]["images"][2], payload["images"][2])

    def test_truncated_sidecar_evicts_and_misses(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("truncated")
        cache.store(key, self._array_payload(), {})
        blob = cache.blob_path(key, 0)
        blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
        assert cache.load(key) is None
        assert not cache.contains(key)        # evicted, not just missed
        assert not blob.exists()
        assert cache.load(key) is None        # stable after eviction

    def test_zero_length_sidecar_evicts_and_misses(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("zero-blob")
        cache.store(key, self._array_payload(), {})
        cache.blob_path(key, 1).write_bytes(b"")
        assert cache.load(key) is None
        assert not cache.contains(key)

    def test_missing_sidecar_evicts_and_misses(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("missing-blob")
        cache.store(key, self._array_payload(), {})
        cache.blob_path(key, 2).unlink()
        assert cache.load(key) is None
        assert not cache.contains(key)

    def test_garbage_npy_header_evicts_and_misses(self, tmp_path):
        """A sidecar whose header dict is garbage fails numpy's header parse
        (a tokenizer error, not a ValueError) and still reads as a miss."""
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("garbage-header")
        cache.store(key, self._array_payload(), {})
        blob = cache.blob_path(key, 0)
        raw = blob.read_bytes()
        header_end = raw.index(b"\n") + 1
        garbage = b"{'descr': '<f8', 'shape': (64,".ljust(header_end - 10)
        blob.write_bytes(raw[:10] + garbage + raw[header_end:])
        assert cache.load(key) is None
        assert not cache.contains(key)
        assert not blob.exists()

    def test_zero_length_pickle_evicts_and_misses(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("zero-pkl")
        cache.store(key, self._array_payload(), {})
        cache.path_for(key).write_bytes(b"")
        assert cache.load(key) is None
        assert not cache.contains(key)
        # the dangling sidecars were evicted along with the pickle
        assert not list(cache.path_for(key).parent.glob(f"{key}.b*.npy"))

    def test_corruption_recompute_cycle(self, tmp_path):
        """Evict-on-corruption lets a plain re-store repair the entry."""
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("recompute")
        payload = self._array_payload()
        cache.store(key, payload, {"n": 3.0})
        cache.blob_path(key, 0).write_bytes(b"garbage")
        assert cache.load(key) is None
        cache.store(key, payload, {"n": 3.0})  # the recompute
        loaded = cache.load(key)
        assert loaded is not None
        assert np.array_equal(loaded[0]["images"][0], payload["images"][0])

    def test_entry_bytes_counts_sidecars(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("sizes")
        stored = cache.store(key, self._array_payload(), {})
        assert cache.entry_bytes(key) == stored
        assert stored > cache.path_for(key).stat().st_size  # pkl alone is smaller

    def test_sweep_removes_orphaned_sidecars(self, tmp_path):
        cache = StageCache(tmp_path, blob_min_bytes=1024)
        key = stable_hash("orphans")
        cache.store(key, self._array_payload(), {})
        # an orphan: sidecar with no pickle (writer died before the pkl)
        orphan_key = stable_hash("dead-writer")
        orphan_dir = cache.path_for(orphan_key).parent
        orphan_dir.mkdir(parents=True, exist_ok=True)
        orphan = orphan_dir / f"{orphan_key}.b0.npy"
        orphan.write_bytes(b"partial")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        fresh_orphan = orphan_dir / f"{orphan_key}.b1.npy"
        fresh_orphan.write_bytes(b"in flight")

        assert cache.sweep_stale_tmp(max_age_s=3600.0) == 1
        assert not orphan.exists()
        assert fresh_orphan.exists()   # young enough to be a live writer
        assert cache.load(key) is not None  # complete entries untouched
