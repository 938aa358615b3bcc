"""Tests for the persistent artifact tier (:mod:`repro.exec.persist`).

The contract under test is the one the cross-invocation golden tier relies
on: every artefact kind round-trips through disk **bit-identically**, keys
hash to the same filename in any process, and a store directory that has
been truncated, corrupted or written by a different format version behaves
exactly like a cold cache — never like an error.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baking.baked_model import SizeConstants, bake_field
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.profiler import ProfileFitter
from repro.exec import ArtifactStore, DiskArtifactStore, create_artifact_store
from repro.exec.persist import (
    FORMAT_VERSION,
    MAGIC,
    canonical_key,
    key_digest,
    key_filename,
)
from repro.render import RenderEngine
from repro.scenes.cameras import orbit_cameras

#: A representative content-addressed key: every leaf type the pipeline
#: actually puts into profile/baked keys (strings, ints, floats, bools,
#: None, nested tuples, a frozen dataclass).
SAMPLE_KEY = (
    "profile",
    "scene4",
    "lego",
    ((None, 0.123456789012), ("a", 1, -2.5)),
    (16, 24, 32),
    (1, 2),
    160,
    1,
    0,
    True,
    SizeConstants(),
)


def make_profile(name: str = "obj"):
    """A deterministic fitted profile (synthetic measurements, no renders)."""
    space = ConfigurationSpace(granularities=(8, 16, 32), patch_sizes=(1, 2, 3))

    def measure(config: Configuration) -> tuple:
        quality = 1.0 - 1.0 / (config.granularity * (config.patch_size + 0.5))
        size = 0.01 * config.granularity**2 * config.patch_size
        return quality, size

    profile = ProfileFitter(space).fit(name, measure)
    profile.detail_weight = 1.375
    return profile


# ---------------------------------------------------------------------------
# Round-trip bit-identity
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_profile_roundtrip_is_bit_identical(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        profile = make_profile()
        key = ("profile",) + SAMPLE_KEY[1:]
        assert store.put(key, profile)
        loaded = store.get(key)
        assert loaded is not profile
        assert loaded.state_tuple() == profile.state_tuple()
        # Exactly equal predictions everywhere the selector can look.
        for config in profile.config_space:
            assert loaded.predict_quality(config) == profile.predict_quality(config)
            assert loaded.predict_size(config) == profile.predict_size(config)
            assert loaded.objective_quality(config) == profile.objective_quality(config)

    @pytest.mark.parametrize("materialize", [False, True], ids=["lazy", "atlas"])
    def test_baked_roundtrip_is_bit_identical(self, tmp_path, two_object_scene, materialize):
        placed = two_object_scene.placed[1]  # the high-frequency cube
        model = bake_field(
            placed, granularity=12, patch_size=2, name="cube",
            materialize_textures=materialize,
        )
        store = DiskArtifactStore(str(tmp_path))
        key = ("baked", "tiny", "cube", 12, 2, materialize, SizeConstants())
        assert store.put(key, model)
        loaded = store.get(key)

        assert loaded.name == model.name
        assert loaded.granularity == model.granularity
        assert loaded.patch_size == model.patch_size
        assert loaded.size_bytes() == model.size_bytes()
        assert loaded.size_constants == model.size_constants
        assert np.array_equal(loaded.grid.occupancy, model.grid.occupancy)
        assert np.array_equal(loaded.grid.origin, model.grid.origin)
        assert loaded.grid.voxel_size == model.grid.voxel_size
        assert np.array_equal(loaded.faces.voxel_indices, model.faces.voxel_indices)
        assert np.array_equal(loaded.faces.axes, model.faces.axes)
        assert np.array_equal(loaded.faces.signs, model.faces.signs)

        # Texture lookup must agree everywhere, including off-centre (u, v)
        # that quantise onto texel centres — this is where the lazy texture
        # materialisation has to be exact.
        rng = np.random.default_rng(3)
        faces = rng.integers(0, model.num_faces, 256)
        u = rng.random(256)
        v = rng.random(256)
        assert np.array_equal(
            loaded.texture.sample(faces, u, v), model.texture.sample(faces, u, v)
        )

    def test_reloaded_lazy_bake_renders_bit_identically(self, tmp_path, two_object_scene):
        placed = two_object_scene.placed[0]
        model = bake_field(placed, granularity=12, patch_size=2, name="sphere")
        store = DiskArtifactStore(str(tmp_path))
        key = ("baked", "tiny", "sphere", 12, 2)
        store.put(key, model)
        loaded = store.get(key)

        camera = orbit_cameras(
            two_object_scene.center,
            radius=1.3 * two_object_scene.extent,
            count=1,
            width=40,
            height=40,
        )[0]
        engine = RenderEngine(chunk_rays=353)
        original = engine.render_baked(model, camera)
        reloaded = engine.render_baked(loaded, camera)
        assert np.array_equal(original.rgb, reloaded.rgb)
        assert np.array_equal(original.hit_mask, reloaded.hit_mask)
        finite = np.isfinite(original.depth)
        assert np.array_equal(finite, np.isfinite(reloaded.depth))
        assert np.array_equal(original.depth[finite], reloaded.depth[finite])


# ---------------------------------------------------------------------------
# Key stability
# ---------------------------------------------------------------------------


class TestKeyStability:
    def test_canonical_key_distinguishes_leaf_types(self):
        assert canonical_key((1,)) != canonical_key((1.0,))
        assert canonical_key((1,)) != canonical_key((True,))
        assert canonical_key((1,)) != canonical_key(("1",))
        assert canonical_key((None,)) != canonical_key((0,))
        assert canonical_key(("ab", "c")) != canonical_key(("a", "bc"))

    def test_unsupported_key_type_raises(self):
        with pytest.raises(TypeError):
            canonical_key(("profile", object()))

    def test_key_digest_stable_across_processes(self):
        """The same key tuple must hash identically in a fresh interpreter.

        This is the property that makes a disk store shared across
        invocations (and CI runs) work at all; it would fail if the
        canonical encoding leaned on ``hash()`` or on ``id``-dependent
        ``repr``.
        """
        script = (
            "from repro.exec.persist import key_digest\n"
            "from repro.baking.baked_model import SizeConstants\n"
            "key = ('profile', 'scene4', 'lego', ((None, 0.123456789012),"
            " ('a', 1, -2.5)), (16, 24, 32), (1, 2), 160, 1, 0, True,"
            " SizeConstants())\n"
            "print(key_digest(key))\n"
        )
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == key_digest(SAMPLE_KEY)

    def test_filename_carries_kind_tag(self):
        assert key_filename(SAMPLE_KEY).startswith("profile-")
        assert key_filename(("baked", 1)).startswith("baked-")
        assert key_filename(SAMPLE_KEY).endswith(".art")


# ---------------------------------------------------------------------------
# Robustness: version mismatch, truncation, corruption
# ---------------------------------------------------------------------------


class TestRobustness:
    def _stored(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        key = ("profile", "robust")
        store.put(key, make_profile())
        return store, key, store.path_for(key)

    def test_version_mismatch_is_a_miss_and_discards(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        blob = Path(path).read_bytes()
        future = struct.pack("<8sI", MAGIC, FORMAT_VERSION + 1) + blob[12:]
        with open(path, "wb") as handle:
            handle.write(future)
        assert store.get(key) is None
        assert store.stats.version_mismatches == 1
        assert not os.path.exists(path)
        # A subsequent put/get cycle repopulates cleanly.
        store.put(key, make_profile())
        assert store.get(key) is not None

    def test_truncated_file_is_a_miss_and_discards(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        blob = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        blob = bytearray(Path(path).read_bytes())
        blob[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        assert store.get(key) is None
        assert store.stats.corrupt == 1

    def test_garbage_file_is_a_miss(self, tmp_path):
        store, key, path = self._stored(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"not an artifact at all")
        assert store.get(key) is None
        assert store.stats.corrupt == 1

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        assert store.get(("profile", "absent")) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_unwritable_directory_degrades_to_memory_only(self, tmp_path):
        """An unusable cache dir must never turn a put into an error.

        The blocker is a plain *file* where the store expects its
        directory, which raises ``OSError`` for any user (a chmod-based
        check would pass silently when the suite runs as root).
        """
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        store = create_artifact_store(directory=str(blocker))
        key = ("profile", "unwritable")
        store.put(key, make_profile())  # must not raise
        assert store.disk.stats.write_errors == 1
        assert store.disk.stats.puts == 0
        assert store.get(key) is not None  # memory tier still serves it

    def test_non_canonical_key_is_a_miss_on_disk_backed_get(self, tmp_path):
        """Keys outside the canonical vocabulary behave like the memory-only
        store: a miss, never a TypeError."""
        store = create_artifact_store(directory=str(tmp_path))
        key = ("geometry", ("opaque", object()))
        assert store.get(key) is None
        store.put(key, "value")
        assert store.get(key) == "value"


# ---------------------------------------------------------------------------
# Eviction bounds
# ---------------------------------------------------------------------------


class TestEviction:
    def test_disk_store_stays_under_byte_bound(self, tmp_path):
        store = DiskArtifactStore(str(tmp_path))
        probe_key = ("profile", "size-probe")
        store.put(probe_key, make_profile())
        one_file = store.size_bytes()
        assert one_file > 0

        bounded = DiskArtifactStore(str(tmp_path / "bounded"), max_bytes=int(2.5 * one_file))
        for index in range(6):
            bounded.put(("profile", "evict", index), make_profile())
            time.sleep(0.01)  # distinct access times for LRU ordering
        assert bounded.size_bytes() <= bounded.max_bytes
        assert bounded.stats.evictions >= 3
        # The most recent artefact survives; the oldest is gone.
        assert bounded.get(("profile", "evict", 5)) is not None
        assert bounded.get(("profile", "evict", 0)) is None

    def test_invalid_bound_raises(self, tmp_path):
        with pytest.raises(ValueError):
            DiskArtifactStore(str(tmp_path), max_bytes=0)


class TestConcurrentEviction:
    """Two stores sharing one directory must race-tolerantly co-evict.

    Regression for the cross-process eviction race: a stat or unlink on an
    entry another store just evicted must be treated as already-gone —
    never surface as :class:`FileNotFoundError` — and a store must only
    count evictions it actually performed.
    """

    def _filled_store(self, root, files: int = 6) -> DiskArtifactStore:
        store = DiskArtifactStore(str(root), max_bytes=1 << 30)
        for index in range(files):
            store.put(("profile", "race", index), make_profile())
            time.sleep(0.01)
        return store

    def test_entry_vanishing_mid_eviction_is_already_gone(self, tmp_path):
        store = self._filled_store(tmp_path)
        one_file = store.size_bytes() // 6
        store.max_bytes = 2 * one_file
        # Simulate a concurrent evictor winning the race: the LRU-oldest
        # entries disappear after this store listed them.
        for path, _, _ in sorted(store._entries(), key=lambda entry: entry[2])[:3]:
            os.remove(path)
        store._evict_to_bound()  # must not raise
        assert store.size_bytes() <= store.max_bytes
        # Three entries remained (3 files x size), the bound holds two, so
        # exactly one eviction was actually performed by this store — the
        # three that vanished under it are not counted.
        assert store.stats.evictions == 1
        assert len(store) == 2

    def test_discard_reports_already_gone(self, tmp_path):
        store = self._filled_store(tmp_path, files=1)
        (path, _, _) = store._entries()[0]
        assert store._discard(path) is True
        assert store._discard(path) is False  # already gone, not an error

    def test_clear_counts_only_actual_removals(self, tmp_path):
        store = self._filled_store(tmp_path, files=3)
        victim = store._entries()[0][0]
        os.remove(victim)
        assert store.clear() == 2

    def test_two_stores_evicting_concurrently(self, tmp_path):
        first = self._filled_store(tmp_path, files=8)
        one_file = first.size_bytes() // 8
        bound = 3 * one_file
        first.max_bytes = bound
        second = DiskArtifactStore(str(tmp_path), max_bytes=bound)
        errors = []

        def hammer(store, worker):
            try:
                for index in range(12):
                    store.put(("profile", "hammer", worker, index), make_profile())
                    store._evict_to_bound()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        import threading

        threads = [
            threading.Thread(target=hammer, args=(store, worker))
            for worker, store in enumerate([first, second])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Both stores stayed usable and the directory respects the bound
        # once the dust settles (each store enforces it independently).
        first._evict_to_bound()
        assert first.size_bytes() <= bound
        assert first.stats.evictions + second.stats.evictions > 0


# ---------------------------------------------------------------------------
# Two-level store semantics
# ---------------------------------------------------------------------------


class TestTwoLevelStore:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        key = ("profile", "promote")
        create_artifact_store(directory=str(tmp_path)).put(key, make_profile())

        fresh = create_artifact_store(directory=str(tmp_path))
        first = fresh.get(key)
        assert first is not None
        assert fresh.stats.disk_hits == 1
        second = fresh.get(key)
        assert second is first  # served from the memory tier
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.hits == 2
        assert fresh.recompute_by_kind() == {}

    def test_both_tier_miss_counts_recompute(self, tmp_path):
        store = create_artifact_store(directory=str(tmp_path))
        assert store.get(("profile", "nope")) is None
        assert store.get(("baked", "nope")) is None
        assert store.recompute_by_kind() == {"profile": 1, "baked": 1}
        summary = store.stats_summary()
        assert summary["recompute_by_kind"] == {"profile": 1, "baked": 1}
        assert summary["disk"]["misses"] == 2

    def test_paper_model_profile_stays_memory_only(self, tmp_path):
        """Profiles carrying the reference-only paper models have no codec.

        Persistence must degrade to the memory tier, never error.
        """
        from repro.core.profiler import PaperQualityModel

        profile = make_profile()
        profile.quality_model = PaperQualityModel()
        store = create_artifact_store(directory=str(tmp_path))
        store.put(("profile", "paper-model"), profile)
        assert store.get(("profile", "paper-model")) is profile
        assert store.disk.stats.encode_skips == 1
        assert len(store.disk) == 0

    def test_uncodable_value_stays_memory_only(self, tmp_path):
        store = create_artifact_store(directory=str(tmp_path))
        store.put(("geometry", "mem"), {"not": "serialisable"})
        assert store.get(("geometry", "mem")) == {"not": "serialisable"}
        assert store.disk.stats.encode_skips == 1
        assert len(store.disk) == 0

    def test_invalidate_clears_both_tiers(self, tmp_path):
        store = create_artifact_store(directory=str(tmp_path))
        store.put(("profile", 1), make_profile())
        store.put(("baked", "x"), make_profile())  # profile-shaped, any kind tag
        assert len(store.disk) == 2
        store.invalidate("profile")
        assert ("profile", 1) not in store
        assert len(store.disk) == 1
        store.invalidate()
        assert len(store.disk) == 0
        assert len(store) == 0

    def test_memory_only_store_unaffected(self):
        store = create_artifact_store()
        assert store.disk is None
        store.put(("profile", 1), make_profile())
        assert store.get(("profile", 1)) is not None
        assert "disk" not in store.stats_summary()

    def test_artifact_store_direct_disk_argument(self, tmp_path):
        disk = DiskArtifactStore(str(tmp_path))
        store = ArtifactStore(disk=disk)
        store.put(("profile", "direct"), make_profile())
        assert disk.stats.puts == 1
