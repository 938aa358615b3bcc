"""Tests for the unified render engine: parity, batching, cache accounting.

The engine replaced three hand-rolled marching loops; these tests pin down
the property that made the refactor safe — the engine's output is
*bit-identical* (asserted at atol <= 1e-9, measured at 0.0) to the legacy
scene, field and baked wrappers, and every path (volume included) is
invariant to cross-view batching, chunk size and worker count — plus the
cache's hit/miss accounting.
"""

import numpy as np
import pytest

from repro.baking.baked_model import BakedMultiModel, bake_field
from repro.baking.renderer import render_baked, render_baked_multi
from repro.nerf.degradation import DegradedField
from repro.metrics import ssim
from repro.render import RenderCache, RenderEngine, camera_cache_key, default_engine
from repro.render.cache import CacheStats
from repro.scenes.cameras import orbit_cameras
from repro.scenes.library import make_single_object_scene
from repro.scenes.raytrace import render_field, render_scene
from tests._race import SlowKey, run_racing, yielding_counters

ATOL = 1e-9


def assert_results_identical(a, b, atol=ATOL):
    """Two RenderResults agree on every buffer (inf-aware)."""
    assert np.array_equal(a.hit_mask, b.hit_mask)
    assert np.array_equal(a.object_ids, b.object_ids)
    assert np.array_equal(np.isfinite(a.depth), np.isfinite(b.depth))
    finite = np.isfinite(a.depth)
    np.testing.assert_allclose(a.depth[finite], b.depth[finite], atol=atol, rtol=0)
    np.testing.assert_allclose(a.rgb, b.rgb, atol=atol, rtol=0)


@pytest.fixture(scope="module")
def cameras(two_object_scene):
    scene = two_object_scene
    return orbit_cameras(
        scene.center, radius=1.3 * scene.extent, count=3, width=40, height=40
    )


@pytest.fixture(scope="module")
def baked_models(two_object_scene):
    return BakedMultiModel(
        [
            bake_field(placed, 14, 2, name=placed.instance_name)
            for placed in two_object_scene.placed
        ]
    )


class TestLegacyParity:
    """Engine output == legacy module-level wrappers, bit for bit."""

    def test_scene_path(self, two_object_scene, cameras):
        engine = RenderEngine()
        for camera in cameras:
            assert_results_identical(
                render_scene(two_object_scene, camera),
                engine.render_scene(two_object_scene, camera),
            )

    def test_scene_path_unshaded(self, two_object_scene, cameras):
        assert_results_identical(
            render_scene(two_object_scene, cameras[0], shading=False),
            RenderEngine().render_scene(two_object_scene, cameras[0], shading=False),
        )

    def test_field_path(self, two_object_scene, cameras):
        field = DegradedField(two_object_scene, 0.02, seed=0)
        engine = RenderEngine()
        for camera in cameras[:2]:
            assert_results_identical(
                render_field(field, camera), engine.render_field(field, camera)
            )

    def test_baked_path(self, baked_models, cameras):
        engine = RenderEngine()
        for camera in cameras:
            assert_results_identical(
                render_baked_multi(baked_models, camera),
                engine.render_baked(baked_models, camera),
            )

    def test_baked_single_model(self, baked_models, cameras):
        assert_results_identical(
            render_baked(baked_models.submodels[0], cameras[0]),
            RenderEngine().render_baked(baked_models.submodels[0], cameras[0]),
        )


class TestVolumeRender:
    def test_volume_render_resembles_ground_truth(self):
        scene = make_single_object_scene("sphere")
        camera = orbit_cameras(
            scene.center, radius=1.3 * scene.extent, count=1, width=48, height=48
        )[0]
        reference = render_scene(scene, camera)
        rendered = RenderEngine().volume_render_field(scene, camera, num_samples=96)
        assert ssim(reference.rgb, rendered.rgb) > 0.6
        assert rendered.hit_mask.any()


class TestBatchingInvariance:
    """Cross-view batching, chunking and workers never change the image."""

    def test_scene_views_match_single_renders(self, two_object_scene, cameras):
        engine = RenderEngine()
        batched = engine.render_scene_views(two_object_scene, cameras)
        for camera, result in zip(cameras, batched):
            assert_results_identical(engine.render_scene(two_object_scene, camera), result)

    def test_field_views_match_single_renders(self, two_object_scene, cameras):
        field = DegradedField(two_object_scene, 0.02, seed=0)
        engine = RenderEngine()
        batched = engine.render_field_views(field, cameras[:2])
        for camera, result in zip(cameras[:2], batched):
            assert_results_identical(engine.render_field(field, camera), result)

    def test_volume_views_match_single_renders(self, two_object_scene, cameras):
        engine = RenderEngine()
        batched = engine.volume_render_views(two_object_scene, cameras[:2], num_samples=32)
        for camera, result in zip(cameras[:2], batched):
            assert_results_identical(
                engine.volume_render_field(two_object_scene, camera, num_samples=32),
                result,
            )

    def test_baked_views_match_single_renders(self, baked_models, cameras):
        engine = RenderEngine()
        batched = engine.render_baked_views(baked_models, cameras)
        for camera, result in zip(cameras, batched):
            assert_results_identical(engine.render_baked(baked_models, camera), result)

    def test_chunk_size_and_workers_invariance(self, baked_models, two_object_scene, cameras):
        reference_engine = RenderEngine()
        odd_engine = RenderEngine(chunk_rays=173, workers=3)
        assert_results_identical(
            reference_engine.render_baked(baked_models, cameras[0]),
            odd_engine.render_baked(baked_models, cameras[0]),
        )
        assert_results_identical(
            reference_engine.volume_render_field(two_object_scene, cameras[0], num_samples=24),
            odd_engine.volume_render_field(two_object_scene, cameras[0], num_samples=24),
        )

    def test_render_rays_dispatch(self, two_object_scene, baked_models):
        from repro.scenes.cameras import camera_rays

        camera = orbit_cameras(
            two_object_scene.center, radius=1.3 * two_object_scene.extent, count=1,
            width=16, height=16,
        )[0]
        origins, directions = camera_rays(camera)
        engine = RenderEngine()
        scene_buffers = engine.render_rays(two_object_scene, origins, directions)
        assert scene_buffers["rgb"].shape == (256, 3)
        assert set(np.unique(scene_buffers["object_ids"])) <= {-1, 0, 1}
        baked_buffers = engine.render_rays(baked_models, origins, directions)
        assert baked_buffers["rgb"].shape == (256, 3)
        field_buffers = engine.render_rays(
            DegradedField(two_object_scene, 0.02, seed=0), origins, directions
        )
        assert set(np.unique(field_buffers["object_ids"])) <= {-1, 0}


class TestRenderCache:
    def test_cache_hit_accounting(self, two_object_scene, cameras):
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        first = engine.render_scene(two_object_scene, cameras[0], scene_key="tiny")
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = engine.render_scene(two_object_scene, cameras[0], scene_key="tiny")
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert second is first

    def test_partial_batch_hit_renders_only_misses(self, two_object_scene, cameras):
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        engine.render_scene(two_object_scene, cameras[1], scene_key="tiny")
        results = engine.render_scene_views(two_object_scene, cameras, scene_key="tiny")
        # One view was already cached; the other two were rendered and stored.
        assert cache.stats.hits == 1
        assert cache.stats.misses == 3
        assert len(cache) == 3
        reference = RenderEngine().render_scene(two_object_scene, cameras[1])
        assert_results_identical(results[1], reference)

    def test_no_scene_key_means_no_caching(self, two_object_scene, cameras):
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        engine.render_scene(two_object_scene, cameras[0])
        assert len(cache) == 0 and cache.stats.requests == 0

    def test_quality_key_separates_entries(self, two_object_scene, cameras):
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        shaded = engine.render_scene(two_object_scene, cameras[0], scene_key="tiny")
        unshaded = engine.render_scene(
            two_object_scene, cameras[0], shading=False, scene_key="tiny"
        )
        assert len(cache) == 2
        assert not np.allclose(shaded.rgb, unshaded.rgb)

    def test_baked_fingerprint_separates_models(self, baked_models, two_object_scene, cameras):
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        other = BakedMultiModel(
            [
                bake_field(placed, 10, 1, name=placed.instance_name)
                for placed in two_object_scene.placed
            ]
        )
        engine.render_baked(baked_models, cameras[0], scene_key="tiny")
        engine.render_baked(other, cameras[0], scene_key="tiny")
        assert len(cache) == 2 and cache.stats.hits == 0

    def test_baked_fingerprint_only_computed_with_scene_key(
        self, baked_models, cameras, monkeypatch
    ):
        """Anonymous baked renders are never cached, so they must not pay
        for the fingerprint's texture probes; keyed renders still key on
        it."""
        import repro.render.engine as engine_module

        calls = []
        fingerprint = engine_module.baked_fingerprint

        def spy(multi):
            calls.append(multi)
            return fingerprint(multi)

        monkeypatch.setattr(engine_module, "baked_fingerprint", spy)
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        anonymous = engine.render_baked(baked_models, cameras[0])
        assert calls == [] and len(cache) == 0
        keyed = engine.render_baked(baked_models, cameras[0], scene_key="tiny")
        assert len(calls) == 1 and len(cache) == 1
        assert_results_identical(anonymous, keyed, atol=0.0)

    def test_same_scene_key_different_content_never_collides(self):
        """Two scenes that share a caller-supplied key (e.g. two datasets
        generated without explicit names) must not serve each other's
        renders — the cache key carries a content identity."""
        from repro.scenes.objects import make_sphere
        from repro.scenes.scene import PlacedObject, Scene

        low = Scene([PlacedObject(obj=make_sphere(frequency=2.0), instance_id=0)])
        high = Scene([PlacedObject(obj=make_sphere(frequency=9.0), instance_id=0)])
        camera = orbit_cameras(low.center, radius=1.3 * low.extent, count=1, width=24, height=24)[0]
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        first = engine.render_scene(low, camera, scene_key="scene")
        second = engine.render_scene(high, camera, scene_key="scene")
        assert cache.stats.hits == 0 and len(cache) == 2
        assert not np.allclose(first.rgb, second.rgb)

    def test_fingerprint_distinguishes_field_content(self, two_object_scene):
        """Two bakes of different fields (clean vs degraded albedo) must not
        share a cache identity even when their voxel geometry coincides —
        the fingerprint probes texture content, not just geometry counts."""
        from repro.render import baked_fingerprint

        placed = two_object_scene.placed[0]
        clean = BakedMultiModel([bake_field(placed, 12, 2, name="obj")])
        degraded = BakedMultiModel(
            [
                bake_field(
                    DegradedField(placed, 0.02, floater_rate=0.0, seed=0),
                    12,
                    2,
                    name="obj",
                )
            ]
        )
        assert baked_fingerprint(clean) != baked_fingerprint(degraded)
        # Stable across calls for the same model.
        assert baked_fingerprint(clean) == baked_fingerprint(clean)

    def test_lru_eviction(self, two_object_scene, cameras):
        cache = RenderCache(max_entries=2)
        engine = RenderEngine(cache=cache)
        for camera in cameras:
            engine.render_scene(two_object_scene, camera, scene_key="tiny")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest view was evicted, so re-rendering it misses again.
        engine.render_scene(two_object_scene, cameras[0], scene_key="tiny")
        assert cache.stats.misses == 4

    def test_invalidate_by_scene(self, two_object_scene, cameras):
        cache = RenderCache()
        engine = RenderEngine(cache=cache)
        engine.render_scene(two_object_scene, cameras[0], scene_key="a")
        engine.render_scene(two_object_scene, cameras[0], scene_key="b")
        assert cache.invalidate("a") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_camera_cache_key_sensitivity(self, cameras):
        key_a = camera_cache_key(cameras[0])
        key_b = camera_cache_key(cameras[1])
        assert key_a != key_b
        assert key_a == camera_cache_key(cameras[0].resized(cameras[0].width, cameras[0].height))

    def test_default_engine_is_shared_and_cached(self):
        engine = default_engine()
        assert engine is default_engine()
        assert engine.cache is not None


class TestRenderCacheConcurrency:
    """The cache is shared by concurrent render batches (thread backend)."""

    def test_concurrent_put_get_never_corrupts(self):
        import threading

        cache = RenderCache()
        errors = []

        def hammer(worker):
            try:
                for i in range(300):
                    key = ("scene", worker % 3, i % 40)
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, (worker, i))
                    else:
                        assert isinstance(value, tuple)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Accounting stays consistent: every request was a hit or a miss.
        assert cache.stats.requests == cache.stats.hits + cache.stats.misses
        assert len(cache) <= 3 * 40

    def test_concurrent_eviction_respects_bound(self):
        import threading

        cache = RenderCache(max_entries=16)
        barrier = threading.Barrier(6)
        errors = []

        def hammer(worker):
            try:
                barrier.wait()
                for i in range(400):
                    cache.put(("k", worker, i), i)
                    cache.get(("k", worker, i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The LRU bound holds under interleaved eviction.
        assert len(cache) <= 16
        assert cache.stats.evictions == 6 * 400 - 16

    def test_concurrent_accounting_is_exact(self):
        """Race-widened puts and gets: every counter matches what the
        threads observed, so a lost update under a dropped lock shows."""
        workers, rounds, bound = 4, 150, 8
        stats = yielding_counters(CacheStats, "hits", "misses", "evictions")()
        cache = RenderCache(max_entries=bound, stats=stats)
        observed = [[0, 0] for _ in range(workers)]  # per worker: hits, misses

        def hammer(worker):
            for i in range(rounds):
                key = SlowKey((worker, i))
                cache.put(key, i)
                for probe in (key, SlowKey(((worker + 1) % workers, i))):
                    observed[worker][cache.get(probe) is None] += 1

        assert not run_racing(hammer, workers)
        hits = sum(counts[0] for counts in observed)
        misses = sum(counts[1] for counts in observed)
        assert hits + misses == workers * rounds * 2
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
        assert len(cache) == bound
        assert cache.stats.evictions == workers * rounds - bound

    def test_concurrent_get_or_render_converges(self):
        import threading

        cache = RenderCache()
        built = []

        def render():
            built.append(1)
            return "image"

        results = []

        def worker():
            results.append(cache.get_or_render("key", render))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Racing threads may render redundantly but must agree on the value
        # and leave exactly one entry behind.
        assert set(results) == {"image"}
        assert len(cache) == 1
        assert 1 <= len(built) <= 8

    def test_concurrent_invalidate_is_safe(self):
        import threading

        cache = RenderCache()
        for i in range(64):
            cache.put(("a", i), i)
            cache.put(("b", i), i)
        errors = []

        def invalidate(scene_key):
            try:
                cache.invalidate(scene_key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=invalidate, args=(key,)) for key in ("a", "b", "a")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) == 0


class TestEngineValidation:
    def test_invalid_chunk_rays(self):
        with pytest.raises(ValueError):
            RenderEngine(chunk_rays=0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            RenderEngine(workers=0)

    def test_invalid_cache_bound(self):
        with pytest.raises(ValueError):
            RenderCache(max_entries=0)

    def test_invalid_num_samples(self, two_object_scene, cameras):
        with pytest.raises(ValueError):
            RenderEngine().volume_render_views(two_object_scene, cameras[:1], num_samples=0)
