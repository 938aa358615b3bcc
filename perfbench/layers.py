"""Per-layer timing from outside the program.

Every layer is timed by wrapping its public functions at the *binding
site* its callers look them up through: a module global (``ssim`` as
``repro.core.pipeline`` sees it), a class attribute (``PlacedObject.sdf``)
or a kernel-registry entry (``KERNELS["numpy"].march_occupancy``).  No
``src/`` file is touched.  The wrapper table is data (:data:`BINDINGS`);
a binding that no longer resolves, or that records no call on a workload
where it must fire, fails the run loudly instead of reading 0 s.

A layer's self time is the wall-clock of its wrapped calls minus the
wall-clock of wrapped calls nested inside them.  The sum of all self
times therefore equals the wall-clock of the outermost wrapped calls,
which is what the coverage check compares with the op wall-clock.

Every workload runs on the default in-process backend, so the benchmark
process sees all of the work.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

COLD = ("realworld-cold",)
BAKED = ("baked-render",)
ALL = COLD + BAKED

#: Minimum share of traced op wall-clock the outermost wrappers must cover.
MIN_COVERAGE = 0.95


@dataclasses.dataclass(frozen=True)
class Binding:
    """One wrapped function.

    Attributes:
        layer: metric prefix; self time lands on ``<layer>.self_s``.
        site: ``"module:attr.path"`` — the lookup callers go through.
            Path steps index dicts by key (``KERNELS.numpy``).
        expect: workloads on which the traced ops must call it.
        count: optional ``(args, result) -> {counter: increment}``; counter
            names are prefixed with the layer.
    """

    layer: str
    site: str
    expect: tuple = ()
    count: "callable" = None


def _calls(args, result) -> dict:
    return {"calls": 1}


def _sdf_points(args, result) -> dict:
    return {"calls": 1, "points": len(args[1])}


def _march_rays(args, result) -> dict:
    return {"rays": len(args[0]), "hits": len(result[0])}


def _sphere_steps(args, result) -> dict:
    return {"steps": len(args[3])}


def _texture_lookups(args, result) -> dict:
    return {"lookups": np.size(args[1])}


#: The wrapper table.  Order does not matter; several bindings may share a
#: layer (their self times add up).
BINDINGS = (
    Binding("scenes.sdf", "repro.scenes.scene:PlacedObject.sdf", COLD, _sdf_points),
    Binding("scenes.sdf", "repro.scenes.scene:Scene.sdf"),
    Binding("nerf.field", "repro.nerf.degradation:DegradedField.sdf", COLD),
    Binding("nerf.field", "repro.nerf.degradation:DegradedField.albedo"),
    Binding("render.march", "repro.render.kernels.registry:KERNELS.numpy.march_occupancy",
            ALL, _march_rays),
    Binding("render.sphere", "repro.render.kernels.registry:KERNELS.numpy.gather_ray_points",
            COLD, _sphere_steps),
    Binding("render.sphere", "repro.render.kernels.registry:KERNELS.numpy.sphere_advance",
            COLD),
    Binding("render.engine", "repro.render.engine:RenderEngine.render_scene_views", COLD),
    Binding("render.engine", "repro.render.engine:RenderEngine.render_field_views"),
    Binding("render.engine", "repro.render.engine:RenderEngine.volume_render_views"),
    Binding("render.engine", "repro.render.engine:RenderEngine.render_baked_views", ALL),
    Binding("baking.voxelize", "repro.baking.baked_model:voxelize_field",
            COLD, _calls),
    Binding("baking.meshing", "repro.baking.baked_model:extract_quad_faces",
            COLD),
    Binding("baking.texture", "repro.baking.texture:LazyTexture.sample",
            COLD, _texture_lookups),
    Binding("baking.texture", "repro.baking.texture:TextureAtlas.sample",
            BAKED, _texture_lookups),
    Binding("baking.texture", "repro.baking.baked_model:bake_texture_atlas"),
    Binding("core.segment", "repro.core.segmentation:DetailBasedSegmenter.segment", COLD),
    Binding("core.profile_fit", "repro.core.profiler:ProfileFitter.fit",
            COLD),
    Binding("core.select", "repro.core.selector:NeRFlexDPSelector.select", COLD),
    Binding("metrics.ssim", "repro.core.pipeline:ssim", COLD, _calls),
    Binding("metrics.lpips", "repro.core.pipeline:lpips_proxy", COLD),
    Binding("metrics.psnr", "repro.core.pipeline:psnr", COLD),
    Binding("exec.map", "repro.exec.backends:SerialBackend.map", ALL, _calls),
    Binding("exec.map", "repro.exec.backends:ThreadBackend.map", ALL, _calls),
)


#: Every per-layer metric: ``(name, source, moves, on)``, in the order of
#: ``per_layer`` in ``BENCHMARK.json``, which holds each metric's unit and
#: direction (:func:`check_spec` holds the two lists equal).  ``source`` is
#: ``self:<layer>`` (self time), ``count:<counter>`` (a wrapper counter) or
#: ``derived`` (from the pipeline's own report or a ratio, see
#: :func:`layer_metrics`).  ``moves``/``on`` name the end-to-end metric the
#: layer should move and the workloads where it should — the map later
#: changes cite their claims by.  Values are per op (per pipeline run, or
#: per frame on ``baked-render``).
LAYER_METRICS = (
    ("scenes.sdf.self_s", "self:scenes.sdf", "op_ms_p50", "cold; not baked-render"),
    ("scenes.sdf.calls", "count:scenes.sdf.calls", "op_ms_p50", "cold"),
    ("scenes.sdf.points", "count:scenes.sdf.points", "op_ms_p50", "cold"),
    ("nerf.field.self_s", "self:nerf.field", "op_ms_p50", "cold"),
    ("render.march.self_s", "self:render.march", "op_ms_p50", "baked-render (most), cold"),
    ("render.march.rays", "count:render.march.rays", "op_ms_p50", "baked-render, cold"),
    ("render.march.hit_ratio", "derived", "op_ms_p50", "baked-render, cold"),
    ("render.sphere.self_s", "self:render.sphere", "op_ms_p50", "cold"),
    ("render.sphere.steps", "count:render.sphere.steps", "op_ms_p50", "cold"),
    ("render.engine.self_s", "self:render.engine", "op_ms_p50", "baked-render"),
    ("render.cache.hit_rate", "derived", "op_ms_p50", "cold"),
    ("baking.voxelize.self_s", "self:baking.voxelize", "op_ms_p50", "cold"),
    ("baking.voxelize.calls", "count:baking.voxelize.calls", "op_ms_p50", "cold"),
    ("baking.meshing.self_s", "self:baking.meshing", "op_ms_p50", "cold"),
    ("baking.texture.self_s", "self:baking.texture", "op_ms_p50", "cold (lazy); baked-render (atlas)"),
    ("baking.texture.lookups", "count:baking.texture.lookups", "op_ms_p50", "cold; baked-render"),
    ("core.stage.segmentation_s", "derived", "op_ms_p50", "cold"),
    ("core.stage.profiler_s", "derived", "op_ms_p50", "cold"),
    ("core.stage.solver_s", "derived", "op_ms_p50", "cold"),
    ("core.stage.bake_s", "derived", "op_ms_p50", "cold"),
    ("core.stage.deploy_s", "derived", "op_ms_p50", "cold"),
    ("core.profile_fit_s", "self:core.profile_fit", "op_ms_p50", "cold"),
    ("core.segment_s", "self:core.segment", "op_ms_p50", "cold"),
    ("core.select_s", "self:core.select", "op_ms_p50", "cold"),
    ("metrics.ssim.self_s", "self:metrics.ssim", "op_ms_p50", "cold"),
    ("metrics.ssim.calls", "count:metrics.ssim.calls", "op_ms_p50", "cold"),
    ("metrics.lpips.self_s", "self:metrics.lpips", "op_ms_p50", "cold"),
    ("exec.map.s", "self:exec.map", "op_ms_p50", "cold (backend dispatch overhead)"),
    ("exec.map.calls", "count:exec.map.calls", "op_ms_p50", "cold"),
    ("trace.op_ms_p50", "derived", "none: traced op wall-clock, for the tracing overhead", "all"),
    ("trace.coverage", "derived", "none: share of op wall-clock in wrapped calls", "all"),
)


def check_spec(spec: dict) -> dict:
    """Raise unless ``BENCHMARK.json`` lists exactly :data:`LAYER_METRICS`;
    returns each per-layer metric's unit."""
    declared = [metric["name"] for metric in spec["per_layer"]]
    ours = [row[0] for row in LAYER_METRICS]
    if declared != ours:
        raise BindingError(f"BENCHMARK.json per_layer {declared} != layers.LAYER_METRICS {ours}")
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


class BindingError(RuntimeError):
    """A binding site vanished, or a wrapper that must fire never did."""


class Tracer:
    """Wrapper-based self-time accounting for one benchmark process."""

    def __init__(self) -> None:
        self._stack: list = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (the bindings stay installed)."""
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.fired = defaultdict(int)
        self.outer_s = 0.0

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "fired": dict(self.fired),
            "outer_s": self.outer_s,
        }

    def install(self, bindings=BINDINGS) -> None:
        for binding in bindings:
            self._patch(binding)

    def _patch(self, binding: Binding) -> None:
        module_name, path = binding.site.split(":")
        names = path.split(".")
        chain = [importlib.import_module(module_name)]
        try:
            for name in names[:-1]:
                parent = chain[-1]
                chain.append(parent[name] if isinstance(parent, dict) else getattr(parent, name))
            owner, name = chain[-1], names[-1]
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        except (AttributeError, KeyError) as error:
            raise BindingError(f"binding site {binding.site} does not resolve: {error!r}")
        wrapper = self._wrap(binding, original)
        if dataclasses.is_dataclass(owner) and not isinstance(owner, type):
            # Frozen kernel sets: swap the registry entry for a patched copy.
            container, key = chain[-2], names[-2]
            container[key] = dataclasses.replace(owner, **{name: wrapper})
        else:
            setattr(owner, name, wrapper)

    def _wrap(self, binding: Binding, fn):
        stack = self._stack
        layer, site, count = binding.layer, binding.site, binding.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                self.self_s[layer] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                else:
                    self.outer_s += elapsed
            self.fired[site] += 1
            if count is not None:
                for counter, increment in count(args, result).items():
                    self.counters[f"{layer}.{counter}"] += increment
            return result

        return wrapper


def check_fired(workload: str, fired: dict) -> None:
    """Raise when a binding expected on ``workload`` recorded no call."""
    silent = [
        binding.site
        for binding in BINDINGS
        if workload in binding.expect and not fired.get(binding.site)
    ]
    if silent:
        raise BindingError(f"{workload}: wrappers recorded no call: {', '.join(silent)}")


def coverage(ops: dict, op_seconds: list) -> float:
    """Share of the traced ops' wall-clock spent inside wrapped calls."""
    return ops["outer_s"] / sum(op_seconds)


def layer_metrics(ops: dict, reports: list, op_seconds: list, cache_hit_rate: float) -> dict:
    """Every :data:`LAYER_METRICS` value from the traced ops.

    ``ops`` is the :meth:`Tracer.snapshot` of the timed ops; ``reports`` are the pipeline's
    :class:`DeploymentReport` objects (empty on ``baked-render``);
    ``op_seconds`` is the wall-clock of each traced op.
    """
    counters = ops["counters"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def report_mean(fn) -> float:
        return ratio(sum(fn(report) for report in reports), len(reports))

    derived = {
        "render.march.hit_ratio": ratio(
            counters.get("render.march.hits", 0), counters.get("render.march.rays", 0)
        ),
        "render.cache.hit_rate": cache_hit_rate,
        "trace.op_ms_p50": 1000.0 * statistics.median(op_seconds),
        "trace.coverage": coverage(ops, op_seconds),
    }
    for stage in ("segmentation", "profiler", "solver", "bake", "deploy"):
        derived[f"core.stage.{stage}_s"] = report_mean(
            lambda report: report.stage_seconds.get(stage, 0.0)
        )
    values = {}
    for name, source, _, _ in LAYER_METRICS:
        kind, _, key = source.partition(":")
        if kind == "self":
            values[name] = ops["self_s"].get(key, 0.0) / len(op_seconds)
        elif kind == "count":
            values[name] = counters.get(key, 0) / len(op_seconds)
        else:
            values[name] = derived[name]
    return values
