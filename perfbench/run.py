"""Benchmark of the NeRFlex reproduction: the realworld pipeline on cold
caches, and baked-frame rendering.

Run from the repository root (it imports ``src/repro`` from there)::

    python3 perfbench/run.py --workload realworld-cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --list                 # per-layer metric map
    python3 perfbench/run.py --record-references    # re-pin references.json

A run sets the workload up three times (``setup_s`` is the import time
plus the median set-up), then runs ops back to back for ``--seconds``
(``baked-render`` renders at least 100 frames) and checks every op's
outputs.  Metric names, units and directions come from ``BENCHMARK.json``
at the repository root.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of :mod:`layers` with
``--trace 1``.
The line before it records the run context (host calibration, versions,
resolved backend and kernel, per-op seconds, first failures).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per run; ``setup_s`` reports their median (plus the imports,
#: which happen once).
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob so a developer's shell cannot change what
    is measured (backend, kernel, DAG workers, store, sanitizer, ...)."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, src)


def host_calibration() -> float:
    """Median seconds of a fixed pure-numpy workload (context, not a metric)."""
    import numpy as np

    values = np.random.default_rng(1234).random(1_000_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(values)
        np.sqrt(values).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def percentile_ms(seconds: list, q: int) -> float:
    """The q-th percentile of op wall-clocks, in ms (inclusive method)."""
    if len(seconds) == 1:
        return 1000.0 * seconds[0]
    return 1000.0 * statistics.quantiles(seconds, n=100, method="inclusive")[q - 1]


def measure(workload, seconds: float) -> dict:
    """Closed loop: run ops back to back until ``seconds`` have passed."""
    op_seconds, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while attempted < workload.min_ops or time.perf_counter() - start < seconds:
        workload.prepare_op()
        op_start = time.perf_counter()
        try:
            output = workload.op()
        except Exception:  # a failed op, not a crash
            problems = [traceback.format_exc(limit=-2)]
        else:
            op_seconds.append(time.perf_counter() - op_start)
            problems = workload.check(output)
        attempted += 1
        if problems:
            failures.append(problems)
    if not op_seconds:
        raise RuntimeError(f"every op raised: {failures[0]}")
    return {"op_seconds": op_seconds, "attempted": attempted, "failures": failures}


def run(args) -> int:
    scrub_environment()
    import_program()
    import layers
    import workloads
    from repro.render.engine import default_cache
    from repro.render.kernels import NUMBA_AVAILABLE, resolve_kernel_name

    spec = load_spec()
    layer_units = layers.check_spec(spec)
    with open(REFERENCES, encoding="utf-8") as handle:
        pinned = json.load(handle)
    tracer = layers.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    import_s = time.perf_counter() - START
    setup_seconds = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous set-up before the next
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed, pinned)
        setup_seconds.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_seconds)
    if tracer:
        tracer.reset()
    cache = default_cache().stats
    hits_before, misses_before = cache.hits, cache.misses
    result = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_seconds = result["op_seconds"]

    if tracer:
        op_trace = tracer.snapshot()
        layers.check_fired(args.workload, op_trace["fired"])
        coverage = layers.coverage(op_trace, op_seconds)
        if coverage < layers.MIN_COVERAGE:
            raise layers.BindingError(
                f"{args.workload}: wrapped layers cover {coverage:.1%} of op wall-clock, "
                f"below {layers.MIN_COVERAGE:.0%}"
            )
        hits, misses = cache.hits - hits_before, cache.misses - misses_before
        metrics = layers.layer_metrics(
            op_trace, workload.reports, op_seconds,
            hits / (hits + misses) if hits + misses else 0.0,
        )
        units = layer_units
    else:
        metrics = {
            "op_ms_p50": 1000.0 * statistics.median(op_seconds),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    failed = len(result["failures"])
    print(json.dumps({"context": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": result["attempted"],
        "setup_seconds": [round(value, 4) for value in setup_seconds],
        "op_seconds": [round(value, 4) for value in op_seconds[:20]],
        # Context, not a compared metric: a realworld run holds under 100
        # ops, so fewer than ten lie beyond its p90.  On baked-render
        # (>= 100 frames) it is the frame p90.
        "op_ms_p90": percentile_ms(op_seconds, 90),
        "pinned_outputs": workload.reference is not None,
        "backend": workload.backend,
        "kernel": resolve_kernel_name(None),
        "numba": NUMBA_AVAILABLE,
        "calibration_s": host_calibration(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "first_failures": result["failures"][:3],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def record_references() -> int:
    """Pin the default seed's outputs (run after an intended output change)."""
    scrub_environment()
    import_program()
    import workloads

    pinned = {}
    # baked-render bakes the realworld selection, so record that first.
    for name, key in (("realworld-cold", "realworld"), ("baked-render", "frames")):
        workload = workloads.WORKLOADS[name]()
        workload.setup(workloads.DEFAULT_SEED, dict(pinned))
        pinned[key] = workload.record()
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCES}")
    return 0


def list_metrics() -> int:
    import layers

    spec = {metric["name"]: metric for metric in load_spec()["per_layer"]}
    layers.check_spec(load_spec())
    for name, _, moves, on in layers.LAYER_METRICS:
        print(f"{name:28s} {spec[name]['unit']:6s} {spec[name]['better']:7s} moves {moves} on {on}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("realworld-cold", "baked-render"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        return list_metrics()
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except Exception as error:
        # Binding-table, coverage and set-up failures are loud: no result line.
        traceback.print_exc()
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
