"""The repository benchmark: one command, every metric, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan-b1 --seed 101 --seconds 10 --trace 0

``--trace 0`` sets up several times (median ``setup_s``), measures the
workload for ``--seconds`` with the ``repro.obs`` tracer off and prints
the end-to-end metrics.  ``--trace 1`` sets up once, measures an
untraced phase and then a phase with the per-layer wrappers of
``layers.py`` recording, and prints the per-layer metrics.  Either way
a metric table goes to stdout first, and the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("clips_per_s", "clips/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "ratio"),
    ("extras", "count"),
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_s", ".s")):
        return "s"
    if "ratio" in name:
        return "ratio"
    return "count"


#: Names of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    "io.read_layout_s",
    "extract.anchors_s", "extract.anchors", "extract.filter_s",
    "extract.candidates", "extract.accept_ratio",
    "layout.cut_s", "layout.cuts",
    "layout.clip_build_s", "layout.clip_builds",
    "topology.gate_s", "topology.gate_calls", "topology.gate_accept_ratio",
    "features.extract_s", "features.extract_calls",
    "features.feedback_extract_s", "features.feedback_extract_calls",
    "features.vectorize_s",
    "svm.decision_s", "svm.decision_rows",
    "margins.s",
    "feedback.s", "feedback.in", "feedback.kept",
    "removal.s", "removal.in", "removal.out",
    "train.fit_s", "train.classify_s", "train.svm_fit_s", "train.svm_fits", "train.feedback_s",
    "cache.key_s", "cache.keys", "cache.get_s", "cache.margin_hits",
    "cache.margin_misses", "cache.margin_hit_ratio", "cache.put_s", "cache.puts",
    "cache.disk_writes", "cache.populate_s",
    "serve.server_ms", "serve.transport_ms", "serve.batch_eval_ms",
    "serve.batch_clips", "serve.rejected", "serve.decode_ms",
    "serve.queue_wait_ms", "serve.generator_lag_ms", "serve.p95_ms",
    "trace.overhead_pct", "trace.attributed_pct",
)


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, ctx, seconds: float) -> tuple[dict, object]:
    """Untraced run: repeated set-ups, one timed phase."""
    setups = []
    state = None
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = workload.setup(ctx)
        setups.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            workload.teardown(state)
    try:
        workload.reference(state)
        phase = workload.run(state, seconds, ctx.recorder)
    finally:
        workload.teardown(state)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms": 1e3 * statistics.median(phase.latencies_s),
        "clips_per_s": phase.clips_per_s,
        "peak_rss_mb": peak_rss_mb(),
        "accuracy": phase.accuracy,
        "extras": phase.extras,
    }
    return metrics, phase


def measure_traced(workload, ctx, seconds: float, trace_path: Path) -> tuple[dict, object]:
    """Traced run: one set-up (its fit traced), then a phase mixing traced
    and untraced operations; the difference is the tracing overhead."""
    from layers import layer_metrics

    recorder = ctx.recorder.install()
    try:
        state = workload.setup(ctx)
        try:
            workload.reference(state)
            phase = workload.run(state, seconds, recorder)
        finally:
            workload.teardown(state)
    finally:
        recorder.uninstall()
    recorder.spans += phase.spans
    metrics = layer_metrics(recorder.spans)
    metrics.update(phase.layers)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(phase.traced_latencies_s)
        / statistics.median(phase.latencies_s)
        - 1.0
    )
    recorder.write_chrome_trace(trace_path, workload.name)
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}, phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: benchmark1's own, 101)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="benchmark scale (self-test only; default 1.0)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro import obs

    import workloads
    from layers import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    obs.set_tracer(None)  # timed runs never pay for the program's tracer
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed, workdir, SpanRecorder(), args.scale or workloads.SCALE)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}.json"
            metrics, phase = measure_traced(workload, ctx, args.seconds, trace_path)
            units = {name: _unit(name) for name in PER_LAYER}
        else:
            metrics, phase = measure(workload, ctx, args.seconds)
            units = dict(END_TO_END)
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = phase.failed == 0
    print(f"# {args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={phase.attempted} failed={phase.failed}")
    print("# latency samples (ms): "
          + " ".join(f"{1e3 * value:.1f}" for value in phase.latencies_s))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_ratio':32s} {phase.failed / phase.attempted:14.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
