"""Per-layer spans for the traced run, recorded from the benchmark's own files.

A :class:`SpanRecorder` wraps public calls into each layer by replacing
the attribute at the place the caller looks it up (a module global such
as ``repro.core.training.core_string_key``, or a class attribute such as
``Layout.cut_clip_at_core``).  Nothing under ``src/`` is edited, and the
wrappers are removed again by :meth:`SpanRecorder.uninstall`.

Each wrapped call records one span: name, start, end, parent span (the
innermost wrapped call on the same thread) and a few counts.  Spans stay
in memory; :meth:`SpanRecorder.write_chrome_trace` writes them out at the
end, and :func:`layer_metrics` folds them into the per-layer metrics.

While :attr:`SpanRecorder.active` is false a wrapper is one attribute
test plus the call, so untraced phases of a traced run stay comparable.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _anchor_attrs(args, kwargs, result) -> dict:
    return {"anchors": len(result)}


def _extract_attrs(args, kwargs, result) -> dict:
    anchors = kwargs.get("anchors", args[4] if len(args) > 4 else ())
    return {"anchors": len(anchors), "candidates": len(result.clips)}


def _decision_attrs(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _keep_attrs(args, kwargs, result) -> dict:
    return {"in": len(args[1]), "kept": int(result.sum())}


def _removal_attrs(args, kwargs, result) -> dict:
    return {"in": len(args[0]), "out": len(result)}


def _get_attrs(args, kwargs, result) -> dict:
    return {"hit": int(result is not None)}


def _targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, attrs function) of every wrapped call.

    Imported lazily so that importing this module never imports ``repro``.
    """
    import repro.cache.keys as cache_keys
    import repro.core.detector as detector
    import repro.core.extraction as extraction
    import repro.core.training as training
    import repro.layout.io as layout_io
    import repro.serve.service as service
    from repro.cache.store import HotspotCache
    from repro.core.feedback import FeedbackKernel
    from repro.core.training import MultiKernelModel
    from repro.features.vector import FeatureExtractor
    from repro.layout.clip import Clip
    from repro.layout.layout import Layout
    from repro.svm.model import SupportVectorClassifier
    from repro.topology.cluster import TopologicalClassifier

    return [
        (layout_io, "load_layout_auto", "io.read_layout", None),
        (extraction, "candidate_anchors", "extract.anchors", _anchor_attrs),
        (extraction, "extract_from_anchors", "extract.from_anchors", _extract_attrs),
        (Layout, "cut_clip_at_core", "layout.cut", None),
        (Clip, "build", "layout.clip_build", None),
        (training, "core_string_key", "topology.gate", None),
        (FeatureExtractor, "extract", "features.extract", None),
        (FeatureExtractor, "vectorize", "features.vectorize", None),
        (SupportVectorClassifier, "decision_function", "svm.decision", _decision_attrs),
        (MultiKernelModel, "kernel_margins", "margins", None),
        (FeedbackKernel, "keep_mask", "feedback", _keep_attrs),
        (detector, "remove_redundant_clips", "removal", _removal_attrs),
        (TopologicalClassifier, "classify", "train.classify", None),
        (SupportVectorClassifier, "fit", "train.svm_fit", None),
        (detector, "train_feedback_kernel", "train.feedback", None),
        (cache_keys, "clip_content_key", "cache.key", None),
        (HotspotCache, "get_margins", "cache.get", _get_attrs),
        (HotspotCache, "put_margins", "cache.put", None),
        (service, "decode_predict_request", "serve.decode", None),
        (service.ServeService, "predict_payload", "serve.request", None),
    ]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Record spans now (wrappers pass straight through otherwise).
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        # Serve queue wait: eval seconds of the batch that carried a
        # submitted item list, keyed by the list's id.
        self._batch_eval: dict[int, float] = {}
        self._batch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, attrs_fn=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else {}
        self.spans.append(
            Span(sid, name, start, end, parent, threading.get_ident(), attrs)
        )
        return result

    @contextmanager
    def span(self, name: str, **attrs):
        """A span around a block of the benchmark itself (an operation)."""
        if not self.active:
            yield attrs
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), attrs)
            )

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, attrs_fn) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, attrs_fn)

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "SpanRecorder":
        """Wrap every target; serve's batcher hooks get their own wrappers."""
        if self._installed:
            return self
        for owner, attr, name, attrs_fn in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._replace(
                    owner, attr, staticmethod(self._wrap(raw.__func__, name, attrs_fn))
                )
            else:
                self._replace(owner, attr, self._wrap(raw, name, attrs_fn))
        self._install_batcher_hooks()
        return self

    def _install_batcher_hooks(self) -> None:
        """Queue wait = ``MicroBatcher.submit`` minus its batch's eval time.

        ``ServeService._evaluate_batch`` receives the very item lists the
        submitters queued, so its wrapper files the batch's eval seconds
        under each list before the submitters are released.  The service
        binds ``_evaluate_batch`` when it is constructed, so these hooks
        must be installed before the server starts.
        """
        from repro.serve.batching import MicroBatcher
        from repro.serve.service import ServeService

        evaluate = ServeService.__dict__["_evaluate_batch"]
        submit = MicroBatcher.__dict__["submit"]
        recorder = self

        @functools.wraps(evaluate)
        def evaluate_batch(service, group, requests):
            if not recorder.active:
                return evaluate(service, group, requests)
            started = time.perf_counter()
            result = recorder._call(
                "serve.batch_eval", evaluate, (service, group, requests), {}
            )
            seconds = time.perf_counter() - started
            with recorder._batch_lock:
                for items, _ in requests:
                    recorder._batch_eval[id(items)] = seconds
            return result

        @functools.wraps(submit)
        def submit_wrapper(batcher, group, items, *args, **kwargs):
            if not recorder.active:
                return submit(batcher, group, items, *args, **kwargs)

            def attrs(a, k, r):
                with recorder._batch_lock:
                    eval_s = recorder._batch_eval.pop(id(items), 0.0)
                return {"eval_s": eval_s}

            return recorder._call(
                "serve.submit", submit, (batcher, group, items) + args, kwargs, attrs
            )

        self._replace(ServeService, "_evaluate_batch", evaluate_batch)
        self._replace(MicroBatcher, "submit", submit_wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path, process_name: str) -> None:
        """Chrome trace-event JSON (``X`` events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {tid: i for i, tid in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": process_name},
            }
        ]
        for s in sorted(self.spans, key=lambda s: s.start):
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": threads[s.thread],
                    "ts": round((s.start - origin) * 1e6, 3),
                    "dur": round(s.duration * 1e6, 3),
                    "args": {"id": s.sid, "parent": s.parent, **s.attrs},
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


# ----------------------------------------------------------------------
# folding spans into per-layer metrics
# ----------------------------------------------------------------------
#: Root spans of one timed operation: a scan or a served request (a
#: cached rescan, ``op.rescan``, is folded on its own).
OPS = ("op.scan", "serve.request")


class SpanIndex:
    """Parent/child lookups over one recorder's spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.sid: s for s in spans}
        self.child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                self.child_time[s.parent] += s.duration

    def self_time(self, span: Span) -> float:
        return span.duration - self.child_time.get(span.sid, 0.0)

    def ancestors(self, span: Span):
        """The spans above ``span``, innermost first."""
        while span.parent is not None:
            span = self.by_id[span.parent]
            yield span

    def root_name(self, span: Span) -> str:
        """Name of the outermost span above ``span`` (itself if a root)."""
        root = span
        for root in self.ancestors(span):
            pass
        return root.name

    def nearest(self, span: Span, names: tuple[str, ...]) -> Optional[str]:
        """Name of the nearest ancestor whose name is in ``names``."""
        return next((a.name for a in self.ancestors(span) if a.name in names), None)


def layer_metrics(spans: list[Span], ops: tuple[str, ...] = OPS) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    Scan and serve layer times and counts are per operation (a root span
    named in ``ops``); training ones are per ``op.fit`` root.  A span
    counts only under a root of its own kind, so the decision calls of a
    fit never leak into ``svm.decision_s``, and the layers of a rescan
    never mix with those of a scan.
    """
    op_roots = ops + ("serve.batch_eval",)
    index = SpanIndex(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)
    count = fits = 0
    op_wall = op_self = 0.0
    for s in spans:
        if s.parent is None and s.name == "op.fit":
            fits += 1
            total["train.fit"] += s.duration
            continue
        if s.parent is None and s.name in ops:
            count += 1
            op_wall += s.duration
            op_self += index.self_time(s)
            continue
        root = index.root_name(s)
        if s.name.startswith("train."):
            if root != "op.fit":
                continue
        elif root not in op_roots:
            continue
        key = s.name
        if s.name == "layout.cut" and index.nearest(s, ("removal",)):
            continue  # removal's re-cuts are part of removal.s
        if s.name == "features.extract":
            key = "features.extract." + (
                "feedback" if index.nearest(s, ("feedback", "margins")) == "feedback"
                else "margins"
            )
        total[key] += s.duration
        calls[key] += 1
        if s.name == "extract.from_anchors":
            total["extract.filter.self"] += index.self_time(s)
        if s.name == "serve.submit":
            total["serve.queue_wait"] += max(0.0, s.duration - s.attrs["eval_s"])
        for name, value in s.attrs.items():
            attrs[f"{key}.{name}"] += value

    per_op = 1.0 / count if count else 0.0
    per_fit = 1.0 / fits if fits else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "io.read_layout_s": total["io.read_layout"] * per_op,
        "extract.anchors_s": total["extract.anchors"] * per_op,
        "extract.anchors": attrs["extract.anchors.anchors"] * per_op,
        "extract.filter_s": total["extract.filter.self"] * per_op,
        "extract.candidates": attrs["extract.from_anchors.candidates"] * per_op,
        "extract.accept_ratio": ratio(
            attrs["extract.from_anchors.candidates"],
            attrs["extract.from_anchors.anchors"],
        ),
        "layout.cut_s": total["layout.cut"] * per_op,
        "layout.cuts": calls["layout.cut"] * per_op,
        "layout.clip_build_s": total["layout.clip_build"] * per_op,
        "layout.clip_builds": calls["layout.clip_build"] * per_op,
        "topology.gate_s": total["topology.gate"] * per_op,
        "topology.gate_calls": calls["topology.gate"] * per_op,
        "topology.gate_accept_ratio": ratio(
            calls["features.extract.margins"], calls["topology.gate"]
        ),
        "features.extract_s": total["features.extract.margins"] * per_op,
        "features.extract_calls": calls["features.extract.margins"] * per_op,
        "features.feedback_extract_s": total["features.extract.feedback"] * per_op,
        "features.feedback_extract_calls": calls["features.extract.feedback"] * per_op,
        "features.vectorize_s": total["features.vectorize"] * per_op,
        "svm.decision_s": total["svm.decision"] * per_op,
        "svm.decision_rows": attrs["svm.decision.rows"] * per_op,
        "margins.s": total["margins"] * per_op,
        "feedback.s": total["feedback"] * per_op,
        "feedback.in": attrs["feedback.in"] * per_op,
        "feedback.kept": attrs["feedback.kept"] * per_op,
        "removal.s": total["removal"] * per_op,
        "removal.in": attrs["removal.in"] * per_op,
        "removal.out": attrs["removal.out"] * per_op,
        "cache.key_s": total["cache.key"] * per_op,
        "cache.keys": calls["cache.key"] * per_op,
        "cache.get_s": total["cache.get"] * per_op,
        "cache.margin_hits": attrs["cache.get.hit"] * per_op,
        "cache.margin_misses": (calls["cache.get"] - attrs["cache.get.hit"]) * per_op,
        "cache.margin_hit_ratio": ratio(attrs["cache.get.hit"], calls["cache.get"]),
        "cache.put_s": total["cache.put"] * per_op,
        "cache.puts": calls["cache.put"] * per_op,
        "serve.decode_ms": total["serve.decode"] * per_op * 1e3,
        "serve.queue_wait_ms": total["serve.queue_wait"] * per_op * 1e3,
        "train.fit_s": total["train.fit"] * per_fit,
        "train.classify_s": total["train.classify"] * per_fit,
        "train.svm_fit_s": total["train.svm_fit"] * per_fit,
        "train.svm_fits": calls["train.svm_fit"] * per_fit,
        "train.feedback_s": total["train.feedback"] * per_fit,
        "trace.attributed_pct": 100.0 * ratio(op_wall - op_self, op_wall),
    }
