"""The benchmark workloads: inputs, set-up, timed phases, checks.

Every workload works on benchmark1 at scale 1.0, generated at its own
config seed on every run (README.md says why the run seed does not
regenerate it).  The run seed drives the serve request schedule and
the ECO edit of the cached rescans in a traced scan run.

A workload is four calls:

- ``setup(ctx)`` is what a user pays before the timed operations:
  generate the inputs, train, write the GDS and the model, and warm the
  cache tier or start and warm the server.  The harness times it as
  ``setup_s``.
- ``reference(state)`` builds, untimed and once per run, what the
  checks compare against: an uncached reference scan (checked against
  ``pinned.json``), or in-process margins and the request schedule.
- ``run(state, seconds, recorder)`` measures for ``seconds`` and checks
  every output; a wrong answer counts as failed, it is never dropped.
- ``teardown(state)`` stops what ``setup`` started.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

import numpy as np

import repro.layout.io as layout_io
from repro.cache import HotspotCache
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.extraction import extract_for_detector
from repro.core.metrics import score_reports
from repro.core.persist import load_detector, save_detector
from repro.data.benchmarks import (
    benchmark_config,
    generate_testing_layout,
    generate_training_set,
)
from repro.geometry.rect import Rect
from repro.serve.protocol import encode_clip

from layers import Span, SpanRecorder, layer_metrics

BENCHMARK = "benchmark1"
SCALE = 1.0
#: Default run seed: benchmark1's own config seed.
DEFAULT_SEED = benchmark_config(BENCHMARK).seed
PINNED = Path(__file__).with_name("pinned.json")

#: An ECO edit changes the geometry of at least this many candidate clips.
ECO_TOUCHED_CLIPS = 120
#: Open-loop arrival rate and the request-size mix (clips, share).
ARRIVAL_RATE = 5.0
SIZE_MIX = ((1, 0.6), (16, 0.3), (64, 0.1))
#: Closed-loop request size and connection count (also the open loop's).
CLOSED_CLIPS = 64
CONNECTIONS = 2
#: Share of a serve run spent in the open-loop phase.
OPEN_SHARE = 0.6
SERVER_START_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Context:
    seed: int
    workdir: Path
    recorder: SpanRecorder
    scale: float = SCALE


@dataclasses.dataclass
class Phase:
    """What one timed phase measured."""

    #: Latency of each untraced operation; traced ones, in a traced run.
    latencies_s: list = dataclasses.field(default_factory=list)
    traced_latencies_s: list = dataclasses.field(default_factory=list)
    clips_per_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    accuracy: float = 0.0
    extras: float = 0.0
    #: Per-layer metrics the phase measured outside the span recorder.
    layers: dict = dataclasses.field(default_factory=dict)
    #: Spans recorded in another process (the traced server).
    spans: list = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# shared set-up
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Inputs:
    testing: object
    model_path: Path
    gds_path: Path


def build_inputs(ctx: Context, tag: str) -> Inputs:
    """Generate benchmark1, train, write GDS and model.

    The inputs are benchmark1 at its own config seed on every run;
    README.md says why the run seed does not regenerate them.
    """
    config = benchmark_config(BENCHMARK)
    training = generate_training_set(config, ctx.scale)
    testing = generate_testing_layout(config, ctx.scale)
    detector = HotspotDetector(DetectorConfig.ours())
    recorder = ctx.recorder
    # A traced run traces the fit of its set-up (the training layers).
    recorder.active = recorder.installed
    try:
        with recorder.span("op.fit"):
            detector.fit(training)
    finally:
        recorder.active = False
    model_path = ctx.workdir / f"{tag}.npz"
    gds_path = ctx.workdir / f"{tag}.gds"
    save_detector(detector, model_path, name=tag)
    layout_io.save_layout_gds(testing.layout, gds_path)
    return Inputs(testing, model_path, gds_path)


def scan_signature(report) -> dict:
    """Funnel counts plus a digest of the sorted report cores."""
    cores = sorted(
        (c.core.x0, c.core.y0, c.core.x1, c.core.y1) for c in report.reports
    )
    return {
        "anchors": report.extraction.anchor_count,
        "candidates": report.extraction.candidate_count,
        "flagged": report.flagged_before_feedback,
        "kept": report.flagged_after_feedback,
        "reports": report.report_count,
        "cores_sha256": hashlib.sha256(json.dumps(cores).encode()).hexdigest(),
    }


def check_pinned(ctx: Context, signature: dict) -> bool:
    """At scale 1.0 the unedited scan must match the pinned digest."""
    if ctx.scale != SCALE:
        return True
    pinned = json.loads(PINNED.read_text())[BENCHMARK]
    return {k: pinned[k] for k in signature} == signature


def quality(reports, testing) -> tuple[float, int]:
    score = score_reports(reports, testing.hotspot_cores(), testing.area_um2)
    return score.accuracy, score.extras


class SetupError(RuntimeError):
    """A set-up or reference check failed; the run exits without a result."""


def _timed_scans(seconds, recorder, op_name, prepare, scan, reference, testing,
                 observe=lambda report: None) -> Phase:
    """Scan back to back for ``seconds``; check every result.

    ``prepare()`` builds one scan's untimed state (what a new ``repro
    scan`` process loads before it reads the layout); ``scan(prepared)``
    is the timed operation.  In a traced run every other scan records
    spans, so traced and untraced scans see the same machine state.
    """
    phase = Phase()
    minimum = 2 if recorder.installed else 1
    deadline = time.perf_counter() + seconds
    while phase.attempted < minimum or time.perf_counter() < deadline:
        traced = recorder.installed and phase.attempted % 2 == 1
        prepared = prepare()
        recorder.active = traced
        try:
            with recorder.span(op_name):
                started = time.perf_counter()
                report = scan(prepared)
                elapsed = time.perf_counter() - started
        finally:
            recorder.active = False
        phase.attempted += 1
        if traced:
            phase.traced_latencies_s.append(elapsed)
        else:
            phase.latencies_s.append(elapsed)
        if scan_signature(report) != reference:
            phase.failed += 1
        observe(report)
        phase.accuracy, phase.extras = quality(report.reports, testing)
    # Candidate clips per second of the median scan, as steady as latency.
    phase.clips_per_s = reference["candidates"] / statistics.median(phase.latencies_s)
    return phase


# ----------------------------------------------------------------------
# scan-b1: serial, uncached whole-layout scan (cached ECO rescans traced)
# ----------------------------------------------------------------------
def eco_edit(layout, windows: list, rng: np.random.Generator) -> int:
    """Attach seeded wire stubs to existing layer-1 rects; return the count.

    Each stub abuts a randomly chosen existing shape and overlaps none,
    so every edit lands in placed geometry.  Stubs are added until at least
    :data:`ECO_TOUCHED_CLIPS` of the candidate clip ``windows`` overlap
    one; a stub that would take the count past ``ECO_TOUCHED_CLIPS *
    1.25`` is skipped.  The rescan's cache-miss count, and with it its
    cost, therefore varies little from seed to seed.
    """
    rects = layout.layer(1).rects
    touched: set = set()
    stubs = 0
    for index in rng.permutation(len(rects)):
        if len(touched) >= ECO_TOUCHED_CLIPS:
            break
        anchor = rects[int(index)]
        width = int(rng.integers(60, 141))
        length = int(rng.integers(300, 1201))
        if rng.random() < 0.5:
            stub = Rect(anchor.x1, anchor.y0, anchor.x1 + length, anchor.y0 + width)
        else:
            stub = Rect(anchor.x0, anchor.y1, anchor.x0 + width, anchor.y1 + length)
        if any(rect.overlaps(stub) for rect in layout.rects_in_window(1, stub)):
            continue  # an ECO adds geometry in free space
        hit = {i for i, window in enumerate(windows) if window.overlaps(stub)}
        if len(touched | hit) > ECO_TOUCHED_CLIPS * 1.25:
            continue
        layout.add_rect(1, stub)
        stubs += 1
        touched |= hit
    return stubs


class ScanWorkload:
    name = "scan-b1"

    def setup(self, ctx: Context) -> dict:
        return {"inputs": build_inputs(ctx, "scan"), "ctx": ctx}

    def reference(self, state: dict) -> None:
        inputs = state["inputs"]
        report = load_detector(inputs.model_path).detect(
            layout_io.load_layout_auto(inputs.gds_path)
        )
        state["reference"] = scan_signature(report)
        if not check_pinned(state["ctx"], state["reference"]):
            raise SetupError(
                f"scan-b1 reference {state['reference']} differs from pinned.json"
            )

    def run(self, state: dict, seconds: float, recorder: SpanRecorder) -> Phase:
        inputs = state["inputs"]

        def scan(detector):
            return detector.detect(layout_io.load_layout_auto(inputs.gds_path))

        phase = _timed_scans(
            seconds, recorder, "op.scan",
            lambda: load_detector(inputs.model_path), scan,
            state["reference"], inputs.testing,
        )
        if recorder.installed:
            rescans = self._rescans(state, recorder)
            phase.attempted += rescans.attempted
            phase.failed += rescans.failed
            phase.layers = rescans.layers
        return phase

    def _rescans(self, state: dict, recorder: SpanRecorder) -> Phase:
        """The cache layer, measured in a traced run only.

        A cold cached scan of the layout warms a disk tier, a seeded ECO
        edit changes 120-150 candidate clips, and the edited layout is
        rescanned twice (the second traced), each time as a new ``repro
        scan --cache-dir`` process sees it: a fresh ``HotspotCache`` over
        a hard-linked copy of the warm tier (cache writes replace files
        atomically, so the warm copy never changes).  Each rescan must
        equal an uncached scan of the edited layout.
        """
        ctx, inputs = state["ctx"], state["inputs"]
        warm_dir = ctx.workdir / "cache-warm"
        directory = ctx.workdir / "cache-rescan"
        detector = load_detector(inputs.model_path)
        started = time.perf_counter()
        detector.attach_cache(HotspotCache(directory=warm_dir))
        populated = detector.detect(layout_io.load_layout_auto(inputs.gds_path))
        populate_s = time.perf_counter() - started

        edited_path = ctx.workdir / "rescan-eco.gds"
        edited = layout_io.load_layout_auto(inputs.gds_path)
        windows = [clip.window for clip in populated.extraction.clips]
        eco_edit(edited, windows, np.random.default_rng([ctx.seed, 1]))
        layout_io.save_layout_gds(edited, edited_path)
        reference = scan_signature(
            load_detector(inputs.model_path).detect(
                layout_io.load_layout_auto(edited_path)
            )
        )
        writes = []

        def prepare():
            shutil.rmtree(directory, ignore_errors=True)
            shutil.copytree(warm_dir, directory, copy_function=os.link)
            return load_detector(inputs.model_path)

        def rescan(detector):
            layout = layout_io.load_layout_auto(edited_path)
            detector.attach_cache(HotspotCache(directory=directory))
            return detector.detect(layout)

        phase = _timed_scans(
            0.0, recorder, "op.rescan", prepare, rescan, reference, inputs.testing,
            observe=lambda report: writes.append(report.cache_stats["disk_writes"]),
        )
        shutil.rmtree(directory, ignore_errors=True)
        shutil.rmtree(warm_dir, ignore_errors=True)
        phase.attempted += 1  # the populating scan
        if scan_signature(populated) != state["reference"]:
            phase.failed += 1
        cache = layer_metrics(recorder.spans, ops=("op.rescan",))
        phase.layers = {name: value for name, value in cache.items()
                        if name.startswith("cache.")}
        phase.layers["cache.disk_writes"] = statistics.fmean(writes)
        phase.layers["cache.populate_s"] = populate_s
        return phase

    def teardown(self, state: dict) -> None:
        pass


# ----------------------------------------------------------------------
# serve-predict-b1: open-loop then closed-loop /v1/predict
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess (optionally under the span launcher)."""

    def __init__(self, model_path: Path, workdir: Path, tag: str,
                 spans_path: Optional[Path] = None) -> None:
        src = Path(layout_io.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_FAULTS", None)
        serve_args = [
            "serve", "--model", f"default={model_path}", "--port", "0", "--no-cache",
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            command = [sys.executable, str(launcher), str(spans_path)] + serve_args
        self.log_path = workdir / f"server-{tag}.log"
        self.spans_path = spans_path
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=str(workdir),
        )
        self.host, self.port = self._wait_for_url()

    def _wait_for_url(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    netloc = line.split("http://", 1)[1].split()[0]
                    host, port = netloc.rsplit(":", 1)
                    return host, int(port.rstrip("/"))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise SetupError(
            "serve subprocess did not start:\n" + self.log_path.read_text()[-2000:]
        )

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def metrics(self) -> dict:
        conn = self.connection()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        values: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if "_bucket" in name:
                continue
            family = name.split("{", 1)[0].removeprefix("repro_")
            if family.startswith("serve_request_seconds") and "predict" not in name:
                continue
            values[family] = values.get(family, 0.0) + float(value)
        return values

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request(
        "POST", "/v1/predict", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, response.read()


@dataclasses.dataclass
class _Outcome:
    """One sent request: pool slice, due/sent/done times, HTTP answer."""

    start: int
    size: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes


def _drive(server: Server, jobs, keep_going) -> list[_Outcome]:
    """Send ``jobs`` over :data:`CONNECTIONS` connections.

    ``jobs(i)`` returns ``(due_offset or None, start, size, body)`` for the
    i-th request, or ``None`` when there is none; ``keep_going(i, now)``
    stops a closed loop.  A request with a due time waits for it (open
    loop); latency is then measured from the due time.
    """
    outcomes: list[_Outcome] = []
    lock = threading.Lock()
    counter = [0]
    t0 = time.perf_counter()
    errors: list[BaseException] = []

    def sender():
        conn = server.connection()
        try:
            while True:
                with lock:
                    i = counter[0]
                    counter[0] += 1
                if not keep_going(i, time.perf_counter()):
                    return
                job = jobs(i)
                if job is None:
                    return
                due_offset, start, size, body = job
                sent = time.perf_counter()
                due = sent if due_offset is None else t0 + due_offset
                if sent < due:
                    time.sleep(due - sent)
                    sent = time.perf_counter()
                try:
                    status, data = _post(conn, body)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = server.connection()
                    status, data = 0, b""
                done = time.perf_counter()
                with lock:
                    outcomes.append(_Outcome(start, size, due, sent, done, status, data))
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes


def _body(encoded: list, start: int, size: int) -> bytes:
    """A ``/v1/predict`` body for ``size`` pool clips from ``start``."""
    return json.dumps({"clips": encoded[start : start + size]}).encode()


def _warm(server: Server, bodies: list) -> None:
    """One request per size class, so no timed request pays a first call."""
    conn = server.connection()
    try:
        for body in bodies:
            status, _ = _post(conn, body)
            if status != 200:
                server.stop()
                raise SetupError(f"serve warm-up request answered {status}")
    finally:
        conn.close()


class ServeWorkload:
    name = "serve-predict-b1"

    def setup(self, ctx: Context) -> dict:
        inputs = build_inputs(ctx, "serve")
        detector = load_detector(inputs.model_path)
        layout = layout_io.load_layout_auto(inputs.gds_path)
        pool = extract_for_detector(layout, detector.config).clips
        encoded = [encode_clip(clip) for clip in pool]
        warm = [_body(encoded, 0, size) for size, _ in SIZE_MIX]
        server = Server(inputs.model_path, ctx.workdir, "setup")
        _warm(server, warm)
        return {
            "inputs": inputs,
            "pool": pool,
            "encoded": encoded,
            "warm": warm,
            "server": server,
            "ctx": ctx,
        }

    def reference(self, state: dict) -> None:
        """In-process margins of the pool, and the closed-loop requests."""
        ctx, pool, encoded = state["ctx"], state["pool"], state["encoded"]
        if ctx.scale == SCALE:
            pinned = json.loads(PINNED.read_text())[BENCHMARK]
            if len(pool) != pinned["candidates"]:
                raise SetupError(f"serve pool has {len(pool)} clips, pinned {pinned}")
        detector = load_detector(state["inputs"].model_path)
        state["reference"] = np.asarray(detector.margins(pool), dtype=np.float64)
        state["chunks"] = [
            (start, min(CLOSED_CLIPS, len(pool) - start),
             _body(encoded, start, CLOSED_CLIPS))
            for start in range(0, len(pool), CLOSED_CLIPS)
        ]

    def _arrivals(self, state: dict, open_s: float) -> list:
        """The seeded open-loop schedule: ``(due, start, size, body)``.

        ``ARRIVAL_RATE * open_s`` arrivals at sorted uniform times (a
        Poisson process given its count), with the sizes of
        :data:`SIZE_MIX` in exact shares, seeded order and seeded pool
        offsets.  Fixing the count and the mix keeps the offered load
        the same for every seed.
        """
        pool, encoded = state["pool"], state["encoded"]
        rng = np.random.default_rng([state["ctx"].seed, 2])
        count = max(1, round(ARRIVAL_RATE * open_s))
        sizes = [size for size, share in SIZE_MIX[1:] for _ in range(round(share * count))]
        sizes += [SIZE_MIX[0][0]] * (count - len(sizes))
        arrivals = []
        for due, size in zip(np.sort(rng.uniform(0.0, open_s, count)), rng.permutation(sizes)):
            start = int(rng.integers(0, len(pool) - size + 1))
            arrivals.append((float(due), start, int(size), _body(encoded, start, size)))
        return arrivals

    def _check(self, state: dict, outcome: _Outcome, flags: dict) -> bool:
        if outcome.status != 200:
            return False
        try:
            document = json.loads(outcome.body)
            margins = np.asarray(document["margins"], dtype=np.float64)
            served_flags = document["flags"]
        except (ValueError, KeyError, TypeError):
            return False
        expected = state["reference"][outcome.start : outcome.start + outcome.size]
        if margins.shape != expected.shape or margins.tobytes() != expected.tobytes():
            return False
        if len(served_flags) != outcome.size:
            return False
        for offset, flag in enumerate(served_flags):
            flags[outcome.start + offset] = bool(flag)
        return True

    def run(self, state: dict, seconds: float, recorder: SpanRecorder) -> Phase:
        if recorder.installed:
            seconds /= 2  # a traced run measures twice in the same time
        phase = self._phases(state, state["server"], seconds)
        if recorder.installed:
            # A traced run then repeats both phases against a server whose
            # layers are wrapped (the serve launcher), and keeps its spans.
            state["server"].stop()
            workdir = state["ctx"].workdir
            server = state["server"] = Server(
                state["inputs"].model_path, workdir, "traced",
                spans_path=workdir / "server-spans.json",
            )
            _warm(server, state["warm"])
            traced = self._phases(state, server, seconds)
            server.stop()
            phase.traced_latencies_s = traced.latencies_s
            phase.attempted += traced.attempted
            phase.failed += traced.failed
            phase.layers = traced.layers
            phase.spans = load_spans(server.spans_path)
        return phase

    def _phases(self, state: dict, server: "Server", seconds: float) -> Phase:
        """Open loop for ``OPEN_SHARE`` of ``seconds``, then closed loop."""
        open_s = seconds * OPEN_SHARE
        arrivals = self._arrivals(state, open_s)
        chunks = state["chunks"]
        before = server.metrics()
        opened = _drive(
            server,
            lambda i: arrivals[i] if i < len(arrivals) else None,
            lambda i, now: True,
        )
        closed_started = time.perf_counter()
        closed_until = closed_started + seconds - open_s
        closed = _drive(
            server,
            lambda i: (None,) + chunks[i % len(chunks)],
            lambda i, now: i < len(chunks) or now < closed_until,
        )
        after = server.metrics()

        phase = Phase()
        flags: dict[int, bool] = {}
        for outcome in opened + closed:
            phase.attempted += 1
            if not self._check(state, outcome, flags):
                phase.failed += 1
        # The unit operation is a 1-clip request: the open-loop median over
        # all sizes falls between the 1-clip and 16-clip modes and jumps
        # between them from seed to seed.  All sizes feed ``serve.p95_ms``.
        phase.latencies_s = [o.done - o.due for o in opened if o.size == SIZE_MIX[0][0]]
        phase.clips_per_s = sum(o.size for o in closed if o.status == 200) / (
            max(o.done for o in closed) - closed_started
        )
        pool = state["pool"]
        if len(flags) < len(pool):
            phase.failed += 1  # the closed loop must cover the whole pool
        phase.accuracy, phase.extras = quality(
            [pool[i] for i, flag in sorted(flags.items()) if flag],
            state["inputs"].testing,
        )

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        def mean(total: str, count: str) -> float:
            return delta(total) / delta(count) if delta(count) else 0.0

        server_ms = 1e3 * mean("serve_request_seconds_sum", "serve_request_seconds_count")
        client_ms = 1e3 * statistics.fmean([o.done - o.sent for o in opened + closed])
        phase.layers = {
            "serve.server_ms": server_ms,
            "serve.transport_ms": client_ms - server_ms,
            "serve.batch_eval_ms": 1e3 * mean(
                "serve_batch_eval_seconds_sum", "serve_batch_eval_seconds_count"
            ),
            "serve.batch_clips": mean(
                "serve_batch_size_clips_sum", "serve_batch_size_clips_count"
            ),
            "serve.rejected": delta("serve_rejected_total"),
            "serve.generator_lag_ms": 1e3 * statistics.fmean(
                [o.sent - o.due for o in opened]
            ),
            "serve.p95_ms": 1e3 * statistics.quantiles(
                [o.done - o.due for o in opened], n=20, method="inclusive"
            )[18],
        }
        return phase

    def teardown(self, state: dict) -> None:
        state["server"].stop()


def load_spans(path: Path) -> list[Span]:
    """Spans the serve launcher wrote, renumbered clear of local ids."""
    offset = 1 << 40
    spans = []
    for sid, name, start, end, parent, thread, attrs in json.loads(path.read_text()):
        spans.append(
            Span(sid + offset, name, start, end,
                 None if parent is None else parent + offset, thread, attrs)
        )
    return spans


WORKLOADS = {w.name: w for w in (ScanWorkload(), ServeWorkload())}
