"""Layout clip extraction (Section III-E).

Instead of scanning every window position of a testing layout, candidate
clips are derived from the polygon geometry itself:

1. every layout polygon is horizontally sliced into rectangles,
2. rectangles wider or taller than the hotspot core side are cut down,
3. a core window is anchored at the bottom-left corner of each rectangle,
   and the surrounding clip is extracted when the polygon distribution
   inside it meets the requirements (density bounds, polygon count, and
   geometry bounding-box proximity to the clip boundary).

The window-sliding baseline of Table V lives in
:mod:`repro.baselines.window_scan`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from repro.core.config import DetectorConfig, ExtractionConfig
from repro.errors import ReproError
from repro.geometry.dissect import cut_to_max_size
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipSpec
from repro.layout.layout import Layout
from repro.obs import trace
from repro.resilience import faults


@dataclass
class ExtractionReport:
    """Candidate clips plus funnel statistics for diagnostics.

    The funnel counts are part of the determinism contract: the sharded
    scan journals them per shard and sums them on incremental reuse, and
    the differential harness (``tests/test_differential.py``) asserts
    they match the uncached single-pass scan exactly — so they must not
    depend on thread scheduling or work partitioning.
    """

    clips: list[Clip]
    anchor_count: int
    rejected_density: int = 0
    rejected_count: int = 0
    rejected_boundary: int = 0
    #: Anchors whose clip could not be cut/validated; skipped, not fatal.
    quarantined: int = 0

    @property
    def candidate_count(self) -> int:
        return len(self.clips)


def _meets_distribution(
    clip: Clip, config: ExtractionConfig
) -> tuple[bool, str]:
    """Check the Section III-E polygon-distribution requirements.

    One pass over the clip's rects gathers the core polygon count, the
    covered core area and the geometry bounding box; the checks then run
    in the order count, density, boundary, so each rejected clip is
    counted under its first failing requirement.
    """
    core = clip.core
    cx0, cy0, cx1, cy1 = core.x0, core.y0, core.x1, core.y1
    count = covered = 0
    rects = clip.rects
    if rects:
        first = rects[0]
        bx0, by0, bx1, by1 = first.x0, first.y0, first.x1, first.y1
    for rect in rects:
        x0, y0, x1, y1 = rect.x0, rect.y0, rect.x1, rect.y1
        if x0 < bx0:
            bx0 = x0
        if y0 < by0:
            by0 = y0
        if x1 > bx1:
            bx1 = x1
        if y1 > by1:
            by1 = y1
        w = (x1 if x1 < cx1 else cx1) - (x0 if x0 > cx0 else cx0)
        h = (y1 if y1 < cy1 else cy1) - (y0 if y0 > cy0 else cy0)
        if w > 0 and h > 0:
            count += 1
            covered += w * h
    if count < config.min_polygon_count:
        return False, "count"
    density = covered / core.area
    if not config.min_core_density <= density <= config.max_core_density:
        return False, "density"
    if not rects:
        return False, "count"
    window = clip.window
    worst = max(
        bx0 - window.x0,
        window.x1 - bx1,
        by0 - window.y0,
        window.y1 - by1,
    )
    if worst > config.max_boundary_distance:
        return False, "boundary"
    return True, ""


def candidate_anchors(
    layout: Layout,
    spec: ClipSpec,
    layer: int = 1,
    region: Optional[Rect] = None,
    within: Optional[Rect] = None,
) -> list[tuple[int, int]]:
    """Deduplicated, sorted candidate anchor positions of a layer.

    ``region`` restricts which source rectangles are considered (any
    rectangle overlapping it); ``within`` additionally keeps only the
    anchors falling inside the **half-open** window
    ``[x0, x1) x [y0, y1)``.  Because rectangle cutting is per-rectangle
    deterministic, regions tiling a layout with half-open ``within``
    windows partition the global anchor set exactly — the property the
    sharded process scan (:mod:`repro.work`) relies on for bit-identical
    results.
    """
    rects = layout.layer(layer).rects
    if region is not None:
        rects = [r for r in rects if r.overlaps(region)]
    pieces = cut_to_max_size(rects, spec.core_side)
    anchors = sorted({(piece.x0, piece.y0) for piece in pieces})
    if within is not None:
        anchors = [
            (x, y)
            for x, y in anchors
            if within.x0 <= x < within.x1 and within.y0 <= y < within.y1
        ]
    return anchors


def extract_candidate_clips(
    layout: Layout,
    spec: ClipSpec,
    config: ExtractionConfig = ExtractionConfig(),
    layer: int = 1,
    region: Optional[Rect] = None,
    parallel_workers: int = 1,
    quarantine=None,
) -> ExtractionReport:
    """Extract every candidate clip of a layout layer.

    ``region`` restricts extraction to a window (used to chunk large
    layouts across workers, Section III-G).  Cores are deduplicated by
    anchor position, so overlapping source rectangles do not multiply
    candidates.

    ``quarantine`` is an optional
    :class:`~repro.resilience.quarantine.QuarantineReport`: an anchor
    whose clip raises a :class:`~repro.errors.ReproError` is recorded
    there and skipped instead of aborting the whole extraction.
    """
    with trace("detect.extract", layer=layer, workers=parallel_workers) as span:
        anchors = candidate_anchors(layout, spec, layer, region=region)
        span.set(anchors=len(anchors))

        if parallel_workers > 1 and len(anchors) > 64:
            chunk = (len(anchors) + parallel_workers - 1) // parallel_workers
            parts = [
                anchors[i : i + chunk] for i in range(0, len(anchors), chunk)
            ]
            with ThreadPoolExecutor(max_workers=parallel_workers) as pool:
                reports = list(
                    pool.map(
                        lambda part: extract_from_anchors(
                            layout, spec, config, layer, part, quarantine
                        ),
                        parts,
                    )
                )
            merged = ExtractionReport(clips=[], anchor_count=len(anchors))
            for report in reports:
                merged.clips.extend(report.clips)
                merged.rejected_density += report.rejected_density
                merged.rejected_count += report.rejected_count
                merged.rejected_boundary += report.rejected_boundary
                merged.quarantined += report.quarantined
            report = merged
        else:
            report = extract_from_anchors(
                layout, spec, config, layer, anchors, quarantine
            )
            report.anchor_count = len(anchors)
        span.set(
            candidates=len(report.clips),
            rejected_density=report.rejected_density,
            rejected_count=report.rejected_count,
            rejected_boundary=report.rejected_boundary,
            quarantined=report.quarantined,
        )
        return report


def extract_from_anchors(
    layout: Layout,
    spec: ClipSpec,
    config: ExtractionConfig,
    layer: int,
    anchors: list[tuple[int, int]],
    quarantine=None,
) -> ExtractionReport:
    """Cut and validate the clips of an explicit anchor list.

    The building block both the thread path (chunks of the global anchor
    list) and the :mod:`repro.work` process shards are assembled from.
    """
    report = ExtractionReport(clips=[], anchor_count=len(anchors))
    inject_per_anchor = faults.get() is not None
    for x, y in anchors:
        core = Rect(x, y, x + spec.core_side, y + spec.core_side)
        try:
            faults.inject("extract.clip", anchor=(x, y), layer=layer)
            if inject_per_anchor:
                # Anchor-addressed point (``extract.anchor.X_Y``): lets
                # chaos plans target one exact clip no matter which
                # worker or backend ends up processing it.
                faults.inject(f"extract.anchor.{x}_{y}", layer=layer)
            clip = layout.cut_clip_at_core(spec, core, layer)
            ok, reason = _meets_distribution(clip, config)
        except ReproError as exc:
            report.quarantined += 1
            if quarantine is not None:
                quarantine.add(
                    type(exc).__name__,
                    str(exc),
                    source="extract.clip",
                    anchor=[x, y],
                    layer=layer,
                )
            continue
        if ok:
            report.clips.append(clip)
        elif reason == "density":
            report.rejected_density += 1
        elif reason == "count":
            report.rejected_count += 1
        else:
            report.rejected_boundary += 1
    return report


def extract_for_detector(
    layout: Layout, config: DetectorConfig, layer: int = 1, quarantine=None
) -> ExtractionReport:
    """Candidate extraction using a detector's configuration."""
    workers = config.worker_count if config.parallel else 1
    return extract_candidate_clips(
        layout,
        config.spec,
        config.extraction,
        layer,
        parallel_workers=workers,
        quarantine=quarantine,
    )
