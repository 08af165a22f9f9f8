"""Reference implementations the production code replaced.

Each oracle is the straightforward version a faster implementation in
``src/`` superseded.  They live here only so property tests can assert
the new code returns exactly what the old code did; nothing in
``src/`` imports them.

- :func:`downward_string` / :func:`directional_strings`: the slab
  slicer of Section III-B1.  Each side string is computed by rotating
  the pattern so that side faces down (``transform_rects_in_window``)
  and re-slicing the rotated copy along every polygon x-edge.  Replaced
  by the bit-lattice in :mod:`repro.topology.strings`.
- :func:`any_overlap`: the O(n²) pair scan that asked whether any two
  rects share positive area.  Replaced by the sorted sweep
  :func:`repro.geometry.rect.any_overlap`.
- :func:`build_clip` / :func:`covers_window`: ``Clip.build`` and
  ``Tiling.covers_window`` as they were, on top of the pair scan.
- :func:`meets_distribution`: the Section III-E distribution filter
  built from ``core_rects()``, ``core_density()`` and
  ``bounding_box``.  Replaced by the single pass of
  ``repro.core.extraction._meets_distribution``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.config import ExtractionConfig
from repro.geometry.dissect import disjoint_cover
from repro.geometry.rect import Rect, bounding_box
from repro.geometry.transform import Orientation, transform_rects_in_window
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from repro.topology.strings import SIDES, DirectionalStrings

#: The rotation that brings each window side to face downward.
_SIDE_ROTATION = {
    "bottom": Orientation.R0,
    "right": Orientation.R270,
    "top": Orientation.R180,
    "left": Orientation.R90,
}


def _merged_y_intervals(rects: Sequence[Rect], x0: int, x1: int, window: Rect) -> tuple:
    """Merged block y-intervals over the slab ``[x0, x1]``, clipped to window."""
    spans = sorted(
        (max(r.y0, window.y0), min(r.y1, window.y1))
        for r in rects
        if r.x0 < x1 and x0 < r.x1 and r.y0 < window.y1 and window.y0 < r.y1
    )
    merged: list[list[int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _slice_code(intervals: tuple, window: Rect) -> int:
    """Binary slice code: boundary bit then segment bits bottom-to-top."""
    bits = ["1"]  # window boundary marker
    cursor = window.y0
    for lo, hi in intervals:
        if lo > cursor:
            bits.append("0")  # space below this block
        bits.append("1")  # the block itself
        cursor = hi
    if cursor < window.y1:
        bits.append("0")  # trailing space up to the top boundary
    if not intervals:
        bits = ["1", "0"]  # an entirely empty slab
    return int("".join(bits), 2)


def downward_string(rects: Sequence[Rect], window: Rect) -> tuple[int, ...]:
    """The downward directional string, by slicing at every x-edge."""
    cuts = {window.x0, window.x1}
    for rect in rects:
        if rect.x1 > window.x0 and rect.x0 < window.x1:
            cuts.add(max(rect.x0, window.x0))
            cuts.add(min(rect.x1, window.x1))
    xs = sorted(cuts)
    slabs: list[tuple] = []
    for x0, x1 in zip(xs, xs[1:]):
        intervals = _merged_y_intervals(rects, x0, x1, window)
        if slabs and slabs[-1] == intervals:
            continue  # edge did not change the coverage topology
        slabs.append(intervals)
    return tuple(_slice_code(intervals, window) for intervals in slabs)


def directional_strings(rects: Sequence[Rect], window: Rect) -> DirectionalStrings:
    """All four side strings, each from a rotated, re-sliced copy."""
    rect_list = list(rects)
    values = {}
    for side in SIDES:
        rotated = transform_rects_in_window(rect_list, window, _SIDE_ROTATION[side])
        values[side] = downward_string(rotated, window)
    return DirectionalStrings(**values)


def any_overlap(rects: Sequence[Rect]) -> bool:
    """Whether any two rects share positive area (all-pairs scan)."""
    return any(
        a.overlaps(b) for i, a in enumerate(rects) for b in rects[i + 1 :]
    )


def build_clip(
    window: Rect,
    spec: ClipSpec,
    rects: Iterable[Rect],
    label: ClipLabel = ClipLabel.UNKNOWN,
    layer: int = 1,
) -> Clip:
    """``Clip.build`` with the pair-scan overlap test."""
    clipped = [
        r for r in (rect.intersection(window) for rect in rects) if r is not None
    ]
    if any_overlap(clipped):
        clipped = disjoint_cover(clipped)
    return Clip(window, spec, tuple(sorted(clipped)), label, layer)


def covers_window(tiles: Sequence[Rect], window: Rect) -> bool:
    """``Tiling.covers_window``: inside the window, no overlap, no gap."""
    total = 0
    for i, rect in enumerate(tiles):
        if not window.contains_rect(rect):
            return False
        total += rect.area
        for other in tiles[i + 1 :]:
            if rect.overlaps(other):
                return False
    return total == window.area


def meets_distribution(clip: Clip, config: ExtractionConfig) -> tuple[bool, str]:
    """The distribution filter: count, then density, then boundary."""
    core_rects = clip.core_rects()
    if len(core_rects) < config.min_polygon_count:
        return False, "count"
    density = clip.core_density()
    if not config.min_core_density <= density <= config.max_core_density:
        return False, "density"
    box = bounding_box(clip.rects)
    if box is None:
        return False, "count"
    window = clip.window
    worst = max(
        box.x0 - window.x0,
        window.x1 - box.x1,
        box.y0 - window.y0,
        window.y1 - box.y1,
    )
    if worst > config.max_boundary_distance:
        return False, "boundary"
    return True, ""
