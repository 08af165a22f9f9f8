"""Directional-string topology encoding (Section III-B1).

A core pattern is *vertically sliced along polygon edges*; each slice gets a
binary code — a leading ``1`` for the window boundary, then one bit per
block/space segment read away from that boundary (block = 1, space = 0) —
which is then read as an integer.  The sequence of slice codes for the
downward direction is the *downward string*; the other three directional
strings are the downward strings of the pattern rotated so that the right,
top and left sides face downward.

The four strings are generated in a rotation-covariant way: slices are
ordered along the counter-clockwise boundary traversal of the window, so a
90-degree pattern rotation cyclically permutes ``(bottom, right, top,
left)``.  That covariance is what makes Theorem 1's composite-string
matching work (see :mod:`repro.topology.match`).

All four strings come from one *bit lattice*: the window is cut along
every polygon x- and y-edge, each lattice column is held as an int
bitmask of its covered cells (bit ``j`` = the ``j``-th cell from the
bottom), and each row likewise (bit ``i`` = the ``i``-th cell from the
left).  Rotating the pattern never has to be done geometrically — the
bottom string reads the columns left to right, the top string reads them
right to left from the top, and the right/left strings read the rows the
same way.  This is Theorem 1's combinatorial D8 action
(:func:`key_orbit`) pushed down into the slicing itself.

The paper's Fig. 5(a) example — an "L" made of a full-height bar plus a
floating arm slice — encodes as ``<3, 10>`` = ``<11b, 1010b>``; the tests
reproduce that exact value.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.errors import TopologyError
from repro.geometry.rect import Rect

SIDES = ("bottom", "right", "top", "left")


@dataclass(frozen=True)
class DirectionalStrings:
    """The four directional strings of one core pattern."""

    bottom: tuple[int, ...]
    right: tuple[int, ...]
    top: tuple[int, ...]
    left: tuple[int, ...]

    def side(self, name: str) -> tuple[int, ...]:
        try:
            return getattr(self, name)
        except AttributeError:
            raise TopologyError(f"unknown side {name!r}") from None

    def circular(self) -> tuple[int, ...]:
        """The full CCW circular sequence bottom+right+top+left."""
        return self.bottom + self.right + self.top + self.left

    def adjacent_pairs(self) -> list[tuple[int, ...]]:
        """The four concatenations of adjacent sides, CCW order.

        These are the probes Theorem 1 searches for in the other pattern's
        composite strings.
        """
        sequence = [self.bottom, self.right, self.top, self.left]
        return [
            sequence[i] + sequence[(i + 1) % 4] for i in range(4)
        ]


def _lattice(rects: Sequence[Rect], window: Rect) -> tuple[list[int], list[int], int, int]:
    """Column and row bitmasks of the pattern's edge lattice.

    Returns ``(columns, rows, ny, nx)``: ``columns[i]`` has bit ``j`` set
    when lattice cell ``(i, j)`` is covered, ``rows[j]`` has bit ``i`` set
    for the same cell, and ``nx``/``ny`` count the lattice cells along x/y.
    Only geometry with positive area inside ``window`` takes part, clipped
    to it; overlapping rects simply OR together.
    """
    wx0, wy0, wx1, wy1 = window.x0, window.y0, window.x1, window.y1
    boxes = []
    xs = {wx0, wx1}
    ys = {wy0, wy1}
    for r in rects:
        x0 = r.x0 if r.x0 > wx0 else wx0
        x1 = r.x1 if r.x1 < wx1 else wx1
        y0 = r.y0 if r.y0 > wy0 else wy0
        y1 = r.y1 if r.y1 < wy1 else wy1
        if x0 < x1 and y0 < y1:
            boxes.append((x0, y0, x1, y1))
            xs.add(x0)
            xs.add(x1)
            ys.add(y0)
            ys.add(y1)
    xs = sorted(xs)
    ys = sorted(ys)
    nx, ny = len(xs) - 1, len(ys) - 1
    columns = [0] * nx
    rows = [0] * ny
    for x0, y0, x1, y1 in boxes:
        i0, i1 = bisect_left(xs, x0), bisect_left(xs, x1)
        j0, j1 = bisect_left(ys, y0), bisect_left(ys, y1)
        column_bits = (1 << j1) - (1 << j0)
        row_bits = (1 << i1) - (1 << i0)
        for i in range(i0, i1):
            columns[i] |= column_bits
        for j in range(j0, j1):
            rows[j] |= row_bits
    return columns, rows, ny, nx


def _distinct_runs(masks: list[int]) -> list[int]:
    """``masks`` with consecutive repeats dropped.

    A lattice edge that does not change the coverage of its neighbouring
    slices is not a topology change, so equal neighbours are one slice.
    """
    out = masks[:1]
    for mask in masks[1:]:
        if mask != out[-1]:
            out.append(mask)
    return out


def _run_code(runs: int, first: int) -> int:
    """Slice code of a slice with ``runs`` alternating segments.

    A leading boundary ``1``, then one bit per segment read away from the
    boundary, starting with ``first`` (1 = block) and alternating.  The
    ``n``-bit alternating pattern ``1010...`` is ``2**(n + 1) // 3`` and
    ``0101...`` is ``2**n // 3``.
    """
    return (1 << runs) | ((1 << (runs + first)) // 3)


def _side_codes(masks: list[int], cells: int, from_high: bool) -> tuple[int, ...]:
    """Codes of distinct slices, each read from its low or high end.

    A slice of ``cells`` lattice cells has one segment more than it has
    bit changes between neighbouring cells; its first segment is the bit
    at the end it is read from.
    """
    inner = (1 << (cells - 1)) - 1
    top = cells - 1
    return tuple(
        _run_code(
            1 + ((mask ^ (mask >> 1)) & inner).bit_count(),
            (mask >> top) & 1 if from_high else mask & 1,
        )
        for mask in masks
    )


def downward_string(rects: Sequence[Rect], window: Rect) -> tuple[int, ...]:
    """The downward directional string of a pattern.

    Slices are cut at every polygon edge x-coordinate; adjacent slabs whose
    block coverage is geometrically identical are re-merged so the slice
    count reflects topology changes only.  This is the bottom side of the
    pattern's bit lattice.
    """
    columns, _, ny, _ = _lattice(rects, window)
    return _side_codes(_distinct_runs(columns), ny, False)


def directional_strings(rects: Sequence[Rect], window: Rect) -> DirectionalStrings:
    """All four directional strings of a pattern, from one bit lattice.

    Each side string equals the downward string of the pattern rotated so
    that side faces downward, which orders slices along the CCW window
    boundary:

    - bottom: columns left to right, each read bottom-up;
    - right: rows bottom to top, each read right to left;
    - top: columns right to left, each read top-down;
    - left: rows top to bottom, each read left to right.

    Requires a square window (the D8 group acts on squares).
    """
    if window.width != window.height:
        raise TopologyError(
            f"directional strings need a square window, got {window.width}x{window.height}"
        )
    columns, rows, ny, nx = _lattice(rects, window)
    columns = _distinct_runs(columns)
    rows = _distinct_runs(rows)
    return DirectionalStrings(
        bottom=_side_codes(columns, ny, False),
        right=_side_codes(rows, nx, True),
        top=_side_codes(columns[::-1], ny, True),
        left=_side_codes(rows[::-1], nx, False),
    )


def key_orbit(strings: DirectionalStrings) -> list[tuple[tuple[int, ...], ...]]:
    """All eight D8 images of a directional-string 4-tuple.

    The geometric D8 action translates to a combinatorial action on side
    strings: a 90-degree CCW rotation cyclically shifts
    ``(bottom, right, top, left) -> (left, bottom, right, top)``, and the
    vertical-axis mirror swaps left/right and reverses every side's slice
    order.  Computing the orbit this way costs one slicing pass instead of
    eight.
    """
    sides = (strings.bottom, strings.right, strings.top, strings.left)
    mirrored = tuple(
        tuple(reversed(s))
        for s in (sides[0], sides[3], sides[2], sides[1])
    )
    orbit = []
    for base in (sides, mirrored):
        for shift in range(4):
            orbit.append(base[shift:] + base[:shift])
    return orbit


def canonical_string_key(rects: Sequence[Rect], window: Rect) -> tuple[tuple[int, ...], ...]:
    """A D8-invariant canonical key built from directional strings.

    The key is the lexicographically smallest side-string 4-tuple over the
    pattern's D8 orbit.  Two patterns share a key iff they have the same
    topology under some orientation — the exact congruence string-based
    classification needs, with none of the substring-matching edge cases
    of the composite search.
    """
    strings = directional_strings(rects, window)
    return min(key_orbit(strings))
