"""The candidate funnel's fast paths against the code they replaced.

``tests/oracles.py`` keeps the superseded implementations: the slab
slicer behind the directional strings and the all-pairs overlap scan
behind ``Clip.build`` and ``Tiling.covers_window``, and the
multi-pass distribution filter.  Every test here
asserts the production code returns exactly what its oracle returns:

- on random rect sets from the ``@composite`` strategies below —
  disjoint, overlapping, edge-touching, corner-touching, hairline,
  window-spanning and clustered sets, alone and mixed;
- on the committed ``tests/fixtures/fastdiff`` corpus and on every
  stream of ``tests/fixtures/fuzz`` that parses (the crash mutants are
  rejected by the parsers and carry no geometry, so only the seed
  streams take part).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis.strategies import composite, integers, lists, one_of, sampled_from

from repro.core.config import ExtractionConfig
from repro.core.extraction import _meets_distribution
from repro.core.training import core_string_key
from repro.errors import ReproError
from repro.geometry.rect import Rect, any_overlap, bounding_box
from repro.layout.clip import Clip, ClipSpec
from repro.layout.io import load_layout_auto
from repro.mtcg.tiles import Tile, TileKind, Tiling, horizontal_tiling, vertical_tiling
from repro.topology.strings import (
    canonical_string_key,
    directional_strings,
    downward_string,
    key_orbit,
)
from tests import oracles

#: Small coordinates make coincident edges, touches and overlaps common.
WINDOW = Rect(0, 0, 64, 64)
SPEC = ClipSpec(core_side=16, clip_side=64)
FIXTURES = Path(__file__).parent / "fixtures"

EXAMPLES = 300


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@composite
def free_rect(draw, lo=-8, hi=72, max_side=40):
    """Any rect near the window: inside, straddling or outside it."""
    x0 = draw(integers(lo, hi - 1))
    y0 = draw(integers(lo, hi - 1))
    return Rect(
        x0, y0, x0 + draw(integers(1, max_side)), y0 + draw(integers(1, max_side))
    )


@composite
def disjoint_rects(draw):
    """Rects on distinct cells of an 8x8 grid: no overlap, touching allowed."""
    cells = draw(lists(integers(0, 63), max_size=12, unique=True))
    out = []
    for cell in cells:
        cx, cy = 8 * (cell % 8), 8 * (cell // 8)
        x0 = cx + draw(integers(0, 4))
        y0 = cy + draw(integers(0, 4))
        out.append(
            Rect(x0, y0, draw(integers(x0 + 1, cx + 8)), draw(integers(y0 + 1, cy + 8)))
        )
    return out


@composite
def overlapping_rects(draw):
    """Random rects plus one guaranteed to overlap the first."""
    base = draw(lists(free_rect(0, 64, 24), min_size=1, max_size=8))
    first = base[0]
    x = draw(integers(first.x0, first.x1 - 1))
    y = draw(integers(first.y0, first.y1 - 1))
    base.append(Rect(x, y, x + draw(integers(1, 20)), y + draw(integers(1, 20))))
    return base


@composite
def edge_touching_rects(draw):
    """A chain of rects, each abutting the previous one along an edge."""
    rect = draw(free_rect(0, 40, 12))
    out = [rect]
    for _ in range(draw(integers(1, 7))):
        w, h = draw(integers(1, 12)), draw(integers(1, 12))
        if draw(sampled_from(("right", "up"))) == "right":
            y0 = draw(integers(rect.y0 - h + 1, rect.y1 - 1))
            rect = Rect(rect.x1, y0, rect.x1 + w, y0 + h)
        else:
            x0 = draw(integers(rect.x0 - w + 1, rect.x1 - 1))
            rect = Rect(x0, rect.y1, x0 + w, rect.y1 + h)
        out.append(rect)
    return out


@composite
def corner_touching_rects(draw):
    """Checkerboard squares: neighbours meet only at corners."""
    side = draw(integers(2, 16))
    origin = draw(integers(-side, 8))
    n = 64 // side + 2
    keep = draw(lists(integers(0, n * n - 1), max_size=16, unique=True))
    out = []
    for cell in keep:
        i, j = cell % n, cell // n
        if (i + j) % 2 == 0:
            x0, y0 = origin + i * side, origin + j * side
            out.append(Rect(x0, y0, x0 + side, y0 + side))
    return out


@composite
def hairline_rects(draw):
    """Width- or height-1 strips, some on the window rim."""
    out = []
    for _ in range(draw(integers(1, 8))):
        at = draw(integers(0, 63))
        lo = draw(integers(-4, 60))
        hi = draw(integers(lo + 1, 68))
        if draw(sampled_from((True, False))):
            out.append(Rect(lo, at, hi, at + 1))
        else:
            out.append(Rect(at, lo, at + 1, hi))
    return out


@composite
def window_spanning_rects(draw):
    """Rects crossing the window boundary, or covering it entirely."""
    out = draw(lists(free_rect(-40, 100, 80), min_size=1, max_size=6))
    if draw(sampled_from((True, False))):
        out.append(Rect(-5, draw(integers(0, 60)), 70, 64 + draw(integers(0, 6))))
    return out


@composite
def clustered_rects(draw):
    """Rects gathered around one centre: lopsided geometry that leaves a
    wide gap to some window sides and none to others."""
    cx, cy = draw(integers(0, 64)), draw(integers(0, 64))
    out = []
    for _ in range(draw(integers(1, 6))):
        x0 = cx + draw(integers(-12, 8))
        y0 = cy + draw(integers(-12, 8))
        out.append(Rect(x0, y0, x0 + draw(integers(1, 12)), y0 + draw(integers(1, 12))))
    return out


@composite
def mixed_rects(draw):
    """Any two of the families above, unioned."""
    return draw(one_of(FAMILIES)) + draw(one_of(FAMILIES))


FAMILIES = (
    disjoint_rects(),
    overlapping_rects(),
    edge_touching_rects(),
    corner_touching_rects(),
    hairline_rects(),
    window_spanning_rects(),
    clustered_rects(),
)
rect_sets = one_of(*FAMILIES, mixed_rects())


# ----------------------------------------------------------------------
# shared assertions
# ----------------------------------------------------------------------
def assert_strings_match(rects, window):
    new = directional_strings(rects, window)
    old = oracles.directional_strings(rects, window)
    for side in ("bottom", "right", "top", "left"):
        assert new.side(side) == old.side(side), side
    assert canonical_string_key(rects, window) == min(key_orbit(old))


def assert_clip_matches(window, spec, rects):
    new = Clip.build(window, spec, rects)
    assert new == oracles.build_clip(window, spec, rects)
    old_key = min(key_orbit(oracles.directional_strings(new.core_rects(), new.core)))
    assert core_string_key(new) == old_key


def assert_cover_verdicts_match(tiling):
    rects = [t.rect for t in tiling.tiles]
    assert tiling.covers_window() == oracles.covers_window(rects, tiling.window)
    assert tiling.covers_window()  # a real tiling covers its window
    # Broken tilings: a gap, a double-covered tile, a tile outside.
    variants = [rects[1:], rects + rects[:1]]
    if rects:
        r = rects[0]
        variants.append([r.translated(1, 0)] + rects[1:])
    for variant in variants:
        broken = Tiling(
            tiling.window,
            tuple(Tile(r, TileKind.SPACE, i) for i, r in enumerate(variant)),
            tiling.orientation,
        )
        assert broken.covers_window() == oracles.covers_window(variant, tiling.window)


# ----------------------------------------------------------------------
# random draws
# ----------------------------------------------------------------------
class TestRandomRectSets:
    @given(rect_sets)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_side_strings_and_keys(self, rects):
        assert_strings_match(rects, WINDOW)

    @given(rect_sets, integers(1, 63))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_downward_string_any_window(self, rects, height):
        window = Rect(0, 0, 64, height)
        assert downward_string(rects, window) == oracles.downward_string(rects, window)

    @given(rect_sets)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_any_overlap(self, rects):
        assert any_overlap(rects) == oracles.any_overlap(rects)

    @given(rect_sets, integers(-8, 8), integers(-8, 8))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_clip_build(self, rects, dx, dy):
        assert_clip_matches(WINDOW.translated(dx, dy), SPEC, rects)

    @given(
        rect_sets,
        integers(0, 4),
        sampled_from((0.0, 0.05, 0.2, 0.5)),
        sampled_from((0.5, 0.8, 1.0)),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_distribution_filter(self, rects, count, low, high):
        clip = Clip.build(WINDOW, SPEC, rects)
        # Every boundary limit at, just under and just over each side's
        # gap to the geometry, where an off-by-one would flip the verdict.
        limits = {0, 40}
        box = bounding_box(clip.rects)
        if box is not None:
            w = clip.window
            for gap in (box.x0 - w.x0, w.x1 - box.x1, box.y0 - w.y0, w.y1 - box.y1):
                limits.update(g for g in (gap - 1, gap, gap + 1) if g >= 0)
        for limit in sorted(limits):
            config = ExtractionConfig(
                min_core_density=low,
                max_core_density=high,
                min_polygon_count=count,
                max_boundary_distance=limit,
            )
            assert _meets_distribution(clip, config) == oracles.meets_distribution(
                clip, config
            )

    @given(rect_sets)
    @settings(max_examples=EXAMPLES // 2, deadline=None)
    def test_covers_window(self, rects):
        for tiling_fn in (horizontal_tiling, vertical_tiling):
            assert_cover_verdicts_match(tiling_fn(rects, WINDOW))


def test_any_overlap_touching_and_nested():
    """Touching is not overlapping; containment and a 1-unit overlap are."""
    touching_edge = [Rect(0, 0, 4, 4), Rect(4, 0, 8, 4)]
    touching_corner = [Rect(0, 0, 4, 4), Rect(4, 4, 8, 8)]
    nested = [Rect(0, 0, 10, 10), Rect(2, 2, 3, 3)]
    tall = [Rect(0, 0, 1, 50), Rect(0, 49, 1, 60)]
    for rects, expected in (
        (touching_edge, False),
        (touching_corner, False),
        (nested, True),
        (tall, True),
        ([], False),
    ):
        assert any_overlap(rects) is expected
        assert oracles.any_overlap(rects) is expected


# ----------------------------------------------------------------------
# committed corpora
# ----------------------------------------------------------------------
def _corpus_layouts():
    """(id, layout) of every fastdiff fixture and every parseable fuzz stream."""
    out = []
    for path in sorted((FIXTURES / "fastdiff").glob("*.gds")):
        out.append((f"fastdiff/{path.stem}", load_layout_auto(path)))
    for path in sorted((FIXTURES / "fuzz").rglob("*")):
        if not path.is_file():
            continue
        try:
            layout = load_layout_auto(path)
        except ReproError:
            continue  # a crash mutant: the parser rejects it
        out.append((f"fuzz/{path.relative_to(FIXTURES / 'fuzz')}", layout))
    return out


CORPUS = _corpus_layouts()


def _corpus_windows(layout, layer):
    """Square windows over a layer: whole, quadrants, and one per rect corner."""
    box = layout.bbox(layer)
    side = max(box.width, box.height, 8)
    side += side % 2
    half = side // 2
    windows = [Rect(box.x0, box.y0, box.x0 + side, box.y0 + side)]
    for qx in (0, half):
        for qy in (0, half):
            windows.append(Rect(box.x0 + qx, box.y0 + qy, box.x0 + qx + half, box.y0 + qy + half))
    for rect in layout.layer(layer).rects:
        windows.append(Rect(rect.x0, rect.y0, rect.x0 + half, rect.y0 + half))
    return windows


def test_corpus_is_loaded():
    names = [name for name, _ in CORPUS]
    assert sum(name.startswith("fastdiff/") for name in names) >= 8
    assert {"fuzz/seed.gds", "fuzz/seed.oas"} <= set(names)


@pytest.mark.parametrize("name,layout", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_matches_oracles(name, layout):
    for layer in layout.layer_numbers():
        all_rects = layout.layer(layer).rects
        assert any_overlap(all_rects) == oracles.any_overlap(all_rects)
        for window in _corpus_windows(layout, layer):
            local = layout.rects_in_window(layer, window)
            assert_strings_match(local, window)
            assert_strings_match(all_rects, window)
            margin = window.width // 4
            spec = ClipSpec(core_side=window.width - 2 * margin, clip_side=window.width)
            assert_clip_matches(window, spec, all_rects)
            for tiling_fn in (horizontal_tiling, vertical_tiling):
                assert_cover_verdicts_match(tiling_fn(local, window))
