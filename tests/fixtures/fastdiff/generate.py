"""Regenerate the extraction regression corpus (deterministic).

Each fixture is a small GDSII layout whose geometry stresses the
Section III-C extraction sweeps: degenerate unit/hairline rects, edge-
and corner-touching lattices, windows with no geometry at all, rects
spanning the window boundary, and one seeded mutation soup.  They were
promoted out of fuzz-mutant triage into named fixtures.

Besides the layouts, the generator records what the extraction makes of
each fixture inside each of :data:`WINDOWS` into ``pinned.json``: the
horizontal and vertical tilings, the MTCG edge lists, the topological
and nontopological features, and the density grid.
``tests/test_fastdiff_fixtures.py`` compares the live extraction with
that file, so a change to any of these outputs is a visible diff.

Run from the repo root to rebuild::

    PYTHONPATH=src python tests/fixtures/fastdiff/generate.py

The generator is seeded (no wall-clock, no entropy), so a rebuild is
byte-identical to the committed files.
"""

import json
import random
from pathlib import Path

from repro.features.nontopo import extract_nontopo_features
from repro.geometry.grid import density_grid
from repro.geometry.rect import Rect
from repro.layout.io import load_layout_gds, save_layout_gds
from repro.layout.layout import Layout
from repro.mtcg.features import extract_topological_features
from repro.mtcg.graph import build_mtcg
from repro.mtcg.tiles import horizontal_tiling, vertical_tiling

HERE = Path(__file__).parent
PINNED = HERE / "pinned.json"
LAYER = 1
SEED = 20260809

#: Every fixture is recorded inside each of these windows.  The second
#: window is empty for most fixtures — the empty-window case is part of
#: the corpus, not an accident.
WINDOWS = [
    Rect(0, 0, 600, 600),
    Rect(600, 600, 1200, 1200),
    Rect(0, 0, 1200, 1200),
]
DENSITY_RESOLUTION = 12
DIAGONAL_MAX_GAP = 600


def _layout(rects):
    layout = Layout()
    for rect in rects:
        layout.add_rect(LAYER, rect)
    return layout


def empty_window():
    """Geometry only in the first window; the second is empty space."""
    return [Rect(40, 40, 260, 140), Rect(300, 180, 560, 260)]


def single_unit_rect():
    """One 1x1-DBU rect — the most degenerate block a tiling can see."""
    return [Rect(299, 299, 300, 300)]


def hairline_strips():
    """Width-1 strips, horizontal and vertical, some touching the rim."""
    return [
        Rect(0, 100, 600, 101),
        Rect(120, 0, 121, 600),
        Rect(0, 0, 1, 600),
        Rect(598, 250, 599, 251),
    ]


def touching_edges():
    """Abutting rects: shared edges, zero overlap — adjacency stress."""
    return [
        Rect(100, 100, 200, 200),
        Rect(200, 100, 300, 200),
        Rect(100, 200, 200, 300),
        Rect(300, 100, 400, 150),
        Rect(300, 150, 400, 200),
    ]


def corner_touch_lattice():
    """Checkerboard of rects meeting only at corners."""
    rects = []
    for i in range(5):
        for j in range(5):
            if (i + j) % 2 == 0:
                x0, y0 = 60 + 80 * i, 60 + 80 * j
                rects.append(Rect(x0, y0, x0 + 80, y0 + 80))
    return rects


def full_cover():
    """The first window is one solid block: a tiling with no space."""
    return [Rect(0, 0, 600, 600), Rect(700, 700, 800, 800)]


def comb_fingers():
    """Interdigitated combs — long runs of alternating block/space."""
    rects = [Rect(50, 50, 70, 550)]
    for k in range(10):
        y0 = 70 + 48 * k
        rects.append(Rect(70, y0, 520, y0 + 20))
    rects.append(Rect(520, 50, 540, 550))
    return rects


def diagonal_ladder():
    """Staggered rects inside the diagonal-gap search distance."""
    rects = []
    for k in range(6):
        x0, y0 = 60 + 70 * k, 60 + 80 * k
        rects.append(Rect(x0, y0, x0 + 50, y0 + 40))
    return rects


def window_spanning():
    """Rects crossing the window boundary — clipping makes them thin."""
    return [
        Rect(580, 100, 700, 200),   # straddles x = 600
        Rect(100, 590, 220, 610),   # straddles y = 600
        Rect(595, 595, 605, 605),   # straddles the corner
        Rect(-40, 300, 5, 360),     # pokes in from outside
    ]


def mutation_soup():
    """Seeded random rects: duplicates, touching, containment, slivers."""
    rng = random.Random(SEED)
    rects = []
    for _ in range(24):
        x0 = rng.randrange(0, 560)
        y0 = rng.randrange(0, 560)
        w = rng.choice([1, 1, 2, 5, 20, 60, 120])
        h = rng.choice([1, 2, 4, 25, 70, 130])
        rects.append(Rect(x0, y0, min(600, x0 + w), min(600, y0 + h)))
    rects.extend(rects[:4])  # exact duplicates
    return rects


CASES = {
    "empty_window": empty_window,
    "single_unit_rect": single_unit_rect,
    "hairline_strips": hairline_strips,
    "touching_edges": touching_edges,
    "corner_touch_lattice": corner_touch_lattice,
    "full_cover": full_cover,
    "comb_fingers": comb_fingers,
    "diagonal_ladder": diagonal_ladder,
    "window_spanning": window_spanning,
    "mutation_soup": mutation_soup,
}


def window_key(window):
    return f"{window.x0},{window.y0},{window.x1},{window.y1}"


def fixture_rects(name, window):
    """The committed fixture's rects that touch ``window``."""
    layout = load_layout_gds(HERE / f"{name}.gds")
    return layout.rects_in_window(layout.layer_numbers()[0], window)


def record(rects, window):
    """Every extraction output of ``rects`` in ``window``, as JSON values."""
    h_tiling = horizontal_tiling(rects, window)
    v_tiling = vertical_tiling(rects, window)
    h_graph = build_mtcg(
        h_tiling, "h", with_diagonals=True, diagonal_max_gap=DIAGONAL_MAX_GAP
    )
    v_graph = build_mtcg(
        v_tiling, "v", with_diagonals=True, diagonal_max_gap=DIAGONAL_MAX_GAP
    )
    topo = extract_topological_features(
        rects, window, diagonal_max_gap=DIAGONAL_MAX_GAP
    )
    nontopo = extract_nontopo_features(rects, window)
    clipped = [r for r in (rect.clipped(window) for rect in rects) if r]
    grid = density_grid(clipped, window, DENSITY_RESOLUTION)

    def tiles(tiling):
        return [
            [t.index, t.kind.value, t.rect.x0, t.rect.y0, t.rect.x1, t.rect.y1]
            for t in tiling.tiles
        ]

    def edges(graph):
        return [[e.source, e.target, e.diagonal] for e in graph.edges]

    return {
        "h_tiles": tiles(h_tiling),
        "v_tiles": tiles(v_tiling),
        "h_edges": edges(h_graph),
        "v_edges": edges(v_graph),
        "topological": [
            [f.feature_type.value, f.dx, f.dy, f.width, f.height, f.boundary_mark]
            for f in topo
        ],
        "nontopological": [
            nontopo.corner_count,
            nontopo.touch_count,
            nontopo.min_internal,
            nontopo.min_external,
            nontopo.density,
        ],
        "density_grid": grid.tolist(),
    }


def dump_pinned(pinned):
    """``pinned`` as JSON text, one line per recorded output."""
    compact = {"separators": (",", ":")}
    cases = []
    for name in sorted(pinned):
        windows = []
        for key in sorted(pinned[name]):
            fields = ",\n".join(
                f"   {json.dumps(field)}: {json.dumps(value, **compact)}"
                for field, value in sorted(pinned[name][key].items())
            )
            windows.append(f"  {json.dumps(key)}: {{\n{fields}\n  }}")
        cases.append(f" {json.dumps(name)}: {{\n" + ",\n".join(windows) + "\n }")
    return "{\n" + ",\n".join(cases) + "\n}\n"


def main():
    for name, build in CASES.items():
        path = HERE / f"{name}.gds"
        save_layout_gds(_layout(build()), path)
        print(f"wrote {path.name}")
    pinned = {
        name: {
            window_key(window): record(fixture_rects(name, window), window)
            for window in WINDOWS
        }
        for name in CASES
    }
    PINNED.write_text(dump_pinned(pinned))
    print(f"wrote {PINNED.name}")


if __name__ == "__main__":
    main()
