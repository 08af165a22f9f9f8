"""Extraction regression corpus (``tests/fixtures/fastdiff``).

Each fixture is a small GDSII layout whose geometry stresses the
extraction sweeps: degenerate unit/hairline rects, edge- and
corner-touching lattices, windows with no geometry, rects spanning the
window boundary, and a seeded mutation soup.  ``pinned.json`` records
the tilings, MTCG edge lists, topological and nontopological features
and density grid of every fixture in every window; the live extraction
must reproduce them exactly — every comparison here is ``==``, never a
tolerance.  ``tests/fixtures/fastdiff/generate.py`` rebuilds the
corpus deterministically.  The corpus keeps its first name: it was
built to diff a since-removed vectorized extraction against the scalar
one, and its test ids stay stable across that removal.
"""

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures" / "fastdiff"
CASES = sorted(p.stem for p in FIXTURES.glob("*.gds"))


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "fastdiff_generate", FIXTURES / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATE = _load_generator()
WINDOWS = GENERATE.WINDOWS
PINNED = json.loads(GENERATE.PINNED.read_text())


def test_corpus_is_complete():
    """The committed corpus holds every named case, no strays."""
    assert CASES == sorted(GENERATE.CASES)
    assert 8 <= len(CASES) <= 12
    assert sorted(PINNED) == CASES
    keys = sorted(GENERATE.window_key(w) for w in WINDOWS)
    assert all(sorted(PINNED[name]) == keys for name in CASES)


def _pinned(name, window, *outputs):
    """(live, pinned) values of ``outputs`` for one fixture window.

    A JSON round trip turns the live tuples into lists; floats survive
    it exactly, so the comparison stays ``==``.
    """
    live = GENERATE.record(GENERATE.fixture_rects(name, window), window)
    live = json.loads(json.dumps([live[key] for key in outputs]))
    pinned = PINNED[name][GENERATE.window_key(window)]
    return live, [pinned[key] for key in outputs]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"{w.x0}_{w.y0}")
class TestFastdiffFixtures:
    def test_tilings_bit_identical(self, name, window):
        live, pinned = _pinned(name, window, "h_tiles", "v_tiles")
        assert live == pinned

    def test_constraint_graphs_bit_identical(self, name, window):
        live, pinned = _pinned(name, window, "h_edges", "v_edges")
        assert live == pinned

    def test_topological_extraction_bit_identical(self, name, window):
        live, pinned = _pinned(name, window, "topological")
        assert live == pinned

    def test_nontopo_extraction_bit_identical(self, name, window):
        live, pinned = _pinned(name, window, "nontopological")
        assert live == pinned

    def test_density_grid_bit_identical(self, name, window):
        live, pinned = _pinned(name, window, "density_grid")
        assert live == pinned
