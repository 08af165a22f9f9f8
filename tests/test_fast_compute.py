"""Property tests for the one compute path.

The file and class names come from the removed ``fast`` compute mode:
these properties were first checked on its vectorized sweeps and
blocked margin evaluator, and they hold for the scalar extraction and
the per-row SVM evaluator that remain.  The test ids are kept so the
properties stay traceable across that removal.

Three contracts:

1. **Batch invariance** — a row's margin and support similarity do not
   depend on the batch it is evaluated in: one-row, chunked and
   permuted evaluations equal the full batch bit for bit.  The margin
   cache and the thread/process/fleet scans re-batch rows freely, so
   this is what makes their outputs identical.
2. **Support-vector compaction** — ``fit`` keeps exactly the rows with a
   positive dual, and a degenerate all-zero solution still keeps one
   vector so the far-field similarity guard stays defined.
3. **Geometry against brute force** — tilings, constraint graphs,
   cover checks, corner/touch counts and density grids equal references
   computed cell by cell on the unit lattice, and full extraction does
   not depend on the order of its input rects.  All of it is integer
   geometry, so every comparison is ``==``, never a tolerance.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.keys import feature_fingerprint
from repro.core.persist import _decode_feature_config, _encode_feature_config
from repro.errors import GeometryError
from repro.features.nontopo import corner_and_touch_counts, extract_nontopo_features
from repro.features.vector import FeatureConfig
from repro.geometry.grid import density_grid
from repro.geometry.rect import Rect
from repro.mtcg.features import extract_topological_features
from repro.mtcg.graph import build_mtcg
from repro.mtcg.tiles import Tile, TileKind, Tiling, horizontal_tiling, vertical_tiling
from repro.svm.model import SupportVectorClassifier

WINDOW = Rect(0, 0, 24, 24)


def rect_sets(max_rects=6, bound=24, max_side=8):
    """Non-overlapping rect lists inside ``bound`` (tiling inputs)."""

    def build(raw):
        rects = []
        for x0, y0, w, h in raw:
            r = Rect.maybe(x0, y0, min(bound, x0 + w), min(bound, y0 + h))
            if r and not any(r.overlaps(o) for o in rects):
                rects.append(r)
        return rects

    return st.lists(
        st.tuples(
            st.integers(0, bound - 2),
            st.integers(0, bound - 2),
            st.integers(1, max_side),
            st.integers(1, max_side),
        ),
        max_size=max_rects,
    ).map(build)


def raw_rect_sets(max_rects=8, bound=24, max_side=10):
    """Arbitrary (possibly overlapping) rects.

    Density accumulation is defined for any rect list, so the grid must
    match the reference even on inputs tilings would reject.
    """

    def build(raw):
        rects = []
        for x0, y0, w, h in raw:
            r = Rect.maybe(x0, y0, min(bound, x0 + w), min(bound, y0 + h))
            if r:
                rects.append(r)
        return rects

    return st.lists(
        st.tuples(
            st.integers(0, bound - 2),
            st.integers(0, bound - 2),
            st.integers(1, max_side),
            st.integers(1, max_side),
        ),
        max_size=max_rects,
    ).map(build)


def fitted_classifier(seed, rows=24, dims=3, far_field_floor=0.0):
    """A small deterministic RBF model fit on seeded random data."""
    rng = np.random.RandomState(seed)
    matrix = rng.uniform(0.0, 10.0, size=(rows, dims))
    labels = np.where(rng.rand(rows) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1  # both classes always present
    clf = SupportVectorClassifier(
        C=10.0, gamma=0.1, far_field_floor=far_field_floor
    )
    clf.fit(matrix, labels)
    return clf, rng


# ----------------------------------------------------------------------
# unit-lattice references
# ----------------------------------------------------------------------
def _cells(rects, window=WINDOW):
    """Unit cells of ``window`` covered by ``rects``."""
    return {
        (x, y)
        for r in rects
        for x in range(max(r.x0, window.x0), min(r.x1, window.x1))
        for y in range(max(r.y0, window.y0), min(r.y1, window.y1))
    }


def _stack_merge(strips):
    """Merge vertically touching strips with identical x spans."""
    merged = []
    for strip in sorted(strips, key=lambda r: (r.x0, r.x1, r.y0)):
        last = merged[-1] if merged else None
        if last and (last.x0, last.x1, last.y1) == (strip.x0, strip.x1, strip.y0):
            merged[-1] = Rect(last.x0, last.y0, last.x1, strip.y1)
        else:
            merged.append(strip)
    return merged


def _reference_horizontal_tiles(rects, window=WINDOW):
    """Horizontal tiling built cell by cell: free runs of each unit row,
    stacked into maximal strips; blocks are the stacked input rects."""
    covered = _cells(rects, window)
    runs = []
    for y in range(window.y0, window.y1):
        x = window.x0
        while x < window.x1:
            if (x, y) in covered:
                x += 1
                continue
            start = x
            while x < window.x1 and (x, y) not in covered:
                x += 1
            runs.append(Rect(start, y, x, y + 1))
    blocks = sorted(_stack_merge(rects))
    spaces = sorted(_stack_merge(runs))
    kinds = [TileKind.BLOCK] * len(blocks) + [TileKind.SPACE] * len(spaces)
    return [
        (rect, kind, index)
        for index, (rect, kind) in enumerate(zip(blocks + spaces, kinds))
    ]


def _transpose(rect):
    return Rect(rect.y0, rect.x0, rect.y1, rect.x1)


def _reference_edges(tiles, axis, max_gap):
    """MTCG edges of ``tiles`` derived from the cells each tile covers."""
    owner = {}
    for index, tile in enumerate(tiles):
        for cell in _cells([tile.rect]):
            owner[cell] = index
    edges = set()
    for (x, y), index in owner.items():
        neighbour = (x, y + 1) if axis == "v" else (x + 1, y)
        other = owner.get(neighbour)
        if other is not None and other != index:
            edges.add((index, other, False))
    for i, first in enumerate(tiles):
        for j, second in enumerate(tiles):
            if j <= i or first.kind is not second.kind:
                continue
            a, b = first.rect, second.rect
            if not (a.x1 <= b.x0 or b.x1 <= a.x0) or not (a.y1 <= b.y0 or b.y1 <= a.y0):
                continue
            gx0, gx1 = min(a.x1, b.x1), max(a.x0, b.x0)
            gy0, gy1 = min(a.y1, b.y1), max(a.y0, b.y0)
            # A gap box without area holds no cell: the pair is adjacent
            # however far apart, as in ``build_mtcg``.
            degenerate = gx0 == gx1 or gy0 == gy1
            if not degenerate and max(gx1 - gx0, gy1 - gy0) > max_gap:
                continue
            gap = {(x, y) for x in range(gx0, gx1) for y in range(gy0, gy1)}
            if any(
                tiles[owner[cell]].kind is first.kind and owner[cell] not in (i, j)
                for cell in gap
            ):
                continue
            edges.add((i, j, True) if a.x0 <= b.x0 else (j, i, True))
    return edges


def _reference_corner_and_touch(rects, window=None):
    """Corner and touch-point counts from a scan of every lattice vertex."""
    covered = _cells(rects, Rect(-1, -1, 25, 25))
    corners = touches = 0
    for x in range(0, 25):
        for y in range(0, 25):
            if window is not None and not (
                window.x0 < x < window.x1 and window.y0 < y < window.y1
            ):
                continue
            sw, se = (x - 1, y - 1) in covered, (x, y - 1) in covered
            nw, ne = (x - 1, y) in covered, (x, y) in covered
            count = sw + se + nw + ne
            if count in (1, 3):
                corners += 1
            elif count == 2 and sw == ne and se == nw and sw != se:
                touches += 1
    return corners, touches


def _reference_density(rects, resolution, window=WINDOW):
    """Per-cell coverage multiplicity summed into grid cells."""
    side = window.width // resolution
    accum = np.zeros((resolution, resolution), dtype=np.int64)
    for rect in rects:
        for x, y in _cells([rect], window):
            accum[(y - window.y0) // side, (x - window.x0) // side] += 1
    return accum.astype(np.float64) / float(side * side)


def _shuffled(rects, seed):
    """The same rects in another order."""
    shuffled = list(rects)
    random.Random(seed).shuffle(shuffled)
    return shuffled


class TestBlockedMarginInvariance:
    """Margins must not depend on how callers batch the rows."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(1, 96),
    )
    @settings(max_examples=15, deadline=None)
    def test_per_row_equals_batched(self, seed, n_samples):
        clf, rng = fitted_classifier(seed, far_field_floor=0.05)
        samples = rng.uniform(-2.0, 12.0, size=(n_samples, 3))

        full_values = clf.decision_function(samples)
        full_similarity = clf.support_similarity(samples)
        row_values = np.concatenate(
            [clf.decision_function(samples[i : i + 1]) for i in range(n_samples)]
        )
        row_similarity = np.concatenate(
            [clf.support_similarity(samples[i : i + 1]) for i in range(n_samples)]
        )
        single_values = np.array([clf.decision_function(row) for row in samples])
        assert np.array_equal(full_values, row_values)
        assert np.array_equal(full_values, single_values)
        assert np.array_equal(full_similarity, row_similarity)

    @given(
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(1, 199), max_size=6, unique=True),
    )
    @settings(max_examples=15, deadline=None)
    def test_partition_invariance(self, seed, cuts):
        clf, rng = fitted_classifier(seed, far_field_floor=0.05)
        samples = rng.uniform(-2.0, 12.0, size=(200, 3))

        bounds = [0] + sorted(cuts) + [200]
        chunks = [samples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(
            clf.decision_function(samples),
            np.concatenate([clf.decision_function(c) for c in chunks]),
        )
        assert np.array_equal(
            clf.support_similarity(samples),
            np.concatenate([clf.support_similarity(c) for c in chunks]),
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_row_order_invariance(self, seed):
        clf, rng = fitted_classifier(seed, far_field_floor=0.05)
        samples = rng.uniform(-2.0, 12.0, size=(135, 3))

        full = clf.decision_function(samples)
        perm = rng.permutation(samples.shape[0])
        permuted = clf.decision_function(samples[perm])
        restored = np.empty_like(permuted)
        restored[perm] = permuted
        assert np.array_equal(full, restored)


class TestSupportVectorCompaction:
    """``fit`` keeps only the rows that carry a dual coefficient."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_padded_zero_rows_are_dropped_bit_exactly(self, seed):
        rng = np.random.RandomState(seed)
        matrix = rng.uniform(0.0, 10.0, size=(24, 3))
        labels = np.where(rng.rand(24) < 0.5, 1, -1)
        labels[0], labels[1] = 1, -1
        clf = SupportVectorClassifier(C=10.0, gamma=0.1)
        clf.fit(matrix, labels)

        alpha = clf.last_result_.alpha
        keep = alpha > 1e-9
        assert np.any(keep)
        scaled = clf.scaler_.transform(matrix)
        assert np.array_equal(clf.support_vectors_, scaled[keep])
        assert np.array_equal(clf.dual_coef_, (alpha * labels)[keep])
        assert np.all(clf.dual_coef_ != 0.0)

    def test_no_zero_rows_means_no_compaction(self):
        # Two opposite-class points are both support vectors of the
        # maximum-margin solution: nothing is dropped.
        matrix = np.array([[0.0, 0.0], [1.0, 1.0]])
        clf = SupportVectorClassifier(C=10.0, gamma=0.5)
        clf.fit(matrix, np.array([1, -1]))
        assert np.all(clf.last_result_.alpha > 1e-9)
        assert np.array_equal(clf.support_vectors_, matrix)
        assert np.array_equal(clf.dual_coef_, clf.last_result_.alpha * [1, -1])

    def test_all_zero_duals_keep_the_similarity_guard_defined(self):
        # A box constraint below the support threshold forces every dual
        # to (numerically) zero.  The model must still keep a vector so
        # max-similarity, and the far-field guard built on it, stay defined.
        rng = np.random.RandomState(11)
        matrix = rng.uniform(0.0, 10.0, size=(12, 3))
        labels = np.array([1, -1] * 6)
        clf = SupportVectorClassifier(C=1e-12, gamma=0.1, far_field_floor=0.5)
        clf.fit(matrix, labels)
        assert not np.any(clf.last_result_.alpha > 1e-9)
        assert clf.support_vectors_.shape[0] == 1
        samples = rng.uniform(0.0, 10.0, size=(5, 3))
        assert np.all(np.isfinite(clf.decision_function(samples)))
        similarity = clf.support_similarity(samples)
        assert np.all((similarity >= 0.0) & (similarity <= 1.0))


class TestVectorizedGeometry:
    """The extraction sweeps against unit-lattice brute force — no tolerance."""

    @staticmethod
    def _tiling_key(tiling):
        return [(t.rect, t.kind, t.index) for t in tiling.tiles]

    @given(rect_sets())
    @settings(max_examples=40, deadline=None)
    def test_fast_tilings_equal_scalar(self, rects):
        horizontal = horizontal_tiling(rects, WINDOW)
        assert horizontal.orientation == "horizontal"
        assert self._tiling_key(horizontal) == _reference_horizontal_tiles(rects)

        vertical = vertical_tiling(rects, WINDOW)
        assert vertical.orientation == "vertical"
        transposed = _reference_horizontal_tiles([_transpose(r) for r in rects])
        assert self._tiling_key(vertical) == [
            (_transpose(rect), kind, index) for rect, kind, index in transposed
        ]

    @given(rect_sets())
    @settings(max_examples=40, deadline=None)
    def test_fast_cover_predicate_matches_scalar(self, rects):
        tiling = horizontal_tiling(rects, WINDOW)
        tiles = list(tiling.tiles)
        area = sum(t.rect.area for t in tiles)
        assert tiling.covers_window()
        assert area == WINDOW.area == len(_cells(t.rect for t in tiles))
        # A hole and a double cover must both be rejected.
        holed = Tiling(WINDOW, tuple(tiles[1:]), tiling.orientation)
        assert not holed.covers_window()
        doubled = Tiling(
            WINDOW, (*tiles, Tile(tiles[0].rect, TileKind.SPACE, len(tiles))), "horizontal"
        )
        assert not doubled.covers_window()

    @given(rect_sets())
    @settings(max_examples=40, deadline=None)
    def test_fast_constraint_graphs_equal_scalar(self, rects):
        for tiling_fn, axis in ((horizontal_tiling, "h"), (vertical_tiling, "v")):
            tiling = tiling_fn(rects, WINDOW)
            graph = build_mtcg(tiling, axis, with_diagonals=True, diagonal_max_gap=6)
            edges = [(e.source, e.target, e.diagonal) for e in graph.edges]
            assert len(edges) == len(set(edges))
            assert set(edges) == _reference_edges(tiling.tiles, axis, 6)

    @given(rect_sets(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_fast_topological_extraction_equals_scalar(self, rects, seed):
        expected = extract_topological_features(rects, WINDOW, diagonal_max_gap=6)
        assert extract_topological_features(
            _shuffled(rects, seed), WINDOW, diagonal_max_gap=6
        ) == expected

    @given(rect_sets(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_fast_nontopo_extraction_equals_scalar(self, rects, seed):
        expected = extract_nontopo_features(rects, WINDOW)
        assert extract_nontopo_features(
            _shuffled(rects, seed), WINDOW
        ) == expected

    @given(rect_sets())
    @settings(max_examples=40, deadline=None)
    def test_fast_corner_and_touch_counts_equal_scalar(self, rects):
        assert corner_and_touch_counts(rects, WINDOW) == _reference_corner_and_touch(
            rects, WINDOW
        )
        assert corner_and_touch_counts(rects) == _reference_corner_and_touch(rects)

    @given(raw_rect_sets(), st.sampled_from([2, 3, 4, 6, 8]))
    @settings(max_examples=40, deadline=None)
    def test_fast_density_grid_is_bit_identical(self, rects, resolution):
        grid = density_grid(rects, WINDOW, resolution)
        reference = _reference_density(rects, resolution)
        assert grid.dtype == reference.dtype
        assert grid.shape == reference.shape
        assert np.array_equal(grid, reference)

    def test_fast_density_grid_rejects_what_scalar_rejects(self):
        with pytest.raises(GeometryError):
            density_grid([], WINDOW, 0)
        with pytest.raises(GeometryError):
            density_grid([], WINDOW, 7)  # 24 % 7 != 0
        empty = density_grid([], WINDOW, 6)
        assert empty.dtype == np.float64
        assert np.array_equal(empty, np.zeros((6, 6)))

    def test_space_strips_cover_the_complement(self):
        blocks = [Rect(0, 0, 8, 24), Rect(16, 4, 24, 20)]
        for tiling_fn in (horizontal_tiling, vertical_tiling):
            strips = [t.rect for t in tiling_fn(blocks, WINDOW).spaces()]
            covered = sum(r.area for r in strips)
            assert covered == WINDOW.area - sum(b.area for b in blocks)
            for strip in strips:
                assert WINDOW.contains_rect(strip)
                assert not any(strip.overlaps(b) for b in blocks)


class TestComputeModeConfig:
    def test_feature_config_rejects_unknown_modes(self):
        # The compute mode is gone from the config; naming one is an error
        # rather than a silently ignored setting.
        assert "compute" not in {f.name for f in dataclasses.fields(FeatureConfig)}
        for mode in ("exact", "fast", "turbo"):
            with pytest.raises(TypeError):
                FeatureConfig(compute=mode)

    def test_feature_fingerprint_is_mode_blind(self):
        # Archives written while a compute mode existed store it with the
        # feature config.  It never changed the features, so the decoded
        # config — and the feature-cache namespace — must not see it.
        config = FeatureConfig()
        for mode in ("exact", "fast"):
            stored = {**_encode_feature_config(config), "compute": mode}
            decoded = _decode_feature_config(stored)
            assert decoded == config
            assert feature_fingerprint(decoded) == feature_fingerprint(config)
        assert feature_fingerprint(config) != feature_fingerprint(
            FeatureConfig(region="clip")
        )
