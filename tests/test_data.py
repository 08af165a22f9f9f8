"""Tests for the synthetic benchmark data substrate."""

import numpy as np
import pytest

from repro.data.benchmarks import (
    BENCHMARKS,
    ICCAD_SPEC,
    benchmark_config,
    generate_benchmark,
    generate_testing_layout,
    generate_training_set,
)
from repro.data.patterns import (
    AMBIT_MOTIF,
    GAP_REGIMES,
    MOTIFS,
    generate_ambit_motif,
    generate_motif,
    motif_by_name,
)
from repro.data.synth import (
    FABRIC_SPACING,
    anchor_of,
    build_fabric_clip,
    build_testing_layout,
    build_training_clip,
    fabric_rects,
)
from repro.errors import DataError
from repro.geometry.rect import Rect
from repro.layout.clip import ClipLabel, ClipSpec
from repro.topology.strings import canonical_string_key

CORE = Rect(0, 0, 1200, 1200)


class TestMotifs:
    def test_zoo_names(self):
        names = {m.name for m in MOTIFS}
        assert {"tip2tip", "pinch", "bridge", "comb", "ushape"} <= names

    def test_unknown_motif_raises(self):
        with pytest.raises(DataError):
            motif_by_name("nope")

    @pytest.mark.parametrize("motif", [m.name for m in MOTIFS])
    def test_generates_in_window(self, motif):
        rng = np.random.default_rng(0)
        for hotspot in (True, False):
            rects = generate_motif(motif, rng, hotspot, CORE)
            assert rects
            for rect in rects:
                assert CORE.contains_rect(rect)

    @pytest.mark.parametrize("motif", [m.name for m in MOTIFS])
    def test_geometry_disjoint(self, motif):
        rng = np.random.default_rng(1)
        rects = generate_motif(motif, rng, True, CORE)
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)

    def test_gap_regimes_separated(self):
        hs_low, hs_high = GAP_REGIMES["hotspot"]
        safe_low, safe_high = GAP_REGIMES["safe"]
        assert hs_high < safe_low  # the dead zone keeps labels consistent

    def test_borderline_within_safe(self):
        b_low, b_high = GAP_REGIMES["borderline"]
        safe_low, safe_high = GAP_REGIMES["safe"]
        assert safe_low <= b_low and b_high <= safe_high

    @pytest.mark.parametrize(
        "motif", ["tip2tip", "tip2side", "pinch", "bridge", "corner", "ushape", "jog"]
    )
    def test_family_topology_stable(self, motif):
        """The structural-stability invariant: one string key per family.

        Instances are compared inside their anchored core window, which is
        how the detection pipeline sees them.
        """
        rng = np.random.default_rng(42)
        keys = set()
        for _ in range(8):
            for hotspot in (True, False):
                rects = generate_motif(motif, rng, hotspot, CORE)
                ax, ay = anchor_of(rects, 1200)
                window = Rect(ax, ay, ax + 1200, ay + 1200)
                clipped = [r for r in (x.intersection(window) for x in rects) if r]
                keys.add(canonical_string_key(clipped, window))
        assert len(keys) <= 2, f"{motif} produced {len(keys)} distinct topologies"

    def test_ambit_motif_core_identical_distribution(self):
        rng = np.random.default_rng(7)
        hs_core, hs_ambit = generate_ambit_motif(rng, True, CORE)
        safe_core, safe_ambit = generate_ambit_motif(rng, False, CORE)
        assert len(hs_core) == len(safe_core) == 2
        assert hs_ambit and not safe_ambit


class TestFabric:
    def test_fabric_fills_window(self):
        rng = np.random.default_rng(0)
        window = Rect(0, 0, 20000, 20000)
        rects = fabric_rects(rng, window)
        assert len(rects) > 50
        covered = sum(r.area for r in rects) / window.area
        assert 0.05 < covered < 0.6

    def test_fabric_respects_keep_out(self):
        rng = np.random.default_rng(0)
        window = Rect(0, 0, 20000, 20000)
        hole = Rect(8000, 8000, 12000, 12000)
        rects = fabric_rects(rng, window, keep_out=[hole])
        assert all(not r.overlaps(hole) for r in rects)

    def test_fabric_disjoint(self):
        rng = np.random.default_rng(0)
        rects = fabric_rects(rng, Rect(0, 0, 12000, 12000))
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b), (a, b)

    def test_fabric_spacing_safe(self):
        """Fabric must contain no hotspot-regime gaps (< 76 nm)."""
        rng = np.random.default_rng(3)
        rects = fabric_rects(rng, Rect(0, 0, 16000, 16000))
        from repro.geometry.measure import min_rect_spacing

        spacing = min_rect_spacing(rects)
        assert spacing is None or spacing > GAP_REGIMES["hotspot"][1]


class TestClips:
    def test_training_clip_label(self):
        rng = np.random.default_rng(0)
        clip = build_training_clip(rng, ICCAD_SPEC, "tip2tip", hotspot=True)
        assert clip.label is ClipLabel.HOTSPOT
        assert len(clip.core_rects()) >= 2

    def test_training_clip_core_is_motif_only(self):
        """The anchored core must hold the motif with no fabric mixed in."""
        rng = np.random.default_rng(1)
        clip = build_training_clip(rng, ICCAD_SPEC, "pinch", hotspot=False)
        # pinch has exactly 3 rectangles; the core may clip them but never
        # adds fabric pieces
        assert len(clip.core_rects()) <= 3

    def test_fabric_clip(self):
        rng = np.random.default_rng(2)
        clip = build_fabric_clip(rng, ICCAD_SPEC)
        assert clip.label is ClipLabel.NON_HOTSPOT
        assert clip.core_rects()

    def test_anchor_of_lexicographic(self):
        rects = [Rect(10, 50, 20, 60), Rect(5, 80, 8, 90), Rect(5, 20, 9, 30)]
        assert anchor_of(rects, 1200) == (5, 20)


class TestBenchmarks:
    def test_six_benchmarks(self):
        assert len(BENCHMARKS) == 6
        names = [cfg.name for cfg in BENCHMARKS]
        assert "benchmark1" in names and "blind" in names

    def test_unknown_benchmark(self):
        with pytest.raises(DataError):
            benchmark_config("benchmark9")

    def test_invalid_scale(self):
        with pytest.raises(DataError):
            generate_benchmark("benchmark1", scale=0)

    def test_population_imbalance(self):
        """Table I shape: nonhotspots greatly outnumber hotspots."""
        for cfg in BENCHMARKS:
            assert cfg.train_nonhotspots > cfg.train_hotspots

    def test_generation_deterministic(self):
        a = generate_benchmark("benchmark5", scale=0.4)
        b = generate_benchmark("benchmark5", scale=0.4)
        assert [c.rects for c in a.training] == [c.rects for c in b.training]
        assert a.testing.hotspot_cores() == b.testing.hotspot_cores()

    def test_stats_row(self):
        bench = generate_benchmark("benchmark5", scale=0.4)
        stats = bench.stats()
        assert stats["train_hs"] >= 2
        assert stats["train_nhs"] > stats["train_hs"]
        assert stats["test_hs"] >= 2
        assert stats["area_um2"] > 0

    def test_truth_cores_disjoint(self):
        bench = generate_benchmark("benchmark1", scale=0.4)
        cores = bench.testing.hotspot_cores()
        for i, a in enumerate(cores):
            for b in cores[i + 1 :]:
                # companion cores may overlap their primary, but never
                # coincide
                assert a != b

    def test_training_set_mixes_fabric_clips(self):
        config = benchmark_config("benchmark2")
        clips = generate_training_set(config, scale=0.2)
        assert len(clips.non_hotspots()) > len(clips.hotspots())

    def test_site_windows_inside_layout(self):
        bench = generate_benchmark("benchmark5", scale=0.4)
        for site in bench.testing.sites:
            assert bench.testing.window.contains_rect(site.core)


class TestTestingLayoutRng:
    """``generate_testing_layout(rng=...)`` honours the caller's generator.

    benchmark1 at scale 0.1 does not fit its first window, so these
    layouts come from the retry loop that grows the window.
    """

    @staticmethod
    def _layout_key(testing):
        return (
            testing.window,
            sorted(testing.layout.layer(1).rects),
            [(site.core, site.hotspot) for site in testing.sites],
        )

    def _generate(self, rng, scale=0.1):
        return generate_testing_layout(benchmark_config("benchmark1"), scale, rng=rng)

    def test_same_seed_same_layout(self):
        a = self._generate(np.random.default_rng(7))
        b = self._generate(np.random.default_rng(7))
        assert self._layout_key(a) == self._layout_key(b)

    def test_different_seeds_differ(self):
        a = self._generate(np.random.default_rng(7))
        b = self._generate(np.random.default_rng(8))
        assert self._layout_key(a) != self._layout_key(b)

    def test_retry_restarts_from_callers_state(self):
        """The layout is the one a fresh copy of the caller's generator
        builds in the final (grown) window: failed attempts leave no trace."""
        config = benchmark_config("benchmark1")
        scale = 0.1
        testing = self._generate(np.random.default_rng(7), scale)
        assert testing.window.width > int(config.side_um * 1000 * scale**0.5)
        rebuilt = build_testing_layout(
            np.random.default_rng(7),
            ICCAD_SPEC,
            testing.window,
            hotspot_count=max(2, round(config.test_hotspots * scale)),
            decoy_count=max(1, round(config.test_decoys * scale)),
            motif_names=config.motifs,
            fabric_fill=config.fabric_fill,
        )
        assert self._layout_key(testing) == self._layout_key(rebuilt)

    def test_default_is_the_config_seeded_generator(self):
        config = benchmark_config("benchmark1")
        default = self._generate(None)
        explicit = self._generate(np.random.default_rng(config.seed + 1_000))
        assert self._layout_key(default) == self._layout_key(explicit)

    def test_default_matches_committed_golden(self):
        """``rng=None`` still yields the layout the golden corpus pins."""
        import importlib.util
        import json
        from pathlib import Path

        golden = Path(__file__).parent / "fixtures" / "golden"
        spec = importlib.util.spec_from_file_location(
            "golden_generate", golden / "generate.py"
        )
        generate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generate)
        for name, scale in generate.CASES:
            testing = generate_testing_layout(benchmark_config(name), scale)
            pinned = json.loads(generate.golden_path(name, scale).read_text())
            assert generate.rects_sha256(testing.layout.layer(1).rects) == (
                pinned["inputs"]["testing_layout_sha256"]
            )


class TestMultilayerData:
    def test_multilayer_set_deterministic(self):
        from repro.data.multilayer import generate_multilayer_set

        a = generate_multilayer_set(4, 4, seed=77)
        b = generate_multilayer_set(4, 4, seed=77)
        assert [c.layer_rects for c in a] == [c.layer_rects for c in b]

    def test_multilayer_labels(self):
        from repro.data.multilayer import generate_multilayer_set

        clips = generate_multilayer_set(3, 5, seed=1)
        assert sum(c.label is ClipLabel.HOTSPOT for c in clips) == 3
        assert sum(c.label is ClipLabel.NON_HOTSPOT for c in clips) == 5

    def test_dpt_hotspot_has_decomposition_conflicts(self):
        from repro.data.multilayer import build_dpt_clip
        from repro.multilayer.dpt import decompose

        rng = np.random.default_rng(5)
        hot = build_dpt_clip(rng, ICCAD_SPEC, hotspot=True)
        safe = build_dpt_clip(rng, ICCAD_SPEC, hotspot=False)
        hot_conflicts = len(decompose(list(hot.rects), 100).conflicts)
        safe_conflicts = len(decompose(list(safe.rects), 100).conflicts)
        assert hot_conflicts > safe_conflicts

    def test_multilayer_metal2_crossing_is_the_label(self):
        from repro.data.multilayer import METAL1, METAL2, build_multilayer_clip

        rng = np.random.default_rng(9)
        hot = build_multilayer_clip(rng, ICCAD_SPEC, hotspot=True)
        # metal-1 view alone: two wires with a dead-zone gap in both labels
        assert len(hot.layer_clip(METAL1).core_rects()) >= 2
        assert len(hot.rects_on(METAL2)) == 2
