"""The six ICCAD-2012-like benchmark pairs (Table I substitution).

Each benchmark pairs a training clip set (``MX_benchmarkN_clip``) with a
testing layout (``Array_benchmarkN``), mirroring Table I's population
*ratios* — highly imbalanced nonhotspot-heavy training sets — at a scale a
pure-Python pipeline can sweep in CI.  The ``scale`` knob multiplies both
clip counts and layout area toward the paper's full sizes.

The substitution rationale lives in DESIGN.md: the detection algorithms
consume only clip geometry and labels, which the planted-motif generator
supplies with exact ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import DataError
from repro.geometry.rect import Rect
from repro.layout.clip import ClipSet, ClipSpec
from repro.data.patterns import MOTIFS
from repro.data.synth import (
    TestingLayout,
    build_fabric_clip,
    build_testing_layout,
    build_training_clip,
    harvest_training_clips,
)

#: The contest clip geometry: 1.2 um core in a 4.8 um clip at 1 nm DBU.
ICCAD_SPEC = ClipSpec(core_side=1200, clip_side=4800)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Recipe for one benchmark pair.

    ``train_hotspots``/``train_nonhotspots`` follow Table I's imbalance;
    ``test_hotspots`` the planted testing-site count; ``side_um`` the
    testing layout's side in microns; ``process`` cosmetic node metadata.
    The reproduction scales the paper's numbers by ~1/5 for population and
    ~1/4 linearly for area (documented in EXPERIMENTS.md); ``scale``
    rescales further at generation time.
    """

    name: str
    train_hotspots: int
    train_nonhotspots: int
    test_hotspots: int
    test_decoys: int
    side_um: float
    process: str
    motifs: tuple[str, ...]
    seed: int
    #: Fraction of the testing layout covered by fabric bands; the empty
    #: routing channels drive the Table V extraction advantage, and the
    #: per-benchmark variation mirrors Table V's spread (1.6x - 7x).
    fabric_fill: float = 0.6


#: Populations are Table I divided by ~5, areas scaled to keep the planted
#: density comparable; each benchmark draws a different motif subset so the
#: benchmarks differ in topology diversity just as the contest suites do.
_ALL = tuple(m.name for m in MOTIFS)
BENCHMARKS: tuple[BenchmarkConfig, ...] = (
    BenchmarkConfig("benchmark1", 32, 100, 45, 20, 46.0, "32nm", _ALL[:4], 101, 0.45),
    BenchmarkConfig("benchmark2", 50, 280, 60, 40, 56.0, "28nm", _ALL[2:7], 102, 0.70),
    BenchmarkConfig(
        "benchmark3", 90, 300, 110, 40, 60.0, "28nm", _ALL + ("ambit_t2t",), 103, 0.70
    ),
    BenchmarkConfig(
        "benchmark4", 32, 240, 38, 40, 78.0, "28nm", _ALL[4:] + ("ambit_t2t",), 104, 0.25
    ),
    BenchmarkConfig("benchmark5", 16, 180, 12, 30, 40.0, "28nm", _ALL[1:5], 105, 0.30),
    BenchmarkConfig("blind", 32, 100, 14, 30, 46.0, "32nm", _ALL[:4], 106, 0.50),
)

_BY_NAME = {cfg.name: cfg for cfg in BENCHMARKS}


@dataclass
class Benchmark:
    """A generated benchmark pair: training clips + testing layout."""

    config: BenchmarkConfig
    training: ClipSet
    testing: TestingLayout

    @property
    def name(self) -> str:
        return self.config.name

    def stats(self) -> dict:
        """Table I-style statistics row."""
        return {
            "name": self.name,
            "train_hs": len(self.training.hotspots()),
            "train_nhs": len(self.training.non_hotspots()),
            "test_hs": len(self.testing.hotspot_cores()),
            "area_um2": round(self.testing.area_um2, 1),
            "process": self.config.process,
        }


def benchmark_config(name: str) -> BenchmarkConfig:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DataError(
            f"unknown benchmark {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


def generate_training_set(
    config: BenchmarkConfig,
    scale: float = 1.0,
    spec: ClipSpec = ICCAD_SPEC,
    rng: Optional[np.random.Generator] = None,
) -> ClipSet:
    """Generate the labelled training clip set of one benchmark.

    Training clips are harvested from a dedicated *training layout* built
    with the same planting machinery as the testing layout (different
    seed) — the same provenance the contest archives have, so the
    training distribution covers the topology variety evaluation-time
    extraction will see (arrays, companions, ambit cases, borderline
    decoys).  Roughly 40 % of the nonhotspot population is plain routing
    fabric, as real archives are dominated by ordinary layout.
    """
    rng = rng or np.random.default_rng(config.seed)
    hotspot_count = max(2, round(config.train_hotspots * scale))
    nonhotspot_count = max(4, round(config.train_nonhotspots * scale))
    fabric_count = nonhotspot_count * 2 // 5
    decoy_count = nonhotspot_count - fabric_count

    # Size the training layout to fit the population.
    total = hotspot_count + decoy_count
    side = _side_for_sites(total, config.fabric_fill, spec)
    planted = build_testing_layout(
        rng,
        spec,
        Rect(0, 0, side, side),
        hotspot_count=hotspot_count,
        decoy_count=decoy_count,
        motif_names=config.motifs,
        fabric_fill=config.fabric_fill,
    )
    clips = harvest_training_clips(planted, fabric_count, rng)
    clip_set = ClipSet(spec)
    for clip in clips:
        clip_set.add(clip)
    return clip_set


def _side_for_sites(total: int, fabric_fill: float, spec: ClipSpec) -> int:
    """Window side that comfortably fits ``total`` planted sites."""
    side = 30_000
    while True:
        # Match build_testing_layout's anchor arithmetic conservatively:
        # x anchors every 1.5 cores, y rows limited by band capacity.
        margin = spec.ambit_margin + spec.core_side
        step = spec.core_side + spec.core_side // 2
        xs = max(1, (side - 2 * margin - spec.core_side) // step)
        usable_band = fabric_fill * (side - 2 * margin)
        band_height = 37 * 192  # mean band
        per_band_rows = max(1, int((band_height - 5400) // step) + 1)
        band_count = max(1, int(usable_band / band_height))
        ys = band_count * per_band_rows
        if xs * ys >= total * 2 or side > 400_000:
            return side
        side += 10_000


def generate_testing_layout(
    config: BenchmarkConfig,
    scale: float = 1.0,
    spec: ClipSpec = ICCAD_SPEC,
    rng: Optional[np.random.Generator] = None,
) -> TestingLayout:
    """Generate the testing layout of one benchmark.

    ``rng`` defaults to a generator seeded with ``config.seed + 1000``.
    When the site grid does not fit, the window grows and the layout is
    rebuilt from the generator's state as the caller passed it, so the
    layout depends only on that state and the config.
    """
    rng = rng or np.random.default_rng(config.seed + 1_000)
    start = rng.bit_generator.state
    side = int(config.side_um * 1000 * (scale**0.5))
    hotspot_count = max(2, round(config.test_hotspots * scale))
    decoy_count = max(1, round(config.test_decoys * scale))
    # Small scales shrink the area (by sqrt) faster than the site count
    # (linear); grow the window until the site grid fits.
    while True:
        rng.bit_generator.state = start
        try:
            return build_testing_layout(
                rng,
                spec,
                Rect(0, 0, side, side),
                hotspot_count=hotspot_count,
                decoy_count=decoy_count,
                motif_names=config.motifs,
                fabric_fill=config.fabric_fill,
            )
        except DataError:
            side = int(side * 1.2)
            if side > 1_000_000:
                raise


def generate_benchmark(
    name: str,
    scale: float = 1.0,
    spec: ClipSpec = ICCAD_SPEC,
) -> Benchmark:
    """Generate one full benchmark pair deterministically by name."""
    if scale <= 0:
        raise DataError(f"scale must be positive, got {scale}")
    config = benchmark_config(name)
    training = generate_training_set(config, scale, spec)
    testing = generate_testing_layout(config, scale, spec)
    return Benchmark(config, training, testing)


def generate_all(scale: float = 1.0, names: Optional[Sequence[str]] = None) -> list[Benchmark]:
    """Generate every benchmark (or a named subset)."""
    selected = names if names is not None else [cfg.name for cfg in BENCHMARKS]
    return [generate_benchmark(name, scale) for name in selected]
