"""Regenerate the golden behaviour corpus (deterministic).

Each golden pins what one benchmark's default detector *produces*, not
merely that two paths agree: the generated inputs, the candidate funnel,
each kernel's topology-gate accept set, the exact margin bits and the
final report cores.  A rewrite that changes every path the same way
(the topology keys, the clip cut, the distribution filter) changes a
golden and fails ``tests/test_golden.py``.

The benchmarks and scales are the ones ``tests/conftest.py`` shares:
benchmark1 at 0.4 and benchmark4 at 0.8.

Run from the repo root to rebuild::

    PYTHONPATH=src python tests/fixtures/golden/generate.py

Generation is seeded by the benchmark configs (no wall clock, no
entropy), so a rebuild is byte-identical to the committed files.  A
changed golden must come with a line in CHANGES.md saying why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.training import core_string_key
from repro.data.benchmarks import generate_benchmark

HERE = Path(__file__).parent
LAYER = 1

#: (benchmark, scale) of every golden; the file is ``<name>_<scale>.json``.
CASES = (("benchmark1", 0.4), ("benchmark4", 0.8))


def golden_path(name: str, scale: float) -> Path:
    return HERE / f"{name}_{scale}.json"


def rects_sha256(rects) -> str:
    """sha256 over a sorted rect list's coordinates."""
    digest = hashlib.sha256()
    for rect in sorted(rects):
        digest.update(f"{rect.x0},{rect.y0},{rect.x1},{rect.y1};".encode())
    return digest.hexdigest()


def training_sha256(clips) -> str:
    """sha256 over every training clip's window, label and geometry."""
    digest = hashlib.sha256()
    for clip in clips:
        w = clip.window
        digest.update(f"{w.x0},{w.y0},{w.x1},{w.y1}:{clip.label.value}:".encode())
        digest.update(rects_sha256(clip.rects).encode())
    return digest.hexdigest()


def margins_sha256(margins: np.ndarray) -> str:
    """sha256 over the exact little-endian float64 bits of a margin array."""
    return hashlib.sha256(
        np.ascontiguousarray(margins, dtype="<f8").tobytes()
    ).hexdigest()


def golden_record(name: str, scale: float) -> dict:
    """Everything the default detector produces on one benchmark."""
    benchmark = generate_benchmark(name, scale=scale)
    layout = benchmark.testing.layout
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(benchmark.training)
    report = detector.detect(layout, LAYER)
    extraction = report.extraction
    candidates = extraction.clips
    model = detector.model_

    keys = [core_string_key(clip) for clip in candidates]
    accept = [
        [i for i, key in enumerate(keys) if key in kernel.key_set]
        if kernel.key_set is not None
        else None
        for kernel in model.kernels
    ]
    per_kernel = model.kernel_margins(candidates)
    return {
        "benchmark": name,
        "scale": scale,
        "inputs": {
            "testing_layout_sha256": rects_sha256(layout.layer(LAYER).rects),
            "training_clips": len(benchmark.training),
            "training_sha256": training_sha256(benchmark.training.clips),
        },
        "funnel": {
            "anchors": extraction.anchor_count,
            "rejected_count": extraction.rejected_count,
            "rejected_density": extraction.rejected_density,
            "rejected_boundary": extraction.rejected_boundary,
            "quarantined": extraction.quarantined,
            "candidates": len(candidates),
            "flagged_before_feedback": report.flagged_before_feedback,
            "flagged_after_feedback": report.flagged_after_feedback,
            "reports": report.report_count,
        },
        "kernels": len(model.kernels),
        "gate_accept": accept,
        "kernel_margins_sha256": margins_sha256(per_kernel),
        "report_cores": sorted(
            [c.core.x0, c.core.y0, c.core.x1, c.core.y1] for c in report.reports
        ),
    }


def render(record: dict) -> str:
    """The exact file text of one golden: one line per key or list row."""

    def compact(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(", ", ": "))

    lines = []
    for key in sorted(record):
        value = record[key]
        if isinstance(value, list) and value:
            rows = ",\n".join(f"  {compact(row)}" for row in value)
            lines.append(f' "{key}": [\n{rows}\n ]')
        else:
            lines.append(f' "{key}": {compact(value)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    for name, scale in CASES:
        path = golden_path(name, scale)
        path.write_text(render(golden_record(name, scale)))
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
