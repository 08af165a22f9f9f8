"""Self-test of the benchmark: a small-scale traced smoke run per workload.

Run from the repository root with ``python -m pytest perfbench -q``.
Each run asserts that every wrapper in ``layers.py`` actually fired, so
a wrapper patched on a name the code no longer looks up fails here
instead of silently reporting zeros.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
SMOKE = ["--seconds", "1", "--scale", "0.3", "--trace"]


def _result(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, *SMOKE, str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else [name for name, _ in run.END_TO_END]
    assert list(result["metrics"]) == list(names)
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _assert_training_traced(m: dict) -> None:
    assert m["train.fit_s"] > 0 and m["train.svm_fits"] > 0
    assert m["train.classify_s"] > 0 and m["train.feedback_s"] > 0


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run._unit(n) for n in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == {"scan-b1", "serve-predict-b1"}


def test_scan_end_to_end(capsys):
    m = _result(capsys, "scan-b1", 0)
    assert all(value > 0 for value in m.values())


def test_scan_layers_fire(capsys):
    m = _result(capsys, "scan-b1", 1)
    _assert_training_traced(m)
    assert m["io.read_layout_s"] > 0 and m["extract.anchors_s"] > 0
    assert m["layout.cuts"] == m["extract.anchors"] > 0
    assert m["layout.clip_builds"] >= m["layout.cuts"]
    # Every candidate goes through the topology gate exactly once.
    assert m["topology.gate_calls"] == m["extract.candidates"] > 0
    assert m["features.extract_calls"] > 0 and m["svm.decision_rows"] > 0
    assert m["margins.s"] > 0 and m["feedback.in"] > 0 and m["removal.in"] > 0
    assert m["serve.decode_ms"] == 0
    assert 0 < m["trace.attributed_pct"] <= 100
    # The cache layer comes from the cached ECO rescans of the traced run;
    # each distinct miss is written back.
    assert m["cache.margin_hits"] > 0 and m["cache.margin_misses"] > 0
    assert 0 < m["cache.margin_hit_ratio"] < 1
    assert 0 < m["cache.puts"] <= m["cache.margin_misses"]
    assert m["cache.keys"] >= m["cache.margin_hits"] + m["cache.margin_misses"]
    assert m["cache.disk_writes"] > 0 and m["cache.populate_s"] > 0


def test_serve_layers_fire(capsys):
    m = _result(capsys, "serve-predict-b1", 1)
    _assert_training_traced(m)
    assert m["serve.decode_ms"] > 0 and m["serve.queue_wait_ms"] > 0
    assert m["serve.server_ms"] > 0 and m["serve.batch_eval_ms"] > 0
    assert m["serve.batch_clips"] >= 1
    # Decoding a request builds its clips; margins gate every one.
    assert m["layout.clip_builds"] == m["topology.gate_calls"] > 0
    assert m["layout.cuts"] == 0 and m["io.read_layout_s"] == 0


def test_serve_end_to_end(capsys):
    m = _result(capsys, "serve-predict-b1", 0)
    assert all(value > 0 for value in m.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_eco_edit_follows_the_seed():
    import numpy as np

    import workloads
    from repro.data.benchmarks import benchmark_config, generate_testing_layout
    from repro.core.config import DetectorConfig
    from repro.core.extraction import extract_for_detector

    testing = generate_testing_layout(benchmark_config("benchmark1"), 0.3)
    windows = [
        clip.window
        for clip in extract_for_detector(testing.layout, DetectorConfig()).clips
    ]

    def edited(seed):
        layout = copy.deepcopy(testing.layout)
        workloads.eco_edit(layout, windows, np.random.default_rng([seed, 1]))
        return sorted(layout.layer(1).rects)

    assert edited(3) == edited(3)
    assert edited(3) != edited(4)
    assert len(edited(3)) > len(testing.layout.layer(1).rects)
