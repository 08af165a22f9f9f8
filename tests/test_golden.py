"""Golden behaviour corpus (``tests/fixtures/golden``).

Recomputes each golden — generated inputs, candidate funnel, per-kernel
topology-gate accept sets, exact margin bits and report cores — and
compares it with the committed file, field by field and then byte for
byte.  ``tests/fixtures/golden/generate.py`` rebuilds the corpus; a
changed golden must come with a line in CHANGES.md saying why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate", GOLDEN / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generate = _generator()


def test_corpus_is_complete():
    """The committed corpus holds every named case, no strays."""
    expected = sorted(generate.golden_path(n, s).name for n, s in generate.CASES)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == expected


@pytest.mark.parametrize(
    "name,scale", generate.CASES, ids=[f"{n}@{s}" for n, s in generate.CASES]
)
def test_matches_golden(name, scale):
    committed_text = generate.golden_path(name, scale).read_text()
    committed = json.loads(committed_text)
    record = generate.golden_record(name, scale)
    # Field by field first, so a failure names what moved.
    for field in sorted(committed):
        assert record.get(field) == committed[field], field
    assert sorted(record) == sorted(committed)
    assert generate.render(record) == committed_text
