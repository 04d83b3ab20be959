"""The byte-stable outputs, against the benchmark's golden files.

``perfbench/goldens/`` holds the report of every shipped fixture and the
result list of ``search(16, seed=1, budget=2500)``; they are read here,
never written.
"""

from __future__ import annotations

import json
from pathlib import Path

from z2z4q8 import analyze, generate, parse_generators, render_json, search
from z2z4q8.fixtures import fixture_text

from conftest import SHIPPED_FIXTURES

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


def _golden(name: str):
    return json.loads((GOLDENS / f"{name}.json").read_text())


def test_fixture_reports_equal_the_goldens():
    reports = _golden("fixtures")["reports"]
    assert sorted(reports) == SHIPPED_FIXTURES
    for name in SHIPPED_FIXTURES:
        _, gens = parse_generators(fixture_text(name))
        assert render_json(analyze(generate(gens))) == reports[name], name


def test_search_results_equal_the_goldens():
    """One line per result, in the golden file's format."""
    lines = [
        f"sig {f.signature.k1} {f.signature.k2} {f.signature.k3} | type {f.type}"
        f" | rank {f.rank} | kernel {f.kernel_dim} | shape {f.shape} | "
        + "; ".join(" ".join(w.tokens()) for w in f.generators)
        for f in search(16, seed=1, budget=2500)
    ]
    assert lines == _golden("search-16")["results"]
