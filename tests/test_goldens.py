"""The byte-stable outputs, against the benchmark's golden files.

``perfbench/goldens/`` holds the report of every shipped fixture, the
result list of ``search(16, seed=1, budget=2500)``, and the reports of
pass 0 of the ``kronecker-chain`` and ``dense-subgroups`` workloads at the
default seed; they are read here, never written.  ``tests/goldens/search.json``
pins search's result lines at three more (length, seed, budget) triples.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from z2z4q8 import analyze, generate, parse_generators, render_json, search
from z2z4q8.fixtures import fixture_text

from conftest import SHIPPED_FIXTURES

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDENS = BENCH / "goldens"
sys.path.append(str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _golden(name: str):
    return json.loads((GOLDENS / f"{name}.json").read_text())


def test_fixture_reports_equal_the_goldens():
    reports = _golden("fixtures")["reports"]
    assert sorted(reports) == SHIPPED_FIXTURES
    for name in SHIPPED_FIXTURES:
        _, gens = parse_generators(fixture_text(name))
        assert render_json(analyze(generate(gens))) == reports[name], name


def _search_lines(length: int, seed: int, budget: int):
    """One line per result, in the golden files' format."""
    return [
        f"sig {f.signature.k1} {f.signature.k2} {f.signature.k3} | type {f.type}"
        f" | rank {f.rank} | kernel {f.kernel_dim} | shape {f.shape} | "
        + "; ".join(" ".join(w.tokens()) for w in f.generators)
        for f in search(length, seed=seed, budget=budget)
    ]


def test_search_results_equal_the_goldens():
    assert _search_lines(16, 1, 2500) == _golden("search-16")["results"]


SEARCH_RUNS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "search.json").read_text()
)["runs"]


@pytest.mark.parametrize(
    "run", SEARCH_RUNS, ids=lambda r: f"{r['length']}-{r['seed']}-{r['budget']}"
)
def test_search_results_at_more_seeds_equal_the_goldens(run):
    assert _search_lines(run["length"], run["seed"], run["budget"]) == run["results"]


@pytest.mark.parametrize("name", ["kronecker-chain", "dense-subgroups"])
def test_workload_reports_equal_the_goldens(name):
    """Pass 0 at the default seed, run and checked by the workload's own
    code against its golden file; the chain pins the normalized generators
    of Hadamard codes up to n=256."""
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(DEFAULT_SEED)
    assert inputs.goldens is not None
    result = workload.run_pass(inputs)
    verdict = workload.check(inputs, result)
    assert verdict.attempted == len(result.outputs) > 0
    assert verdict.failed == 0, verdict.problems
