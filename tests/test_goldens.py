"""The byte-stable outputs, against the benchmark's golden files.

``perfbench/goldens/`` holds the report of every shipped fixture, the
result list of ``search(16, seed=1, budget=2500)``, and the reports of
pass 0 of the ``kronecker-chain`` and ``dense-subgroups`` workloads at the
default seed; they are read here, never written.  ``tests/goldens/search.json``
pins search's result lines at nine more runs: (length, seed, budget)
triples, one of them with a ``shape`` filter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z2z4q8.constructions as constructions_module
from z2z4q8 import (
    CodeGroup,
    ConstructionError,
    analyze,
    extend,
    generalized_kronecker,
    generate,
    parse_generators,
    render_json,
    search,
    xi_lift,
)
from z2z4q8.fixtures import fixture_text

from conftest import SHIPPED_FIXTURES, count_calls, watch_search_pool

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


def _search_lines(length: int, seed: int, budget: int, shape=None):
    """One line per result, in the golden files' format."""
    return [
        f"sig {f.signature.k1} {f.signature.k2} {f.signature.k3} | type {f.type}"
        f" | rank {f.rank} | kernel {f.kernel_dim} | shape {f.shape} | "
        + "; ".join(" ".join(w.tokens()) for w in f.generators)
        for f in search(length, shape=shape, seed=seed, budget=budget)
    ]


def test_search_results_equal_the_goldens():
    assert _search_lines(16, 1, 2500) == _golden("search-16")["results"]


SEARCH_RUNS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "search.json").read_text()
)["runs"]


def _run_id(run) -> str:
    shape = f"-shape{run['shape']}" if "shape" in run else ""
    return f"{run['length']}-{run['seed']}-{run['budget']}{shape}"


@pytest.mark.parametrize("run", SEARCH_RUNS, ids=_run_id)
def test_search_results_at_more_seeds_equal_the_goldens(run):
    lines = _search_lines(run["length"], run["seed"], run["budget"], run.get("shape"))
    assert lines == run["results"]


def _draws(monkeypatch, length: int, seed: int, budget: int, shape=None):
    """The inputs search(length, shape, seed, budget) draws from, its pool bases
    and their lifts, as (signature, generators); and the construction,
    input index and element of every draw of its sample loop.  No group of
    the run is returned, so none of them outlives the call."""
    search_module = sys.modules["z2z4q8.search"]  # the package's ``search`` is the function
    draws = []

    def drawing(construction):
        def wrapper(C, g, *args):
            if not building:
                draws.append((construction, C, g))
            return construction(C, g, *args)

        return wrapper

    with monkeypatch.context() as patch:
        building, pool = watch_search_pool(patch)
        patch.setattr(search_module, "extend", drawing(extend))
        patch.setattr(search_module, "generalized_kronecker", drawing(generalized_kronecker))
        search(length, shape=shape, seed=seed, budget=budget)
    inputs = pool + [xi_lift(C) for C in pool]
    index = {id(C): i for i, C in enumerate(inputs)}
    return (
        [(C.sig, C.generators) for C in inputs],
        [(construction, index[id(C)], g) for construction, C, g in draws],
    )


def _fresh_process_lines(length: int, seed: int, budget: int, shape=None):
    code = (
        "import json, sys; from test_goldens import _search_lines; "
        f"json.dump(_search_lines({length}, {seed}, {budget}, {shape}), sys.stdout)"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "run",
    [{"length": 16, "seed": 1, "budget": 2500, "results": _golden("search-16")["results"]}]
    + SEARCH_RUNS,
    ids=_run_id,
)
def test_search_output_does_not_depend_on_what_else_is_alive(monkeypatch, run):
    """Copies of search's pool bases and of their lifts, alive through the
    call, with an output kept on each for every coset search draws, lend
    search nothing: its result lines equal the goldens and those of a fresh
    process.  Each kept output was built from another element of the coset
    (g c, c the last word of the input), so its last generator differs from
    the one search builds; a table of doublings shared by every equal group
    alive would hand it to search.  After search returns, a copy of an
    input builds afresh."""
    length, seed, budget, shape = run["length"], run["seed"], run["budget"], run.get("shape")
    inputs, draws = _draws(monkeypatch, length, seed, budget, shape)
    copies = [CodeGroup(sig, gens) for sig, gens in inputs]
    kept = []
    for construction, i, g in draws:
        try:
            kept.append(construction(copies[i], g * copies[i].sorted_elements()[-1]))
        except ConstructionError:
            pass
    assert kept
    lines = _search_lines(length, seed, budget, shape)
    assert lines == run["results"]
    assert lines == _fresh_process_lines(length, seed, budget, shape)

    builds = count_calls(monkeypatch, constructions_module, "_adjoin", "_kronecker_output")
    for construction, build in ((generalized_kronecker, "_kronecker_output"), (extend, "_adjoin")):
        _, i, g = next(d for d in draws if d[0] is construction)
        construction(CodeGroup(*inputs[i]), g)
        assert builds[build] == 1


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
