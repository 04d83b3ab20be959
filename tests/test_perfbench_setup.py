"""The benchmark still finds the names of the package it reaches into.

``perfbench/worker.py`` imports ``groups._tables`` and ``gray._offsets``;
its ``--setup-only`` mode imports the package, builds the fixtures, calls
both for the workloads' signatures, and prints one JSON line.  ``perfbench/tracer.py`` wraps every
``(module, function)`` of its ``SPANNED`` list, so a rename in the package
would break ``--trace 1``, and ``SearchProbe`` counts the samples of
``search`` from the names it wraps there.  These tests read ``perfbench/``
and change nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import z2z4q8  # noqa: F401  (loads every module the tracer patches)

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_setup_only_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["setup_s"] > 0


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_the_tracer_installs_and_removes():
    tracer = _load("tracer")
    originals = {}
    for module_name, fn_name in tracer.SPANNED:
        module = importlib.import_module(f"z2z4q8.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
        originals[module_name, fn_name] = getattr(module, fn_name)
    t = tracer.Tracer()
    t.install()
    try:
        for (module_name, fn_name), original in originals.items():
            assert getattr(sys.modules[f"z2z4q8.{module_name}"], fn_name) is not original
    finally:
        t.remove()
    for (module_name, fn_name), original in originals.items():
        assert getattr(sys.modules[f"z2z4q8.{module_name}"], fn_name) is original


def test_the_search_probe_finds_one_sample_per_draw():
    """``SearchProbe`` starts a sample at the first call of a name it wraps
    after the last sample's construction, so the search-16 latencies and
    ``ops_per_calib`` rest on ``search`` calling each of them at most once
    per sample.  A helper that called one twice would split samples: more
    latencies than the budget, and outcomes that do not sum to it."""
    timing, tracer = _load("timing"), _load("tracer")
    search = importlib.import_module("z2z4q8.search")  # the module, not the function
    names = ("_random_abelian_base", "xi_lift", "random_doubling_element", "extend")
    names += ("generalized_kronecker", "is_hadamard")
    originals = {name: getattr(search, name) for name in names}
    probe = tracer.SearchProbe(timing.Calibrator())
    probe.install()
    try:
        found = search.search(16, seed=1, budget=300)
        end = perf_counter()
    finally:
        probe.remove()
    for name, original in originals.items():
        assert getattr(search, name) is original, name
    latencies, marks, outcomes = probe.close(end, len(found))
    assert len(latencies) == len(marks) == 300
    assert sum(outcomes.values()) == 300
    assert dict(outcomes) == {"accepted": 8, "duplicate_key": 79, "duplicate_group": 213}
