"""The benchmark still finds the names of the package it reaches into.

``perfbench/worker.py`` imports ``groups._tables`` and ``gray._offsets``;
its ``--setup-only`` mode imports the package, builds the fixtures, calls
both for the workloads' signatures, and prints one JSON line.  ``perfbench/tracer.py`` wraps every
``(module, function)`` of its ``SPANNED`` list, so a rename in the package
would break ``--trace 1``.  These tests read ``perfbench/`` and change
nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_the_tracer_installs_and_removes():
    tracer = _load_tracer()
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
