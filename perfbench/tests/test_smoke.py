"""Smoke tests of the benchmark itself: tiny workloads, planted faults, exact counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from timing import tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GOLDENS, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_and_checks_at_tiny_size(name):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed=5, tiny=True)
    result = workload.run_pass(inputs)
    verdict = workload.check(inputs, result)
    assert verdict.attempted >= 1
    assert verdict.failed == 0, verdict.problems
    assert len(result.op_seconds) >= 1 and result.seconds > 0


def test_planted_wrong_golden_is_a_failure(tmp_path):
    shutil.copytree(GOLDENS, tmp_path, dirs_exist_ok=True)
    workload = WORKLOADS["fixtures"]
    inputs = workload.make_inputs(seed=5, tiny=True, goldens_dir=tmp_path)
    planted = json.loads((tmp_path / "fixtures.json").read_text())
    name = inputs.files[0][0]
    planted["reports"][name] = planted["reports"][name].replace('"rank": ', '"rank": 1')
    (tmp_path / "fixtures.json").write_text(json.dumps(planted))

    inputs = workload.make_inputs(seed=5, tiny=True, goldens_dir=tmp_path)
    verdict = workload.check(inputs, workload.run_pass(inputs))
    assert verdict.failed == 1
    assert verdict.problems[0].startswith(f"{name}: differs from the golden report")


def test_wrong_search_result_is_a_failure():
    workload = WORKLOADS["search-16"]
    inputs = workload.make_inputs(seed=1, tiny=True)
    result = workload.run_pass(inputs)
    found = result.outputs[0]
    assert found, "the tiny search should find at least one code"
    wrong = dataclasses.replace(found[0], kernel_dim=found[0].kernel_dim + 1)
    result.outputs = [[wrong] + found[1:]]
    assert workload.check(inputs, result).failed == 1


def _traced(name):
    """Per-layer metrics of one traced tiny pass."""
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed=2, tiny=True)
    tracer = Tracer()
    with tracer:
        result = workload.run_pass(inputs, tracer=tracer)
    return worker.per_layer(tracer, [result], [result])


def _traced_counts(name):
    return {k: v for k, v in _traced(name).items() if run.layer_unit(k) == "count"}


@pytest.mark.parametrize("name", ["kronecker-chain", "search-16"])
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name)
    assert first["groups.GroupWord.mul.calls"] > 0
    assert first == _traced_counts(name)


def test_traced_counts_do_not_depend_on_hash_seed():
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "from test_smoke import _traced_counts; print(json.dumps(_traced_counts('search-16')))"
    )
    outs = []
    for hash_seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent), str(BENCH)],
            env={"PYTHONHASHSEED": hash_seed, "PATH": ""},
            capture_output=True, text=True, timeout=120, check=True,
        )
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outs[0] == outs[1]


def test_tracer_removes_every_wrapper():
    import z2z4q8
    from z2z4q8.groups import GroupWord

    before = (z2z4q8.analyze, GroupWord.__mul__, z2z4q8.CodeGroup.__dict__["generate"])
    with Tracer():
        assert z2z4q8.analyze is not before[0]
    assert (z2z4q8.analyze, GroupWord.__mul__, z2z4q8.CodeGroup.__dict__["generate"]) == before


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(_traced("fixtures"))
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1000))) == ("p99", 989)
    assert tail(list(range(100))) == ("p90", 89)
    assert tail(list(range(20))) == ("p50", 9)
    assert tail(list(range(19))) == ("max", 18)


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
