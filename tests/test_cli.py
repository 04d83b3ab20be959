"""CLI behaviour: subcommands, JSON stability and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from z2z4q8 import search
from z2z4q8.cli import main
from z2z4q8.fixtures import fixture_text

from conftest import count_calls

PURE = "sig 0 0 2\ngen a a\ngen ab b\n"


def _write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "code.gens"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_analyze_json_fields(tmp_path, capsys):
    path = _write(tmp_path, PURE)
    assert main(["analyze", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 8
    assert payload["type"] == [1, 0, 2]
    assert payload["rank"] == 4
    assert payload["kernel_dim"] == 1
    assert payload["is_hadamard"] is False
    assert payload["shape"] is None
    assert payload["epsilon"] is None
    assert payload["normalized_generators"] is None
    assert payload["weight_distribution"] == {"0": 1, "4": 6, "8": 1}
    assert all(b["ok"] for b in payload["bounds"])


def test_analyze_hadamard_fields(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard16_q8"))
    assert main(["analyze", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == 2
    assert payload["epsilon"] is not None
    assert payload["normalized_generators"]["structure"] == "(Z4 : Q8)"
    assert len(payload["normalized_generators"]["zs"]) == 3


def test_analyze_json_is_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard16_q8"))
    main(["analyze", path, "--json"])
    first = capsys.readouterr().out
    main(["analyze", path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_summary(tmp_path, capsys):
    path = _write(tmp_path, PURE)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "type           (1, 0, 2)" in out
    assert "0 failed" in out


def test_analyze_verify(tmp_path, capsys):
    """``--verify`` adds checks and changes no byte of the report: on a
    Hadamard code it classifies the shape first, and the report reads the
    shape kept on the group."""
    for text, kernel_dim in ((PURE, 1), (fixture_text("hadamard16_q8"), 2)):
        path = _write(tmp_path, text)
        plain = []
        for form in (["--json"], []):
            assert main(["analyze", path, *form]) == 0
            plain.append(capsys.readouterr().out)
            assert main(["analyze", path, "--verify", *form]) == 0
            assert capsys.readouterr() == (plain[-1], "")
        assert json.loads(plain[0])["kernel_dim"] == kernel_dim
    with pytest.raises(SystemExit):  # the flag it replaces is gone
        main(["analyze", path, "--full-kernel-check"])


def test_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "sig 0 0 1\ngen nope\n")
    assert main(["analyze", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_analysis_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, PURE)
    assert main(["analyze", path, "--max-order", "4"]) == 1
    assert "error" in capsys.readouterr().err


def test_construct_lift_emits_generator_file(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard8_z4"))
    assert main(["construct", "lift", path]) == 0
    out = capsys.readouterr().out
    assert "sig 0 0 4" in out
    assert "gen a a a a" in out


def test_construct_extend_pipeline(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard8_z4"))
    code = main(
        [
            "construct",
            "extend",
            path,
            "--lift-first",
            "--element",
            "b ab b ab",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 7 and payload["kernel_dim"] == 2


def test_construct_extend_error(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard8_z4"))
    code = main(
        ["construct", "extend", path, "--lift-first", "--element", "1 1 a2 a2"]
    )
    assert code == 1
    assert "already lies in the group" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", "--element", "1 1 1 1"], "construct lift takes no --element"),
        (["lift", "--lift-first"], "--lift-first applies to extend only, not lift"),
        (["kronecker", "--lift-first"], "--lift-first applies to extend only, not kronecker"),
    ],
)
def test_construct_refuses_an_option_it_would_ignore(tmp_path, capsys, argv, message):
    path = _write(tmp_path, fixture_text("hadamard8_z4"))
    assert main(["construct", argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_construct_kronecker(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard16_q8"))
    assert main(["construct", "kronecker", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 64
    assert payload["rank"] == 8 and payload["kernel_dim"] == 3


def test_construct_max_order_names_the_refusing_stage(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard16_q8"))  # 32 words
    assert main(["construct", "kronecker", path, "--max-order", "32"]) == 1
    assert capsys.readouterr().err == (
        "error: Kronecker output order exceeds max_order=32\n"
    )
    assert main(["construct", "kronecker", path, "--max-order", "16"]) == 1
    assert "subgroup order exceeds max_order=16" in capsys.readouterr().err


def test_construct_generalized_kronecker(tmp_path, capsys):
    path = _write(tmp_path, fixture_text("hadamard16_q8"))
    code = main(
        ["construct", "kronecker", path, "--element", "b ab 1 1", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == 5 and payload["rank"] == 8


def test_reproduce_single_case(capsys):
    assert main(["reproduce", "pure-q8-n8"]) == 0
    out = capsys.readouterr().out
    assert "PASS pure-q8-n8" in out


def test_reproduce_unknown_case(capsys):
    assert main(["reproduce", "no-such-case", "pure-q8-n8", "nosuch"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown case ids: no-such-case, nosuch\n"
    assert captured.out == ""


def test_reproduce_mismatch_exit_code(monkeypatch, capsys):
    import z2z4q8.fixtures as fixtures_module
    from z2z4q8.fixtures import Fixture, load_fixture

    broken = {
        "broken-case": Fixture(
            "broken-case",
            "deliberately wrong expectation",
            lambda: load_fixture("pure_q8_n8"),
            {"rank": 99},
        )
    }
    monkeypatch.setattr(fixtures_module, "fixtures", lambda: broken)
    assert main(["reproduce", "broken-case"]) == 3
    out = capsys.readouterr().out
    assert "FAIL broken-case" in out
    assert "rank" in out


def test_cases_listing(capsys):
    assert main(["cases"]) == 0
    out = capsys.readouterr().out
    assert "hadamard16-q8:" in out


def test_search_deterministic(capsys):
    assert main(["search", "--length", "8", "--seed", "3", "--budget", "60"]) == 0
    first = capsys.readouterr().out
    assert main(["search", "--length", "8", "--seed", "3", "--budget", "60"]) == 0
    assert capsys.readouterr().out == first
    assert "distinct codes found" in first


def test_search_refuses_a_negative_budget(capsys):
    assert main(["search", "--length", "16", "--budget", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget must be >= 0, got -5\n"
    assert captured.out == ""
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        search(16, budget=-1)


def test_search_refuses_a_shape_outside_1_to_5(monkeypatch):
    """No result has a shape tag outside 1..5, so such a filter is refused
    before the base pool is built, not after the whole budget."""
    search_module = sys.modules["z2z4q8.search"]  # the package's ``search`` is the function
    calls = count_calls(monkeypatch, search_module, "_random_abelian_base")
    for shape in (0, 6, 7, -1):
        with pytest.raises(ValueError, match=rf"^shape must be in 1\.\.5, got {shape}$"):
            search(16, shape=shape, seed=1, budget=200)
    assert calls["_random_abelian_base"] == 0
    assert search(8, shape=1, seed=3, budget=60)
    assert calls["_random_abelian_base"] > 0


def test_max_order_only_on_enumerating_commands(capsys):
    # reproduce and search enumerate nothing from the command line
    for argv in (["search", "--length", "16"], ["reproduce", "hadamard16-q8"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--max-order", "4"])
        assert err.value.code == 2
    assert "unrecognized arguments: --max-order 4" in capsys.readouterr().err


def test_cli_subprocess_entry(tmp_path):
    path = _write(tmp_path, PURE)
    result = subprocess.run(
        [sys.executable, "-m", "z2z4q8.cli", "analyze", str(path), "--json"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout)["order"] == 8
    assert result.stderr == ""


def test_analyze_json_stable_across_processes(tmp_path):
    path = _write(tmp_path, fixture_text("hadamard16_q8"))
    args = [sys.executable, "-m", "z2z4q8.cli", "analyze", path, "--json"]
    runs = [
        subprocess.run(args, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_concurrent_analysis_of_distinct_groups():
    # distinct code groups may be analyzed from multiple threads
    from concurrent.futures import ThreadPoolExecutor

    from z2z4q8.fixtures import load_fixture
    from z2z4q8.report import analyze

    names = ["pure_q8_n8", "hadamard16_q8", "hadamard8_z4", "hadamard8_z2q8_shape4"]
    with ThreadPoolExecutor(max_workers=4) as pool:
        payloads = list(pool.map(lambda n: analyze(load_fixture(n)), names))
    assert [p["order"] for p in payloads] == [8, 32, 16, 16]


def test_search_deterministic_across_processes():
    args = [
        sys.executable, "-m", "z2z4q8.cli",
        "search", "--length", "8", "--seed", "5", "--budget", "40",
    ]
    runs = [
        subprocess.run(args, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert "distinct codes found" in runs[0]
