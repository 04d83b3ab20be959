"""``render_json`` writes the text of ``json.dumps(indent=2, sort_keys=True)``.

The writer fills fixed templates; ``json.dumps`` stays in the tests as the
reference route.  The hypothesis property over the signature strategies is
in ``test_properties.py``.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

from z2z4q8 import (
    analyze,
    generalized_kronecker,
    identity,
    kronecker,
    render_json,
)
from z2z4q8.fixtures import load_fixture

from conftest import SHIPPED_FIXTURES

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import CHAIN_STARTS  # noqa: E402


def reference(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_render_json_equals_the_reference_on_fixtures():
    assert len(SHIPPED_FIXTURES) == 21
    for name in SHIPPED_FIXTURES:
        payload = analyze(load_fixture(name))
        assert render_json(payload) == reference(payload), name


def _doubling(kind: str, rng: random.Random):
    if kind == "plain":
        return lambda C: kronecker(C).output

    def step(C):
        g = identity(C.sig)
        for w in C.generators:
            g = g * w ** rng.randrange(4)
        return generalized_kronecker(C, g).output

    return step


@pytest.mark.parametrize("kind", ["plain", "generalized"])
@pytest.mark.parametrize("start", CHAIN_STARTS)
def test_render_json_equals_the_reference_on_kronecker_chains(start, kind):
    step = _doubling(kind, random.Random(start))
    C = load_fixture(start)
    lengths = []
    while True:
        payload = analyze(C)
        assert payload["is_hadamard"]
        assert render_json(payload) == reference(payload), (start, C.sig.n)
        lengths.append(C.sig.n)
        if C.sig.n == 1024:
            break
        C = step(C)
    assert lengths == [16, 32, 64, 128, 256, 512, 1024]


NAMES = ['say "ok"', "back\\slash", "ε ≤ 2", "tab\tline\nend", "\U0001d53d2", ""]


@pytest.mark.parametrize("fixture", ["ext_hamming8_q8q8", "hamming7_z2q8"])
def test_render_json_escapes_names_as_the_reference_does(fixture):
    """Bound names with quotes, backslashes, control and non-ASCII
    characters (one outside the BMP, written as a surrogate pair)."""
    payload = copy.deepcopy(analyze(load_fixture(fixture)))
    for bound, name in zip(payload["bounds"], NAMES * len(payload["bounds"])):
        bound["name"] = name
    text = render_json(payload)
    assert text == reference(payload)
    assert text.isascii()
    assert r'"say \"ok\""' in text and r'"back\\slash"' in text
    assert r'"\u03b5 \u2264 2"' in text and r'"\ud835\udd3d2"' in text


def test_render_json_writes_empty_containers_and_nulls_as_the_reference_does():
    payload = copy.deepcopy(analyze(load_fixture("ext_hamming8_q8q8")))
    assert payload["normalized_generators"]["ys"] == []
    payload["bounds"] = []
    payload["weight_distribution"] = {}
    payload["normalized_generators"]["xs"] = []
    payload["normalized_generators"]["structure"] = "Z2 × Q8"
    assert render_json(payload) == reference(payload)
    payload.update(shape=None, epsilon=None, normalized_generators=None, type=[])
    assert render_json(payload) == reference(payload)


def test_render_json_orders_weight_keys_as_strings():
    payload = analyze(load_fixture("hadamard16_q8"))
    assert list(payload["weight_distribution"]) == ["0", "8", "16"]
    text = render_json(payload)
    assert text == reference(payload)
    assert text.index('"16"') < text.index('"8"')


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_render_json_refuses_another_field_set(change):
    payload = dict(analyze(load_fixture("hamming7_z2q8")))
    if change == "extra":
        payload["comment"] = "x"
    else:
        del payload["rank"]
    with pytest.raises(ValueError, match="render_json takes an analyze"):
        render_json(payload)
