"""Shared helpers: known groups, seeded random words, criterion reporting."""

from __future__ import annotations

import random
import sys
from collections import Counter
from importlib import resources
from types import ModuleType
from typing import List, Tuple

import pytest

from z2z4q8 import (
    CodeGroup,
    ConstructionError,
    GroupSignature,
    GroupWord,
    word,
    word_from_tokens,
)
from z2z4q8.fixtures import load_fixture
from z2z4q8.groups import _GRAY_BLOCKS, Q8_MUL

_CRITERION_LINES: List[str] = []

SHIPPED_FIXTURES = sorted(
    f.name[: -len(".gens")]
    for f in resources.files("z2z4q8").joinpath("fixtures").iterdir()
    if f.name.endswith(".gens")
)


def record_criterion_line(line: str) -> None:
    """Collect acceptance pass lines for the terminal summary."""
    _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)


def count_calls(monkeypatch, owner: ModuleType, *names: str) -> Counter:
    """Count calls of ``owner.<name>`` through every module that binds it."""
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "z2z4q8"]

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        original = getattr(owner, name)
        wrapper = counting(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def watch_search_pool(monkeypatch) -> Tuple[list, List[CodeGroup]]:
    """(building, pool): ``building`` is non-empty exactly while ``search``
    builds a base of its pool (``_random_abelian_base``), so a wrapper can
    tell the pool from the sample loop; ``pool`` collects the bases built."""
    search_module = sys.modules["z2z4q8.search"]  # the package's ``search`` is the function
    make_base = search_module._random_abelian_base
    building: list = []
    pool: List[CodeGroup] = []

    def pooled(*args):
        building.append(True)
        try:
            pool.append(make_base(*args))
        finally:
            building.pop()
        return pool[-1]

    monkeypatch.setattr(search_module, "_random_abelian_base", pooled)
    return building, pool


def record_word_sets(monkeypatch) -> List[CodeGroup]:
    """Every group whose words (``CodeGroup.elements``) get built, in the
    order of their first read."""
    built: List[CodeGroup] = []
    view = CodeGroup.elements

    def reading(C):
        if "elements" not in vars(C):
            built.append(C)
        return view.__get__(C, CodeGroup)

    monkeypatch.setattr(CodeGroup, "elements", property(reading))
    return built


def random_word(sig: GroupSignature, rng: random.Random) -> GroupWord:
    """A uniform word drawn as coordinates: the oracle for
    ``search._random_ambient_word``, which draws its Gray blocks."""
    coords = [rng.randrange(2) for _ in range(sig.k1)]
    coords += [rng.randrange(4) for _ in range(sig.k2)]
    coords += [rng.randrange(8) for _ in range(sig.k3)]
    return word(sig, coords)


def coordinate_torsion_word(sig: GroupSignature, rng: random.Random) -> GroupWord:
    """A word of order <= 2 drawn as coordinates: the oracle for
    ``search._random_torsion_word``, which draws its Gray blocks."""
    coords = [rng.choice((0, 1)) for _ in range(sig.k1)]
    coords += [rng.choice((0, 2)) for _ in range(sig.k2)]
    coords += [rng.choice((0, 2)) for _ in range(sig.k3)]
    return word(sig, coords)


def coordinate_doubling_element(sig: GroupSignature, rng: random.Random) -> GroupWord:
    """Odd Z4 entries and Q8 entries outside <a>, drawn as coordinates: the
    oracle for ``random_doubling_element``, which draws its Gray blocks."""
    if sig.k1 != 0:
        raise ConstructionError("doubling elements live in Z4/Q8 signatures")
    coords = [rng.choice((1, 3)) for _ in range(sig.k2)]
    coords += [rng.choice((4, 5, 6, 7)) for _ in range(sig.k3)]
    return word(sig, coords)


def word_commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """x^-1 y^-1 x y by word products: the oracle for ``commutator``, which
    reads the images (``groups._commutator_bits``)."""
    return x.inverse() * y.inverse() * x * y


def choice_word(choices: dict, sig: GroupSignature, rng: random.Random) -> GroupWord:
    """Per coordinate, in order, the Gray block ``rng.choice(choices[kind])``:
    the oracle for ``groups._random_word``, which reads ``getrandbits`` by
    ``choice``'s rule."""
    bits, pos = 0, 0
    for i in range(sig.l):
        kind = kind_of(sig, i)
        bits |= rng.choice(choices[kind]) << pos
        pos += _GRAY_BLOCKS[kind][0]
    return GroupWord._from_bits(sig, bits)


def kind_of(sig: GroupSignature, index: int) -> str:
    """'z2', 'z4' or 'q8' for the 0-based coordinate index, from the counts."""
    return "z2" if index < sig.k1 else "z4" if index < sig.k1 + sig.k2 else "q8"


def reference_product(sig: GroupSignature, a: tuple, b: tuple) -> tuple:
    """Coordinate-wise product: Z2 XOR, Z4 addition mod 4, Q8 by ``Q8_MUL``."""
    out = []
    for idx, (x, y) in enumerate(zip(a, b)):
        kind = kind_of(sig, idx)
        if kind == "z2":
            out.append(x ^ y)
        elif kind == "z4":
            out.append((x + y) % 4)
        else:
            out.append(Q8_MUL[x][y])
    return tuple(out)


def assert_matches_reference(x: GroupWord, y: GroupWord) -> None:
    """Product, inverse and order of words against ``reference_product``."""
    sig = x.sig
    assert (x * y).coords == reference_product(sig, x.coords, y.coords)
    assert reference_product(sig, x.coords, x.inverse().coords) == (0,) * sig.l
    power, order = x.coords, 1
    while any(power):
        power = reference_product(sig, power, x.coords)
        order += 1
    assert x.order() == order


def random_subgroup(
    sig: GroupSignature,
    rng: random.Random,
    n_gens: int,
    max_order: int = 1 << 12,
) -> CodeGroup:
    while True:
        gens = [random_word(sig, rng) for _ in range(n_gens)]
        try:
            return CodeGroup.generate(gens, max_order=max_order)
        except Exception:
            continue


def all_words(sig: GroupSignature) -> List[GroupWord]:
    out = [word(sig, ())] if sig.l == 0 else []
    stack = [()]
    mods = [2] * sig.k1 + [4] * sig.k2 + [8] * sig.k3
    for m in mods:
        stack = [prefix + (v,) for prefix in stack for v in range(m)]
    return [word(sig, coords) for coords in stack]


@pytest.fixture(scope="session")
def pure_q8():
    return load_fixture("pure_q8_n8")


@pytest.fixture(scope="session")
def hadamard16():
    return load_fixture("hadamard16_q8")


@pytest.fixture(scope="session")
def shape5_32():
    return load_fixture("hadamard32_q8_shape5")


Q8 = GroupSignature(0, 0, 1)
Z4 = GroupSignature(0, 1, 0)


def q8_word(token: str) -> GroupWord:
    return word_from_tokens(Q8, (token,))


def z4_word(value: int) -> GroupWord:
    return word(Z4, (value,))
