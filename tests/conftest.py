"""Shared helpers: known groups, seeded random words, criterion reporting."""

from __future__ import annotations

import random
import sys
from collections import Counter
from importlib import resources
from types import ModuleType
from typing import Iterable, List, Sequence, Tuple

import pytest

from z2z4q8 import (
    CodeGroup,
    GroupSignature,
    GroupWord,
    center,
    torsion,
    word,
    word_from_tokens,
)
from z2z4q8.fixtures import load_fixture
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.groups import Q8_MUL, _sort_key
from z2z4q8.oracles import gray_codewords
from z2z4q8.subgroup import StandardGenSet, _coset_reps, _products

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
    coords = [rng.randrange(2) for _ in range(sig.k1)]
    coords += [rng.randrange(4) for _ in range(sig.k2)]
    coords += [rng.randrange(8) for _ in range(sig.k3)]
    return word(sig, coords)


def word_commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """x^-1 y^-1 x y by word products: the oracle for ``commutator``, which
    reads the images (``groups._commutator_bits``)."""
    return x.inverse() * y.inverse() * x * y


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


def closure(base: Iterable[GroupWord], gens: Sequence[GroupWord]) -> set:
    """<base, gens> for a subgroup ``base`` that the gens generate or normalize.

    A worklist over right cosets base*r: each representative meets every
    generator, and a product outside the cosets found so far brings in its
    whole coset.  With base = {e} it is the element-by-element closure, the
    oracle for ``generate``.
    """
    base = list(base)
    others = [h for h in base if not h.is_identity()]
    seen = set(base)
    frontier = [base[0]]  # any element of base represents the coset base itself
    while frontier:
        rep = frontier.pop()
        for g in gens:
            nxt = rep * g
            if nxt not in seen:
                seen.add(nxt)
                for h in others:
                    seen.add(h * nxt)
                frontier.append(nxt)
    return seen


def first_independent(
    start: Iterable[GroupWord], candidates: Iterable[GroupWord], order: int
) -> List[GroupWord]:
    """Candidates, in order, that each enlarge <start, picked so far>.

    ``start`` is a subgroup normalized by every candidate; the scan stops at
    ``order`` elements.
    """
    picked: List[GroupWord] = []
    have = set(start)
    for w in candidates:
        if len(have) == order:
            break
        if w not in have:
            picked.append(w)
            have = closure(have, picked)
    return picked


def scanned_standard_generators(C: CodeGroup) -> Tuple[tuple, tuple, tuple]:
    """(xs, ys, zs) by closures: the x's enlarge the GF(2) span of Gray(T)
    over sorted T, the y's enlarge <T, ys> over sorted Z, the z's enlarge
    <Z, zs> over sorted C; the oracle for ``standard_generators``."""
    T, Z = torsion(C), center(C)
    span = Gf2Basis()
    xs = [w for w in T.sorted_elements() if span.add(w.bits)]
    ys = first_independent(T.elements, Z.sorted_elements(), Z.order)
    zs = first_independent(Z.elements, C.sorted_elements(), C.order)
    return tuple(xs), tuple(ys), tuple(zs)


def least_coset_words(C: CodeGroup) -> Tuple[GroupWord, ...]:
    """min(coset, key=_sort_key) over the words of each T-coset, by
    ``_coset_reps`` index; the oracle for ``_coset_minima``."""
    T = torsion(C).elements
    return tuple(min((r * t for t in T), key=_sort_key) for r in _coset_reps(C))


def tiles(C: CodeGroup, gens: StandardGenSet) -> bool:
    """The y/z products meet each T-coset of C once: their translates of
    Gray(T) make up Gray(C) exactly.  The |C|-sized oracle for the rank test
    of ``verify_standard``."""
    tbits = gray_codewords(torsion(C))
    products = _products(C.sig, gens.ys + gens.zs)
    return {p.bits ^ t for p in products for t in tbits} == gray_codewords(C)


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
