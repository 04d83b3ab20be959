"""The pair checklists at the dense groups' k, the square list and coset
images they read, and the shortcuts that read each row's k unit entries,
against brute force.

``_coset_images`` and ``_coset_squares`` are built by XOR doubling
(``_doubling``), and both ``_pairwise_checks`` and the Hadamard pair and
triple checks read every commutator as the polar form of the squares
(``_polar``).  The 4^k tables ``_coset_table`` and ``_reduced_swappers``
(``_span_table``) are second routes in ``oracles``.  Both checklists skip
a row from its unit entries when a span argument allows; ``_pairwise_checks``
reads that for all 2^k rows at once, as lanes of one int, and
``_kernel_cosets`` reduces its swapper table in lanes.  Here the lists
and tables are compared with word products, and every count with a count
over each pair, on real groups and with a planted fault, at the first and
last lanes and at every k = 0..9.
"""

from __future__ import annotations

import random

import pytest

import z2z4q8.gf2 as gf2
import z2z4q8.hadamard as hadamard
import z2z4q8.invariants as invariants
import z2z4q8.oracles as oracles
import z2z4q8.subgroup as subgroup
from z2z4q8 import (
    GroupSignature,
    GroupWord,
    analyze,
    center,
    generalized_kronecker,
    generate,
    hadamard_bounds,
    identity,
    is_hadamard,
)
from z2z4q8.fixtures import load_fixture
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.hadamard import _hadamard_pair_triple_checks
from z2z4q8.invariants import _pairwise_checks
from z2z4q8.oracles import (
    _coset_table,
    _products,
    _reduced_swappers,
    _swapper_bits,
    representative_kernel_cosets,
    table_pair_counts,
    table_pair_triple_counts,
    verify,
)
from z2z4q8.subgroup import (
    _coset_images,
    _coset_squares,
    _kernel_cosets,
    _polar,
)

from conftest import SHIPPED_FIXTURES, count_calls, random_subgroup, word_commutator

DENSE_SIGNATURES = (GroupSignature(0, 0, 4), GroupSignature(4, 2, 2))


def _dense_groups():
    """Per signature, the first drawn subgroup of order 2^9..2^10 with
    k = 5 and the first with k = 6, k the rank of C/T(C)."""
    groups = []
    for sig in DENSE_SIGNATURES:
        rng = random.Random(sig.n + sig.l)
        found = {}
        while len(found) < 2:
            C = random_subgroup(sig, rng, rng.randint(3, 6), max_order=1 << 10)
            k = len(C.basis)
            if C.order >= 1 << 9 and k in (5, 6) and k not in found:
                found[k] = C
        groups += [found[5], found[6]]
    return groups


def _polar_rows(squares):
    """Every commutator of the 2^k coset words, as the polar form of the
    squares, pair by pair."""
    indices = range(len(squares))
    return [[squares[a] ^ squares[b] ^ squares[a ^ b] for b in indices] for a in indices]


def _brute_pairwise(C, squares):
    """The two counts of ``_pairwise_checks`` over every pair of the polar
    table of squares (``oracles.table_pair_counts``, reading that table)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_coset_table", lambda C: (squares, _polar_rows(squares)))
        return table_pair_counts(C)


def _brute_hadamard(C, squares, rows, residues):
    """The three counts of ``_hadamard_pair_triple_checks`` over every pair
    of the tables."""
    u = (1 << C.sig.n) - 1
    outside = range(1, len(squares))
    pair = sum(
        rows[a][b] not in (0, squares[a])
        for a in outside
        if squares[a] != u
        for b in outside
    )
    classes = {}
    for a in outside:
        if squares[a] != u:
            classes.setdefault(squares[a], []).append(a)
    wide = sum(Gf2Basis(members).rank > 2 for members in classes.values())
    triple = sum(
        residues[a][c] != 0 and residues[b][c] != 0 and residues[a][c] != residues[b][c]
        for a2, members in classes.items()
        for i, a in enumerate(members)
        for b in members[i + 1 :]
        if rows[a][b] == a2
        for c in outside
        if squares[c] != a2
    )
    return [pair, wide, triple]


def _pairwise_counts(C):
    return [c.lhs for c in _pairwise_checks(C)]


def _hadamard_counts(C):
    return [c.lhs for c in _hadamard_pair_triple_checks(C)]


def test_dense_groups_reach_k_5_and_6():
    groups = _dense_groups()
    assert [(C.sig, len(C.basis)) for C in groups] == [
        (sig, k) for sig in DENSE_SIGNATURES for k in (5, 6)
    ]
    assert all(1 << 9 <= C.order <= 1 << 10 for C in groups)


def test_tables_at_k_5_and_6_match_the_word_products():
    """The images, squares, commutators and reduced swappers of the 2^k
    coset words, read by XOR doubling and by polarizing the squares, equal
    the products of the basis words, p p, p^-1 q^-1 p q and the swapper
    bits of (p, q) reduced by Gray(T), over every pair."""
    for C in _dense_groups():
        words = _products(C.sig, [GroupWord._from_bits(C.sig, b) for b in C.basis])
        reduce = C._torsion.reduce
        squares = [(p * p).bits for p in words]
        rows = [[word_commutator(p, q).bits for q in words] for p in words]
        assert _coset_images(C) == [p.bits for p in words], C.generators
        assert _coset_squares(C) == squares, C.generators
        assert _polar_rows(squares) == rows, C.generators
        assert _coset_table(C) == (squares, rows), C.generators
        assert _reduced_swappers(C) == [
            [reduce(_swapper_bits(p, q)) for q in words] for p in words
        ], C.generators


def test_pair_counts_at_k_5_and_6_equal_the_brute_force():
    """The counts are exact: equal to the count over every pair of the
    tables.  The Hadamard pair count is nonzero on some of these
    non-Hadamard groups, so its shortcut is met by rows that count."""
    pair_counts = []
    for C in _dense_groups():
        assert not is_hadamard(C)
        squares, rows = _coset_table(C)
        assert _pairwise_counts(C) == table_pair_counts(C), C.generators
        brute = _brute_hadamard(C, squares, rows, _reduced_swappers(C))
        assert _hadamard_counts(C) == brute == table_pair_triple_counts(C), C.generators
        pair_counts.append(brute[0])
    assert any(pair_counts)


def _chain_members():
    """The Kronecker chains of the benchmark from ``hadamard16_q8`` and
    ``hadamard16_z2z4_delta2`` to n = 256, each doubling element a product
    of powers of the generators drawn from a fixed seed."""
    rng = random.Random(1)
    members = []
    for start in ("hadamard16_q8", "hadamard16_z2z4_delta2"):
        C = load_fixture(start)
        members.append(C)
        while C.sig.n < 256:
            g = identity(C.sig)
            for w in C.generators:
                g = g * w ** rng.randrange(4)
            C = generalized_kronecker(C, g).output
            members.append(C)
    return members


def test_an_analysis_builds_no_4k_table_and_no_coset_words(monkeypatch):
    """``analyze`` reads only the 2^k lists, on every input: over the dense
    groups, the 21 fixtures (18 of them Hadamard) and the chain members to
    n = 256 (all Hadamard), it calls ``_span_table`` zero times, and
    ``_coset_reps`` zero times, while the second routes still build the
    tables."""
    groups = _dense_groups() + [load_fixture(name) for name in SHIPPED_FIXTURES]
    groups += _chain_members()
    groups = [generate(C.generators) for C in groups]  # nothing cached
    assert len(groups) == 4 + 21 + 10
    assert sum(map(is_hadamard, groups)) == 18 + 10
    tables = count_calls(monkeypatch, oracles, "_span_table")
    words = count_calls(monkeypatch, subgroup, "_coset_reps")
    for C in groups:
        analyze(C)
    assert tables == words == {}
    C = load_fixture("hadamard16_q8")
    assert table_pair_triple_counts(C) == _hadamard_counts(C)
    center(C)
    assert tables["_span_table"] == 2 and words["_coset_reps"] == 1


def _corrupted_squares(fault):
    """The squares with one planted fault: ``fault(C, squares)`` gives (d,
    i, j), and the square of each p_v with bits i and j of v set moves by
    d.  That is what a fault d in the entry s(b_i, b_i) (i = j) or in the
    commutator form F(i, j) of the swapper table gives: the list stays a
    quadratic form, so each row of its polar form stays the span of its
    unit entries."""

    def corrupted(C):
        squares = _coset_squares(C)
        d, i, j = fault(C, squares)
        mask = 1 << i | 1 << j
        return [sq ^ d if v & mask == mask else sq for v, sq in enumerate(squares)]

    return corrupted


def _plant_squares(monkeypatch, fault):
    """Patch ``_coset_squares`` where ``_pairwise_checks`` reads it with
    the squares of one planted fault (``_corrupted_squares``).  Returns a
    reader of the squares each checklist then sees: (its squares, the
    Hadamard squares)."""
    corrupted = _corrupted_squares(fault)
    monkeypatch.setattr(invariants, "_coset_squares", corrupted)
    return lambda C: (corrupted(C), _coset_squares(C))


def _plant_hadamard_squares(monkeypatch, fault):
    """Patch ``_coset_squares`` where the Hadamard pair and triple checks
    read it, like ``_plant_squares``."""
    corrupted = _corrupted_squares(fault)
    monkeypatch.setattr(hadamard, "_coset_squares", corrupted)
    return lambda C: (_coset_squares(C), corrupted(C))


def _square_cleared(C, squares):
    """The square of b_1 cleared: its commutators, nonzero on
    ``hadamard16_q8``, then have bits outside its square."""
    return squares[1], 0, 0


def _commuting_pair_in_a_square_class(C, squares):
    """The commutator of the first two basis words with one square and a
    nonzero commutator cancelled: they then commute."""
    k = len(C.basis)
    i, j = next(
        (i, j)
        for j in range(k)
        for i in range(j)
        if squares[1 << i] == squares[1 << j] and _polar(squares, 1 << i, 1 << j)
    )
    return _polar(squares, 1 << i, 1 << j), i, j


def _unit_outside_square_pair(C, squares):
    """u added to the commutator form F(i, j), for a basis word b_i whose
    square is neither 0 nor u and any other j: the unit entry (b_i, b_j)
    of its row, in {0, b_i^2} before, moves by u, outside {0, b_i^2}."""
    u = (1 << C.sig.n) - 1
    i = next(i for i in range(len(C.basis)) if squares[1 << i] not in (0, u))
    return u, i, (i + 1) % len(C.basis)


def _lane_square_cleared(lane):
    """The square at ``lane`` cleared: s(b_i, b_i) moves by sq[lane], with
    i the top bit of the lane.  That moves every square with bit i set,
    leaves the commutators as they were, and clears sq[lane]; the row of a
    non-central word with square 0 has bits outside it, and p_lane then
    commutes with each word whose square it does not move.  Lane 1 and the
    last lane 2^k - 1 are the ends of the packed squares."""
    return lambda C, squares: (squares[lane], lane.bit_length() - 1, lane.bit_length() - 1)


def _hadamard16_q8():
    return load_fixture("hadamard16_q8")


def _dense_k6():
    """The Q8^4 group of ``_dense_groups`` with k = 6: 64 lanes."""
    return _dense_groups()[1]


@pytest.mark.parametrize(
    "group, plant, fault, counted, row",
    [
        (_hadamard16_q8, _plant_squares, _square_cleared, 0, 1),
        (_hadamard16_q8, _plant_squares, _commuting_pair_in_a_square_class, 1, None),
        (_hadamard16_q8, _plant_hadamard_squares, _unit_outside_square_pair, 2, None),
        (_dense_k6, _plant_squares, _lane_square_cleared(1), 0, 1),
        (_dense_k6, _plant_squares, _lane_square_cleared(63), 0, 63),
    ],
    ids=[
        "bits outside the square",
        "zero inside a square class",
        "unit outside {0, a^2}",
        "lane 1",
        "last lane",
    ],
)
def test_a_planted_fault_is_counted_exactly(monkeypatch, group, plant, fault, counted, row):
    """A shortcut cannot hide a violation: on ``hadamard16_q8``, where every
    count is 0, a square cleared under a nonzero commutator (weight n
    above it), a commutator cancelled between two basis words of one
    square class, or a unit commutator moved by u outside {0, a^2} for
    the Hadamard pair check (each planted in the squares, and so in their
    polar form) makes its count nonzero, and every count equals the brute
    force over every pair of the polar tables of the corrupted squares.
    On the k = 6 dense group the square of lane 1 or of the last lane is
    cleared, and that lane's own row is among the rows counted."""
    C = group()
    assert _pairwise_counts(C) == [0, 0]
    if is_hadamard(C):
        assert _hadamard_counts(C) == [0] * 3 and hadamard_bounds(C).all_ok
    pair_squares, squares = plant(monkeypatch, fault)(C)
    assert (pair_squares, squares) != (_coset_squares(C), _coset_squares(C))
    counts = _pairwise_counts(C) + _hadamard_counts(C)
    brute = _brute_pairwise(C, pair_squares)
    residues = _reduced_swappers(C)
    assert counts == brute + _brute_hadamard(C, squares, _polar_rows(squares), residues)
    assert counts[counted] > 0
    if row is not None:
        a2, entries = pair_squares[row], _polar_rows(pair_squares)[row]
        assert any(e.bit_count() > a2.bit_count() for e in entries)


LANE_DRAWS = (
    (GroupSignature(7, 0, 0), {0}),
    (GroupSignature(3, 2, 0), {1, 2}),
    (GroupSignature(1, 1, 5), set(range(3, 10))),
)


def _groups_k_0_to_9():
    """One drawn subgroup per k = 0..9: k = 0 in Z2^7, 1 and 2 in Z2^3 x
    Z4^2, 3..9 in Z2 x Z4 x Q8^5, at n = 7, 7 and 23, none a multiple of 8."""
    rng = random.Random(35)
    found = {}
    for sig, ks in LANE_DRAWS:
        while not ks <= found.keys():
            C = random_subgroup(sig, rng, rng.randint(1, 10), max_order=1 << 16)
            found.setdefault(len(C.basis), C)
    return [found[k] for k in range(10)]


def test_pair_counts_equal_the_brute_force_for_k_0_to_9():
    """Seeded: on a group of each k = 0..9 (n = 7, 7 and 23) and on the
    chain member at n = 256, ``_pairwise_checks`` equals the brute force
    over every pair (``oracles.table_pair_counts``) on the true squares,
    with a random fault d in the swapper table entry (i, j), and with the
    square of a random lane cleared (``_lane_square_cleared``)."""
    rng = random.Random(2)
    groups = _groups_k_0_to_9() + [_chain_members()[4]]
    assert [len(C.basis) for C in groups] == list(range(10)) + [3]
    assert {C.sig.n for C in groups} == {7, 23, 256}
    for C in groups:
        assert _pairwise_counts(C) == table_pair_counts(C) == [0, 0], C.generators
        k = len(C.basis)
        if not k:
            continue
        random_fault = (rng.getrandbits(C.sig.n), rng.randrange(k), rng.randrange(k))
        lane = rng.randrange(1, 1 << k)
        for fault in (lambda C, squares: random_fault, _lane_square_cleared(lane)):
            with pytest.MonkeyPatch.context() as patch:
                squares = _plant_squares(patch, fault)(C)[0]
                assert _pairwise_counts(C) == _brute_pairwise(C, squares), (C.generators, fault)


def test_no_row_of_a_correct_group_is_spanned(monkeypatch):
    """Every commutator of a correct group lies inside the support of a^2:
    Z2 and Z4 blocks commute, and a Q8 block where two words fail to
    commute is of order 4 in both, so a^2 is 1111 there.  So the lanes
    name no row, and ``_pairwise_checks`` spans none (``gf2.span``), on the
    groups of each k = 0..9, the dense groups and the chain members."""
    groups = _groups_k_0_to_9() + _dense_groups() + _chain_members()
    for C in groups:
        _coset_squares(C)
    spans = count_calls(monkeypatch, gf2, "span")
    for C in groups:
        assert _pairwise_counts(C) == [0, 0]
    assert spans == {}


def test_kernel_cosets_at_k_6_to_8_match_the_translation_test():
    """The lane reduction of the swapper table by Gray(T) gives the same
    null space as the translation test on the coset representatives."""
    groups = [C for C in _groups_k_0_to_9() if 6 <= len(C.basis) <= 8]
    groups += [C for C in _dense_groups() if len(C.basis) == 6]
    assert sorted(len(C.basis) for C in groups) == [6, 6, 6, 7, 8]
    for C in groups:
        assert C.torsion_rows
        assert _kernel_cosets(C) == representative_kernel_cosets(C), C.generators


def test_verify_names_a_corrupted_table(monkeypatch):
    """``verify`` compares the coset images, the squares, their polar form
    and both tables with the word products, and names the list or table
    in which one entry moved by one bit."""
    C = load_fixture("hadamard16_q8")
    verify(C)
    images, squares = list(_coset_images(C)), list(_coset_squares(C))
    images[-1] ^= 1
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_coset_images", lambda C: images)
        with pytest.raises(
            RuntimeError, match="_coset_images disagrees with coset_tables_by_products"
        ):
            verify(C)
    squares[-1] ^= 1
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_coset_squares", lambda C: squares)
        with pytest.raises(
            RuntimeError, match="_coset_squares disagrees with coset_tables_by_products"
        ):
            verify(C)
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_polar", lambda squares, v, w: _polar(squares, v, w) ^ (v == w))
        with pytest.raises(RuntimeError, match="_polar disagrees with coset_tables_by_products"):
            verify(C)
    squares, rows = _coset_table(C)
    rows = [list(row) for row in rows]
    rows[-1][1] ^= 1
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_coset_table", lambda C: (squares, rows))
        with pytest.raises(
            RuntimeError, match="_coset_table disagrees with coset_tables_by_products"
        ):
            verify(C)
    residues = [list(row) for row in _reduced_swappers(C)]
    residues[-1][1] ^= 1
    monkeypatch.setattr(oracles, "_reduced_swappers", lambda C: residues)
    with pytest.raises(
        RuntimeError, match="_reduced_swappers disagrees with coset_tables_by_products"
    ):
        verify(C)


def test_verify_names_each_replaced_route(monkeypatch):
    """Each route the Hadamard layer replaced stays a ``verify`` pair, and a
    planted fault in the hot route makes ``verify`` name it: a sort key
    whose bit reversal drops the top bit, the pair checklist of
    ``check_bounds`` reading squares with the square of b_1 cleared
    (``_square_cleared``), the Hadamard pair check reading squares with a
    unit commutator moved by u (``_unit_outside_square_pair``), and u in
    <U> answered the other way."""
    C = load_fixture("hadamard16_q8")
    verify(C)
    with monkeypatch.context() as patch:
        _plant_squares(patch, _square_cleared)
        with pytest.raises(
            RuntimeError, match="_pairwise_checks disagrees with table_pair_counts"
        ):
            verify(C)
    with monkeypatch.context() as patch:
        real_key = oracles._sort_key
        patch.setattr(oracles, "_sort_key", lambda sig, x: real_key(sig, x) >> 1)
        with pytest.raises(RuntimeError, match="_sort_key disagrees with string_sort_key"):
            verify(C)
    with monkeypatch.context() as patch:
        _plant_hadamard_squares(patch, _unit_outside_square_pair)
        with pytest.raises(
            RuntimeError,
            match="_hadamard_pair_triple_checks disagrees with table_pair_triple_counts",
        ):
            verify(C)
    real_generates = oracles._generates
    monkeypatch.setattr(oracles, "_generates", lambda *args: not real_generates(*args))
    with pytest.raises(RuntimeError, match="_generates disagrees with generated_by_presentation"):
        verify(C)
