"""The 4^k tables of the pair checklists at the dense groups' k, and the
shortcuts that read each row's k unit entries, against brute force.

``_coset_table`` and ``_reduced_swappers`` are built by XOR doubling
(``_span_table``); ``_pairwise_checks`` and the pair count of
``_hadamard_pair_triple_checks`` skip a row from its unit entries when a
span argument allows.  Here the tables are compared with word products,
and every count with a count over each pair of the table, on real groups
and on tables with a planted fault.
"""

from __future__ import annotations

import random

import pytest

import z2z4q8.hadamard as hadamard
import z2z4q8.invariants as invariants
import z2z4q8.oracles as oracles
from z2z4q8 import GroupSignature, hadamard_bounds, is_hadamard
from z2z4q8.fixtures import load_fixture
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.hadamard import _hadamard_pair_triple_checks, _reduced_swappers
from z2z4q8.invariants import _pairwise_checks
from z2z4q8.oracles import _swapper_bits, verify
from z2z4q8.subgroup import _coset_reps, _coset_table, _span

from conftest import random_subgroup, word_commutator

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


def _brute_counts(C, squares, rows, residues):
    """The five pair and triple counts over every pair of the tables, in the
    order of ``_pairwise_checks`` then ``_hadamard_pair_triple_checks``."""
    u = (1 << C.sig.n) - 1
    outside = range(1, len(squares))
    weight = sum(
        rows[a][b].bit_count() > squares[a].bit_count() for a in outside for b in outside
    )
    commuting = sum(
        a != b and squares[a] == squares[b] and rows[a][b] == 0
        for a in outside
        for b in outside
    )
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
    return [weight, commuting, pair, wide, triple]


def _counts(C):
    return [c.lhs for c in _pairwise_checks(C) + _hadamard_pair_triple_checks(C)]


def test_dense_groups_reach_k_5_and_6():
    groups = _dense_groups()
    assert [(C.sig, len(C.basis)) for C in groups] == [
        (sig, k) for sig in DENSE_SIGNATURES for k in (5, 6)
    ]
    assert all(1 << 9 <= C.order <= 1 << 10 for C in groups)


def test_tables_at_k_5_and_6_match_the_word_products():
    """Squares, commutator rows and reduced swappers of the 2^k coset
    words, read by XOR doubling, equal p p, p^-1 q^-1 p q and the swapper
    bits of (p, q) reduced by Gray(T), over every pair."""
    for C in _dense_groups():
        reps = _coset_reps(C)
        reduce = C._torsion.reduce
        assert _coset_table(C) == (
            [(p * p).bits for p in reps],
            [[word_commutator(p, q).bits for q in reps] for p in reps],
        ), C.generators
        assert _reduced_swappers(C) == [
            [reduce(_swapper_bits(p, q)) for q in reps] for p in reps
        ], C.generators


def test_pair_counts_at_k_5_and_6_equal_the_brute_force():
    """The counts are exact: equal to the count over every pair of the
    tables.  The Hadamard pair count is nonzero on some of these
    non-Hadamard groups, so its shortcut is met by rows that count."""
    pair_counts = []
    for C in _dense_groups():
        assert not is_hadamard(C)
        squares, rows = _coset_table(C)
        brute = _brute_counts(C, squares, rows, _reduced_swappers(C))
        assert _counts(C) == brute, C.generators
        pair_counts.append(brute[2])
    assert any(pair_counts)


def _plant(monkeypatch, fault):
    """Patch ``_coset_table`` where the pair checklists read it with a copy
    in which ``fault(C, squares, rows)``, a pair (v, row), replaces row v."""
    real = _coset_table

    def corrupted(C):
        squares, rows = real(C)
        rows = [list(row) for row in rows]
        v, row = fault(C, squares, rows)
        rows[v] = row
        return squares, rows

    monkeypatch.setattr(invariants, "_coset_table", corrupted)
    monkeypatch.setattr(hadamard, "_coset_table", corrupted)
    return corrupted


def _with_unit(rows, v, k, j, value):
    """Row v rebuilt as the span of its k unit entries, unit j set to
    value: the row a fault in the k x k swapper table would give, which
    keeps every entry a sum of the unit entries."""
    units = [rows[v][1 << i] for i in range(k)]
    units[j] = value
    return _span(units)


def _bits_outside_square(C, squares, rows):
    u = (1 << C.sig.n) - 1
    v = next(v for v in range(1, len(squares)) if squares[v] != u)
    return v, _with_unit(rows, v, len(C.basis), 0, u)


def _zero_in_square_class(C, squares, rows):
    v, w = next(
        (v, w)
        for v in range(1, len(squares))
        for w in range(1, len(squares))
        if v != w and squares[v] == squares[w] and rows[v][w]
    )
    row = list(rows[v])
    row[w] = 0
    return v, row


def _unit_outside_square_pair(C, squares, rows):
    u = (1 << C.sig.n) - 1
    v = next(v for v in range(1, len(squares)) if squares[v] not in (0, u))
    return v, _with_unit(rows, v, len(C.basis), len(C.basis) - 1, u)


@pytest.mark.parametrize(
    "fault, counted",
    [
        (_bits_outside_square, 0),
        (_zero_in_square_class, 1),
        (_unit_outside_square_pair, 2),
    ],
    ids=["bits outside the square", "zero inside a square class", "unit outside {0, a^2}"],
)
def test_a_planted_fault_is_counted_exactly(monkeypatch, fault, counted):
    """A shortcut cannot hide a violation: on ``hadamard16_q8``, where every
    count is 0, a row with a unit entry u outside its square (weight n
    above it), a zero between two words of one square class, or a unit
    entry u outside {0, a^2} makes its count nonzero, and every count
    equals the brute force over the same corrupted table."""
    C = load_fixture("hadamard16_q8")
    assert _counts(C) == [0] * 5 and hadamard_bounds(C).all_ok
    table = _plant(monkeypatch, fault)
    squares, rows = table(C)
    counts = _counts(C)
    assert counts == _brute_counts(C, squares, rows, _reduced_swappers(C))
    assert counts[counted] > 0


def test_verify_names_a_corrupted_table(monkeypatch):
    """``verify`` compares both tables with the word products, and names
    the table in which one entry moved by one bit."""
    C = load_fixture("hadamard16_q8")
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
