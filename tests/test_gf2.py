"""The GF(2) toolkit against brute force: the enumerations and the
eliminations on every list of up to 4 rows below 2^4, the lane constant
against its geometric sum, and the lane operations lane by lane."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from z2z4q8.gf2 import (
    Gf2Basis,
    dimension,
    lane_ones,
    lanes_set,
    null_space,
    pack,
    reduce_lanes,
    span,
    swap_lanes,
    unpack,
    walk,
)


def _sum(rows, v):
    """The XOR of the rows picked by the bits of v."""
    out = 0
    for i, r in enumerate(rows):
        if v >> i & 1:
            out ^= r
    return out


def _sums(rows):
    """The XOR of the rows picked by the bits of each index v, from the
    sum at v without its lowest bit."""
    sums = [0]
    for v in range(1, 1 << len(rows)):
        sums.append(sums[v & (v - 1)] ^ rows[(v & -v).bit_length() - 1])
    return sums


@lru_cache(maxsize=None)
def _least(spanned):
    """The least vector of the class of each x below 2^4 mod spanned."""
    return [min(x ^ s for s in spanned) for x in range(16)]


def _check_basis(basis, spanned):
    """``basis`` holds a reduced echelon basis of spanned: its pivots are the
    top bits of its rows, each set in its own row only, and it reduces
    every vector below 2^4 to the least of its class, the one with every
    pivot bit clear, which is 0 exactly on spanned."""
    rows = basis.rows()
    pivots = [row.bit_length() - 1 for row in rows]
    assert pivots == sorted(set(pivots)) and set(span(rows)) == spanned
    mask = sum(1 << p for p in pivots)
    assert all(row & mask == 1 << p for row, p in zip(rows, pivots))
    vectors = range(16)
    least = _least(spanned)
    assert list(map(basis.reduce, vectors)) == least
    assert not any(x & mask for x in least)
    assert list(map(basis.contains, vectors)) == [not x for x in least]


def test_every_list_of_up_to_4_rows_below_2_4():
    """All 69,905 lists: ``span`` is the sums by index, ``walk`` visits
    them in Gray-code order, ``null_space`` holds the indices of the zero
    sums, ``dimension`` counts the distinct sums, and ``Gf2Basis.add``
    reports each row that enlarges the span and builds a reduced echelon
    basis of it (``_check_basis``).  A row that does not enlarge the span
    leaves the basis as it was, so its state is a function of the rows
    that did, and it is checked once per such sequence."""
    checked = set()
    lists = 0
    for k in range(5):
        indices = range(1 << k)
        for rows in product(range(16), repeat=k):
            lists += 1
            sums = _sums(rows)
            assert span(rows) == sums
            assert list(walk(rows)) == [sums[i ^ i >> 1] for i in indices]
            assert null_space(rows) == tuple(v for v in indices if not sums[v])
            spanned = frozenset(sums)
            dim = dimension(rows)
            assert len(spanned) == 1 << dim
            basis, picked = Gf2Basis(), []
            for i, r in enumerate(rows):
                enlarged = r not in sums[: 1 << i]  # the span of rows[:i]
                assert basis.add(r) == enlarged
                if enlarged:
                    picked.append(r)
            assert basis.rank == dim == len(picked)
            if tuple(picked) not in checked:
                checked.add(tuple(picked))
                _check_basis(basis, spanned)
    assert lists == 69_905


def test_lane_ones_is_the_geometric_sum():
    widths = list(range(8, 257, 8)) + [512, 1024, 2048, 4096]
    for width in widths:
        for lanes in range(1, 65):
            expected = ((1 << width * lanes) - 1) // ((1 << width) - 1)
            assert lane_ones(width, lanes) == expected, (width, lanes)
    assert lane_ones(8, 0) == 0


def test_pack_and_unpack_round_trip_and_lanes_reduce_as_the_basis_does():
    """``unpack`` inverts ``pack``, also read as wider lanes of m values
    each; ``reduce_lanes`` gives ``Gf2Basis.reduce`` in every lane, the
    first and the last among them."""
    rng = random.Random(36)
    for width in (8, 24, 256):
        for count in (0, 1, 4, 9, 64):
            values = [rng.getrandbits(width) for _ in range(count)]
            packed = pack(values, width)
            assert unpack(packed, width, count) == values
            for m in (1, 2, 3):
                whole = count // m * m
                wide = unpack(pack(values[:whole], width), m * width, count // m)
                assert wide == [pack(values[i : i + m], width) for i in range(0, whole, m)]
            for rows in range(width // 8 + 2):
                basis = Gf2Basis(rng.getrandbits(width) for _ in range(rows))
                reduced = reduce_lanes(packed, width, count, basis)
                assert unpack(reduced, width, count) == [basis.reduce(x) for x in values]
    assert [len(swap_lanes(0, 8, k)) for k in range(6)] == list(range(6))


def test_lanes_reindex_and_name_every_lane():
    """Packed at byte widths, mask j of ``swap_masks`` reindexes the lanes
    by u -> u ^ 2^j (``swap_lanes``), and ``lanes_set`` names exactly the
    nonzero lanes, the first and the last among them."""
    rng = random.Random(0)
    for width in (8, 24, 256):
        for k in range(6):
            values = [rng.getrandbits(width) * rng.randrange(2) for _ in range(1 << k)]
            values[0] = values[-1] = 1 << (width - 1)
            packed = pack(values, width)
            for j, swapped in enumerate(swap_lanes(packed, width, k)):
                assert swapped == pack([values[u ^ 1 << j] for u in range(1 << k)], width)
            assert lanes_set(packed, width) == [u for u, x in enumerate(values) if x]


_rows = st.lists(
    st.one_of(st.integers(0, 15), st.integers(0, (1 << 12) - 1)), max_size=10
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_rows)
def test_property_the_null_space_has_the_dimension_of_the_relations(rows):
    """At k <= 10 rows, the null space has 2^(k - dim) indices, and each
    picks rows that sum to 0."""
    found = null_space(rows)
    assert len(found) == 2 ** (len(rows) - dimension(rows))
    assert all(_sum(rows, v) == 0 for v in found)
