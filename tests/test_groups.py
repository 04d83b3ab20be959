"""Arithmetic in Z2^k1 x Z4^k2 x Q8^k3."""

from __future__ import annotations

import copy
import pickle
import random
from itertools import product

import pytest

from z2z4q8 import (
    CodeGroup,
    GroupSignature,
    GroupWord,
    SignatureMismatch,
    commutator,
    conjugate,
    identity,
    u_element,
    word,
    word_from_tokens,
)
import z2z4q8.groups as groups_module
from z2z4q8.groups import Q8_TOKENS, _nu, _sections, _sort_key, _tables, parse_q8_token

from conftest import (
    Q8,
    all_words,
    assert_matches_reference,
    count_calls,
    kind_of,
    q8_word,
    random_word,
)

MIXED = GroupSignature(1, 1, 1)


def test_q8_presentation_relations():
    a, b = q8_word("a"), q8_word("b")
    e = identity(Q8)
    assert a ** 4 == e
    assert (a * a) * (b * b) == e
    assert b * a * b.inverse() == a.inverse()


def test_q8_products_from_presentation():
    a, b = q8_word("a"), q8_word("b")
    assert a * b == q8_word("ab")
    assert b * a == q8_word("a3b")
    assert b * b == q8_word("a2")


def test_q8_orders():
    assert q8_word("1").order() == 1
    assert q8_word("a2").order() == 2
    for token in ("a", "a3", "b", "ab", "a2b", "a3b"):
        assert q8_word(token).order() == 4


def test_word_orders():
    assert identity(MIXED).order() == 1
    assert word_from_tokens(MIXED, ("1", "2", "a2")).order() == 2
    w = word_from_tokens(MIXED, ("1", "1", "b"))
    # independent route: repeated multiplication until the identity
    power, count = w, 1
    while not power.is_identity():
        power = power * w
        count += 1
    assert count == 4 and w.order() == 4


def test_product_inverse_order_match_coordinatewise_reference():
    """Exhaustive over Z2 x Z4 x Q8: the product on Gray images agrees with
    Z2 XOR, Z4 addition and the Q8 table, coordinate by coordinate."""
    words = all_words(MIXED)
    for x in words:
        for y in words:
            assert_matches_reference(x, y)


def test_coords_round_trip_and_sorted_order():
    tuples = list(product(range(2), range(4), range(8)))
    for coords in tuples:
        assert word(MIXED, coords).coords == coords
    ambient = CodeGroup.generate(all_words(MIXED))
    assert [w.coords for w in ambient.sorted_elements()] == tuples


def test_every_word_has_exponent_four():
    for w in all_words(MIXED):
        assert (w ** 4).is_identity()
        assert w.order() in (1, 2, 4)


def test_inverse_and_power():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(MIXED, rng)
        assert (w * w.inverse()).is_identity()
        assert (w ** 0).is_identity()
        assert w ** 2 == w * w
        assert w ** 3 == w * w * w


def test_associativity_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        x, y, z = (random_word(MIXED, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_commutator_basics():
    rng = random.Random(13)
    for _ in range(50):
        w = random_word(MIXED, rng)
        assert commutator(w, w).is_identity()
    assert commutator(q8_word("a"), q8_word("b")) == q8_word("a2")


def test_commutator_square_and_bilinearity():
    sig = GroupSignature(0, 0, 2)
    x = word_from_tokens(sig, ("a", "a"))
    y = word_from_tokens(sig, ("ab", "b"))
    c = commutator(x, y)
    assert c == word_from_tokens(sig, ("a2", "a2"))
    assert c == x * x  # equals the square of (a, a)
    rng = random.Random(17)
    for _ in range(1000):
        p, q, r = (random_word(sig, rng) for _ in range(3))
        assert commutator(p * q, r) == commutator(p, r) * commutator(q, r)
        assert commutator(p, q) == commutator(q, p)
        assert (commutator(p, q) ** 2).is_identity()


def test_conjugate():
    assert conjugate(q8_word("b"), q8_word("a")) == q8_word("a2b")
    rng = random.Random(19)
    e = identity(MIXED)
    for _ in range(100):
        x = random_word(MIXED, rng)
        assert conjugate(x, e) == x


def test_u_element_is_central_and_self_inverse():
    u = u_element(MIXED)
    assert u.coords == (1, 2, 2)
    assert (u * u).is_identity()
    rng = random.Random(23)
    for _ in range(200):
        w = random_word(MIXED, rng)
        assert u * w == w * u
        assert (w ** 2) * u == u * (w ** 2)


def test_squares_are_central():
    rng = random.Random(29)
    for _ in range(300):
        w, v = random_word(MIXED, rng), random_word(MIXED, rng)
        s = w ** 2
        assert s * v == v * s


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        identity(Q8) * identity(MIXED)
    with pytest.raises(SignatureMismatch):
        commutator(identity(Q8), identity(MIXED))


def test_signature_validation():
    with pytest.raises(ValueError):
        GroupSignature(-1, 0, 1)
    with pytest.raises(ValueError):
        GroupSignature(0, 0, 0)
    sig = GroupSignature(2, 3, 4)
    assert sig.n == 2 + 6 + 16
    assert sig.l == 9


def test_signatures_and_words_survive_pickle_and_deepcopy():
    """A signature rebuilds from its counts, masks and layout included,
    and a word from its signature and bits; the copies compare equal and
    multiply like the originals."""
    sig = GroupSignature(2, 3, 2)
    rng = random.Random(4)
    x, y = random_word(sig, rng), random_word(sig, rng)
    for clone in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy):
        sig2 = clone(sig)
        assert sig2 == sig and hash(sig2) == hash(sig)
        assert (_sections(sig2), _tables(sig2)) == (_sections(sig), _tables(sig))
        x2, y2 = clone(x), clone(y)
        assert (x2, y2) == (x, y) and x2.coords == x.coords
        assert x2 * y2 == x * y and y2 * x2 == y * x


def test_signatures_keep_no_instance_dict():
    """The product reads its masks from the signature's slots; writing a
    signature's instance dict made every product on it slower."""
    sig = GroupSignature(1, 2, 3)
    assert not hasattr(sig, "__dict__")
    assert not hasattr(identity(sig), "__dict__")


def test_the_product_kernel_looks_nothing_up(monkeypatch):
    """Products, inverses, orders and sort keys read the masks off the
    signature: no call into ``_tables`` or ``_sections``."""
    rng = random.Random(8)
    w, v = random_word(MIXED, rng), random_word(MIXED, rng)
    calls = count_calls(monkeypatch, groups_module, "_tables", "_sections")
    w * v, w.inverse(), w.order(), _sort_key(w.sig, w.bits)
    assert not calls


def test_word_validation():
    for make in (word, GroupWord):
        with pytest.raises(ValueError):
            make(Q8, (8,))
        with pytest.raises(ValueError):
            make(Q8, (-1,))
        with pytest.raises(ValueError):
            make(MIXED, (0, 0))
        with pytest.raises(ValueError):
            make(MIXED, (2, 0, 0))


def test_q8_token_round_trip():
    for code, token in enumerate(Q8_TOKENS):
        assert parse_q8_token(token) == code
        assert q8_word(token).tokens() == (token,)


def test_q8_token_normalization():
    assert parse_q8_token("b3") == parse_q8_token("a2b")
    assert parse_q8_token("a^2") == parse_q8_token("a2")
    assert parse_q8_token("a^3b") == parse_q8_token("a3b")
    assert parse_q8_token("b2") == parse_q8_token("a2")
    with pytest.raises(ValueError):
        parse_q8_token("c")
    with pytest.raises(ValueError):
        parse_q8_token("")


def test_nu_is_a_homomorphism_with_kernel_the_words_of_order_at_most_2():
    """Exhaustive on Z2 x Z4 x Q8: nu(xy) = nu(x) + nu(y), and nu(x) = 0
    exactly when x^2 = e."""
    words = all_words(MIXED)
    e = identity(MIXED)
    for x in words:
        assert (_nu(MIXED, x.bits) == 0) == (x * x == e), x
        for y in words:
            assert _nu(MIXED, (x * y).bits) == _nu(MIXED, x.bits) ^ _nu(MIXED, y.bits)


def test_sort_key_order_is_coordinate_order():
    words = all_words(GroupSignature(1, 2, 2))
    random.Random(3).shuffle(words)
    key = lambda w: _sort_key(w.sig, w.bits)
    assert sorted(words, key=key) == sorted(words, key=lambda w: w.coords)



@pytest.mark.parametrize(
    "sig",
    [
        GroupSignature(63, 3, 20),
        GroupSignature(1, 0, 17),
        GroupSignature(65, 0, 0),
        GroupSignature(1, 40, 9),
        GroupSignature(0, 0, 40),
    ],
    ids=str,
)
def test_coords_and_tokens_round_trip_across_64_bit_windows(sig):
    """``coords`` and ``tokens`` decode a section at a time, shifting it to
    bit 0 and reading it a byte at a time: sections that start at any bit
    (a Z4 section at bit 63, a Q8 section at an odd bit) and run past 64
    bits decode like any other, and ``tokens`` spells each section by its
    kind."""
    rng = random.Random(sig.n)
    mods = [2] * sig.k1 + [4] * sig.k2 + [8] * sig.k3
    for _ in range(40):
        coords = tuple(rng.randrange(m) for m in mods)
        w = word(sig, coords)
        assert w.coords == coords
        assert w.tokens() == tuple(
            Q8_TOKENS[v] if kind_of(sig, i) == "q8" else str(v) for i, v in enumerate(coords)
        )


def _masks_by_coordinate(sig):
    """The two masks of ``_tables``, built one coordinate at a time."""
    low = {"z2": 0, "z4": 0, "q8": 0}
    pos = 0
    for i in range(sig.l):
        kind = kind_of(sig, i)
        low[kind] |= 1 << pos
        pos += {"z2": 1, "z4": 2, "q8": 4}[kind]
    return low["z4"], low["q8"]


@pytest.mark.parametrize(
    "counts",
    [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (7, 0, 3), (0, 5, 0),
        (3, 2, 0), (0, 9, 17), (2, 3, 2), (63, 3, 20),
        (3000, 0, 0), (0, 2500, 0), (0, 0, 2000), (1001, 0, 1999), (0, 1234, 777),
        (4097, 2049, 1025),
    ],
    ids=str,
)
def test_masks_by_pattern_equal_the_masks_by_coordinate(counts):
    """The closed-form masks of ``_tables``, which are the signature's own
    mask slots, equal the masks grown one coordinate at a time, over empty
    sections, odd counts and thousands of coordinates; the sections tile
    the image in coordinate order."""
    sig = GroupSignature(*counts)
    assert _tables(sig) == (sig._z4, sig._q8) == _masks_by_coordinate(sig)
    coordinate = bit = 0
    for kind, first, count, offset, width in _sections(sig):
        assert (first, offset) == (coordinate, bit) and count > 0
        assert all(kind_of(sig, i) == kind for i in (first, first + count - 1))
        coordinate, bit = first + count, offset + count * width
    assert (coordinate, bit) == (sig.l, sig.n)
