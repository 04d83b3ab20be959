"""Arithmetic in Z2^k1 x Z4^k2 x Q8^k3."""

from __future__ import annotations

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
from z2z4q8.groups import Q8_TOKENS, _nu, _sort_key, parse_q8_token

from conftest import Q8, all_words, assert_matches_reference, q8_word, random_word

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
    assert sorted(words, key=_sort_key) == sorted(words, key=lambda w: w.coords)



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
    """``coords`` reads the image through a moving 64-bit window: blocks
    that straddle a window edge (a Z4 block at bit 63, Q8 blocks at odd
    offsets) decode like any other, and ``tokens`` spells each section by
    its kind."""
    rng = random.Random(sig.n)
    mods = [2] * sig.k1 + [4] * sig.k2 + [8] * sig.k3
    for _ in range(40):
        coords = tuple(rng.randrange(m) for m in mods)
        w = word(sig, coords)
        assert w.coords == coords
        assert w.tokens() == tuple(
            Q8_TOKENS[v] if sig.kind(i) == "q8" else str(v) for i, v in enumerate(coords)
        )
