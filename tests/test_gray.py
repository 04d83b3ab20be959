"""Gray maps, weights, distances and codeword permutations."""

from __future__ import annotations

import random

import pytest

from z2z4q8 import (
    BinaryVector,
    GroupSignature,
    complement,
    distance,
    gray,
    gray_inv,
    identity,
    pi_of,
    u_element,
    weight,
    word_from_tokens,
)
from z2z4q8.gray import CoordinatePermutation, propelinear_product

from conftest import Q8, Z4, all_words, q8_word, random_word, z4_word

MIXED = GroupSignature(1, 1, 1)

# frozen images of both component maps
Z4_IMAGES = {0: "00", 1: "01", 2: "11", 3: "10"}
Q8_IMAGES = {
    "1": "0000",
    "a": "0101",
    "a2": "1111",
    "a3": "1010",
    "b": "0110",
    "ab": "1100",
    "a2b": "1001",
    "a3b": "0011",
}


def test_z4_gray_table():
    for value, bits in Z4_IMAGES.items():
        assert str(gray(z4_word(value))) == bits


def test_q8_gray_table():
    for token, bits in Q8_IMAGES.items():
        assert str(gray(q8_word(token))) == bits


def test_gray_identity_and_u():
    assert gray(identity(MIXED)).weight() == 0
    assert str(gray(u_element(MIXED))) == "1" * MIXED.n
    assert gray(u_element(GroupSignature(1, 1, 1))).bits == (1 << 7) - 1


def test_gray_injective_with_inverse_exhaustive():
    for sig in (Q8, Z4, MIXED):
        seen = set()
        for w in all_words(sig):
            v = gray(w)
            assert v.n == sig.n
            assert gray_inv(v, sig) == w
            seen.add(v.bits)
        assert len(seen) == len(all_words(sig))  # injective


def test_gray_onto_without_q8_coordinates():
    sig = GroupSignature(1, 2, 0)
    images = {gray(w).bits for w in all_words(sig)}
    assert images == set(range(2 ** sig.n))


def test_gray_inv_rejects_non_image_vectors():
    # 0001 is not the image of any Q8 element
    with pytest.raises(ValueError):
        gray_inv(BinaryVector(4, 0b1000), Q8)


@pytest.mark.parametrize("counts", [(0, 0, 9), (3, 2, 7), (0, 1, 2)], ids=str)
def test_gray_inv_names_the_first_bad_block(counts):
    """A block outside the Q8 image at the first, a middle or the last Q8
    coordinate is rejected, and the message names that coordinate and its
    block; with two bad blocks the earlier one is named."""
    sig = GroupSignature(*counts)
    first_q8 = sig.k1 + sig.k2
    rng = random.Random(sum(counts))
    w = random_word(sig, rng)
    for index in sorted({first_q8, (first_q8 + sig.l - 1) // 2, sig.l - 1}):
        pos = sig.k1 + 2 * sig.k2 + 4 * (index - first_q8)
        for block in (0b0001, 0b0111, 0b1101):
            bits = w.bits & ~(0b1111 << pos) | block << pos
            with pytest.raises(ValueError) as err:
                gray_inv(BinaryVector(sig.n, bits), sig)
            assert str(err.value) == (
                f"coordinate {index + 1}: block {block:04b} is not a Gray image of a Q8 element"
            )
            if index > first_q8:
                with pytest.raises(ValueError) as err:
                    gray_inv(BinaryVector(sig.n, bits ^ 1 << pos - 4), sig)
                assert str(err.value).startswith(f"coordinate {index}: ")


def test_gray_inv_round_trip_random():
    sig = GroupSignature(2, 2, 2)
    rng = random.Random(3)
    for _ in range(1000):
        w = random_word(sig, rng)
        assert gray_inv(gray(w), sig) == w


def test_gray_inv_length_mismatch():
    with pytest.raises(ValueError):
        gray_inv(BinaryVector(3, 0), Q8)


def test_weight_distance_basics():
    zero = BinaryVector(6, 0)
    assert weight(zero) == 0
    assert weight(gray(q8_word("b"))) == 2
    v = BinaryVector.from_string("101100")
    u = BinaryVector.from_string("001101")
    assert distance(u, v) == 2
    assert distance(u, u) == 0
    assert distance(u, v) == distance(v, u)


def test_complement_is_u_translation():
    rng = random.Random(5)
    sig = GroupSignature(2, 1, 2)
    u = u_element(sig)
    for _ in range(300):
        w = random_word(sig, rng)
        assert complement(gray(w)) == gray(u * w)


def test_weight_zero_or_full_only_at_e_and_u():
    for sig in (Q8, MIXED):
        for w in all_words(sig):
            wt = gray(w).weight()
            if wt in (0, sig.n):
                assert w in (identity(sig), u_element(sig))


def test_order_two_coordinates_have_even_gray_weight():
    # order <= 2 entries map to weight 0, 2 or 4 blocks; order-4 entries to
    # half-weight blocks
    for token, bits in Q8_IMAGES.items():
        wt = bits.count("1")
        if q8_word(token).order() <= 2:
            assert wt in (0, 4)
        else:
            assert wt == 2


def test_pi_identity():
    assert pi_of(identity(MIXED)).is_identity()
    assert pi_of(u_element(MIXED)).is_identity()


def test_pi_of_q8_a_is_double_transposition():
    perm = pi_of(q8_word("a"))
    assert perm.image == (1, 0, 3, 2)  # (1,2)(3,4) in 1-based terms


def test_pi_blocks():
    sig = GroupSignature(1, 1, 1)
    w = word_from_tokens(sig, ("1", "1", "b"))
    # Z2 block fixed, Z4 block swapped, Q8 block (1,3)(2,4) within the block
    assert pi_of(w).image == (0, 2, 1, 5, 6, 3, 4)


def test_propelinear_law_exhaustive_small():
    for sig in (Q8, Z4):
        for w in all_words(sig):
            for v in all_words(sig):
                assert gray(w * v) == propelinear_product(w, gray(v))


def test_propelinear_law_random():
    """The mask product agrees with ``pi_of``, built a section at a time
    from the pair table, on a small signature and on long pure-Q8 and
    mixed ones."""
    rng = random.Random(9)
    for counts, trials in ((2, 2, 2), 500), ((0, 0, 1500), 10), ((301, 702, 1203), 10):
        sig = GroupSignature(*counts)
        for _ in range(trials):
            w, v = random_word(sig, rng), random_word(sig, rng)
            assert gray(w * v) == gray(w) ^ pi_of(w).apply(gray(v))


def test_permutation_composition_matches_products():
    sig = GroupSignature(1, 2, 2)
    rng = random.Random(15)
    for _ in range(300):
        w, v = random_word(sig, rng), random_word(sig, rng)
        assert pi_of(w * v).image == pi_of(w).compose(pi_of(v)).image


@pytest.mark.parametrize("image", [(0, 0, 5), (0, 0, 1), (1, 2, 3), (0, -1)])
def test_coordinate_permutation_refuses_an_image_that_is_not_a_permutation(image):
    """A repeated or out-of-range image would drop or misplace a coordinate
    in ``apply`` (``(0, 0, 5)`` once sent 011 to 100), and ``compose`` would
    pass it on."""
    with pytest.raises(ValueError, match="is not a permutation"):
        CoordinatePermutation(image)


def test_distance_invariance():
    # d(u, v) = d(x + pi_x(u), x + pi_x(v)) for codeword images x
    for sig in (Q8, Z4):
        words = all_words(sig)
        vectors = [BinaryVector(sig.n, bits) for bits in range(2 ** sig.n)]
        for x in words:
            for u in vectors[:: max(1, len(vectors) // 8)]:
                for v in vectors[:: max(1, len(vectors) // 8)]:
                    assert distance(u, v) == distance(
                        propelinear_product(x, u), propelinear_product(x, v)
                    )


def test_translation_invariance():
    # d(x, y) = d(x + pi_x(u'), y + pi_y(u')) for any translation u'
    for sig in (Q8, Z4):
        words = all_words(sig)
        for x in words:
            for y in words:
                for bits in range(2 ** sig.n):
                    t = BinaryVector(sig.n, bits)
                    assert distance(gray(x), gray(y)) == distance(
                        propelinear_product(x, t), propelinear_product(y, t)
                    )


def test_translation_invariance_random_large():
    sig = GroupSignature(1, 2, 2)
    rng = random.Random(21)
    for _ in range(200):
        x, y = random_word(sig, rng), random_word(sig, rng)
        t = BinaryVector(sig.n, rng.getrandbits(sig.n))
        assert distance(gray(x), gray(y)) == distance(
            propelinear_product(x, t), propelinear_product(y, t)
        )


def test_binary_vector_printing():
    v = BinaryVector.from_string("0110")
    assert str(v) == "0110"
    assert v.bit(1) == 0 and v.bit(2) == 1
    assert str(CoordinatePermutation.identity(4).apply(v)) == "0110"
