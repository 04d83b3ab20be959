"""Gray maps to Z2^n, Hamming weight/distance, and codeword permutations.

Binary vectors are packed little-endian into a Python int: coordinate 1 of
the vector is bit 0.  Printing puts coordinate 1 leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .groups import GroupSignature, GroupWord, _decode, _sections

# Per kind: the bit pairs of a coordinate's Gray block that pi swaps for
# each value (the blocks themselves are ``groups._GRAY_BLOCKS``).  Order-2
# entries act as the identity; an order-4 Z4 entry swaps its bit pair; an
# order-4 Q8 entry applies the double transposition of the cyclic subgroup
# it generates, <a>, <b> or <ab>.  The product computes pi with masks
# (``groups._pi``); this table is the independent encoding behind ``pi_of``.
_A, _B, _AB = ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))
_PI_PAIRS = {
    "z2": ((), ()),
    "z4": ((), ((0, 1),), (), ((0, 1),)),
    "q8": ((), _A, (), _A, _B, _AB, _B, _AB),
}


@dataclass(frozen=True)
class BinaryVector:
    """Element of Z2^n with packed-int storage; equality is bitwise."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.bits >> self.n:
            raise ValueError(f"bits do not fit in length {self.n}")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BinaryVector":
        packed = 0
        n = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"binary coordinate {v!r} not in {{0,1}}")
            packed |= v << n
            n += 1
        return cls(n, packed)

    @classmethod
    def from_string(cls, text: str) -> "BinaryVector":
        return cls.from_bits(int(c) for c in text.strip())

    def bit(self, index: int) -> int:
        """Coordinate value at 1-based position ``index``."""
        return (self.bits >> (index - 1)) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "BinaryVector") -> "BinaryVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return BinaryVector(self.n, self.bits ^ other.bits)

    __add__ = __xor__

    def complement(self) -> "BinaryVector":
        return BinaryVector(self.n, self.bits ^ ((1 << self.n) - 1))

    def __str__(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))


def weight(v: BinaryVector) -> int:
    return v.weight()


def distance(u: BinaryVector, v: BinaryVector) -> int:
    return (u ^ v).weight()


def complement(v: BinaryVector) -> BinaryVector:
    return v.complement()


def _offsets(sig: GroupSignature) -> Tuple[tuple, ...]:
    """pi's pair table for ``sig``, one entry per section: (first
    coordinate, count, bit offset, block width, the bit pairs within a
    block that pi swaps for each value)."""
    return tuple(
        (first, count, offset, width, _PI_PAIRS[kind])
        for kind, first, count, offset, width in _sections(sig)
    )


def gray(w: GroupWord) -> BinaryVector:
    """Componentwise Gray map onto Z2^n: the bits the word is stored as."""
    return BinaryVector(w.sig.n, w.bits)


def gray_inv(v: BinaryVector, sig: GroupSignature) -> GroupWord:
    """Inverse Gray map on the image; requires v.n == sig.n.

    The map is injective but, when Q8 coordinates are present, not onto
    Z2^n; the decoder rejects a vector outside the image and names its
    first bad coordinate.
    """
    if v.n != sig.n:
        raise ValueError(f"vector length {v.n} does not match signature n={sig.n}")
    _decode(sig, v.bits)
    return GroupWord._from_bits(sig, v.bits)


@dataclass(frozen=True)
class CoordinatePermutation:
    """Permutation of {1..n} stored as 0-based image array.

    Applied to a vector, the coordinate at position j moves to image[j]:
    (pi(v))_i = v_(pi^-1(i)).
    """

    image: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"image {self.image} is not a permutation of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "CoordinatePermutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.image)

    def is_identity(self) -> bool:
        return all(i == j for j, i in enumerate(self.image))

    def apply(self, v: BinaryVector) -> BinaryVector:
        if v.n != self.n:
            raise ValueError(f"length mismatch: {v.n} != {self.n}")
        bits = 0
        rest = v.bits
        while rest:
            low = rest & -rest
            bits |= 1 << self.image[low.bit_length() - 1]
            rest ^= low
        return BinaryVector(self.n, bits)

    def compose(self, other: "CoordinatePermutation") -> "CoordinatePermutation":
        """self after other: (self.compose(other))(j) = self(other(j))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different lengths")
        return CoordinatePermutation(tuple(self.image[j] for j in other.image))


def pi_of(w: GroupWord) -> CoordinatePermutation:
    """The coordinate permutation associated to a word (see ``_PI_PAIRS``),
    built a section at a time from the pairs of each coordinate's value."""
    image = list(range(w.sig.n))
    values = w.coords
    for first, count, offset, width, pairs in _offsets(w.sig):
        positions = range(offset, offset + count * width, width)
        for pos, value in zip(positions, values[first : first + count]):
            for p, q in pairs[value]:
                image[pos + p], image[pos + q] = image[pos + q], image[pos + p]
    return CoordinatePermutation(tuple(image))


def propelinear_product(w: GroupWord, v: BinaryVector) -> BinaryVector:
    """Left action of a codeword on Z2^n: Gray(w) + pi_w(v)."""
    return gray(w) ^ pi_of(w).apply(v)
