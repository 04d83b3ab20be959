"""Exact arithmetic in direct products Z2^k1 x Z4^k2 x Q8^k3.

A word is stored as its Gray image, packed little-endian into an int
(``GroupWord.bits``), and the product is the propelinear law
Gray(x y) = Gray(x) + pi_x(Gray(y)), written once in ``_pi``.  Coordinates
are decoded on demand: Z2 entries live in {0,1}, Z4 entries in {0..3}, and
Q8 entries are encoded as ``i + 4*j`` for the canonical form ``a^i b^j``
(i mod 4, j in {0,1}).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Tuple


class SignatureMismatch(ValueError):
    """Raised when two words from different ambient groups are combined."""


# ---------------------------------------------------------------------------
# Q8 arithmetic on the 8-value encoding a^i b^j  ->  i + 4*j
# ---------------------------------------------------------------------------

def _q8_mul(p: int, q: int) -> int:
    i1, j1 = p & 3, p >> 2
    i2, j2 = q & 3, q >> 2
    # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + (-1)^j1 i2 + 2 j1 j2) b^(j1+j2)
    i = (i1 + (i2 if j1 == 0 else -i2) + 2 * (j1 & j2)) % 4
    return i | ((j1 ^ j2) << 2)


Q8_MUL: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(_q8_mul(p, q) for q in range(8)) for p in range(8)
)
Q8_ORDER: Tuple[int, ...] = tuple(
    1 if p == 0 else (2 if Q8_MUL[p][p] == 0 else 4) for p in range(8)
)

# Per kind: (block width, Gray block of each value), packed little-endian.
# Z4: 0->(0,0) 1->(0,1) 2->(1,1) 3->(1,0)
# Q8: 1->(0,0,0,0) a->(0,1,0,1) a2->(1,1,1,1) a3->(1,0,1,0)
#     b->(0,1,1,0) ab->(1,1,0,0) a2b->(1,0,0,1) a3b->(0,0,1,1)
_GRAY_BLOCKS = {
    "z2": (1, (0b0, 0b1)),
    "z4": (2, (0b00, 0b10, 0b11, 0b01)),
    "q8": (4, (0b0000, 0b1010, 0b1111, 0b0101, 0b0110, 0b0011, 0b1001, 0b1100)),
}

Q8_TOKENS: Tuple[str, ...] = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")

_Q8_TOKEN_RE = re.compile(r"^(?:(?:a(?:\^?(\d+))?)?(?:b(?:\^?(\d+))?)?|1)$")


@dataclass(frozen=True)
class GroupSignature:
    """Shape of the ambient group: counts of Z2, Z4 and Q8 coordinates."""

    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        if self.k1 < 0 or self.k2 < 0 or self.k3 < 0:
            raise ValueError(f"coordinate counts must be >= 0, got {self}")
        if self.l < 1:
            raise ValueError("signature must have at least one coordinate")

    @property
    def n(self) -> int:
        """Binary length of the Gray image."""
        return self.k1 + 2 * self.k2 + 4 * self.k3

    @property
    def l(self) -> int:
        """Number of coordinates."""
        return self.k1 + self.k2 + self.k3

    def kind(self, index: int) -> str:
        """Return 'z2', 'z4' or 'q8' for the 0-based coordinate index."""
        if index < self.k1:
            return "z2"
        if index < self.k1 + self.k2:
            return "z4"
        if index < self.l:
            return "q8"
        raise IndexError(f"coordinate {index} out of range for {self}")

    def doubled(self) -> "GroupSignature":
        return GroupSignature(2 * self.k1, 2 * self.k2, 2 * self.k3)

    def __str__(self) -> str:
        return f"Z2^{self.k1} x Z4^{self.k2} x Q8^{self.k3}"


@lru_cache(maxsize=None)
def _tables(sig: GroupSignature):
    """The Gray encoding of ``sig``.

    Returns (per coordinate (bit offset, bit width, Gray block of each
    value, value of each block), mask of the low bit of every Z4 block,
    mask of the low bit of every Q8 block).
    """
    coords = []
    low = {"z2": 0, "z4": 0, "q8": 0}
    pos = 0
    for idx in range(sig.l):
        kind = sig.kind(idx)
        width, blocks = _GRAY_BLOCKS[kind]
        coords.append((pos, width, blocks, {b: v for v, b in enumerate(blocks)}))
        low[kind] |= 1 << pos
        pos += width
    return tuple(coords), low["z4"], low["q8"]


def _pi(sig: GroupSignature, x: int, y: int) -> int:
    """pi_x applied to the Gray image y, x and y given as Gray images.

    An order-4 Z4 entry of x swaps its bit pair; a Q8 entry of <a>, <b>
    or <ab> applies the double transposition (0 1)(2 3), (0 2)(1 3) or
    (0 3)(1 2) of its block; order <= 2 entries act as the identity.  With
    p = b0^b1 and q = b0^b2 of x's block, <a> is p & ~q, <b> is p & q and
    <ab> is q & ~p.  As (0 3)(1 2) = (0 1)(2 3)(0 2)(1 3), the swap
    (0 2)(1 3) applies where q is set (<b>, <ab>) and then (0 1)(2 3) where
    p ^ q is set (<a>, <ab>, and order-4 Z4 entries, where q is 0).
    """
    _, z4, q8 = _tables(sig)
    p = (x ^ (x >> 1)) & (z4 | q8)
    q = (x ^ (x >> 2)) & q8
    d = (y ^ (y >> 2)) & (q | (q << 1))
    y ^= d | (d << 2)
    a = p ^ q
    d = (y ^ (y >> 1)) & (a | ((a & q8) << 2))
    return y ^ d ^ (d << 1)


def _nu(sig: GroupSignature, x: int) -> int:
    """The map mod Omega, Omega = {w : w^2 = e}, on the Gray image x.

    Bit pos of a Z4 block is b0^b1 (the value mod 2); bits pos and pos+1
    of a Q8 block are p = b0^b1 and q = b0^b2, which send <a>, <b>, <ab>
    minus {1, a2} to (1,0), (1,1), (0,1) and {1, a2} to (0,0); Z2 blocks
    give nothing.  So nu(x) = 0 exactly when every Z4 entry is in {0,2} and
    every Q8 entry in {1, a2}, i.e. when x has order <= 2.  nu is XOR-linear
    in the bits, and it is a homomorphism G -> GF(2)^(k2+2k3):
    nu(Gray(x y)) = nu(Gray(x)) + nu(pi_x(Gray(y))), and pi keeps nu.  A Z4
    swap keeps b0^b1; valid Q8 blocks satisfy b0^b1 = b2^b3 and
    b0^b2 = b1^b3, so (0 1)(2 3) and (0 2)(1 3), and their product
    (0 3)(1 2), keep p and q.
    """
    _, z4, q8 = _tables(sig)
    return (x ^ (x >> 1)) & (z4 | q8) | ((x ^ (x >> 2)) & q8) << 1


def _sort_key(w: "GroupWord") -> int:
    """An int whose order is the order of ``w.coords``.

    Each block is rewritten so that its bit 0 is the most significant bit
    of the coordinate value: a Z4 block (b0, b1) becomes (b0, b0^b1), and a
    Q8 block i + 4j becomes (j, i>>1, i&1, 0) = (q, b0^(q&~p), p^q, 0) with
    p = b0^b1 and q = b0^b2.  Reversing the n-bit string then puts
    coordinate 0 first and each block's bit 0 above its others.
    """
    sig, x = w.sig, w.bits
    _, z4, q8 = _tables(sig)
    p = (x ^ (x >> 1)) & q8
    q = (x ^ (x >> 2)) & q8
    y = (x & ~(q8 * 0b1111)) ^ ((x & z4) << 1)
    y |= q | (((x & q8) ^ (q & ~p)) << 1) | ((p ^ q) << 2)
    return int(format(y, f"0{sig.n}b")[::-1], 2)


class GroupWord:
    """One element of Z2^k1 x Z4^k2 x Q8^k3, stored as its Gray image.

    ``GroupWord(sig, coords)`` validates and encodes the coordinates;
    ``bits`` packs the Gray image little-endian and ``coords`` decodes it.
    The product is Gray(x y) = Gray(x) + pi_x(Gray(y)).
    """

    __slots__ = ("sig", "bits")
    sig: GroupSignature
    bits: int

    def __init__(self, sig: GroupSignature, coords: Iterable[int]) -> None:
        values = tuple(coords)
        if len(values) != sig.l:
            raise ValueError(f"expected {sig.l} coordinates, got {len(values)}")
        bits = 0
        for idx, ((pos, _, blocks, _), v) in enumerate(zip(_tables(sig)[0], values)):
            if not 0 <= v < len(blocks):
                raise ValueError(
                    f"coordinate {idx + 1} value {v} out of range 0..{len(blocks) - 1}"
                )
            bits |= blocks[v] << pos
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _from_bits(cls, sig: GroupSignature, bits: int) -> "GroupWord":
        w = object.__new__(cls)
        object.__setattr__(w, "sig", sig)
        object.__setattr__(w, "bits", bits)
        return w

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GroupWord is immutable; cannot set {name!r}")

    @property
    def coords(self) -> Tuple[int, ...]:
        """One value per coordinate: Z2 in {0,1}, Z4 in {0..3}, Q8 ``i + 4*j``.

        The blocks are read through a 64-bit window moved along the bytes
        of the image, so decoding takes time linear in n rather than one
        shift of the whole image per coordinate.
        """
        data = self.bits.to_bytes((self.sig.n + 7) // 8, "little")
        out = []
        base = window = -64  # the first block refills the window
        for pos, width, _, values in _tables(self.sig)[0]:
            if pos + width > base + 64:
                base = pos & ~7
                window = int.from_bytes(data[base >> 3 : (base >> 3) + 8], "little")
            out.append(values[(window >> (pos - base)) & ((1 << width) - 1)])
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupWord):
            return NotImplemented
        return self.bits == other.bits and (
            self.sig is other.sig or self.sig == other.sig
        )

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"GroupWord({self.sig!r}, {self.coords!r})"

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        sig = self.sig
        if other.sig is not sig and other.sig != sig:
            raise SignatureMismatch(f"cannot multiply {sig} by {other.sig}")
        x = self.bits
        return GroupWord._from_bits(sig, x ^ _pi(sig, x, other.bits))

    def inverse(self) -> "GroupWord":
        # pi_x is an involution, so Gray(x^-1) = pi_x(Gray(x))
        return GroupWord._from_bits(self.sig, _pi(self.sig, self.bits, self.bits))

    def __pow__(self, h: int) -> "GroupWord":
        # every coordinate group has exponent 4
        h %= 4
        result = identity(self.sig)
        for _ in range(h):
            result = result * self
        return result

    def order(self) -> int:
        if not self.bits:
            return 1
        return 4 if _nu(self.sig, self.bits) else 2

    def is_identity(self) -> bool:
        return not self.bits

    def tokens(self) -> Tuple[str, ...]:
        """Canonical token per coordinate (Z2/Z4 digits, Q8 names)."""
        coords = self.coords
        q8 = self.sig.k1 + self.sig.k2  # the Q8 section starts here
        return tuple(map(str, coords[:q8])) + tuple(Q8_TOKENS[v] for v in coords[q8:])

    def __str__(self) -> str:
        return "(" + " ".join(self.tokens()) + ")"


def word(sig: GroupSignature, coords: Iterable[int]) -> GroupWord:
    """Build a validated word from raw coordinate values."""
    return GroupWord(sig, coords)


def identity(sig: GroupSignature) -> GroupWord:
    return GroupWord._from_bits(sig, 0)


def u_element(sig: GroupSignature) -> GroupWord:
    """The unique word with the order-2 entry in every coordinate.

    Its Gray image is the all-one vector.
    """
    return GroupWord._from_bits(sig, (1 << sig.n) - 1)


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """(x, y) = x^-1 y^-1 x y."""
    if x.sig != y.sig:
        raise SignatureMismatch(f"cannot combine {x.sig} with {y.sig}")
    return x.inverse() * y.inverse() * x * y


def conjugate(x: GroupWord, y: GroupWord) -> GroupWord:
    """x^y = y^-1 x y."""
    if x.sig != y.sig:
        raise SignatureMismatch(f"cannot combine {x.sig} with {y.sig}")
    return y.inverse() * x * y


def parse_q8_token(token: str) -> int:
    """Parse a Q8 token, accepting non-canonical forms like 'b3' or 'a^2b'."""
    m = _Q8_TOKEN_RE.match(token)
    if m is None or token == "":
        raise ValueError(f"invalid Q8 token {token!r}")
    if token == "1":
        return 0
    has_a = token[0] == "a"
    i = int(m.group(1)) if m.group(1) else (1 if has_a else 0)
    has_b = "b" in token
    j = int(m.group(2)) if m.group(2) else (1 if has_b else 0)
    if not has_a:
        i = 0
    # b^2 = a^2 folds surplus b's into the a-exponent
    i = (i + 2 * (j // 2)) % 4
    return i | ((j % 2) << 2)


def parse_token(sig: GroupSignature, index: int, token: str) -> int:
    """Parse one coordinate token for the 0-based coordinate index."""
    kind = sig.kind(index)
    if kind == "q8":
        return parse_q8_token(token)
    if not token.isdigit():
        raise ValueError(f"invalid {kind} token {token!r}")
    value = int(token)
    limit = 2 if kind == "z2" else 4
    if value >= limit:
        raise ValueError(f"{kind} token {token!r} out of range 0..{limit - 1}")
    return value


def word_from_tokens(sig: GroupSignature, tokens: Sequence[str]) -> GroupWord:
    if len(tokens) != sig.l:
        raise ValueError(f"expected {sig.l} tokens, got {len(tokens)}")
    return GroupWord(sig, tuple(parse_token(sig, i, t) for i, t in enumerate(tokens)))
