"""Exact arithmetic in direct products Z2^k1 x Z4^k2 x Q8^k3.

A word is stored as its Gray image, packed little-endian into an int
(``GroupWord.bits``), and the product is the propelinear law
Gray(x y) = Gray(x) + pi_x(Gray(y)), written once in ``_pi``.  The Gray
map works one coordinate at a time, so the image is three runs of equal
blocks: the Z2, Z4 and Q8 sections, of 1, 2 and 4 bits a coordinate.
A ``GroupSignature`` states that layout once, when it is built, and keeps
it in its slots with the two masks the product kernel reads: the
sections (kind, first coordinate, count, bit offset, block width; read
through ``_sections``) and the low bit of every Z4 and of every Q8 block
(``_z4``, ``_q8``).  The kernel (``_pi``, ``_nu``, ``_sort_key``) reads
the masks off the signature, with no lookup; every other reader of the
layout reads the sections: the codec (``_encode``, ``_decode``), the
token parser (``word_from_tokens``), the random draw (``_random_word``),
``gray`` and the pair map of the constructions.  Coordinates are decoded
on demand, one section at a time: Z2 entries live in {0,1}, Z4 entries
in {0..3}, and Q8 entries are encoded as ``i + 4*j`` for the canonical
form ``a^i b^j`` (i mod 4, j in {0,1}).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


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


def _gray_choices(**values: Sequence[int]) -> Dict[str, tuple]:
    """Per kind, the Gray blocks of the given values, in order."""
    return {kind: tuple(_GRAY_BLOCKS[kind][1][v] for v in vs) for kind, vs in values.items()}


def _random_word(choices: Dict[str, tuple], sig: "GroupSignature", rng) -> "GroupWord":
    """A word drawn into its Gray image: per coordinate, in order, the block
    ``blocks[r]`` of ``blocks = choices[kind]``, ``r`` the first draw of
    ``getrandbits(len(blocks).bit_length())`` below ``len(blocks)``: the
    rule of ``Random.choice`` (``_randbelow_with_getrandbits``).  So the word
    and ``rng.getstate()`` after are those of ``rng.choice(blocks)`` per
    coordinate, and only ``rng.getrandbits`` is read."""
    getrandbits, bits = rng.getrandbits, 0
    for kind, _, count, offset, width in _sections(sig):
        blocks = choices[kind]
        n = len(blocks)
        k = n.bit_length()
        for shift in range(offset, offset + count * width, width):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            bits |= blocks[r] << shift
    return GroupWord._from_bits(sig, bits)

Q8_TOKENS: Tuple[str, ...] = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")
# Per kind: the canonical token of each value.
_NAMES = {"z2": ("0", "1"), "z4": ("0", "1", "2", "3"), "q8": Q8_TOKENS}

_Q8_TOKEN_RE = re.compile(r"(?:(a)(?:\^?(\d+))?)?(?:(b)(?:\^?(\d+))?)?|1")

# The encoder's tables: per role and kind, the Gray block of each value or
# canonical token as text, highest bit first.
_BLOCK_TEXT = {
    kind: [format(b, f"0{w}b") for b in blocks] for kind, (w, blocks) in _GRAY_BLOCKS.items()
}
_TEXT = {
    "value": {kind: dict(enumerate(texts)) for kind, texts in _BLOCK_TEXT.items()},
    "token": {kind: dict(zip(_NAMES[kind], texts)) for kind, texts in _BLOCK_TEXT.items()},
}


def _byte_table(kind: str, names: Sequence) -> Dict[int, tuple]:
    """The decoder's table: each byte of a ``kind`` section whose blocks
    are all Gray images, mapped to the names of its blocks, lowest first;
    built from the same table for a nibble."""
    width, blocks = _GRAY_BLOCKS[kind]
    nibble = {
        sum(blocks[v] << width * i for i, v in enumerate(vs)): tuple(names[v] for v in vs)
        for vs in product(range(len(blocks)), repeat=4 // width)
    }
    return {lo | hi << 4: a + b for lo, a in nibble.items() for hi, b in nibble.items()}


_BYTE_VALUES = {kind: _byte_table(kind, range(8)) for kind in _GRAY_BLOCKS}
_BYTE_TOKENS = {kind: _byte_table(kind, _NAMES[kind]) for kind in _GRAY_BLOCKS}


@dataclass(frozen=True)
class GroupSignature:
    """Shape of the ambient group: counts of Z2, Z4 and Q8 coordinates.

    Besides the counts, the slots hold the layout of the Gray image
    (``_sections``) and the low-bit masks of the Z4 and Q8 blocks that
    the product reads (``_tables``), computed once in ``__post_init__``.
    A signature has no instance dict, and pickles as its three counts.
    """

    __slots__ = ("k1", "k2", "k3", "_layout", "_z4", "_q8")
    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        k1, k2, k3 = self.k1, self.k2, self.k3
        if k1 < 0 or k2 < 0 or k3 < 0:
            raise ValueError(f"coordinate counts must be >= 0, got {self}")
        if self.l < 1:
            raise ValueError("signature must have at least one coordinate")
        runs = ("z2", 0, k1, 0, 1), ("z4", k1, k2, k1, 2), ("q8", k1 + k2, k3, k1 + 2 * k2, 4)
        layout = tuple(run for run in runs if run[2])
        low = {kind: _low_bits(n, w) << offset for kind, _, n, offset, w in layout if w > 1}
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_z4", low.get("z4", 0))
        object.__setattr__(self, "_q8", low.get("q8", 0))

    def __reduce__(self):
        return GroupSignature, (self.k1, self.k2, self.k3)

    @property
    def n(self) -> int:
        """Binary length of the Gray image."""
        return self.k1 + 2 * self.k2 + 4 * self.k3

    @property
    def l(self) -> int:
        """Number of coordinates."""
        return self.k1 + self.k2 + self.k3

    def doubled(self) -> "GroupSignature":
        return GroupSignature(2 * self.k1, 2 * self.k2, 2 * self.k3)

    def __str__(self) -> str:
        return f"Z2^{self.k1} x Z4^{self.k2} x Q8^{self.k3}"


def _low_bits(count: int, width: int) -> int:
    """``count`` blocks of ``width`` bits, each with only its low bit set.

    The run of set blocks doubles until it covers ``count``, and the
    surplus blocks are shifted out: O(count * width) in all.
    """
    mask, done = 1, 1
    while done < count:
        mask |= mask << done * width
        done *= 2
    return mask >> (done - count) * width


def _sections(sig: GroupSignature) -> Tuple[Tuple[str, int, int, int, int], ...]:
    """The layout of the Gray image, stated once: for each of the Z2, Z4
    and Q8 sections that has coordinates, in that order, (kind, first
    coordinate, count, bit offset, block width).  Coordinate first + i is
    the block of ``width`` bits at bit offset + i * width.

    Built with the signature and kept in its slots, so reading it costs
    no hash and no cache lookup.
    """
    return sig._layout


@lru_cache(maxsize=None)
def _texts(sig: GroupSignature) -> Dict[str, tuple]:
    """The encoder's lookup, built from the sections on first use: per
    role, and per coordinate from the last, the table of its kind."""
    kinds = [kind for kind, _, n, _, _ in reversed(_sections(sig)) for _ in range(n)]
    return {role: tuple(map(tables.get, kinds)) for role, tables in _TEXT.items()}


def _tables(sig: GroupSignature) -> Tuple[int, int]:
    """Masks of the low bit of every Z4 block and of every Q8 block, as
    the product kernel reads them (``sig._z4``, ``sig._q8``)."""
    return sig._z4, sig._q8


def _encode(sig: GroupSignature, items: Sequence, role: str, value_of: Callable) -> int:
    """The Gray image of one item per coordinate, read by one ``int(text, 2)``.

    ``role`` is "value" or "token", and ``_TEXT[role][kind]`` maps an item
    to its block as text; the image is the blocks, last coordinate first
    (``_texts``).  An item the table lacks goes to
    ``value_of(kind, index, item)``, coordinates in order, which returns
    the item's value or raises.
    """
    try:
        text = "".join(map(dict.__getitem__, _texts(sig)[role], reversed(items)))
    except KeyError:
        blocks = [
            _TEXT[role][kind].get(item) or _TEXT["value"][kind][value_of(kind, index, item)]
            for kind, first, count, _, _ in _sections(sig)
            for index, item in enumerate(items[first : first + count], first)
        ]
        text = "".join(reversed(blocks))
    return int(text, 2)


def _decode(sig: GroupSignature, bits: int, names: dict = _BYTE_VALUES) -> list:
    """The name of every coordinate of the image ``bits``, a section at a
    time: each section is shifted to bit 0 and read a byte at a time
    (``_BYTE_VALUES`` or ``_BYTE_TOKENS``), and the blocks past its end
    are dropped.

    Every Z2 and Z4 block is a Gray image; a Q8 block is one exactly when
    its weight is even.  A Q8 block of odd weight raises ValueError naming
    the first such coordinate.
    """
    out: List = []
    for kind, first, count, offset, width in _sections(sig):
        size, table = width * count, names[kind]
        sec = (bits >> offset) & ((1 << size) - 1)
        try:
            for byte in sec.to_bytes(size + 7 >> 3, "little"):
                out += table[byte]
        except KeyError:
            odd = (sec ^ sec >> 1 ^ sec >> 2 ^ sec >> 3) & _low_bits(count, 4)
            pos = (odd & -odd).bit_length() - 1
            message = f"block {sec >> pos & 15:04b} is not a Gray image of a Q8 element"
            raise ValueError(f"coordinate {first + pos // 4 + 1}: {message}") from None
        del out[first + count :]
    return out


def _out_of_range(kind: str, index: int, value) -> int:
    """Refuse a coordinate value that its kind does not have."""
    limit = len(_NAMES[kind])
    raise ValueError(f"coordinate {index + 1} value {value} out of range 0..{limit - 1}")


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
    z4, q8 = sig._z4, sig._q8
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
    z4, q8 = sig._z4, sig._q8
    return (x ^ (x >> 1)) & (z4 | q8) | ((x ^ (x >> 2)) & q8) << 1


# Each byte with its 8 bits in reverse order, for ``bytes.translate``.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sort_key(sig: GroupSignature, x: int) -> int:
    """An int whose order is the order of the coordinate tuples, for the
    word of ``sig`` whose Gray image is x.

    Each block is rewritten so that its bit 0 is the most significant bit
    of the coordinate value: a Z4 block (b0, b1) becomes (b0, b0^b1), and a
    Q8 block i + 4j becomes (j, i>>1, i&1, 0) = (q, b0^(q&~p), p^q, 0) with
    p = b0^b1 and q = b0^b2.  Reversing the n-bit string then puts
    coordinate 0 first and each block's bit 0 above its others.  The
    reversal reverses the bits of each little-endian byte by table
    (``_REVERSED_BYTES``) and reads the bytes big-endian: bit i of a
    size-byte int goes to 8*size - 1 - i, so the shift by 8*size - n puts
    it at n - 1 - i.  ``oracles.string_sort_key`` reverses the binary
    string instead.
    """
    z4, q8, n = sig._z4, sig._q8, sig.n
    p = (x ^ (x >> 1)) & q8
    q = (x ^ (x >> 2)) & q8
    y = (x & ~(q8 * 0b1111)) ^ ((x & z4) << 1)
    y |= q | (((x & q8) ^ (q & ~p)) << 1) | ((p ^ q) << 2)
    size = (n + 7) >> 3
    reversed_bytes = y.to_bytes(size, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(reversed_bytes, "big") >> (8 * size - n)


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
        _set_sig(self, sig)
        _set_bits(self, _encode(sig, values, "value", _out_of_range))

    @classmethod
    def _from_bits(cls, sig: GroupSignature, bits: int) -> "GroupWord":
        w = object.__new__(cls)
        _set_sig(w, sig)
        _set_bits(w, bits)
        return w

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GroupWord is immutable; cannot set {name!r}")

    def __reduce__(self):
        return GroupWord._from_bits, (self.sig, self.bits)

    @property
    def coords(self) -> Tuple[int, ...]:
        """One value per coordinate: Z2 in {0,1}, Z4 in {0..3}, Q8 ``i + 4*j``."""
        return tuple(_decode(self.sig, self.bits))

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
        return tuple(_decode(self.sig, self.bits, _BYTE_TOKENS))

    def __str__(self) -> str:
        return "(" + " ".join(self.tokens()) + ")"


# The slots' own setters: the class's __setattr__ refuses every write.
_set_sig, _set_bits = GroupWord.sig.__set__, GroupWord.bits.__set__


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


def _commutator_bits(sig: GroupSignature, x: int, y: int) -> int:
    """Gray((x, y)) for words given by their Gray images x and y, in closed
    form; as (x, y) is central, it is also Gray(xy) + Gray(yx).

    Z2 and Z4 are abelian, so their blocks are 0.  Two Q8 entries commute
    exactly when one is in {1, a2} or both lie in one of <a>, <b>, <ab>;
    otherwise their commutator is a2, of block 1111.  The classes in
    Q8/<a2> are p = b0^b1, q = b0^b2 at each block's low bit (``_nu``):
    (0,0) on {1, a2}, one nonzero class per cyclic subgroup.  So the block
    is 1111 exactly when both classes are nonzero and different, and those
    low bits times 0b1111 fill it.
    """
    return _commutator_blocks(sig._q8, x, y)


def _commutator_blocks(q8: int, x: int, y: int) -> int:
    """The closed form of ``_commutator_bits``, for Q8 blocks whose low bits
    are the set bits of q8.  It reads each block through shifts by 1 and 2
    that stay inside the block, and spreads its result over the block by a
    product with 0b1111 that carries nothing, as the low bits are at least
    4 apart.  So it works block by block on any layout of blocks, such as
    words in the lanes of ``gf2.pack`` (``subgroup._form_row``)."""
    px, qx = (x ^ (x >> 1)) & q8, (x ^ (x >> 2)) & q8
    py, qy = (y ^ (y >> 1)) & q8, (y ^ (y >> 2)) & q8
    return ((px | qx) & (py | qy) & ((px ^ py) | (qx ^ qy))) * 0b1111


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """(x, y) = x^-1 y^-1 x y, read from the images (``_commutator_bits``)."""
    if x.sig != y.sig:
        raise SignatureMismatch(f"cannot combine {x.sig} with {y.sig}")
    return GroupWord._from_bits(x.sig, _commutator_bits(x.sig, x.bits, y.bits))


def conjugate(x: GroupWord, y: GroupWord) -> GroupWord:
    """x^y = y^-1 x y."""
    if x.sig != y.sig:
        raise SignatureMismatch(f"cannot combine {x.sig} with {y.sig}")
    return y.inverse() * x * y


def parse_q8_token(token: str) -> int:
    """Parse a Q8 token ``a^i b^j``, accepting non-canonical forms like 'b3'
    or 'a^2b'."""
    m = _Q8_TOKEN_RE.fullmatch(token)
    if m is None or token == "":
        raise ValueError(f"invalid Q8 token {token!r}")
    a, i, b, j = m.groups()
    i, j = int(i or 1) if a else 0, int(j or 1) if b else 0
    # b^2 = a^2 folds surplus b's into the a-exponent
    return (i + 2 * (j // 2)) % 4 | (j % 2) << 2


class TokenError(ValueError):
    """A token that names no value of its coordinate, at 0-based ``index``."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def _token_value(kind: str, index: int, token: str) -> int:
    """The value of a token outside the canonical spellings: Q8 names by
    ``parse_q8_token``, Z2/Z4 digits by value; TokenError if there is none."""
    try:
        if kind == "q8":
            return parse_q8_token(token)
        if not token.isdigit():
            raise ValueError(f"invalid {kind} token {token!r}")
        limit = len(_NAMES[kind])
        if int(token) >= limit:
            raise ValueError(f"{kind} token {token!r} out of range 0..{limit - 1}")
        return int(token)
    except ValueError as exc:
        raise TokenError(str(exc), index) from exc


def word_from_tokens(sig: GroupSignature, tokens: Sequence[str]) -> GroupWord:
    """The word with one token per coordinate: the one token parser.

    Canonical tokens are read straight into the image (``_encode``); if
    any token is not canonical, the tokens are read a section at a time,
    the others through ``_token_value``, and one that names no value
    raises ``TokenError`` with its index.
    """
    if len(tokens) != sig.l:
        raise ValueError(f"expected {sig.l} tokens, got {len(tokens)}")
    return GroupWord._from_bits(sig, _encode(sig, tokens, "token", _token_value))
