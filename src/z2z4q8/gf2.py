"""GF(2) linear algebra on int bitsets (little-endian rows), and the
package's one lane layout: values side by side in one int at byte widths
(``lane_width``), which no other module shifts or masks by."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple


class Gf2Basis:
    """Row basis in reduced echelon form, one pivot per stored row."""

    def __init__(self, rows: Iterable[int] = ()) -> None:
        self._pivots: dict[int, int] = {}  # pivot bit index -> reduced row
        for row in rows:
            self.add(row)

    def reduce(self, vec: int) -> int:
        """Residual of vec after elimination against the basis."""
        for pivot, row in self._pivots.items():
            if (vec >> pivot) & 1:
                vec ^= row
        return vec

    def add(self, vec: int) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        residual = self.reduce(vec)
        if residual == 0:
            return False
        pivot = residual.bit_length() - 1
        for p in list(self._pivots):
            if (self._pivots[p] >> pivot) & 1:
                self._pivots[p] ^= residual
        self._pivots[pivot] = residual
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    def rows(self) -> list[int]:
        """The stored rows, by increasing pivot."""
        return [self._pivots[p] for p in sorted(self._pivots)]

    @property
    def rank(self) -> int:
        return len(self._pivots)


def dimension(rows: Iterable[int]) -> int:
    """dim of the span of rows, by elimination on leading bits alone.

    Each row is reduced by the kept rows whose top bit it has, until its
    top bit is new or it is 0.  The kept rows have distinct top bits, so
    they are independent, and each row is a sum of kept rows or kept
    itself: they are a basis of the span.  Unlike ``Gf2Basis.add``, no
    kept row is reduced further.
    """
    kept: dict[int, int] = {}  # top bit -> row
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in kept:
                kept[top] = row
                break
            row ^= kept[top]
    return len(kept)


def span(rows: Sequence[int]) -> List[int]:
    """Every XOR of a subset of rows; bit i of the index picks rows[i]."""
    out = [0]
    for r in rows:
        out += [v ^ r for v in out]
    return out


def walk(rows: Sequence[int]) -> Iterator[int]:
    """Every sum of rows, one at a time, in Gray-code order: step i adds the
    row at the lowest set bit of i, so the 2^len(rows) steps visit every sum
    once."""
    x = 0
    yield x
    for i in range(1, 1 << len(rows)):
        x ^= rows[(i & -i).bit_length() - 1]
        yield x


def null_space(rows: Sequence[int]) -> Tuple[int, ...]:
    """The v whose rows sum to zero; bit i of v picks rows[i]."""
    return tuple(v for v, image in enumerate(span(rows)) if not image)


def lane_width(n: int) -> int:
    """Bits per lane for values below 2^n: n rounded up to whole bytes, so
    that ``pack`` joins bytes."""
    return -(-n // 8) * 8


def pack(values: Iterable[int], width: int) -> int:
    """The lanes of values: values[u] at bits u*width, each value below
    2^width, packed by one join of their bytes."""
    size = width // 8
    lanes = b"".join([x.to_bytes(size, "little") for x in values])
    return int.from_bytes(lanes, "little")


def unpack(packed: int, width: int, lanes: int) -> List[int]:
    """Lanes 0..lanes-1 of packed, one shift and mask each: ``pack`` undone."""
    return [packed >> u * width & (1 << width) - 1 for u in range(lanes)]


def lane_ones(width: int, lanes: int) -> int:
    """1 at bit u*width of each of the lanes, the geometric sum (2^(width *
    lanes) - 1) / (2^width - 1), built from its bytes in time linear in
    width * lanes.  x * ones holds x in every lane for x < 2^width: the
    copies do not overlap, so the product has no carry; (y >> p & ones) * x
    holds x in each lane of y with bit p set, and 0 in the others."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * lanes, "little")


def swap_masks(width: int, k: int) -> List[int]:
    """Mask j, for j < k, keeps the lanes u < 2^k with bit j of u clear.

    With it, the lanes of x reindexed by u -> u ^ 2^j are (x >> s) & mask |
    (x & mask) << s, s = 2^j lanes: a lane u with bit j clear gets lane u +
    2^j by the right shift, lane u + 2^j gets lane u by the left one, and
    no bit crosses into another lane.  Mask k - 1 is the low 2^(k-1) lanes.
    Mask j is mask j+1 XOR itself shifted up by 2^j lanes: each run of
    2^(j+1) kept lanes from a, a multiple of 2^(j+2), becomes the runs of
    2^j from a and from a + 2^(j+1), the lanes with bit j clear; the shift
    stays below 2^k lanes.
    """
    masks = [(1 << (width << (k - 1))) - 1] if k else []
    for j in range(k - 2, -1, -1):
        masks.append(masks[-1] ^ masks[-1] << (width << j))
    return masks[::-1]


def swap_lanes(packed: int, width: int, k: int) -> List[int]:
    """For j < k, the lanes of packed reindexed by u -> u ^ 2^j (``swap_masks``)."""
    shifts = [width << j for j in range(k)]
    return [packed >> s & m | (packed & m) << s for s, m in zip(shifts, swap_masks(width, k))]


def reduce_lanes(packed: int, width: int, lanes: int, basis: Gf2Basis) -> int:
    """Every lane of packed reduced as ``basis.reduce`` does, one pass per
    row t: the lanes with t's pivot bit p set get t (``lane_ones``).  Each
    row has its pivot as top bit and no other row's pivot (reduced echelon
    form), so the pass clears bit p in every lane and moves no other pivot
    bit; at the end each lane is the one vector of its class with every
    pivot bit clear."""
    ones = lane_ones(width, lanes)
    for t in basis.rows():
        packed ^= (packed >> (t.bit_length() - 1) & ones) * t
    return packed


def lanes_set(packed: int, width: int) -> List[int]:
    """The lanes of packed with a bit set, in increasing order: one step per
    such lane, from the lowest set bit, clearing its lane and those below."""
    lanes = []
    while packed:
        u = ((packed & -packed).bit_length() - 1) // width
        lanes.append(u)
        packed &= -1 << (u + 1) * width
    return lanes
