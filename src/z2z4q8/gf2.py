"""GF(2) linear algebra on int bitsets (little-endian rows)."""

from __future__ import annotations

from typing import Iterable


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
