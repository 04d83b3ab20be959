"""The routes that build all of Gray(C) or scan Z2^n.

Each is an independent second route to a fact that the rest of the
package reads from the GF(2) presentation (``subgroup._present``), and
each costs |C| or more: the tests assert that the two routes agree.
Nothing on the hot path imports this module; ``report`` calls the two
full kernel scans for ``--full-kernel-check``, and ``fixtures`` the
perfect-code brute force for its sphere-partition cases.
"""

from __future__ import annotations

from .gf2 import Gf2Basis
from .gray import BinaryVector
from .groups import GroupWord
from .subgroup import CodeGroup, _coset_reps, _gray_stream, _memoized, _span

_BRUTE_FORCE_LIMIT = 16


def gray_codewords(C: CodeGroup) -> frozenset:
    """Gray(C) as a set of image bits, built anew on every call."""
    return frozenset(_gray_stream(C))


@_memoized
def gray_basis(C: CodeGroup) -> Gf2Basis:
    """GF(2) row basis of all of Gray(C); callers only read it.

    The oracle for ``invariants.rank`` and ``invariants.span_group``.
    """
    return Gf2Basis(gray_codewords(C))


def _swapper_bits(x: GroupWord, y: GroupWord) -> int:
    """Gray bits of the swapper [x, y]: Gray(x) + Gray(y) + Gray(xy)."""
    return x.bits ^ y.bits ^ (x * y).bits


def translation_kernel(C: CodeGroup) -> frozenset:
    """K(Gray(C)) = {z : Gray(C) + z = Gray(C)}, by translation test over
    all of Gray(C).

    The oracle for ``invariants.kernel_dim`` and
    ``invariants.binary_kernel``.  Since the zero vector is a codeword the
    kernel is contained in the code; it is linear and contains Gray(T(C)),
    so one codeword per T-coset is tested and the passing ones are
    expanded by XOR with Gray(T).
    """
    codewords = gray_codewords(C)
    tbits = _span(C.torsion_rows)
    members = (
        r.bits ^ t
        for r in _coset_reps(C)
        if all((c ^ r.bits) in codewords for c in codewords)
        for t in tbits
    )
    return frozenset(BinaryVector(C.sig.n, z) for z in members)


def full_space_kernel(C: CodeGroup) -> frozenset:
    """K(Gray(C)) by the translation test of every vector of Z2^n, n <= 16."""
    n = C.sig.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"full-space kernel scan needs n <= {_BRUTE_FORCE_LIMIT}, got n={n}"
        )
    codewords = gray_codewords(C)
    return frozenset(
        BinaryVector(n, z)
        for z in range(1 << n)
        if all((c ^ z) in codewords for c in codewords)
    )


def swapper_scan_kernel(C: CodeGroup) -> frozenset:
    """K(C) = {x in C : the swapper [x, y] lies in C for every y in C}, by
    the |C|^2 scan of every pair of words.

    Gray is injective, so [x, y] lies in C exactly when its Gray bits lie
    in Gray(C).  The oracle for ``subgroup.group_kernel``.
    """
    codewords = gray_codewords(C)
    return frozenset(
        x
        for x in C.elements
        if all(_swapper_bits(x, y) in codewords for y in C.elements)
    )


# ---------------------------------------------------------------------------
# Perfect and extended perfect codes (covering-radius brute force)
# ---------------------------------------------------------------------------


def _is_perfect_set(codewords: frozenset, n: int) -> bool:
    """Radius-1 spheres around the codewords partition Z2^n."""
    if len(codewords) * (n + 1) != 1 << n:
        return False
    # the balls have n + 1 words each, so they partition iff they cover
    balls = {c ^ e for c in codewords for e in (0, *(1 << i for i in range(n)))}
    return len(balls) == 1 << n


def is_perfect(C: CodeGroup) -> bool:
    n = C.sig.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"perfect-code brute force needs n <= {_BRUTE_FORCE_LIMIT}")
    return _is_perfect_set(gray_codewords(C), n)


def is_extended_perfect(C: CodeGroup) -> bool:
    """Puncture the first binary coordinate and test perfection.

    All codewords must have even weight, and puncturing must keep them
    distinct.
    """
    n = C.sig.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"perfect-code brute force needs n <= {_BRUTE_FORCE_LIMIT}")
    codewords = gray_codewords(C)
    if any(b.bit_count() % 2 for b in codewords):
        return False
    punctured = frozenset(b >> 1 for b in codewords)
    return len(punctured) == len(codewords) and _is_perfect_set(punctured, n - 1)
