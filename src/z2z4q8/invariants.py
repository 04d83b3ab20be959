"""Swappers, binary span, rank, kernel, linearity and structural bounds.

Every quantity here is read from the GF(2) presentation of C
(``subgroup._present``): the Gray images of a basis b_1..b_k of C/T(C),
the rows of Gray(T(C)) and the swapper table s(b_i, b_j).  The span
group D and the binary kernel are built from the same table; only the
weight count reads all of Gray(C), as a stream.  The routes that build
all of Gray(C) as a set are in ``oracles``, run by the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import comb
from typing import Dict, List, Optional, Tuple

from .gf2 import Gf2Basis
from .gray import BinaryVector, gray, gray_inv
from .groups import GroupWord, SignatureMismatch
from .subgroup import (
    DEFAULT_MAX_ORDER,
    CodeGroup,
    CodeType,
    EnumerationLimit,
    _coset_reps,
    _coset_table,
    _form,
    _gray_stream,
    _memoized,
    _null_space,
    _span,
    code_type,
)


def swapper(x: GroupWord, y: GroupWord) -> GroupWord:
    """[x, y]: the order-<=2 defect of additivity of the Gray map.

    Gray([x,y] * x * y) = Gray(x) + Gray(y).
    """
    if x.sig != y.sig:
        raise SignatureMismatch(f"cannot combine {x.sig} with {y.sig}")
    return gray_inv(gray(x) ^ gray(y) ^ gray(x * y), x.sig)


def _swappers(C: CodeGroup) -> Tuple[Tuple[int, ...], ...]:
    """s(b_i, b_j) = Gray(b_j) + pi_(b_i)(Gray(b_j)), by (i, j), over the
    presentation basis b_1..b_k: the Gray bits Gray(b_i) + Gray(b_j) +
    Gray(b_i b_j) of the swapper [b_i, b_j], from two images and one
    ``_pi``.

    Three facts make rank and kernel linear algebra on these k^2 vectors.

    s lies in Gray(Omega).  Per block, with g the block of Gray(y): a Z2
    block has pi = 1, so s is 0; a Z4 block gives g + g or g + swap(g),
    00 or 11, the image of 0 or 2; a valid Q8 block has b0^b1 = b2^b3 and
    b0^b2 = b1^b3, so g + P(g) under each double transposition P is
    (p,p,p,p), (q,q,q,q) or (p^q,...), i.e. 0000 or 1111, the image of 1
    or a2.

    s is bilinear on C, and vanishes when either argument lies in T(C).
    Applying the product law twice, pi_(xy) = pi_x pi_y; pi fixes every
    image of Omega (blocks 00/11, 0000/1111), and pi_t = 1 for t in
    Omega.  So s(xy, z) = s(x, z) + pi_x s(y, z) = s(x, z) + s(y, z), and
    s(x, yz) = (1 + pi_x)(Gray(y) + pi_y Gray(z)) = s(x, y) + s(x, z) +
    (1 + pi_x)(1 + pi_y) Gray(z).  The cross term is zero: on a Z4 block
    it is 0 or (1 + swap)^2 = 0; on a Q8 block it is (1 + P)^2 = 0 for
    equal P, and for distinct P, Q the sum of g over the Klein group
    {1, P, Q, PQ}, which is the block's parity in every bit, even for
    every Q8 image (weights 0, 2, 4).

    A word of Omega lies in C exactly when it lies in T(C) = C n Omega,
    and Gray is injective: s(x, y) is in C exactly when its bits are in
    Gray(T).  The table is built with the presentation, from the same k^2
    applications of pi as its squares and commutators (``_present``), and
    kept on the group; ``rank``, ``_kernel_cosets`` and ``span_group``
    read it here.
    """
    return C.swappers


@_memoized
def rank(C: CodeGroup) -> int:
    """Binary rank of Gray(C): dim(Gray(T) + <Gray(b_i)> + <s(b_i, b_j)>).

    C is the union of the cosets p_v T(C) of the ordered products p_v of
    the b_i (``_coset_reps``), and Gray(p t) = Gray(p) + Gray(t), so the
    row space is Gray(T) plus the span of the Gray(p_v).  Gray(xy) =
    Gray(x) + Gray(y) + s(x, y), so by induction and bilinearity
    (``_swappers``) Gray(p_v) is the sum of the Gray(b_i) with v_i = 1 and
    of the s(b_i, b_j) between them; conversely Gray(b_i) and s(b_i, b_j)
    = Gray(b_i) + Gray(b_j) + Gray(b_i b_j) lie in the row space.  The
    pairs i < j suffice: s(b, b) = Gray(b^2) and s(b_i, b_j) + s(b_j, b_i)
    = Gray((b_i, b_j)) lie in Gray(T).  The cost is O(k^2) products; no
    codeword is read.

    Second route: the row space from one codeword per T-coset, Gray(T)
    plus the 2^k images of ``_coset_reps``.  It must have the same
    dimension and hold every Gray(b_i) and s(b_i, b_j); RuntimeError
    otherwise.  ``oracles.gray_basis``, the elimination of all of Gray(C),
    is the |C|-sized oracle, run in the tests.
    """
    swappers = [s for i, row in enumerate(_swappers(C)) for s in row[i + 1 :]]
    gens = list(C.basis) + swappers
    span = Gf2Basis(C.torsion_rows)
    for g in gens:
        span.add(g)
    rows = Gf2Basis(C.torsion_rows)
    for p in _coset_reps(C):
        rows.add(p.bits)
    if rows.rank != span.rank:
        raise RuntimeError(
            f"presentation rank {span.rank} != coset row-space rank {rows.rank}"
        )
    if not all(rows.contains(g) for g in gens):
        raise RuntimeError("a presentation generator escapes the coset row space")
    return span.rank


@_memoized
def _kernel_cosets(C: CodeGroup) -> Tuple[int, ...]:
    """The indices v of ``_coset_reps`` whose T-coset lies in K(C).

    z is in the binary kernel of Gray(C) when z + Gray(C) = Gray(C); as 0
    is a codeword, z = Gray(x) for some x in C.  Gray(x) + Gray(y) =
    Gray(xy) + s(x, y) = Gray(s(x, y) xy), as s(x, y) lies in Omega (pi is
    1 on it and fixes its image), and s(x, y) xy lies in C exactly when
    s(x, y) does, i.e. when its bits lie in Gray(T) (``_swappers``).  By
    bilinearity and s = 0 on T, x = p_v t passes for every y exactly when
    sum_i v_i s(b_i, b_j) lies in Gray(T) for every j: K(C)/T(C) is the
    null space of v -> (sum_i v_i s(b_i, b_j) mod Gray(T))_j.  The swappers
    are reduced by the echelon basis of Gray(T) that the presentation
    keeps (``C._torsion``), which leaves one residue per class, and row i
    packs them at bits j*n.

    Second route, the translation test on representatives: z is in the
    binary kernel exactly when z + Gray(p_w) lies in Gray(C) for every w,
    since the T-cosets tile Gray(C) as affine translates of Gray(T).  A
    vector lies in Gray(p_w) + Gray(T) exactly when its residue mod Gray(T)
    is the residue of Gray(p_w), and residues add, so z = Gray(p_v) passes
    when res_v + res_w is a coset residue for every w: at most 4^k set
    lookups, 2^sigma times fewer than testing each representative against
    all of Gray(C).  The passing indices must be the null space;
    RuntimeError otherwise.  ``oracles.translation_kernel`` and
    ``oracles.swapper_scan_kernel`` are the |C|-sized oracles, run in the
    tests.
    """
    n, torsion = C.sig.n, C._torsion
    form = [
        sum(torsion.reduce(s) << (j * n) for j, s in enumerate(row))
        for row in _swappers(C)
    ]
    null = _null_space(form)
    residues = [torsion.reduce(p.bits) for p in _coset_reps(C)]
    cosets = frozenset(residues)
    passing = tuple(
        v
        for v, rv in enumerate(residues)
        if cosets.issuperset(map(rv.__xor__, residues))
    )
    if passing != null:
        raise RuntimeError(
            "translation test on representatives disagrees with the swapper null space"
        )
    return null


def kernel_dim(C: CodeGroup) -> int:
    """dim K(Gray(C)) = sigma + the dimension of the swapper null space
    (``_kernel_cosets``); ``oracles.translation_kernel`` is the |C|-sized
    oracle."""
    null_dim = len(_kernel_cosets(C)).bit_length() - 1
    return len(C.torsion_rows) + null_dim


def is_linear(C: CodeGroup) -> bool:
    """Gray(C) closed under addition, i.e. rank == log2|C|."""
    return rank(C) == C.log2_order


@_memoized
def span_group(C: CodeGroup) -> CodeGroup:
    """D = <C u S(C)>, whose Gray image is the binary linear span of C.

    Swappers have order <= 2, so they are central and Gray adds on them.
    They are bilinear and vanish on T(C) (``_swappers``), so every
    swapper of C is a sum of entries s(b_i, b_j) of the table, and the
    entries i < j suffice modulo Gray(T), as s(b, b) = Gray(b^2) and
    s(b_i, b_j) + s(b_j, b_i) = Gray((b_i, b_j)) lie in Gray(T).  So D =
    C E, with E the span of the entries i < j, generated by C's
    generators and those entries independent of Gray(T) and of each
    other; its 2^(log2|C| + dim E) words are distinct, as c s = c' s'
    puts s s' in C n Omega = T.  The order is checked against
    ``DEFAULT_MAX_ORDER`` before any word is built.  ``oracles.gray_basis``
    is the |C|-sized oracle, run in the tests.
    """
    independent = Gf2Basis(C.torsion_rows)
    extra = [
        s
        for i, row in enumerate(_swappers(C))
        for s in row[i + 1 :]
        if independent.add(s)
    ]
    if C.order << len(extra) > DEFAULT_MAX_ORDER:
        raise EnumerationLimit(
            f"span group order exceeds max_order={DEFAULT_MAX_ORDER}"
        )
    words = tuple(GroupWord._from_bits(C.sig, s) for s in extra)
    return CodeGroup(C.sig, C.generators + words)


@_memoized
def binary_kernel(C: CodeGroup) -> frozenset:
    """K(Gray(C)) = {z : Gray(C) + z = Gray(C)}: the T-cosets of the
    swapper null space (``_kernel_cosets``), expanded by XOR with the span
    of Gray(T).  ``oracles.translation_kernel`` is the |C|-sized oracle,
    run in the tests.
    """
    n, reps, tbits = C.sig.n, _coset_reps(C), _span(C.torsion_rows)
    return frozenset(
        BinaryVector(n, reps[v].bits ^ t) for v in _kernel_cosets(C) for t in tbits
    )


def is_abelian(C: CodeGroup) -> bool:
    """Whether the commutator form on the basis is zero (``_form``).

    T(C) is central and C = <T(C), b_1..b_k> (``_present``), so C is
    abelian exactly when the b_i commute pairwise, i.e. when every
    Gray((b_i, b_j)) = s(b_i, b_j) + s(b_j, b_i) is 0: when the swapper
    table is symmetric.
    """
    return not any(map(any, _form(C)))


@_memoized
def _weight_counts(C: CodeGroup) -> Tuple[Tuple[int, int], ...]:
    counts = Counter(map(int.bit_count, _gray_stream(C)))
    return tuple(sorted(counts.items()))


def weight_distribution(C: CodeGroup) -> Dict[int, int]:
    """Codeword count per Gray weight; a new dict on every call."""
    return dict(_weight_counts(C))


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: int
    rhs: int
    ok: bool


@dataclass(frozen=True)
class BoundReport:
    checks: Tuple[BoundCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[BoundCheck]:
        return [c for c in self.checks if not c.ok]

    def __add__(self, other: "BoundReport") -> "BoundReport":
        return BoundReport(self.checks + other.checks)


def _le(name: str, lhs: int, rhs: int) -> BoundCheck:
    return BoundCheck(name, lhs, rhs, lhs <= rhs)


def check_bounds(C: CodeGroup) -> BoundReport:
    """Evaluate the structural inequalities valid for every code group.

    A failed check indicates an arithmetic bug, not a property of the
    input: every inequality here is a theorem.
    """
    ct = code_type(C)
    sigma, delta, rho = ct.as_tuple()
    r = rank(C)
    k = kernel_dim(C)
    m = C.log2_order
    l = C.sig.l
    linear = is_linear(C)

    checks = [
        BoundCheck(
            "nonlinear => rank >= kernel_dim + 3",
            k + 3 if not linear else r,
            r,
            linear or k + 3 <= r,
        ),
        BoundCheck(
            "nonlinear => kernel_dim <= log2|C| - 2",
            k if not linear else 0,
            m - 2 if not linear else 0,
            linear or k <= m - 2,
        ),
        _le("delta <= sigma", delta, sigma),
        _le("sigma <= kernel_dim", sigma, k),
        _le("delta + min(1, rho) <= sigma", delta + min(1, rho), sigma),
        _le("rank <= log2|C| + C(log2|C| - k, 2)", r, m + comb(m - k, 2)),
        _le(
            "rank - (sigma+delta+rho) <= min(C(delta+rho, 2), l - sigma)",
            r - ct.total,
            min(comb(delta + rho, 2), l - sigma),
        ),
    ]
    checks.extend(_pairwise_checks(C))
    return BoundReport(tuple(checks))


def _pairwise_checks(C: CodeGroup) -> List[BoundCheck]:
    """Pair facts for a, b outside T(C), checked on one word per T-coset.

    The words of ``_coset_reps`` outside T(C) are those at index v >= 1,
    and the product ab lies in T(C) exactly when a and b share an index.

    Both counts are exact, and each 4^k scan runs in C: the weight count
    is taken over the row only when the row's heaviest commutator
    exceeds the square's weight, and the commuting pairs with equal
    squares are the zeros of the row at the equal squares (``compress``),
    less the terms at v = 0 and v = u, which the count leaves out.
    """
    squares, rows = _coset_table(C)
    outside = range(1, len(squares))
    square_weight_bad = 0
    commuting_squares_bad = 0
    for u in outside:
        row = rows[u]
        sq = squares[u]
        wa = sq.bit_count()
        if max(map(int.bit_count, row)) > wa:
            square_weight_bad += sum(row[v].bit_count() > wa for v in outside)
        zeros = list(compress(row, map(sq.__eq__, squares))).count(0)
        commuting_squares_bad += zeros - (not row[u])
        commuting_squares_bad -= not row[0] and squares[0] == sq
    return [
        BoundCheck(
            "commutator weight <= square weight (pairs outside T)",
            square_weight_bad,
            0,
            square_weight_bad == 0,
        ),
        BoundCheck(
            "commuting pairs outside T with product outside T have distinct squares",
            commuting_squares_bad,
            0,
            commuting_squares_bad == 0,
        ),
    ]


@dataclass(frozen=True)
class StructureReport:
    """Full invariant summary of one code group."""

    type: CodeType
    m: Optional[int]  # length exponent when n is a power of two
    rank: int
    kernel_dim: int
    h: int
    is_linear: bool
    is_abelian: bool
    is_hadamard: bool
    weight_distribution: Dict[int, int]
    bounds: BoundReport


def structure_report(C: CodeGroup) -> StructureReport:
    from .hadamard import is_hadamard  # cycle: hadamard builds on invariants

    ct = code_type(C)
    r = rank(C)
    n = C.sig.n
    m = n.bit_length() - 1 if n & (n - 1) == 0 else None
    return StructureReport(
        type=ct,
        m=m,
        rank=r,
        kernel_dim=kernel_dim(C),
        h=r - ct.total,
        is_linear=is_linear(C),
        is_abelian=is_abelian(C),
        is_hadamard=is_hadamard(C),
        weight_distribution=weight_distribution(C),
        bounds=check_bounds(C),
    )
