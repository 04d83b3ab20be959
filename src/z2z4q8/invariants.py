"""Swappers, binary span, rank, kernel, linearity and structural bounds.

Every quantity here is read from the GF(2) presentation of C
(``subgroup._present``): the Gray images of a basis b_1..b_k of C/T(C),
the rows of Gray(T(C)) and the swapper table s(b_i, b_j).  The span
group D and the binary kernel are built from the same table; the pair
checklist of ``check_bounds`` reads the 2^k squares of the coset words
(``_coset_squares``) packed as lanes of one int, with one step per basis
bit; the lanes, the span and the eliminations are ``gf2``'s.  Only the
weight count and the perfect-code brute force (``is_perfect``,
``is_extended_perfect``, n <= 16) read all of Gray(C), as a stream.  Each
fact is computed once, by one route; the second routes are in
``oracles``, and ``oracles.verify`` runs them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Tuple

from . import gf2
from .gray import BinaryVector, gray, gray_inv
from .groups import GroupWord, SignatureMismatch
from .subgroup import (
    DEFAULT_MAX_ORDER,
    CodeGroup,
    EnumerationLimit,
    _coset_images,
    _coset_squares,
    _form,
    _gray_stream,
    _kernel_cosets,
    _memoized,
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
    kept on the group; ``rank`` and ``span_group`` read it here, and
    ``subgroup._kernel_cosets`` reads it there.
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
    codeword is read.  ``oracles.verify`` runs the second routes
    (``coset_row_space``, ``gray_basis``).
    """
    swappers = (s for i, row in enumerate(_swappers(C)) for s in row[i + 1 :])
    return gf2.dimension((*C.torsion_rows, *C.basis, *swappers))


def kernel_dim(C: CodeGroup) -> int:
    """dim K(Gray(C)) = sigma + the dimension of the swapper null space
    (``_kernel_cosets``); ``oracles.verify`` compares 2^kernel_dim with the
    |C|-sized oracles."""
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
    ``DEFAULT_MAX_ORDER`` before any word is built.  ``oracles.verify``
    compares its order with ``rank`` and ``oracles.gray_basis``.
    """
    independent = gf2.Gf2Basis(C.torsion_rows)
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
    run in the tests and, by size, by ``oracles.verify``.
    """
    n, images, tbits = C.sig.n, _coset_images(C), gf2.span(C.torsion_rows)
    return frozenset(
        BinaryVector(n, images[v] ^ t) for v in _kernel_cosets(C) for t in tbits
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


def _le(name: str, lhs: int, rhs: int, exempt: bool = False) -> BoundCheck:
    """The row of lhs <= rhs; an ``exempt`` row is named so and holds."""
    if exempt:
        name += " [exempt parameter set]"
    return BoundCheck(name, lhs, rhs, exempt or lhs <= rhs)


def _eq(name: str, lhs: int, rhs: int) -> BoundCheck:
    """The row of lhs == rhs."""
    return BoundCheck(name, lhs, rhs, lhs == rhs)


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

    # a linear code reports the nonlinear rows as r <= r and 0 <= 0
    checks = [
        _le("nonlinear => rank >= kernel_dim + 3", r if linear else k + 3, r),
        _le(
            "nonlinear => kernel_dim <= log2|C| - 2",
            0 if linear else k,
            0 if linear else m - 2,
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
    """Pair facts for a, b outside T(C), checked on one word per T-coset,
    from the square list alone (``_coset_squares``), in lanes: one step per
    basis bit, not one per coset.  Both counts are exact.

    The words of ``_coset_reps`` outside T(C) are those at index v >= 1,
    and the product ab lies in T(C) exactly when a and b share an index.
    The commutator of p_u and p_v is the polar form of the squares,
    Gray((p_u, p_v)) = sq[u] + sq[v] + sq[u ^ v] (``_polar``); sq[0] = 0.

    Weights: row u adds the v >= 1 whose commutator outweighs a^2 =
    sq[u].  Commutators are bilinear, so row u is the span (``gf2.span``) of
    its k unit entries Gray((p_u, b_j)) = sq[u ^ 2^j] + sq[2^j] + sq[u],
    and the support of every entry lies inside their OR.  When that OR
    lies inside supp(a^2), no entry has a bit outside a^2, hence none
    outweighs it, and the row adds 0.  Every row's OR is read at once: with
    the squares packed, lane u holding sq[u] (``gf2.pack``), step j swaps
    the lanes in blocks of 2^j, so lane u holds sq[u ^ 2^j]
    (``gf2.swap_lanes``), and XORs in sq[2^j] copied into every lane
    (``gf2.lane_ones``): lane u then holds unit j + sq[u].  The OR of the k
    steps is spread, and (unit + sq[u]) & ~sq[u] = unit & ~sq[u], so
    spread & ~packed names exactly the rows whose entries reach outside
    their square (``gf2.lanes_set``).  Only those are spanned and counted
    exactly; the entry at v = 0 is 0, which outweighs nothing.

    Commuting pairs: u, v >= 1 with u != v, sq[u] = sq[v] and commutator
    0, i.e. sq[u ^ v] = 0.  With w = u ^ v, these are the w >= 1 with
    sq[w] = 0 and the u not in {0, w} with sq[u ^ w] = sq[u].  So the
    count is 0 unless some w >= 1 has sq[w] = 0, which a correct list
    never has, as p_w has order 4; ``count(0)`` rules that out at C speed,
    and only such w are counted exactly, where u = 0 and u = w always
    match.
    """
    squares = _coset_squares(C)
    lanes, width = len(squares), gf2.lane_width(C.sig.n)
    packed, ones = gf2.pack(squares, width), gf2.lane_ones(width, lanes)
    spread = 0
    for j, swapped in enumerate(gf2.swap_lanes(packed, width, len(C.basis))):
        spread |= swapped ^ squares[1 << j] * ones
    bits = [1 << j for j in range(len(C.basis))]
    square_weight_bad = 0
    for u in gf2.lanes_set(spread & ~packed, width):
        sq = squares[u]
        units = [squares[u ^ b] ^ squares[b] ^ sq for b in bits]
        wa = sq.bit_count()
        square_weight_bad += sum(map(wa.__lt__, map(int.bit_count, gf2.span(units))))
    commuting_squares_bad = 0
    if squares.count(0) > 1:
        indices = range(lanes)
        for w in indices[1:]:
            if not squares[w]:
                shifted = map(squares.__getitem__, map(w.__xor__, indices))
                commuting_squares_bad += sum(map(int.__eq__, squares, shifted)) - 2
    return [
        _eq("commutator weight <= square weight (pairs outside T)", square_weight_bad, 0),
        _eq(
            "commuting pairs outside T with product outside T have distinct squares",
            commuting_squares_bad,
            0,
        ),
    ]


# ---------------------------------------------------------------------------
# Perfect and extended perfect codes (covering-radius brute force)
# ---------------------------------------------------------------------------

_BRUTE_FORCE_LIMIT = 16


def _is_perfect_set(codewords: frozenset, n: int) -> bool:
    """Radius-1 spheres around the codewords partition Z2^n."""
    if len(codewords) * (n + 1) != 1 << n:
        return False
    # the balls have n + 1 words each, so they partition iff they cover
    balls = {c ^ e for c in codewords for e in (0, *(1 << i for i in range(n)))}
    return len(balls) == 1 << n


def _brute_force_codewords(C: CodeGroup) -> frozenset:
    """Gray(C) as a set, for a length the brute force takes (n <= 16)."""
    if C.sig.n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"perfect-code brute force needs n <= {_BRUTE_FORCE_LIMIT}")
    return frozenset(_gray_stream(C))


def is_perfect(C: CodeGroup) -> bool:
    return _is_perfect_set(_brute_force_codewords(C), C.sig.n)


def is_extended_perfect(C: CodeGroup) -> bool:
    """Puncture the first binary coordinate and test perfection.

    All codewords must have even weight, and puncturing must keep them
    distinct.
    """
    codewords = _brute_force_codewords(C)
    if any(b.bit_count() % 2 for b in codewords):
        return False
    punctured = frozenset(b >> 1 for b in codewords)
    return len(punctured) == len(codewords) and _is_perfect_set(punctured, C.sig.n - 1)
