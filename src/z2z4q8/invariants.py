"""Swappers, binary span, rank, kernel, linearity and structural bounds."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    _commutator_row,
    _coset_reps,
    _memoized,
    _presentation,
    _span,
    _swapper_bits,
    code_type,
    gray_basis,
    gray_codewords,
    group_kernel,
)


def swapper(x: GroupWord, y: GroupWord) -> GroupWord:
    """[x, y]: the order-<=2 defect of additivity of the Gray map.

    Gray([x,y] * x * y) = Gray(x) + Gray(y).
    """
    if x.sig != y.sig:
        raise SignatureMismatch(f"cannot combine {x.sig} with {y.sig}")
    return gray_inv(gray(x) ^ gray(y) ^ gray(x * y), x.sig)


@_memoized
def span_group(C: CodeGroup) -> CodeGroup:
    """D = <C u S(C)>, whose Gray image is the binary linear span of C.

    Swappers factor through products ([xy,z] = [x,z][y,z] and symmetric),
    so generator-pair swappers already generate <S(C)>.  They have order
    <= 2, so they are central and Gray adds on them: D is C times the span
    E of the swappers independent of Gray(T), with Gray(c s) = Gray(c) +
    Gray(s).  Its 2^(log2|C| + dim E) sums are distinct, as c s = c' s'
    puts s s' in C n Omega = T.  With E = 0, D has the words of C.
    """
    gens = C.generators
    independent = Gf2Basis(_presentation(C).torsion_rows)
    extra = []
    for x in gens:
        for y in gens:
            s = _swapper_bits(x, y)
            if independent.add(s):
                extra.append(s)
    if C.order << len(extra) > DEFAULT_MAX_ORDER:
        raise EnumerationLimit(
            f"span group order exceeds max_order={DEFAULT_MAX_ORDER}"
        )
    elems = C.elements
    if extra:
        elems = frozenset(
            GroupWord._from_bits(C.sig, c ^ s)
            for c in gray_codewords(C)
            for s in _span(extra)
        )
    # a new group even with C's words: C's cache holding C would be a cycle
    D = CodeGroup(
        C.sig, elems, gens + tuple(GroupWord._from_bits(C.sig, s) for s in extra)
    )
    # dual route: the Gray image must equal the GF(2) row space of C
    basis = gray_basis(C)
    if D.log2_order != basis.rank:
        raise RuntimeError(
            f"span group order 2^{D.log2_order} != GF(2) rank {basis.rank}"
        )
    if not all(basis.contains(w.bits) for w in D.elements):
        raise RuntimeError("span group escapes the GF(2) row space")
    return D


def rank(C: CodeGroup) -> int:
    """Binary rank of Gray(C); span-group and elimination routes must agree."""
    return span_group(C).log2_order


@_memoized
def binary_kernel(C: CodeGroup, full_space: bool = False) -> frozenset:
    """K(Gray(C)) = {z : Gray(C) + z = Gray(C)}, by translation test.

    Since the zero vector is a codeword the kernel is contained in the
    code; it is linear and contains Gray(T(C)), so one codeword per T-coset
    is tested.  ``full_space`` scans all of Z2^n instead (for n <= 16).
    The result is checked against Gray(K(C)).
    """
    codewords = gray_codewords(C)
    n = C.sig.n
    if full_space and n > 16:
        raise ValueError(f"full-space kernel scan needs n <= 16, got n={n}")

    def translates(z: int) -> bool:
        return all((c ^ z) in codewords for c in codewords)

    if full_space:
        members = frozenset(filter(translates, range(1 << n)))
    else:
        tbits = _presentation(C).torsion_bits
        members = frozenset(
            r.bits ^ t for r in _coset_reps(C) if translates(r.bits) for t in tbits
        )
    group_route = frozenset(w.bits for w in group_kernel(C).elements)
    if members != group_route:
        raise RuntimeError("translation-test kernel disagrees with the swapper kernel")
    return frozenset(BinaryVector(n, z) for z in members)


def kernel_dim(C: CodeGroup) -> int:
    size = len(binary_kernel(C))
    return size.bit_length() - 1


@_memoized
def is_linear(C: CodeGroup) -> bool:
    """Gray(C) closed under addition, i.e. rank == log2|C|."""
    return gray_basis(C).rank == C.log2_order


def is_abelian(C: CodeGroup) -> bool:
    gens = C.generators
    return all(x * y == y * x for x in gens for y in gens)


@_memoized
def _weight_counts(C: CodeGroup) -> Tuple[Tuple[int, int], ...]:
    counts = Counter(b.bit_count() for b in gray_codewords(C))
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
    """
    reps = _coset_reps(C)
    squares = [(a * a).bits for a in reps]
    outside = range(1, len(reps))
    square_weight_bad = 0
    commuting_squares_bad = 0
    for u in outside:
        row = _commutator_row(C, reps[u])
        sq = squares[u]
        wa = sq.bit_count()
        square_weight_bad += sum(row[v].bit_count() > wa for v in outside)
        commuting_squares_bad += sum(
            not row[v] and v != u and squares[v] == sq for v in outside
        )
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
