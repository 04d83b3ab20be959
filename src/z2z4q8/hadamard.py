"""Hadamard detection, normalized generators, shape classification, bounds.

A binary Hadamard code of length n has 2n codewords and minimum distance
n/2.  For code groups whose Gray image is Hadamard, the generating set can
be normalized (at most two z-generators square to the all-order-2 word u,
and such a pair has commutator u), and the group falls into one of five
structural shapes, decided here by a deterministic sequence of generator
substitutions with every claimed relation machine-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, floor
from typing import List, Optional, Sequence, Tuple

from .gf2 import Gf2Basis
from .groups import GroupWord, _sort_key, commutator, identity, u_element
from .invariants import (
    BoundCheck,
    BoundReport,
    kernel_dim,
    rank,
    weight_distribution,
)
from .subgroup import (
    CodeGroup,
    StandardGenSet,
    _coset_minima,
    _coset_table,
    _memoized,
    _radical,
    _span,
    code_type,
    standard_generators,
    verify_standard,
)


class ClassificationError(RuntimeError):
    """A theorem-backed step of the shape analysis failed: arithmetic bug."""


@_memoized
def is_hadamard(C: CodeGroup) -> bool:
    """2n codewords on length n, weights exactly {0 once, n/2, n once}."""
    n = C.sig.n
    if n < 2 or n % 2 or C.order != 2 * n:
        return False
    return weight_distribution(C) == {0: 1, n // 2: 2 * n - 2, n: 1}


@dataclass(frozen=True)
class NormalizedGenSet:
    """Standard generators with the z's arranged in equal-square pairs.

    epsilon counts the leading consecutive pairs z_(2t-1), z_(2t) sharing a
    square; at most two z's square to u, and such a pair has commutator u.
    """

    base: StandardGenSet
    epsilon: int

    @property
    def xs(self) -> Tuple[GroupWord, ...]:
        return self.base.xs

    @property
    def ys(self) -> Tuple[GroupWord, ...]:
        return self.base.ys

    @property
    def zs(self) -> Tuple[GroupWord, ...]:
        return self.base.zs


def _pair_reorder(
    C: CodeGroup, zs: Sequence[GroupWord]
) -> Tuple[List[GroupWord], int]:
    """Sort z's so equal-square pairs come first; return (zs, epsilon)."""
    u = u_element(C.sig)
    by_square: dict = {}
    for pos, z in enumerate(zs):
        by_square.setdefault(z * z, []).append(pos)
    pairs: List[List[int]] = []
    singles: List[int] = []
    for square, positions in by_square.items():
        if len(positions) == 1:
            singles.append(positions[0])
        elif len(positions) == 2:
            pairs.append(positions)
            p, q = positions
            if commutator(zs[p], zs[q]) != square:
                raise ClassificationError(
                    f"equal-square generators {zs[p]} and {zs[q]} must have "
                    f"commutator equal to their square"
                )
        else:
            raise ClassificationError(
                f"{len(positions)} generators share the square {square}; "
                f"at most two may"
            )
    u_count = len(by_square.get(u, ()))
    if u_count > 2:
        raise ClassificationError("more than two generators square to u")
    order = [p for pair in sorted(pairs) for p in pair] + sorted(singles)
    return [zs[p] for p in order], len(pairs)


def normalize_generators(
    C: CodeGroup, base: Optional[StandardGenSet] = None
) -> NormalizedGenSet:
    """Normalized generating set for a Hadamard code group.

    Applies the square-u substitutions z_i -> z1*z_i / z2*z_i / z1*z2*z_i,
    then reorders equal-square pairs to the front.  The result is verified
    to be a standard generating set again.
    """
    if not is_hadamard(C):
        raise ValueError("not a Hadamard code")
    gens = base if base is not None else standard_generators(C)
    u = u_element(C.sig)
    front = [z for z in gens.zs if z * z == u]
    rest = [z for z in gens.zs if z * z != u]
    if len(front) >= 2:
        for i in range(1, len(front)):
            if commutator(front[0], front[i]) == u:
                front[1], front[i] = front[i], front[1]
                break
        z1, z2 = front[0], front[1]
        pair_commutes_to_u = commutator(z1, z2) == u
        replaced = [z1]
        for i, z in enumerate(front[1:], start=2):
            if i == 2 and pair_commutes_to_u:
                replaced.append(z)
            elif commutator(z1, z) != u:
                replaced.append(z1 * z)
            elif commutator(z2, z) != u:
                replaced.append(z2 * z)
            else:
                replaced.append(z1 * z2 * z)
        front = replaced
    zs = front + rest
    for z in zs:
        if (z * z).is_identity():
            raise ClassificationError("normalization produced an order-2 generator")
    zs, eps = _pair_reorder(C, zs)
    out = StandardGenSet(gens.xs, gens.ys, tuple(zs))
    verify_standard(C, out)
    return NormalizedGenSet(out, eps)


@dataclass(frozen=True)
class Shape:
    """One of the five structural shapes of a Hadamard code group."""

    tag: int
    witness: NormalizedGenSet
    structure: str
    trail: Tuple[str, ...]


def _pow_str(name: str, e: int) -> Optional[str]:
    if e < 0:
        raise ClassificationError(f"negative exponent for {name}^{e}")
    if e == 0:
        return None
    return name if e == 1 else f"{name}^{e}"


def _structure_string(tag: int, sigma: int, delta: int, rho: int) -> str:
    if tag == 1:
        parts = [_pow_str("Z2", sigma - delta), _pow_str("Z4", delta)]
    elif tag == 2:
        inner = _pow_str("Z4", rho - 2)
        core = f"({inner} : Q8)" if inner else "Q8"
        parts = [_pow_str("Z2", sigma - rho + 1), core]
    elif tag == 3:
        inner = _pow_str("Z4", rho - 1)
        parts = [_pow_str("Z2", sigma - rho), f"({inner} : Z4)"]
    elif tag == 4:
        parts = [_pow_str("Z2", sigma - delta - 1), _pow_str("Z4", delta), "Q8"]
    elif tag == 5:
        parts = [_pow_str("Z2", sigma - 2), "(Q8 : Q8)"]
    else:
        raise ValueError(f"unknown shape tag {tag}")
    kept = [p for p in parts if p]
    return " x ".join(kept) if kept else "1"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ClassificationError(message)


def _verify_shape(C: CodeGroup, ngs: NormalizedGenSet, tag: int) -> None:
    """Machine-check the defining relations of the claimed shape."""
    u = u_element(C.sig)
    ct = code_type(C)
    zs = ngs.zs
    sq = [z * z for z in zs]
    if tag == 1:
        _require(ct.rho == 0, "shape 1 needs rho = 0")
        return
    if tag == 2:
        # u outside <z3^2..z_rho^2>, which the structure string needs, follows:
        # z1^2 = (z1,z2) = u forces a pure-Q8 signature with z1_i, z2_i
        # non-commuting in every coordinate; (z1,z_j) = (z2,z_j) = z_j^2 puts
        # each tail coordinate in {+-1, +-z1_i z2_i}; so a tail product P with
        # P^2 = u has z1 z2 P^-1 in T(C) <= Z(C), which verify_standard's
        # independence of the z's modulo Z(C) rules out.
        _require(ct.delta == 0 and ct.rho >= 2, "shape 2 needs delta=0, rho>=2")
        _require(sq[0] == u and sq[1] == u, "shape 2 needs z1^2 = z2^2 = u")
        _require(commutator(zs[0], zs[1]) == u, "shape 2 needs (z1,z2) = u")
        for j in range(2, ct.rho):
            _require(sq[j] != u, "shape 2 allows only z1, z2 to square to u")
            _require(
                commutator(zs[0], zs[j]) == sq[j]
                and commutator(zs[1], zs[j]) == sq[j],
                f"shape 2 needs (z1,z_{j + 1}) = (z2,z_{j + 1}) = z_{j + 1}^2",
            )
            for k in range(j + 1, ct.rho):
                _require(
                    commutator(zs[j], zs[k]).is_identity(),
                    "shape 2 needs the tail generators to commute",
                )
        return
    if tag == 3:
        _require(ct.delta == 0, "shape 3 needs delta = 0")
        _require(sq[0] == u, "shape 3 needs z1^2 = u")
        tail_squares = Gf2Basis(s.bits for s in sq[1:])
        _require(
            tail_squares.rank == ct.rho - 1,
            "shape 3 needs independent tail squares",
        )
        _require(
            not tail_squares.contains(u.bits),
            "shape 3 needs u outside <z2^2..z_rho^2>",
        )
        for i in range(1, ct.rho):
            _require(
                commutator(zs[0], zs[i]) == sq[i],
                f"shape 3 needs (z1,z_{i + 1}) = z_{i + 1}^2",
            )
            for j in range(i + 1, ct.rho):
                _require(
                    commutator(zs[i], zs[j]).is_identity(),
                    "shape 3 needs the tail generators to commute",
                )
        return
    if tag == 4:
        _require(ct.rho == 2 and ct.delta <= 1, "shape 4 needs rho=2, delta<=1")
        _require(
            sq[0] == sq[1] and sq[0] != u and commutator(zs[0], zs[1]) == sq[0],
            "shape 4 needs z1^2 = z2^2 = (z1,z2) != u",
        )
        return
    if tag == 5:
        _require(ct.delta == 0 and ct.rho == 4, "shape 5 needs delta=0, rho=4")
        _require(
            sq[0] == u and sq[1] == u and commutator(zs[0], zs[1]) == u,
            "shape 5 needs z1^2 = z2^2 = (z1,z2) = u",
        )
        _require(
            sq[2] == sq[3] and sq[2] != u and commutator(zs[2], zs[3]) == sq[2],
            "shape 5 needs z3^2 = z4^2 = (z3,z4) != u",
        )
        for i in (0, 1):
            for j in (2, 3):
                c = commutator(zs[i], zs[j])
                _require(
                    c.is_identity() or c == sq[j],
                    "shape 5 needs (z_i,z_j) in <z_j^2> for i<=2<j",
                )
        return
    raise ValueError(f"unknown shape tag {tag}")


def classify_shape(C: CodeGroup, base: Optional[StandardGenSet] = None) -> Shape:
    """Decide which of the five shapes the Hadamard code group satisfies.

    Mirrors the constructive case analysis: substitutions are applied in
    generator-index order, first applicable wins, and every step is
    recorded in the trail.  Termination within a few passes is guaranteed;
    failure to classify indicates an arithmetic bug.  ``base`` starts the
    analysis from a caller-supplied standard generating set.
    """
    ngs = normalize_generators(C, base)
    ct = code_type(C)
    u = u_element(C.sig)
    trail: List[str] = []

    def finish(tag: int, zs: Sequence[GroupWord]) -> Shape:
        zs2, eps = _pair_reorder(C, list(zs))
        out = StandardGenSet(ngs.xs, ngs.ys, tuple(zs2))
        verify_standard(C, out)
        witness = NormalizedGenSet(out, eps)
        _verify_shape(C, witness, tag)
        return Shape(
            tag,
            witness,
            _structure_string(tag, ct.sigma, ct.delta, ct.rho),
            tuple(trail),
        )

    if ct.rho == 0:
        return finish(1, ngs.zs)

    zs = list(ngs.zs)
    for _ in range(8):
        zs, eps = _pair_reorder(C, zs)
        sq = [z * z for z in zs]
        rho = len(zs)

        if eps == 2:
            _require(ct.delta == 0 and rho == 4, "eps=2 forces delta=0 and rho=4")
            if sq[0] == u:
                pass
            elif sq[2] == u:
                zs = [zs[2], zs[3], zs[0], zs[1]]
                trail.append("moved the square-u pair to the front")
            else:
                zs = [zs[0] * zs[2], zs[1] * zs[3], zs[2], zs[3]]
                trail.append("merged the two pairs into a square-u pair")
            return finish(5, zs)

        if eps == 1 and sq[0] == u:
            _require(ct.delta == 0, "a square-u pair forces delta = 0")
            if rho == 2:
                return finish(2, zs)
            c1 = commutator(zs[0], zs[-1])
            c2 = commutator(zs[1], zs[-1])
            _require(
                not (c1.is_identity() and c2.is_identity()),
                "the last generator cannot commute with the whole square-u pair",
            )
            if c1.is_identity():
                zs[0] = zs[0] * zs[1]
                trail.append("replaced z1 by z1*z2 to reach (z1,z_rho) = z_rho^2")
            elif c2.is_identity():
                zs[1] = zs[0] * zs[1]
                trail.append("replaced z2 by z1*z2 to reach (z2,z_rho) = z_rho^2")
            _require(
                commutator(zs[0], zs[-1]) == sq[-1]
                and commutator(zs[1], zs[-1]) == sq[-1],
                "pair-versus-last commutators must equal the last square",
            )
            tail = Gf2Basis((s * s).bits for s in zs[2:])
            if not tail.contains(u.bits):
                return finish(2, zs)
            special = None
            for i in range(2, rho - 1):
                ci1 = commutator(zs[0], zs[i]).is_identity()
                ci2 = commutator(zs[1], zs[i]).is_identity()
                if ci1 != ci2:
                    special = i
                    swap_pair = ci2
                    break
            _require(
                special is not None,
                "u in the tail-square span requires a one-sided commuting tail "
                "generator",
            )
            if swap_pair:
                zs[0], zs[1] = zs[1], zs[0]
                trail.append("swapped z1 and z2")
            if special != 2:
                zs[2], zs[special] = zs[special], zs[2]
                trail.append("moved the one-sided generator to position 3")
            _require(rho == 4, "this configuration forces rho = 4")
            zs = [zs[0] * zs[1], zs[1], zs[0] * zs[2], zs[3]]
            trail.append("rebuilt generators to exhibit two equal-square pairs")
            continue

        if eps == 1:  # pair square differs from u
            if rho == 2:
                _require(ct.delta <= 1, "rho=2 with a non-u pair forces delta<=1")
                return finish(4, zs)
            _require(
                rho >= 4,
                "rho=3 with a non-u equal-square pair cannot occur in a "
                "Hadamard code group",
            )
            j = next((i for i in range(2, rho) if sq[i] == u), None)
            _require(j is not None, "some tail generator must square to u")
            if j != 2:
                zs[2], zs[j] = zs[j], zs[2]
                trail.append("moved the square-u generator to position 3")
            if commutator(zs[0], zs[2]).is_identity():
                zs[0], zs[1] = zs[1], zs[0]
                trail.append("swapped z1 and z2")
            if commutator(zs[1], zs[2]).is_identity():
                zs[1] = zs[0] * zs[1]
                trail.append("replaced z2 by z1*z2")
            _require(
                commutator(zs[0], zs[2]) == zs[0] * zs[0]
                and commutator(zs[1], zs[2]) == zs[1] * zs[1],
                "pair members must have (z_i,z3) = z_i^2",
            )
            candidate = None
            for i in range(3, rho):
                trial = zs[0] * zs[i]
                if trial * trial == u and commutator(zs[2], trial) == u:
                    candidate = (i, trial)
                    break
            _require(
                candidate is not None,
                "no tail generator completes a second square-u pair",
            )
            i, trial = candidate
            zs[i] = trial
            if i != 3:
                zs[3], zs[i] = zs[i], zs[3]
            trail.append("replaced a tail generator by z1*z_i to pair with z3")
            continue

        # eps == 0
        j = next((i for i in range(rho) if sq[i] == u), None)
        _require(
            j is not None,
            "a non-abelian Hadamard code group needs a square-u generator "
            "when all squares are distinct",
        )
        if j != 0:
            zs[0], zs[j] = zs[j], zs[0]
            trail.append("moved the square-u generator to the front")
            sq = [z * z for z in zs]
        for i in range(1, rho):
            _require(
                commutator(zs[0], zs[i]) == sq[i],
                "the square-u generator must realize (z1,z_i) = z_i^2",
            )
            for k in range(i + 1, rho):
                _require(
                    commutator(zs[i], zs[k]).is_identity(),
                    "tail generators with distinct squares must commute",
                )
        subset = _subset_with_square_product(zs[1:], u)
        if subset is not None:
            positions = [p + 1 for p in subset]
            merged = identity(C.sig)
            for p in positions:
                merged = merged * zs[p]
            zs[positions[0]] = merged
            trail.append("merged tail generators into a second square-u generator")
            continue
        if ct.delta > 0:
            y = _order4_central_with_square(C, u * sq[1])
            _require(
                y is not None,
                "delta > 0 here requires a central order-4 element matching "
                "u * z2^2",
            )
            zs[0] = y * zs[0]
            trail.append("replaced z1 by y*z1 to pair its square with z2^2")
            continue
        return finish(3, zs)

    raise ClassificationError("shape analysis did not terminate")


def _subset_with_square_product(
    zs: Sequence[GroupWord], target: GroupWord
) -> Optional[Tuple[int, ...]]:
    """Smallest-lexicographic subset of z's whose squares multiply to target.

    Squares have order <= 2, so Gray adds on them: bit i of the index into
    the span of their images picks z_i, and the first match is the least
    mask.
    """
    products = _span([(z * z).bits for z in zs])
    goal = target.bits
    mask = next((m for m in range(1, len(products)) if products[m] == goal), None)
    return None if mask is None else tuple(i for i in range(len(zs)) if mask >> i & 1)


def _order4_central_with_square(
    C: CodeGroup, target: GroupWord
) -> Optional[GroupWord]:
    """The least order-4 word of Z(C) with square ``target``, or None.

    Squares are constant on T-cosets, and the order-4 words of Z(C) are
    those of its cosets other than T itself, so this is the least coset
    minimum over the radical's nonzero indices with that square.
    """
    squares, minima = _coset_table(C)[0], _coset_minima(C)
    central = [minima[v] for v in _radical(C) if v and squares[v] == target.bits]
    return min(central, key=_sort_key, default=None)


# ---------------------------------------------------------------------------
# Hadamard-specific bounds
# ---------------------------------------------------------------------------

_EXCEPTION_PARAMS = {(5, 2, 0, 4)}  # (m, sigma, delta, rho) allowed outlier


def hadamard_bounds(C: CodeGroup, shape: Optional[Shape] = None) -> BoundReport:
    """Every Hadamard-specific inequality, with the known exceptional
    parameter set (m=5, sigma=2, delta=0, rho=4) exempted where it applies.
    """
    n = C.sig.n
    if n & (n - 1):
        raise ValueError(f"binary length {n} is not a power of two")
    if not is_hadamard(C):
        raise ValueError("not a Hadamard code")
    m = n.bit_length() - 1
    ct = code_type(C)
    sigma, delta, rho = ct.as_tuple()
    r = rank(C)
    k = kernel_dim(C)
    if shape is None:
        shape = classify_shape(C)
    exempt = (m, sigma, delta, rho) in _EXCEPTION_PARAMS

    checks: List[BoundCheck] = [
        BoundCheck("m + 1 = sigma + delta + rho", m + 1, ct.total, m + 1 == ct.total),
        BoundCheck(
            "ceil(m/2) <= sigma" + (" [exempt parameter set]" if exempt else ""),
            ceil(m / 2),
            sigma,
            exempt or ceil(m / 2) <= sigma,
        ),
        BoundCheck("sigma <= kernel_dim", sigma, k, sigma <= k),
        BoundCheck("kernel_dim <= m + 1", k, m + 1, k <= m + 1),
        BoundCheck("m + 1 <= rank", m + 1, r, m + 1 <= r),
        BoundCheck(
            "rank <= m + 1 + C(delta+rho, 2)",
            r,
            m + 1 + comb(delta + rho, 2),
            r <= m + 1 + comb(delta + rho, 2),
        ),
        BoundCheck(
            "delta + rho <= floor((m+2)/2)"
            + (" [exempt parameter set]" if exempt else ""),
            delta + rho,
            floor((m + 2) / 2),
            exempt or delta + rho <= floor((m + 2) / 2),
        ),
    ]

    global_cap = (
        m + 1 + comb((m + 1) // 2, 2) if m % 2 else m + 2 + comb(m // 2, 2)
    )
    checks.append(BoundCheck("rank <= parity cap", r, global_cap, r <= global_cap))

    h = r - (m + 1)
    shape_cap = {
        1: comb((m - 1) // 2, 2) if m % 2 else comb(m // 2, 2),
        2: 1 + comb((m - 1) // 2, 2) if m % 2 else 1 + comb(m // 2, 2),
        3: comb((m + 1) // 2, 2) if m % 2 else comb(m // 2, 2),
        4: 1,
        5: 3,
    }[shape.tag]
    checks.append(
        BoundCheck(
            f"rank - (m+1) <= shape-{shape.tag} cap", h, shape_cap, h <= shape_cap
        )
    )
    if shape.tag == 4:
        checks.append(
            BoundCheck(
                "shape 4 chain: rank <= sigma+delta+rho+1 <= sigma+4",
                r,
                ct.total + 1,
                r <= ct.total + 1 and ct.total + 1 <= sigma + 4,
            )
        )

    checks.extend(_normalized_set_checks(C, shape.witness))
    checks.extend(_hadamard_pair_triple_checks(C))
    return BoundReport(tuple(checks))


def _normalized_set_checks(C: CodeGroup, ngs: NormalizedGenSet) -> List[BoundCheck]:
    u = u_element(C.sig)
    ct = code_type(C)
    eps = ngs.epsilon
    zs = ngs.zs
    checks = [BoundCheck("epsilon <= 2", eps, 2, eps <= 2)]
    if eps == 2:
        checks.append(
            BoundCheck(
                "epsilon=2 forces (delta, rho) = (0, 4)",
                int(ct.delta == 0 and ct.rho == 4),
                1,
                ct.delta == 0 and ct.rho == 4,
            )
        )
        sq = [z * z for z in zs]
        if len(zs) == 4 and sq[0] != u and sq[2] != u:
            # neither pair squares to u: the pairs must commute crosswise
            # and their squares must multiply to u
            cross_ok = all(
                commutator(zs[i], zs[j]).is_identity() and sq[i] * sq[j] == u
                for i in (0, 1)
                for j in (2, 3)
            )
            checks.append(
                BoundCheck(
                    "epsilon=2 with non-u pairs: cross pairs commute and "
                    "squares multiply to u",
                    int(cross_ok),
                    1,
                    cross_ok,
                )
            )
    if any((zs[i] * zs[i]) == u for i in range(min(2 * eps, len(zs)))):
        checks.append(
            BoundCheck(
                "square-u inside the paired block forces delta = 0",
                ct.delta,
                0,
                ct.delta == 0,
            )
        )
    lead = [zs[2 * t] for t in range(eps)]
    v_set = list(ngs.ys) + lead + list(zs[2 * eps:])
    w_basis = Gf2Basis((w * w).bits for w in v_set)
    u_set = [w for w in v_set if w * w != u]
    lower = ct.delta + ct.rho - eps - 1
    checks.append(
        BoundCheck(
            "log2|<W>| >= delta + rho - epsilon - 1",
            lower,
            w_basis.rank,
            w_basis.rank >= lower,
        )
    )
    checks.append(
        BoundCheck(
            "sigma >= delta + rho - epsilon - 1", lower, ct.sigma, ct.sigma >= lower
        )
    )
    if u not in CodeGroup(C.sig, u_set):
        checks.append(
            BoundCheck(
                "u outside <U>: log2|<W>| = delta + rho - epsilon",
                w_basis.rank,
                ct.delta + ct.rho - eps,
                w_basis.rank == ct.delta + ct.rho - eps,
            )
        )
        checks.append(
            BoundCheck(
                "u outside <U>: sigma >= delta + rho - epsilon",
                ct.delta + ct.rho - eps,
                ct.sigma,
                ct.sigma >= ct.delta + ct.rho - eps,
            )
        )
    r = rank(C)
    h = r - ct.total
    h_cap = eps + comb(ct.delta + ct.rho - eps, 2) if eps <= 1 else 3
    checks.append(
        BoundCheck("rank - (sigma+delta+rho) <= swapper cap", h, h_cap, h <= h_cap)
    )
    return checks


@_memoized
def _coset_swappers(C: CodeGroup) -> List[List[int]]:
    """s(p_v, p_w) by (v, w), for the ``_coset_reps`` words, by XOR on the
    swapper table: no product and no pi is evaluated.

    s is exactly bilinear on words (``invariants._swappers``), so
    s(p_v, b_j) = sum_(i in v) s(b_i, b_j), a sum of rows of the table
    built like the products (c_(v + 2^i) = c_v + row i), and s(p_v, p_w)
    is the span of c_v indexed like the products (``_span``).
    """
    table = C.swappers
    columns = [[0] * len(table)]
    for row in table:
        columns += [[a ^ s for a, s in zip(c, row)] for c in columns]
    return [_span(c) for c in columns]


def _hadamard_pair_triple_checks(C: CodeGroup) -> List[BoundCheck]:
    """Pair and triple facts, exhausted over one word per T-coset.

    Swappers have order <= 2, so Gray(s1 * s2) = Gray(s1) + Gray(s2), and
    each is tested for membership in C by its image (``_has_image``); the
    swappers of the coset words are read from ``_coset_swappers``.
    """
    u = u_element(C.sig).bits
    # the index of a transversal word is the GF(2) coordinate vector of its
    # coset in C/T; index 0 is T itself
    squares, rows = _coset_table(C)
    outside = range(1, len(squares))

    pair_bad = 0
    for v in outside:
        a2, row = squares[v], rows[v]
        if a2 != u:
            # the entries at j >= 1 outside {0, a2}, counted in C
            good = row.count(0) + (row.count(a2) if a2 else 0) - (row[0] in (0, a2))
            pair_bad += len(outside) - good

    by_square: dict = {}
    for v in outside:
        if squares[v] != u:
            by_square.setdefault(squares[v], []).append(v)

    triple2_bad = sum(
        Gf2Basis(members).rank > 2 for members in by_square.values()
    )

    triple3_bad = 0
    for a2, members in by_square.items():
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                if rows[members[ai]][members[bi]] != a2:
                    continue
                swappers = _coset_swappers(C)
                sa, sb = swappers[members[ai]], swappers[members[bi]]
                for j in outside:
                    if squares[j] == a2:
                        continue
                    s1, s2 = sa[j], sb[j]
                    if not any(C._has_image(s) for s in (s1, s2, s1 ^ s2)):
                        triple3_bad += 1
    return [
        BoundCheck(
            "pairs outside T: commutator in <a^2> unless a^2 = u",
            pair_bad,
            0,
            pair_bad == 0,
        ),
        BoundCheck(
            "equal non-u squares span at most 2 dimensions mod T",
            triple2_bad,
            0,
            triple2_bad == 0,
        ),
        BoundCheck(
            "swapper pairs against a third square stay within index 2 mod T",
            triple3_bad,
            0,
            triple3_bad == 0,
        ),
    ]
