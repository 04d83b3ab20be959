"""Hadamard detection, normalized generators, shape classification, bounds.

A binary Hadamard code of length n has 2n codewords and minimum distance
n/2.  For code groups whose Gray image is Hadamard, the generating set can
be normalized (at most two z-generators square to the all-order-2 word u,
and such a pair has commutator u), and the group falls into one of five
structural shapes, decided here by a deterministic sequence of generator
substitutions with every claimed relation machine-verified.

The layer works on T-coset indices.  A generating set is its words, and
``verify_standard`` returns the index of each y and z when it checks the
set, kept per set; the normalization, the walk and the checks on the
normalized set read them there and carry them along with the words:
every square they branch on or require is read from the square list
``_coset_squares``, and every commutator as its polar form (``_polar``,
``_comm``), as both are constant on T-cosets.  Words are multiplied only
to build the witness, which is checked on its words (``verify_standard``
on every distinct set, ``_verify_shape`` on the witness).  The shape is
a fact of the group, classified once and kept on it; every reader,
``hadamard_bounds`` and ``structural_converse_check`` among them, takes
only the group.  u in <U> is decided by elimination on indices
(``_generates``), and the pair and triple checks polarize the square
list too, so the layer builds no 4^k table and no subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import ceil, comb, floor
from operator import xor
from typing import List, Optional, Sequence, Tuple

from . import gf2
from .groups import GroupWord, _commutator_bits, _pi
from .invariants import (
    BoundCheck,
    BoundReport,
    _eq,
    _le,
    kernel_dim,
    rank,
    weight_distribution,
)
from .subgroup import (
    CodeGroup,
    StandardGenSet,
    _coset_minimum,
    _coset_squares,
    _memoized,
    _minimum_keys,
    _polar,
    _radical,
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


Indexed = Tuple[GroupWord, int]  # a y or z and its ``_coset_reps`` index


def _indexed_zs(C: CodeGroup, gens: StandardGenSet) -> List[Indexed]:
    """The z's of gens with their indices, which ``verify_standard``
    returns: a set that is not standard for C raises there."""
    return list(zip(gens.zs, verify_standard(C, gens)[len(gens.ys) :]))


def _with_zs(gens: StandardGenSet, zs: Sequence[Indexed]) -> StandardGenSet:
    """gens with the z's replaced by the words of zs."""
    return StandardGenSet(gens.xs, gens.ys, tuple(w for w, _ in zs))


def _comm(squares: Sequence[int], a: Indexed, b: Indexed) -> int:
    """Gray((a, b)), the polar form of the square list (``_polar``)."""
    return _polar(squares, a[1], b[1])


def _times(a: Indexed, b: Indexed) -> Indexed:
    return a[0] * b[0], a[1] ^ b[1]


def _pair_reorder(C: CodeGroup, zs: Sequence[Indexed]) -> Tuple[List[Indexed], int]:
    """Sort z's so equal-square pairs come first; return (zs, epsilon).
    Three z's with one square raise, so at most two square to u."""
    squares = _coset_squares(C)
    by_square: dict = {}
    for pos, (_, v) in enumerate(zs):
        by_square.setdefault(squares[v], []).append(pos)
    pairs: List[List[int]] = []
    singles: List[int] = []
    for square, positions in by_square.items():
        if len(positions) == 1:
            singles.append(positions[0])
        elif len(positions) == 2:
            pairs.append(positions)
            p, q = positions
            if _polar(squares, zs[p][1], zs[q][1]) != square:
                raise ClassificationError(
                    f"equal-square generators {zs[p][0]} and {zs[q][0]} must "
                    f"have commutator equal to their square"
                )
        else:
            raise ClassificationError(
                f"{len(positions)} generators share the square "
                f"{GroupWord._from_bits(C.sig, square)}; at most two may"
            )
    order = [p for pair in sorted(pairs) for p in pair] + sorted(singles)
    return [zs[p] for p in order], len(pairs)


def normalize_generators(C: CodeGroup) -> StandardGenSet:
    """Normalized generating set for a Hadamard code group: standard
    generators with the z's arranged in equal-square pairs, at most two
    of them squaring to u, and such a pair with commutator u.

    Applies the square-u substitutions z_i -> z1*z_i / z2*z_i / z1*z2*z_i
    to ``standard_generators(C)``, then reorders equal-square pairs to the
    front (``_pair_reorder``), reading squares and commutators by the
    indices ``verify_standard`` returns for the set; the result is
    verified too.
    """
    if not is_hadamard(C):
        raise ValueError("not a Hadamard code")
    gens = standard_generators(C)
    u = (1 << C.sig.n) - 1
    squares = _coset_squares(C)
    zs = _indexed_zs(C, gens)
    comm = partial(_comm, squares)
    front = [z for z in zs if squares[z[1]] == u]
    rest = [z for z in zs if squares[z[1]] != u]
    if len(front) >= 2:
        for i in range(1, len(front)):
            if comm(front[0], front[i]) == u:
                front[1], front[i] = front[i], front[1]
                break
        z1, z2 = front[0], front[1]
        pair_commutes_to_u = comm(z1, z2) == u
        replaced = [z1]
        for i, z in enumerate(front[1:], start=2):
            if i == 2 and pair_commutes_to_u:
                replaced.append(z)
            elif comm(z1, z) != u:
                replaced.append(_times(z1, z))
            elif comm(z2, z) != u:
                replaced.append(_times(z2, z))
            else:
                replaced.append(_times(_times(z1, z2), z))
        front = replaced
    zs = front + rest
    if not all(squares[v] for _, v in zs):
        raise ClassificationError("normalization produced an order-2 generator")
    out = _with_zs(gens, _pair_reorder(C, zs)[0])
    verify_standard(C, out)
    return out


@dataclass(frozen=True)
class Shape:
    """One of the five structural shapes of a Hadamard code group, with its
    witness: a normalized generating set whose epsilon leading pairs of
    z's share a square."""

    tag: int
    witness: StandardGenSet
    epsilon: int
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


def _verify_shape(C: CodeGroup, witness: StandardGenSet, tag: int) -> None:
    """Machine-check the defining relations of the claimed shape, on the
    witness's words: each square by the product law, Gray(z z) = Gray(z)
    + pi_z(Gray(z)), and each commutator in closed form
    (``_commutator_bits``), with no index and no table read.  It runs once
    per classification, on the witness, before the shape is kept."""
    sig = C.sig
    u = (1 << sig.n) - 1
    ct = code_type(C)
    zs = [z.bits for z in witness.zs]
    sq = [z ^ _pi(sig, z, z) for z in zs]

    def comm(i: int, j: int) -> int:
        return _commutator_bits(sig, zs[i], zs[j])

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
        _require(comm(0, 1) == u, "shape 2 needs (z1,z2) = u")
        for j in range(2, ct.rho):
            _require(sq[j] != u, "shape 2 allows only z1, z2 to square to u")
            _require(
                comm(0, j) == sq[j] and comm(1, j) == sq[j],
                f"shape 2 needs (z1,z_{j + 1}) = (z2,z_{j + 1}) = z_{j + 1}^2",
            )
            for k in range(j + 1, ct.rho):
                _require(not comm(j, k), "shape 2 needs the tail generators to commute")
        return
    if tag == 3:
        _require(ct.delta == 0, "shape 3 needs delta = 0")
        _require(sq[0] == u, "shape 3 needs z1^2 = u")
        tail_squares = gf2.Gf2Basis(sq[1:])
        _require(
            tail_squares.rank == ct.rho - 1,
            "shape 3 needs independent tail squares",
        )
        _require(
            not tail_squares.contains(u),
            "shape 3 needs u outside <z2^2..z_rho^2>",
        )
        for i in range(1, ct.rho):
            _require(comm(0, i) == sq[i], f"shape 3 needs (z1,z_{i + 1}) = z_{i + 1}^2")
            for j in range(i + 1, ct.rho):
                _require(not comm(i, j), "shape 3 needs the tail generators to commute")
        return
    if tag == 4:
        _require(ct.rho == 2 and ct.delta <= 1, "shape 4 needs rho=2, delta<=1")
        _require(
            sq[0] == sq[1] and sq[0] != u and comm(0, 1) == sq[0],
            "shape 4 needs z1^2 = z2^2 = (z1,z2) != u",
        )
        return
    if tag == 5:
        _require(ct.delta == 0 and ct.rho == 4, "shape 5 needs delta=0, rho=4")
        _require(
            sq[0] == u and sq[1] == u and comm(0, 1) == u,
            "shape 5 needs z1^2 = z2^2 = (z1,z2) = u",
        )
        _require(
            sq[2] == sq[3] and sq[2] != u and comm(2, 3) == sq[2],
            "shape 5 needs z3^2 = z4^2 = (z3,z4) != u",
        )
        for i in (0, 1):
            for j in (2, 3):
                _require(
                    comm(i, j) in (0, sq[j]),
                    "shape 5 needs (z_i,z_j) in <z_j^2> for i<=2<j",
                )
        return
    raise ValueError(f"unknown shape tag {tag}")


@_memoized
def classify_shape(C: CodeGroup) -> Shape:
    """Decide which of the five shapes the Hadamard code group satisfies,
    once per group: the shape is kept on C.

    Mirrors the constructive case analysis: each pass puts the
    equal-square pairs in front (``_pair_reorder``, which leaves the
    normalized set as it is), substitutions are applied in generator-index
    order, first applicable wins, and every step is recorded in the trail;
    the shape keeps the epsilon of its witness.  Termination within a few
    passes is guaranteed; failure to classify indicates an arithmetic bug.
    Squares and commutators are read by index; the witness is checked on
    words.
    """
    gens = normalize_generators(C)
    ct = code_type(C)
    u = (1 << C.sig.n) - 1
    squares = _coset_squares(C)
    comm = partial(_comm, squares)
    trail: List[str] = []

    def finish(tag: int, zs: List[Indexed]) -> Shape:
        zs2, eps = _pair_reorder(C, zs)
        witness = _with_zs(gens, zs2)
        verify_standard(C, witness)
        _verify_shape(C, witness, tag)
        return Shape(
            tag,
            witness,
            eps,
            _structure_string(tag, ct.sigma, ct.delta, ct.rho),
            tuple(trail),
        )

    zs = _indexed_zs(C, gens)
    if ct.rho == 0:
        return finish(1, zs)

    for _ in range(8):
        zs, eps = _pair_reorder(C, zs)
        sq = [squares[v] for _, v in zs]
        rho = len(zs)

        if eps == 2:
            _require(ct.delta == 0 and rho == 4, "eps=2 forces delta=0 and rho=4")
            if sq[0] == u:
                pass
            elif sq[2] == u:
                zs = [zs[2], zs[3], zs[0], zs[1]]
                trail.append("moved the square-u pair to the front")
            else:
                zs = [_times(zs[0], zs[2]), _times(zs[1], zs[3]), zs[2], zs[3]]
                trail.append("merged the two pairs into a square-u pair")
            return finish(5, zs)

        if eps == 1 and sq[0] == u:
            _require(ct.delta == 0, "a square-u pair forces delta = 0")
            if rho == 2:
                return finish(2, zs)
            c1, c2 = comm(zs[0], zs[-1]), comm(zs[1], zs[-1])
            _require(
                bool(c1 or c2),
                "the last generator cannot commute with the whole square-u pair",
            )
            if not c1:
                zs[0] = _times(zs[0], zs[1])
                trail.append("replaced z1 by z1*z2 to reach (z1,z_rho) = z_rho^2")
            elif not c2:
                zs[1] = _times(zs[0], zs[1])
                trail.append("replaced z2 by z1*z2 to reach (z2,z_rho) = z_rho^2")
            _require(
                comm(zs[0], zs[-1]) == sq[-1] and comm(zs[1], zs[-1]) == sq[-1],
                "pair-versus-last commutators must equal the last square",
            )
            if not gf2.Gf2Basis(sq[2:]).contains(u):
                return finish(2, zs)
            special = None
            for i in range(2, rho - 1):
                ci1, ci2 = not comm(zs[0], zs[i]), not comm(zs[1], zs[i])
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
            zs = [_times(zs[0], zs[1]), zs[1], _times(zs[0], zs[2]), zs[3]]
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
            if not comm(zs[0], zs[2]):
                zs[0], zs[1] = zs[1], zs[0]
                trail.append("swapped z1 and z2")
            if not comm(zs[1], zs[2]):
                zs[1] = _times(zs[0], zs[1])
                trail.append("replaced z2 by z1*z2")
            _require(
                comm(zs[0], zs[2]) == squares[zs[0][1]]
                and comm(zs[1], zs[2]) == squares[zs[1][1]],
                "pair members must have (z_i,z3) = z_i^2",
            )
            v0, v2 = zs[0][1], zs[2][1]
            trials = [(i, v0 ^ zs[i][1]) for i in range(3, rho)]
            i = next((i for i, t in trials if squares[t] == u == _polar(squares, v2, t)), None)
            _require(i is not None, "no tail generator completes a second square-u pair")
            zs[i] = _times(zs[0], zs[i])
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
            sq = [squares[v] for _, v in zs]
        for i in range(1, rho):
            _require(
                comm(zs[0], zs[i]) == sq[i],
                "the square-u generator must realize (z1,z_i) = z_i^2",
            )
            for k in range(i + 1, rho):
                _require(
                    not comm(zs[i], zs[k]),
                    "tail generators with distinct squares must commute",
                )
        # the least subset of tail z's whose squares (of order <= 2, so Gray
        # adds) multiply to u: bit i of the span's index picks z_(i+2)
        products = gf2.span(sq[1:])
        if u in products:
            mask = products.index(u)
            positions = [p + 1 for p in range(rho - 1) if mask >> p & 1]
            merged = zs[positions[0]]
            for p in positions[1:]:
                merged = _times(merged, zs[p])
            zs[positions[0]] = merged
            trail.append("merged tail generators into a second square-u generator")
            continue
        if ct.delta > 0:
            v = _central_with_square(C, u ^ sq[1])
            _require(
                v is not None,
                "delta > 0 here requires a central order-4 element matching "
                "u * z2^2",
            )
            zs[0] = _times((_coset_minimum(C, v), v), zs[0])
            trail.append("replaced z1 by y*z1 to pair its square with z2^2")
            continue
        return finish(3, zs)

    raise ClassificationError("shape analysis did not terminate")


def _central_with_square(C: CodeGroup, target: int) -> Optional[int]:
    """The index of the T-coset of the least order-4 word of Z(C) with the
    square ``target``, or None: the order-4 words of Z(C) are its cosets
    other than T, and squares are constant on T-cosets."""
    squares, keys = _coset_squares(C), _minimum_keys(C)
    central = [v for v in _radical(C) if v and squares[v] == target]
    return min(central, key=keys.__getitem__, default=None)


# ---------------------------------------------------------------------------
# Hadamard-specific bounds
# ---------------------------------------------------------------------------

_EXCEPTION_PARAMS = {(5, 2, 0, 4)}  # (m, sigma, delta, rho) allowed outlier


def hadamard_bounds(C: CodeGroup) -> BoundReport:
    """Every Hadamard-specific inequality, with the known exceptional
    parameter set (m=5, sigma=2, delta=0, rho=4) exempted where it applies,
    read from C's shape (``classify_shape``)."""
    n = C.sig.n
    if n & (n - 1):
        raise ValueError(f"binary length {n} is not a power of two")
    shape = classify_shape(C)  # raises on a non-Hadamard C
    m = n.bit_length() - 1
    ct = code_type(C)
    sigma, delta, rho = ct.as_tuple()
    r = rank(C)
    k = kernel_dim(C)
    exempt = (m, sigma, delta, rho) in _EXCEPTION_PARAMS

    checks = [
        _eq("m + 1 = sigma + delta + rho", m + 1, ct.total),
        _le("ceil(m/2) <= sigma", ceil(m / 2), sigma, exempt=exempt),
        _le("sigma <= kernel_dim", sigma, k),
        _le("kernel_dim <= m + 1", k, m + 1),
        _le("m + 1 <= rank", m + 1, r),
        _le("rank <= m + 1 + C(delta+rho, 2)", r, m + 1 + comb(delta + rho, 2)),
        _le("delta + rho <= floor((m+2)/2)", delta + rho, floor((m + 2) / 2), exempt=exempt),
    ]

    global_cap = (
        m + 1 + comb((m + 1) // 2, 2) if m % 2 else m + 2 + comb(m // 2, 2)
    )
    checks.append(_le("rank <= parity cap", r, global_cap))

    h = r - (m + 1)
    shape_cap = {
        1: comb((m - 1) // 2, 2) if m % 2 else comb(m // 2, 2),
        2: 1 + comb((m - 1) // 2, 2) if m % 2 else 1 + comb(m // 2, 2),
        3: comb((m + 1) // 2, 2) if m % 2 else comb(m // 2, 2),
        4: 1,
        5: 3,
    }[shape.tag]
    checks.append(_le(f"rank - (m+1) <= shape-{shape.tag} cap", h, shape_cap))
    if shape.tag == 4:
        # a chain of two relations: the row shows the first, and its
        # verdict needs both, so it is not a ``_le`` row
        checks.append(
            BoundCheck(
                "shape 4 chain: rank <= sigma+delta+rho+1 <= sigma+4",
                r,
                ct.total + 1,
                r <= ct.total + 1 and ct.total + 1 <= sigma + 4,
            )
        )

    checks.extend(_normalized_set_checks(C, shape))
    checks.extend(_hadamard_pair_triple_checks(C))
    return BoundReport(tuple(checks))


def _normalized_set_checks(C: CodeGroup, shape: Shape) -> List[BoundCheck]:
    """The checks on the shape's normalized witness, reading squares by the
    indices it carries, and u in <U> by elimination on them
    (``_generates``)."""
    u = (1 << C.sig.n) - 1
    ct = code_type(C)
    eps = shape.epsilon
    squares = _coset_squares(C)
    zs = _indexed_zs(C, shape.witness)
    sq = [squares[v] for _, v in zs]
    checks = [_le("epsilon <= 2", eps, 2)]
    if eps == 2:
        forced = ct.delta == 0 and ct.rho == 4
        checks.append(_eq("epsilon=2 forces (delta, rho) = (0, 4)", int(forced), 1))
        if len(zs) == 4 and sq[0] != u and sq[2] != u:
            # neither pair squares to u: the pairs must commute crosswise
            # and their squares, of order <= 2, must add up to u
            cross_ok = all(
                not _polar(squares, zs[i][1], zs[j][1]) and sq[i] ^ sq[j] == u
                for i in (0, 1)
                for j in (2, 3)
            )
            checks.append(
                _eq(
                    "epsilon=2 with non-u pairs: cross pairs commute and "
                    "squares multiply to u",
                    int(cross_ok),
                    1,
                )
            )
    if any(sq[i] == u for i in range(min(2 * eps, len(zs)))):
        checks.append(_eq("square-u inside the paired block forces delta = 0", ct.delta, 0))
    v_set = _v_set(C, shape)
    w_rank = gf2.dimension(squares[v] for _, v in v_set)
    u_set = [(w, v) for w, v in v_set if squares[v] != u]
    paired = ct.delta + ct.rho - eps
    checks.append(_le("log2|<W>| >= delta + rho - epsilon - 1", paired - 1, w_rank))
    checks.append(_le("sigma >= delta + rho - epsilon - 1", paired - 1, ct.sigma))
    if not _generates(C, u_set, u):
        checks += [
            _eq("u outside <U>: log2|<W>| = delta + rho - epsilon", w_rank, paired),
            _le("u outside <U>: sigma >= delta + rho - epsilon", paired, ct.sigma),
        ]
    h = rank(C) - ct.total
    h_cap = eps + comb(paired, 2) if eps <= 1 else 3
    checks.append(_le("rank - (sigma+delta+rho) <= swapper cap", h, h_cap))
    return checks


def _v_set(C: CodeGroup, shape: Shape) -> List[Indexed]:
    """The y's of the shape's witness, the first z of each of its epsilon
    pairs and the z's after the pairs, with their indices: W is the span
    of their squares, and U those of them whose square is not u."""
    witness = shape.witness
    located = list(zip(witness.ys + witness.zs, verify_standard(C, witness)))
    ys, zs = located[: len(witness.ys)], located[len(witness.ys) :]
    paired = 2 * shape.epsilon
    return ys + zs[:paired:2] + zs[paired:]


def _generates(C: CodeGroup, words: Sequence[Indexed], x: int) -> bool:
    """Whether the word of order <= 2 with Gray image x lies in <U>, the
    subgroup of C generated by the indexed words U, with no subgroup built.

    The index (``_locate``) is a homomorphism from C onto GF(2)^k
    with kernel T(C) (``_present``: the ordered products of the basis
    words have independent nu).  Run ``_present``'s reduction with the
    index in place of nu: each word is multiplied on the right by the
    kept words whose pivot its running index has, and a nonzero residue
    index is kept with its top bit as pivot.  So the kept indices are
    independent, and each word is a kept word or, when its index reduces
    to 0, a word of <U> n T(C) times a product of kept words: a word
    product along an index relation of U.

    Let N be spanned by those products (the relations), by the squares of
    the kept words and by their commutators; all lie in T(C), which is
    central of exponent 2, so Gray adds on N.  N {ordered products of the
    kept words} is closed (a product is put back in order by commutators,
    and squares fold into N) and holds U, so it is <U>; the ordered
    products have independent indices, so they lie in distinct T-cosets,
    and <U> n T(C) = N.  The squares and commutators of the kept words
    are those of their indices, ``squares[v]`` and the polar form
    ``_polar``: by the class-2 square law, they span the squares over the
    index span of U.  x has order <= 2, so it lies in Omega, and in <U>
    exactly when it lies in <U> n Omega = N: when it reduces to 0 by the
    span of the relation images and the squares over the index span.  The
    second route builds <U> (``CodeGroup(C.sig, U)._has_image``).
    """
    sig, squares = C.sig, _coset_squares(C)
    kept: List[Tuple[int, int, int]] = []  # (pivot bit, index, image)
    rows: List[int] = []
    for w, v in words:
        y = w.bits
        for pivot, vb, b in kept:
            if v & pivot:
                y ^= _pi(sig, y, b)
                v ^= vb
        if v:
            kept.append((1 << (v.bit_length() - 1), v, y))
        else:
            rows.append(y)
    indices = [v for _, v, _ in kept]
    for i, a in enumerate(indices):
        rows.append(squares[a])
        rows += [_polar(squares, a, b) for b in indices[:i]]
    return gf2.dimension(rows + [x]) == gf2.dimension(rows)


def _swapper_residues(C: CodeGroup, v: int) -> List[int]:
    """s(p_v, p_w) mod Gray(T) by w: the span (``gf2.span``) of the k unit
    residues, s(p_v, b_j) = the sum of s(b_i, b_j) over the bits i of v,
    reduced by Gray(T); s is bilinear (``invariants._swappers``) and
    reduction linear."""
    units = [0] * len(C.basis)
    for i, row in enumerate(C.swappers):
        if v >> i & 1:
            units = list(map(xor, units, row))
    return gf2.span(list(map(C._torsion.reduce, units)))


def _hadamard_pair_triple_checks(C: CodeGroup) -> List[BoundCheck]:
    """Pair and triple facts, exhausted over one word per T-coset, from the
    square list (``_coset_squares``): every commutator is its polar form
    (``_polar``), and no 4^k table is built.

    The first counts, for each a outside T(C) with a^2 != u, the b outside
    T(C) whose commutator (a, b) lies outside <a^2> = {0, a^2} (by image).
    Commutators are bilinear, so the row of a's commutators is the span
    (``gf2.span``) of its k unit entries Gray((a, b_j)), indexed like the
    coset words.  {0, a^2} is closed under XOR, so when every unit entry
    lies in it, so does every entry, and the row adds 0; otherwise the
    row is spanned and its entries in {0, a^2} are counted exactly, by
    C-level ``count``.

    The second counts the non-u square classes whose members span more
    than 2 dimensions of C/T(C).

    The third counts a, b of one non-u square class with (a, b) = a^2
    against each c with c^2 != a^2 and none of s1 = [a, c], s2 = [b, c],
    s1 s2 in C.  In a class, a^2 = b^2, so the polar form (a, b) = a^2 +
    b^2 + (ab)^2 is the square at the index a ^ b.  Swappers lie in Omega
    (pi_x swaps bits of equal sums in a valid block, so y + pi_x(y) has
    blocks 0 or all-one), where Gray adds, and a word of Omega is in C
    exactly when it is in T(C) = C n Omega, i.e. its image reduces to 0 by
    Gray(T).  Reduction is linear, so with the residues r1, r2 one of the
    three is in C exactly when r1 = 0, r2 = 0 or r1 + r2 = 0, i.e. r1 =
    r2.  The residues of a's swappers (``_swapper_residues``) are built
    only for a member of a pair.
    """
    u = (1 << C.sig.n) - 1
    # the index of a transversal word is the GF(2) coordinate vector of its
    # coset in C/T; index 0 is T itself
    squares = _coset_squares(C)
    outside = range(1, len(squares))
    bits = [1 << j for j in range(len(C.basis))]

    pair_bad = 0
    by_square: dict = {}
    for v in outside:
        a2 = squares[v]
        if a2 == u:
            continue
        by_square.setdefault(a2, []).append(v)
        units = [squares[v ^ b] ^ squares[b] ^ a2 for b in bits]
        if any(t and t != a2 for t in units):
            # the entries at w >= 1 outside {0, a2}; the entry at w = 0 is 0
            row = gf2.span(units)
            good = row.count(0) + (row.count(a2) if a2 else 0) - 1
            pair_bad += len(outside) - good

    triple2_bad = sum(gf2.dimension(members) > 2 for members in by_square.values())

    residues: dict = {}  # member index -> its swapper residues, on first use
    triple3_bad = 0
    for a2, members in by_square.items():
        for ai, a in enumerate(members):
            for b in members[ai + 1 :]:
                if squares[a ^ b] != a2:
                    continue
                for m in (a, b):
                    if m not in residues:
                        residues[m] = _swapper_residues(C, m)
                ra, rb = residues[a], residues[b]
                triple3_bad += sum(
                    0 != ra[j] != rb[j] != 0 for j in outside if squares[j] != a2
                )
    return [
        _eq("pairs outside T: commutator in <a^2> unless a^2 = u", pair_bad, 0),
        _eq("equal non-u squares span at most 2 dimensions mod T", triple2_bad, 0),
        _eq("swapper pairs against a third square stay within index 2 mod T", triple3_bad, 0),
    ]
