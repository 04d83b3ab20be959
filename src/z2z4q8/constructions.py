"""Hadamard code constructions: doubling lift, extension, Kronecker.

The lift embeds Z2 -> Z4 (i -> 2i) and Z4 -> <a> <= Q8 (i -> a^i),
doubling the binary length while preserving the group structure.  The
extension adjoins one element that is valid exactly when every extended
codeword lands on the middle weight.  The (generalized) Kronecker doubles
both length and cardinality via the diagonal embedding.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .groups import (
    GroupSignature,
    GroupWord,
    Q8_MUL,
    Q8_ORDER,
    conjugate,
    identity,
    u_element,
    word,
)
from .hadamard import Shape, classify_shape, is_hadamard
from .invariants import is_abelian, kernel_dim, rank, weight_distribution
from .subgroup import (
    DEFAULT_MAX_ORDER,
    CodeGroup,
    CodeType,
    EnumerationLimit,
    _coset_reps,
    _radical,
    code_type,
)


class ConstructionError(ValueError):
    """A construction precondition failed (with a witness where possible)."""


# ---------------------------------------------------------------------------
# Doubling lift
# ---------------------------------------------------------------------------

def lifted_signature(sig: GroupSignature) -> GroupSignature:
    if sig.k3 != 0:
        raise ConstructionError(
            f"lift requires a Z2/Z4 signature, got k3={sig.k3}"
        )
    return GroupSignature(0, sig.k1, sig.k2)


def lift_word(w: GroupWord) -> GroupWord:
    """Componentwise doubling embedding of one word."""
    sig = w.sig
    out = lifted_signature(sig)
    coords = tuple(2 * v for v in w.coords[: sig.k1]) + tuple(
        v for v in w.coords[sig.k1:]
    )
    return word(out, coords)


def xi_lift(C: CodeGroup, max_order: int = DEFAULT_MAX_ORDER) -> CodeGroup:
    """Image of a Z2/Z4 code group under the doubling embedding.

    The embedding is injective and order-preserving, so the image has the
    same order and type; Gray weights double coordinatewise.
    """
    gens = tuple(lift_word(g) for g in C.generators)
    lifted = CodeGroup.generate(gens, max_order)
    if lifted.order != C.order:
        raise RuntimeError("lift changed the group order; embedding is broken")
    if code_type(lifted) != code_type(C):
        raise RuntimeError("lift changed the group type; embedding is broken")
    return lifted


def extend(
    Cq: CodeGroup, x: GroupWord, max_order: int = DEFAULT_MAX_ORDER
) -> CodeGroup:
    """C^(x) = <Cq, x>: double the code with one new element.

    Preconditions: x lies outside Cq with x^2 in Cq, conjugation by x
    preserves Cq, and every coset word x*c has Gray weight exactly half
    the binary length.  The first three hold exactly when |<Cq, x>| =
    2|Cq|.  They make <Cq, x> = Cq u x*Cq with x*Cq disjoint from Cq.
    Conversely, Cq of index 2 in <Cq, x> is normal there, so x normalizes
    it; the quotient has order 2, so x^2 lies in Cq; and x lies outside
    Cq, or <Cq, x> = Cq.  So the output is Cq's generators and x, the
    three are one order comparison on its presentation, and the tests
    word by word run only to name the one that fails.  The weights of
    Gray(x Cq) are those of the output less those of Cq.  The result must
    be a Hadamard code.
    """
    if x.sig != Cq.sig:
        raise ConstructionError(f"element signature {x.sig} != group {Cq.sig}")
    if 2 * Cq.order > max_order:
        raise EnumerationLimit(f"extension order exceeds max_order={max_order}")
    out = CodeGroup(Cq.sig, Cq.generators + (x,))
    if out.order != 2 * Cq.order:
        if x in Cq:
            raise ConstructionError(f"extension element {x} already lies in the group")
        if (x * x) not in Cq:
            raise ConstructionError(f"square of {x} lies outside the group")
        for g in Cq.generators:
            if conjugate(g, x) not in Cq:
                raise ConstructionError(f"{x} does not normalize the group (moves {g})")
    n = Cq.sig.n
    if n % 2:
        raise ConstructionError(f"binary length {n} is odd; no middle weight")
    if out.order != 2 * Cq.order:
        raise RuntimeError("extension did not double the group order")
    coset = Counter(weight_distribution(out))  # less Cq's, the weights of Gray(x Cq)
    coset.subtract(weight_distribution(Cq))
    if any(count for wt, count in coset.items() if wt != n // 2):
        for c in Cq.sorted_elements():
            wt = (x * c).bits.bit_count()
            if wt != n // 2:
                raise ConstructionError(
                    f"weight condition fails at c={c}: |Gray(x c)| = {wt} != {n // 2}"
                )
        raise RuntimeError("weights of Gray(x Cq) disagree with its words")
    if not is_hadamard(out):
        raise RuntimeError("extension produced a non-Hadamard code")
    return out


@dataclass(frozen=True)
class LiftResult:
    """Record of a lift-and-extend run."""

    lifted: CodeGroup
    extension_element: GroupWord
    extended: CodeGroup
    condition_ok: bool


def lift_and_extend(
    C: CodeGroup, x: GroupWord, max_order: int = DEFAULT_MAX_ORDER
) -> LiftResult:
    lifted = xi_lift(C, max_order)
    extended = extend(lifted, x, max_order)
    return LiftResult(lifted, x, extended, True)


def random_doubling_element(
    sig: GroupSignature, rng: random.Random
) -> GroupWord:
    """Sample x with odd Z4 entries and Q8 entries outside <a>.

    For lifted inputs every coset word x*c then has all coordinates of
    order 4, so the weight condition holds automatically.
    """
    if sig.k1 != 0:
        raise ConstructionError("doubling elements live in Z4/Q8 signatures")
    coords = [rng.choice((1, 3)) for _ in range(sig.k2)]
    coords += [rng.choice((4, 5, 6, 7)) for _ in range(sig.k3)]
    return word(sig, coords)


# ---------------------------------------------------------------------------
# Kronecker constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KroneckerResult:
    input: CodeGroup
    g: GroupWord
    output: CodeGroup
    predicted_type: CodeType


def _pair_bits(sig: GroupSignature, a: int, b: int) -> int:
    """Gray bits of the pair (w1, w2) in ``sig.doubled()``, from Gray(w1) = a
    and Gray(w2) = b.

    Each of the Z2, Z4 and Q8 sections of the doubled word is that section
    of w1 followed by the same section of w2.
    """
    out = pos = 0
    for width in (sig.k1, 2 * sig.k2, 4 * sig.k3):
        mask = (1 << width) - 1
        out |= (a & mask) << 2 * pos | (b & mask) << 2 * pos + width
        a >>= width
        b >>= width
        pos += width
    return out


def _pair_word(w1: GroupWord, w2: GroupWord) -> GroupWord:
    sig = w1.sig
    return GroupWord._from_bits(sig.doubled(), _pair_bits(sig, w1.bits, w2.bits))


def _predict_kronecker_type(C: CodeGroup, g: GroupWord) -> Tuple[CodeType, bool]:
    """Type of the doubled group from how g sits against C.

    Three exclusive cases: some coset word g*c has order <= 2 (covers
    order-2 g); some g*c centralizes C; otherwise the centralizer of g in
    Z(C) decides.  Also returns whether the first case applies: exactly
    then every swapper of g against the group collapses into S(C), which
    forces the rank of the doubled code to grow by exactly 1.  Every case
    is decided on one word c per T-coset of C.
    """
    ct = code_type(C)
    reps = _coset_reps(C)
    if any((g * c).order() <= 2 for c in reps):
        return CodeType(ct.sigma + 1, ct.delta, ct.rho), True
    gens = C.generators
    if any(all((g * c) * h == h * (g * c) for h in gens) for c in reps):
        return CodeType(ct.sigma, ct.delta + 1, ct.rho), False
    delta1 = sum(1 for v in _radical(C) if reps[v] * g == g * reps[v]).bit_length() - 1
    return CodeType(ct.sigma, delta1, ct.rho + ct.delta - delta1 + 1), False


def generalized_kronecker(
    C: CodeGroup, g: GroupWord, max_order: int = DEFAULT_MAX_ORDER
) -> KroneckerResult:
    """K_g(C) = <diag(C), (g, g*u)> for g normalizing C with g^2 in C.

    As u is central of order 2, the output is diag(C) u (g, g*u) diag(C),
    given by the diagonal generators and (g, g*u).  Doubles length and
    cardinality.

    The preconditions hold exactly when the output has order at most
    2|C|: then it is that union; conversely its projection on the first
    half, <C, g>, has order at most 2|C|, so C has index 1 or 2 in it, is
    normal there and holds g^2.  The output holds diag(C), and (g, g*u)
    outside it (u != e), so its order is at least 2|C|: the preconditions
    are one order comparison on its presentation, and the tests word by
    word run only to name the one that fails.

    The kernel dimension grows by at most 1 and the type follows the
    predicted case split; the rank grows by at least 1, and by exactly 1
    whenever some coset word g*c has order <= 2 (then the swappers of g
    against the group collapse into S(C)).  Order-4 doubling elements
    outside that case can raise the rank further.
    """
    if g.sig != C.sig:
        raise ConstructionError(f"element signature {g.sig} != group {C.sig}")
    sig, dsig = C.sig, C.sig.doubled()
    u = u_element(sig)
    gens = tuple(_pair_word(w, w) for w in C.generators) + (_pair_word(g, g * u),)
    out = CodeGroup(dsig, gens)
    if out.order != 2 * C.order:
        if (g * g) not in C:
            raise ConstructionError(f"square of {g} lies outside the group")
        for h in C.generators:
            if conjugate(h, g) not in C:
                raise ConstructionError(f"{g} does not normalize the group (moves {h})")
    if 2 * C.order > max_order:
        raise EnumerationLimit(
            f"Kronecker output order exceeds max_order={max_order}"
        )
    if out.order != 2 * C.order:
        raise RuntimeError("Kronecker output order is not 2|C|")
    predicted, torsion_coset = _predict_kronecker_type(C, g)
    actual = code_type(out)
    if actual != predicted:
        raise RuntimeError(
            f"Kronecker type prediction {predicted} != computed {actual}"
        )
    r_in, r_out = rank(C), rank(out)
    if r_out < r_in + 1:
        raise RuntimeError(f"Kronecker rank {r_out} < {r_in} + 1")
    if torsion_coset and r_out != r_in + 1:
        raise RuntimeError(
            f"Kronecker rank {r_out} != {r_in} + 1 for a torsion-coset element"
        )
    if kernel_dim(out) > kernel_dim(C) + 1:
        raise RuntimeError("Kronecker kernel dimension grew by more than 1")
    if is_hadamard(C) and not is_hadamard(out):
        raise RuntimeError("Kronecker output of a Hadamard input is not Hadamard")
    return KroneckerResult(C, g, out, predicted)


def kronecker(C: CodeGroup, max_order: int = DEFAULT_MAX_ORDER) -> KroneckerResult:
    """Plain Kronecker doubling K(C) = <diag(C), (e, u)>.

    Kernel dimension and rank both grow by exactly 1.
    """
    result = generalized_kronecker(C, identity(C.sig), max_order)
    if kernel_dim(result.output) != kernel_dim(C) + 1:
        raise RuntimeError("plain Kronecker kernel dimension did not grow by 1")
    expected = code_type(C)
    if result.predicted_type != CodeType(
        expected.sigma + 1, expected.delta, expected.rho
    ):
        raise RuntimeError("plain Kronecker type is not (sigma+1, delta, rho)")
    return result


# ---------------------------------------------------------------------------
# Structural converse: shapes 2 and 3 come from the doubling construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def q8_automorphisms() -> Tuple[Tuple[int, ...], ...]:
    """All 24 automorphisms of Q8 as value-permutation tuples, sorted."""
    order4 = [v for v in range(8) if Q8_ORDER[v] == 4]
    autos = []
    for img_a in order4:
        pow_a = [0, img_a, Q8_MUL[img_a][img_a]]
        pow_a.append(Q8_MUL[pow_a[2]][img_a])
        for img_b in order4:
            if img_b in pow_a:
                continue
            table = [0] * 8
            ok = True
            for v in range(8):
                i, j = v & 3, v >> 2
                image = pow_a[i] if i else 0
                if j:
                    image = Q8_MUL[image][img_b]
                table[v] = image
            if len(set(table)) != 8:
                ok = False
            if ok:
                for p in range(8):
                    for q in range(8):
                        if table[Q8_MUL[p][q]] != Q8_MUL[table[p]][table[q]]:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                autos.append(tuple(table))
    return tuple(sorted(set(autos)))


def _relabel_word(w: GroupWord, autos: Sequence[Tuple[int, ...]]) -> GroupWord:
    sig = w.sig
    offset = sig.k1 + sig.k2
    coords = list(w.coords)
    for i, table in enumerate(autos):
        coords[offset + i] = table[coords[offset + i]]
    return GroupWord(sig, tuple(coords))


@dataclass(frozen=True)
class ConverseResult:
    """Witness that a shape-2/3 Hadamard group is a doubled lift."""

    base: CodeGroup
    doubling_element: GroupWord
    relabeled: CodeGroup
    coordinate_autos: Tuple[Tuple[int, ...], ...]


def structural_converse_check(
    C: CodeGroup, shape: Optional[Shape] = None
) -> ConverseResult:
    """Recover (base Z2/Z4 code, doubling element) from a shape-2/3 group.

    The abelian index-2 subgroup spanned by the witness generators (with
    z1 dropped, and z1*z2 replacing z2 in shape 2) projects into one
    cyclic order-4 subgroup per Q8 coordinate.  A per-coordinate Q8
    automorphism relabels those projections into <a>; automorphisms
    preserve element orders, hence Gray weights, type, rank and kernel.
    The round trip extend(xi_lift(base), z1) must re-create the relabeled
    group exactly.
    """
    if shape is None:
        shape = classify_shape(C)
    if shape.tag not in (2, 3):
        raise ConstructionError(
            f"converse applies to shapes 2 and 3 only, got shape {shape.tag}"
        )
    sig = C.sig
    if sig.k1 != 0:
        raise ConstructionError("a square-u generator rules out Z2 coordinates")
    ngs = shape.witness
    zs = list(ngs.zs)
    if shape.tag == 2:
        if sig.k2 != 0:
            raise ConstructionError("shape 2 forces a pure Q8 signature")
        abelian_gens = list(ngs.xs) + [zs[0] * zs[1]] + zs[2:]
    else:
        abelian_gens = list(ngs.xs) + zs[1:]
    inner = CodeGroup.generate(abelian_gens)
    if not is_abelian(inner) or 2 * inner.order != C.order:
        raise RuntimeError("index-2 abelian subgroup construction failed")
    if not all(w in C for w in inner.generators):
        raise RuntimeError("inner subgroup escaped the group")

    offset = sig.k1 + sig.k2
    for w in inner.elements:
        for i in range(sig.k2):
            if w.coords[sig.k1 + i] % 2:
                raise RuntimeError("inner subgroup has an odd Z4 coordinate")
    autos: List[Tuple[int, ...]] = []
    for i in range(sig.k3):
        values = {w.coords[offset + i] for w in inner.elements}
        table = next(
            (
                t
                for t in q8_automorphisms()
                if all(t[v] <= 3 for v in values)
            ),
            None,
        )
        if table is None:
            raise RuntimeError(
                f"Q8 coordinate {i + 1} projection is not cyclic; cannot relabel"
            )
        autos.append(table)

    relabeled = CodeGroup(sig, tuple(_relabel_word(g, autos) for g in C.generators))
    for w in inner.elements:
        if any(v > 3 for v in _relabel_word(w, autos).coords[sig.k2:]):
            raise RuntimeError("relabeled projection escaped <a>")

    # halving the even Z4 entries and reading <a> as Z4 maps the relabeled
    # inner subgroup isomorphically onto base, so base is given by the
    # images of its generators
    base_sig = GroupSignature(sig.k2, sig.k3, 0)
    inner_gens = [_relabel_word(w, autos).coords for w in abelian_gens]
    base = CodeGroup(
        base_sig,
        tuple(
            word(base_sig, tuple(v // 2 for v in c[: sig.k2]) + c[sig.k2 :])
            for c in inner_gens
        ),
    )
    if not is_hadamard(base):
        raise RuntimeError("recovered base is not a Hadamard code")

    z = _relabel_word(zs[0], autos)
    rebuilt = extend(xi_lift(base), z)
    if rebuilt != relabeled:
        raise RuntimeError("round trip did not reproduce the relabeled group")
    return ConverseResult(base, z, relabeled, tuple(autos))
