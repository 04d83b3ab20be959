"""Hadamard code constructions: doubling lift, extension, Kronecker.

The lift embeds Z2 -> Z4 (i -> 2i) and Z4 -> <a> <= Q8 (i -> a^i),
doubling the binary length while preserving the group structure.  The
extension adjoins one element that is valid exactly when every extended
codeword lands on the middle weight.  The (generalized) Kronecker doubles
both length and cardinality via the diagonal embedding.  Both doublings
are index-2 extensions, refused, built and kept once per coset by one
routine (``_index_two``), each with its own laws.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from . import gf2
from .groups import (
    GroupSignature,
    GroupWord,
    Q8_MUL,
    Q8_ORDER,
    _commutator_bits,
    _gray_choices,
    _random_word,
    _sections,
    conjugate,
    identity,
    u_element,
    word,
)
from .hadamard import classify_shape, is_hadamard
from .invariants import is_abelian, kernel_dim, rank, weight_distribution
from .subgroup import (
    DEFAULT_MAX_ORDER,
    CodeGroup,
    CodeType,
    EnumerationLimit,
    _coset_squares,
    _locate,
    _memoized,
    _polar,
    _radical,
    _reduce,
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
    return _lift_into(lifted_signature(w.sig), w)


def _lift_into(out: GroupSignature, w: GroupWord) -> GroupWord:
    """The lift of ``w`` in ``out``, its lifted signature, given by the
    caller so that the words of one lift share one signature.  Z2 v -> 2v
    and Z4 i -> a^i write each Gray block, at bit p, twice at bit 2p."""
    bits, image = w.bits, 0
    for _, _, count, offset, width in _sections(w.sig):
        for p in range(offset, offset + count * width, width):
            block = bits >> p & (1 << width) - 1
            image |= (block | block << width) << 2 * p
    return GroupWord._from_bits(out, image)


@_memoized
def xi_lift(C: CodeGroup) -> CodeGroup:
    """Image of a Z2/Z4 code group under the doubling embedding, kept on C.

    The embedding is injective and order-preserving, so the image has the
    same order and type (C's order met ``max_order`` when C was built);
    Gray weights double coordinatewise.
    """
    out = lifted_signature(C.sig)
    lifted = CodeGroup(out, tuple(_lift_into(out, g) for g in C.generators))
    if lifted.order != C.order:
        raise RuntimeError("lift changed the group order; embedding is broken")
    if code_type(lifted) != code_type(C):
        raise RuntimeError("lift changed the group type; embedding is broken")
    return lifted


_T = TypeVar("_T")


def _index_two(
    C: CodeGroup,
    x: GroupWord,
    noun: str,
    build: Callable[[CodeGroup, GroupWord], CodeGroup],
    laws: Callable[[CodeGroup, GroupWord, CodeGroup], _T],
    max_order: int,
) -> Tuple[CodeGroup, _T]:
    """(H, laws(C, x, H)) for the doubling H = build(C, x) of C by x, kept
    in C's table of doublings once per coset x C.

    H = <D, y>: D is a copy of C (C itself for ``extend``, diag(C) for
    ``generalized_kronecker``) and y is x or (x, x u).  A map p (the
    identity, or the projection on the first half) takes H onto <C, x>, D
    isomorphically onto C and y to x.

    The order test: |H| = 2|C| exactly when x^2 lies in C, x normalizes C
    and y lies outside D.  If the first two hold, then y^2 lies in D and y
    normalizes D (u is central of order 2, so (x, x u)^2 = (x^2, x^2) and
    (c, c)^(x, x u) = (c^x, c^x)), so H = D u yD, of order 2|C| exactly
    when y is outside D.  Conversely, if |H| = 2|C|, D has index 2 in H: it
    is normal there and holds y^2 but not y, so C = p(D) is normal in
    p(H) = <C, x> and holds x^2 = p(y^2).  For ``extend`` y outside D is x
    outside C; for ``generalized_kronecker`` it always holds (u != e), so
    there an x in C gives order 2|C| and the test of x in C below never
    fires.  So the preconditions are one order comparison on the
    presentation of H, and the tests word by word run only to name the
    first that fails.  ``laws`` checks the construction's own laws on H.

    Every x' = x c in x C gives the same output, as y' = y d with d the
    copy of c in D, and passes or fails with x.  So H is built and checked
    once per coset and kept in the table (``_doublings``), keyed by
    ``build`` and the coset word (``_locate``); a later element of the
    coset gets the kept pair, whose H has the first element drawn from the
    coset in its last generator.  The coset word depends on the group
    only, not on its generators: the pivots of an echelon basis are the
    top bits of the space it spans, and the reductions clear them.  So
    groups that ``_share_doublings`` ties to one table, all equal, read
    each other's pairs: the H kept for a coset equals, as a group, the one
    a fresh build would give, and its laws are the same.  The signature and
    ``max_order`` checks run first, on every call, and a failure is not
    kept, so its message names the caller's element.
    """
    if x.sig is not C.sig and x.sig != C.sig:
        raise ConstructionError(f"element signature {x.sig} != group {C.sig}")
    if 2 * C.order > max_order:
        raise EnumerationLimit(f"{noun} order exceeds max_order={max_order}")
    kept, key = _doublings(C), (build, _locate(C, x.bits)[1])
    if key not in kept:
        out = build(C, x)
        if out.order != 2 * C.order:
            if x in C:
                raise ConstructionError(f"extension element {x} already lies in the group")
            if (x * x) not in C:
                raise ConstructionError(f"square of {x} lies outside the group")
            for g in C.generators:
                if conjugate(g, x) not in C:
                    raise ConstructionError(f"{x} does not normalize the group (moves {g})")
            raise RuntimeError(f"{noun} order is not 2|C|")
        kept[key] = out, laws(C, x, out)
    return kept[key]


def _doublings(C: CodeGroup) -> dict:
    """C's table of kept doublings, (build, coset word) -> (H, laws), held
    on C: its own, unless ``_share_doublings`` tied it to an equal group's."""
    return C._cache.setdefault(_doublings, {})


def _share_doublings(C: CodeGroup, tables: Dict[CodeGroup, dict]) -> None:
    """Tie C to the table of doublings of the first group equal to C that
    ``tables`` met, C's own if none; ``tables`` maps each group met to it.

    A kept H carries the generators of the group and element that built
    it, so the caller decides where a table may be shared: ``search``
    shares one per call, among the groups of its own pool.
    """
    C._cache[_doublings] = tables.setdefault(C, _doublings(C))


def extend(
    Cq: CodeGroup, x: GroupWord, max_order: int = DEFAULT_MAX_ORDER
) -> CodeGroup:
    """C^(x) = <Cq, x>: double the code with one new element.

    Preconditions: x lies outside Cq with x^2 in Cq, and conjugation by x
    preserves Cq; ``_index_two`` tests the three as one order comparison,
    and keeps the output once per coset x Cq, so a later element of that
    coset gets the same group, whose generators are Cq's and the first
    element drawn from the coset.  Then C^(x) = Cq u x*Cq, and every coset
    word x*c must have Gray weight exactly half the binary length.  The
    weights of Gray(x Cq) are those of the output less those of Cq.  The
    result must be a Hadamard code.
    """
    return _index_two(Cq, x, "extension", _adjoin, _extension_laws, max_order)[0]


def _adjoin(Cq: CodeGroup, x: GroupWord) -> CodeGroup:
    """<Cq, x>, given by Cq's generators and x."""
    return CodeGroup(Cq.sig, Cq.generators + (x,))


def _extension_laws(Cq: CodeGroup, x: GroupWord, out: CodeGroup) -> None:
    """The weight and Hadamard laws of ``extend`` on its output."""
    n = Cq.sig.n
    if n % 2:
        raise ConstructionError(f"binary length {n} is odd; no middle weight")
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


def random_doubling_element(
    sig: GroupSignature, rng: random.Random
) -> GroupWord:
    """Sample x with odd Z4 entries and Q8 entries outside <a>.

    For lifted inputs every coset word x*c then has all coordinates of
    order 4, so the weight condition holds automatically.  Each entry is
    drawn straight as the Gray block of an allowed value (``_random_word``);
    the draw reads only ``rng.getrandbits``.
    """
    if sig.k1 != 0:
        raise ConstructionError("doubling elements live in Z4/Q8 signatures")
    return _random_word(_DOUBLING_CHOICES, sig, rng)


_DOUBLING_CHOICES = _gray_choices(z4=(1, 3), q8=(4, 5, 6, 7))


# ---------------------------------------------------------------------------
# Kronecker constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KroneckerResult:
    output: CodeGroup
    predicted_type: CodeType


def _pair_bits(sig: GroupSignature, a: int, b: int) -> int:
    """Gray bits of the pair (w1, w2) in ``sig.doubled()``, from Gray(w1) = a
    and Gray(w2) = b.

    Each of the Z2, Z4 and Q8 sections of the doubled word is that section
    of w1 followed by the same section of w2.
    """
    out = 0
    for _, _, count, offset, width in _sections(sig):
        size = count * width
        mask = (1 << size) - 1
        out |= (a >> offset & mask | (b >> offset & mask) << size) << 2 * offset
    return out


def _pair_word(dsig: GroupSignature, w1: GroupWord, w2: GroupWord) -> GroupWord:
    """The pair (w1, w2) in ``dsig``, the doubled signature, given by the
    caller so that the words of one construction share one signature."""
    return GroupWord._from_bits(dsig, _pair_bits(w1.sig, w1.bits, w2.bits))


def _predict_kronecker_type(C: CodeGroup, g: GroupWord) -> Tuple[CodeType, bool]:
    """Type of the doubled group from how g sits against C, read from the
    presentation: no word product is made.

    Three exclusive cases: some coset word g*c has order <= 2 (covers
    order-2 g); some g*c centralizes C; otherwise the centralizer of g in
    Z(C) decides.  Also returns whether the first case applies: exactly
    then every swapper of g against the group collapses into S(C), which
    forces the rank of the doubled code to grow by exactly 1.

    Case 1: g*c has order <= 2 when nu(g c) = nu(g) + nu(c) = 0, so some
    c gives it exactly when nu(g) lies in nu(C): when ``_reduce`` of g by
    the basis ends at nu = 0 (``_present``).  The ambient group has class
    2, so commutators are central of order <= 2, (g c, b) = (g, b)(c, b),
    and Gray adds on them; g's row is Gray((g, b_j)) over the basis words
    b_j, and its span (``gf2.span``) holds Gray((g, p_v)) at index v.  Case 2:
    T(C) is central, so g*c centralizes C when (g c, b_j) = e for every j,
    that is when g's row equals c's; (p t, b_j) = (p, b_j) for t in T(C),
    so some c gives it exactly when g's row is the row of some coset word
    p_v, whose entries Gray((p_v, b_j)) are the polar form of the squares
    (``_polar``).  Case 3: the indices v of ``_radical`` at which g's row
    sums to 0 are the T-cosets of Z(C) that commute with g, 2^delta1 of
    them.  That is k commutators (``_commutator_bits``) and XOR.
    """
    ct, sig = code_type(C), C.sig
    if not _reduce(sig, C._pivots, g.bits)[1]:
        return CodeType(ct.sigma + 1, ct.delta, ct.rho), True
    row = [_commutator_bits(sig, g.bits, b) for b in C.basis]
    squares = _coset_squares(C)
    units = [1 << j for j in range(len(row))]
    if any([_polar(squares, v, j) for j in units] == row for v in range(len(squares))):
        return CodeType(ct.sigma, ct.delta + 1, ct.rho), False
    sums = gf2.span(row)
    delta1 = sum(1 for v in _radical(C) if not sums[v]).bit_length() - 1
    return CodeType(ct.sigma, delta1, ct.rho + ct.delta - delta1 + 1), False


def generalized_kronecker(
    C: CodeGroup, g: GroupWord, max_order: int = DEFAULT_MAX_ORDER
) -> KroneckerResult:
    """K_g(C) = <diag(C), (g, g*u)> for g normalizing C with g^2 in C.

    As u is central of order 2, the output is diag(C) u (g, g*u) diag(C),
    given by the diagonal generators and (g, g*u).  Doubles length and
    cardinality.  ``_index_two`` tests the preconditions as one order
    comparison, and keeps the output and its predicted type, the result,
    once per coset g C: a later element of that coset gets the same output
    group, whose last generator is the pair of the first element drawn
    from the coset.

    The kernel dimension grows by at most 1 and the type follows the
    predicted case split; the rank grows by at least 1, and by exactly 1
    whenever some coset word g*c has order <= 2 (then the swappers of g
    against the group collapse into S(C)).  Order-4 doubling elements
    outside that case can raise the rank further.
    """
    return KroneckerResult(*_index_two(
        C, g, "Kronecker output", _kronecker_output, _checked_kronecker_type, max_order
    ))


def _kronecker_output(C: CodeGroup, g: GroupWord) -> CodeGroup:
    """<diag(C), (g, g*u)>, given by the diagonal generators and (g, g*u)."""
    dsig = C.sig.doubled()
    diagonal = tuple(_pair_word(dsig, w, w) for w in C.generators)
    return CodeGroup(dsig, diagonal + (_pair_word(dsig, g, g * u_element(C.sig)),))


def _checked_kronecker_type(C: CodeGroup, g: GroupWord, out: CodeGroup) -> CodeType:
    """The predicted type of K_g(C), after checking the type, rank, kernel
    and Hadamard laws of ``generalized_kronecker`` on its output."""
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
    return predicted


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
    """All 24 automorphisms of Q8 as value-permutation tuples, sorted.

    Q8 = <a, b>, and an automorphism is fixed by the images A of a and B
    of b: A of order 4 and B of order 4 outside <A>, 6 * 4 pairs.  Every
    such pair generates Q8 and satisfies the relations of a and b (A^2 =
    B^2, the one element of order 2, and B^-1 A B = A^-1), so the value
    a^i b^j maps to A^i B^j.
    """
    order4 = [v for v in range(8) if Q8_ORDER[v] == 4]
    autos = []
    for A in order4:
        powers = [0, A, Q8_MUL[A][A], Q8_MUL[Q8_MUL[A][A]][A]]
        autos += [
            tuple(Q8_MUL[powers[v & 3]][B if v & 4 else 0] for v in range(8))
            for B in order4
            if B not in powers
        ]
    return tuple(sorted(autos))


def _relabel_word(w: GroupWord, autos: Sequence[Tuple[int, ...]]) -> GroupWord:
    """w with the automorphism autos[i] applied to its Q8 coordinate i."""
    sig, coords = w.sig, w.coords
    q8 = sig.k1 + sig.k2
    return GroupWord(sig, coords[:q8] + tuple(t[v] for t, v in zip(autos, coords[q8:])))


@dataclass(frozen=True)
class ConverseResult:
    """Witness that a shape-2/3 Hadamard group is a doubled lift."""

    base: CodeGroup
    doubling_element: GroupWord
    relabeled: CodeGroup
    coordinate_autos: Tuple[Tuple[int, ...], ...]


def structural_converse_check(C: CodeGroup) -> ConverseResult:
    """Recover (base Z2/Z4 code, doubling element) from a shape-2/3 group.

    The abelian index-2 subgroup spanned by the generators of the witness
    of C's shape (``classify_shape``, with
    z1 dropped, and z1*z2 replacing z2 in shape 2) projects into one
    cyclic order-4 subgroup per Q8 coordinate.  A per-coordinate Q8
    automorphism relabels those projections into <a>; automorphisms
    preserve element orders, hence Gray weights, type, rank and kernel.
    The round trip extend(xi_lift(base), z1) must re-create the relabeled
    group exactly.

    Both facts are read from the generators of the inner subgroup, not its
    words: the words with even Z4 entries form a subgroup, and so do the
    words whose Q8 coordinate i an automorphism t maps into <a> (t is a
    homomorphism, so that set is the preimage of <a> under t).  So every
    inner word lies in them exactly when every generator does, and the
    first automorphism that maps each generator's coordinate i into <a> is
    the first that maps every inner word's coordinate i there.
    """
    shape = classify_shape(C)
    if shape.tag not in (2, 3):
        raise ConstructionError(
            f"converse applies to shapes 2 and 3 only, got shape {shape.tag}"
        )
    sig = C.sig
    if sig.k1 != 0:
        raise ConstructionError("a square-u generator rules out Z2 coordinates")
    xs, zs = list(shape.witness.xs), list(shape.witness.zs)
    if shape.tag == 2:
        if sig.k2 != 0:
            raise ConstructionError("shape 2 forces a pure Q8 signature")
        abelian_gens = xs + [zs[0] * zs[1]] + zs[2:]
    else:
        abelian_gens = xs + zs[1:]
    inner = CodeGroup.generate(abelian_gens)
    if not is_abelian(inner) or 2 * inner.order != C.order:
        raise RuntimeError("index-2 abelian subgroup construction failed")
    if not all(w in C for w in inner.generators):
        raise RuntimeError("inner subgroup escaped the group")

    gen_coords = [w.coords for w in abelian_gens]  # Z4 entries first, as k1 = 0
    if any(v % 2 for c in gen_coords for v in c[: sig.k2]):
        raise RuntimeError("inner subgroup has an odd Z4 coordinate")
    autos: List[Tuple[int, ...]] = []
    for i in range(sig.k3):
        values = {c[sig.k2 + i] for c in gen_coords}
        table = next(
            (t for t in q8_automorphisms() if all(t[v] <= 3 for v in values)), None
        )
        if table is None:
            raise RuntimeError(
                f"Q8 coordinate {i + 1} projection is not cyclic; cannot relabel"
            )
        autos.append(table)
    relabeled = CodeGroup(sig, tuple(_relabel_word(g, autos) for g in C.generators))

    # halving the even Z4 entries and reading <a> as Z4 maps the relabeled
    # inner subgroup isomorphically onto base, so base is given by the
    # images of its generators
    base_sig = GroupSignature(sig.k2, sig.k3, 0)
    inner_gens = [_relabel_word(w, autos).coords for w in abelian_gens]
    halved = [tuple(v // 2 for v in c[: sig.k2]) + c[sig.k2 :] for c in inner_gens]
    base = CodeGroup(base_sig, tuple(word(base_sig, c) for c in halved))
    if not is_hadamard(base):
        raise RuntimeError("recovered base is not a Hadamard code")

    z = _relabel_word(zs[0], autos)
    rebuilt = extend(xi_lift(base), z)
    if rebuilt != relabeled:
        raise RuntimeError("round trip did not reproduce the relabeled group")
    return ConverseResult(base, z, relabeled, tuple(autos))
