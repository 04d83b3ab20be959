"""Code groups given by their generators, and the subgroups T, Z, C', K.

A ``CodeGroup`` is its generators.  Its constructor reads one GF(2)
presentation from them (``_present``), and everything else comes from
that: the order, T(C), C' and the type, Gray(C) as ints (which decides
membership and equality), and one word per coset of T(C) (``_coset_reps``),
on which every fact constant on those cosets is decided.  Words are built
only for the readers that need them: ``sorted_elements`` (the standard
generators of the Hadamard path), the full kernel scans and the oracles.
Every derived fact is computed once and kept on the instance
(``_memoized``); element iteration order is lexicographic on the
coordinate tuples, so every derived choice (bases, generating sets,
reports) is deterministic.  Each subgroup built here is given by
generators read from the same presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, List, Sequence, Tuple, TypeVar

from .gf2 import Gf2Basis
from .groups import GroupSignature, GroupWord, _nu, _pi, _sort_key, identity

DEFAULT_MAX_ORDER = 1 << 20


class EnumerationLimit(RuntimeError):
    """Raised when a closure would exceed the configured maximum order."""


_T = TypeVar("_T")


def _memoized(fn: Callable[..., _T]) -> Callable[..., _T]:
    """Compute fn(C, ...) once per group and arguments, and keep it on C."""

    @wraps(fn)
    def memoized(C: "CodeGroup", *args, **kwargs) -> _T:
        key = (fn, args, tuple(sorted(kwargs.items())))
        cache = C._cache
        if key not in cache:
            cache[key] = fn(C, *args, **kwargs)
        return cache[key]

    return memoized


@dataclass(frozen=True)
class CodeType:
    """Group-structure fingerprint (sigma, delta, rho)."""

    sigma: int
    delta: int
    rho: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.sigma, self.delta, self.rho)

    @property
    def total(self) -> int:
        return self.sigma + self.delta + self.rho

    def __str__(self) -> str:
        return f"({self.sigma},{self.delta},{self.rho})"


@dataclass(frozen=True)
class StandardGenSet:
    """Generators x_1..x_sigma; y_1..y_delta; z_1..z_rho.

    The x's are a GF(2) basis of T(C); the y's lift a basis of Z(C)/T(C);
    the z's lift a basis of C/Z(C).  Every element factors uniquely as
    prod(x^alpha) * prod(y^beta) * prod(z^gamma) with 0/1 exponents.
    """

    xs: Tuple[GroupWord, ...]
    ys: Tuple[GroupWord, ...]
    zs: Tuple[GroupWord, ...]

    def all(self) -> Tuple[GroupWord, ...]:
        return self.xs + self.ys + self.zs


class CodeGroup:
    """A subgroup of Z2^k1 x Z4^k2 x Q8^k3, given by its generators.

    The constructor reads the GF(2) presentation of <generators> once
    (``_present``): ``basis`` holds the Gray images of b_1..b_k, a basis of
    C/T(C), and ``torsion_rows`` a GF(2) basis of Gray(T(C)), so the order
    2^(k + dim T) is known without building a word.  Gray(C), as ints, is
    read from them on first use (``gray_codewords``), and decides
    membership and equality.  The words themselves (``elements``) are built
    only for the readers that need them.
    """

    def __init__(self, sig: GroupSignature, generators: Sequence[GroupWord]) -> None:
        self.sig = sig
        self.generators = tuple(generators)
        basis, rows = _present(sig, [g.bits for g in self.generators])
        self.basis: Tuple[int, ...] = tuple(basis)
        self.torsion_rows: Tuple[int, ...] = tuple(rows)
        self.log2_order = len(basis) + len(rows)
        self.order = 1 << self.log2_order
        self._cache: dict = {}

    @classmethod
    def generate(
        cls,
        generators: Sequence[GroupWord],
        max_order: int = DEFAULT_MAX_ORDER,
    ) -> "CodeGroup":
        """Smallest subgroup containing the generators.

        Its order comes from the presentation, and is checked against
        ``max_order`` before any word is built.
        """
        gens = tuple(generators)
        if not gens:
            raise ValueError("at least one generator is required")
        sig = gens[0].sig
        for g in gens[1:]:
            if g.sig != sig:
                raise ValueError(f"inconsistent signatures {sig} and {g.sig}")
        C = cls(sig, gens)
        if C.order > max_order:
            raise EnumerationLimit(f"subgroup order exceeds max_order={max_order}")
        return C

    @cached_property
    def _gray(self) -> frozenset:
        # C = N x {ordered products p of the b_i}, N in Omega, so
        # Gray(p t) = Gray(p) + Gray(t) as in ``_coset_reps``
        tbits = _span(self.torsion_rows)
        return frozenset(p.bits ^ t for p in _coset_reps(self) for t in tbits)

    @cached_property
    def elements(self) -> frozenset:
        """The words of C, built from Gray(C) on first read."""
        return frozenset(GroupWord._from_bits(self.sig, b) for b in self._gray)

    # -- basic container behaviour ------------------------------------

    def __len__(self) -> int:
        return self.order

    def __contains__(self, w: GroupWord) -> bool:
        return (w.sig is self.sig or w.sig == self.sig) and w.bits in self._gray

    def __iter__(self):
        return iter(self.sorted_elements())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CodeGroup)
            and self.sig == other.sig
            and self.order == other.order
            and self._gray == other._gray
        )

    def __hash__(self) -> int:
        return hash((self.sig, self._gray))

    @_memoized
    def sorted_elements(self) -> List[GroupWord]:
        return sorted(self.elements, key=_sort_key)


def generate(
    generators: Sequence[GroupWord], max_order: int = DEFAULT_MAX_ORDER
) -> CodeGroup:
    return CodeGroup.generate(generators, max_order)


def gray_codewords(C: CodeGroup) -> frozenset:
    """Gray(C) as a set of image bits: each coset representative plus Gray(T)."""
    return C._gray


def _swapper_bits(x: GroupWord, y: GroupWord) -> int:
    """Gray bits of the swapper [x, y]: Gray(x) + Gray(y) + Gray(xy)."""
    return x.bits ^ y.bits ^ (x * y).bits


def _commutator_bits(sig: GroupSignature, x: int, y: int) -> int:
    """Gray((x, y)) for words given by their Gray images x and y.

    xy = yx (x, y), and (x, y) has order <= 2: it is central and pi fixes
    its image, so Gray(xy) = Gray(yx) + Gray((x, y)).
    """
    return x ^ y ^ _pi(sig, x, y) ^ _pi(sig, y, x)


def _span(rows: Sequence[int]) -> List[int]:
    """Every XOR of a subset of rows; bit i of the index picks rows[i]."""
    out = [0]
    for r in rows:
        out += [v ^ r for v in out]
    return out


def _present(sig: GroupSignature, gens: Sequence[int]) -> Tuple[List[int], List[int]]:
    """A GF(2) presentation of <gens>, on Gray images: (b_1..b_k, rows of N).

    ``_nu`` is a homomorphism onto GF(2)^(k2+2k3) with kernel Omega, the
    words of order <= 2.  Each generator is multiplied on the right by the
    basis words whose pivot its nu has, which reduces nu; a nonzero
    residue is a new basis word b_i, a zero one lies in Omega.  Those
    residues, the squares b_i^2 and the commutators (b_i, b_j) lie in
    Omega, and generate a subgroup N that is central and elementary
    abelian, with Gray(N) the GF(2) span of their images; the rows returned
    are an independent subset of those images.

    The set N {b_1^e1 ... b_k^ek} is closed: a product of such words is
    put back in order by commutators, and squares (and b^-1 = b b^2) fold
    into N.  It holds
    every generator (g times its reducing basis words is a residue or a
    b_i), so it is C.  The 2^k ordered products have independent nu, so
    they lie in distinct cosets of Omega; hence T(C) = C n Omega = N and
    |C| = 2^(dim N + k).
    """
    pivots: List[Tuple[int, int, int]] = []  # (pivot bit, nu, word)
    torsion_basis = Gf2Basis()
    rows: List[int] = []

    def into_n(t: int) -> None:
        if torsion_basis.add(t):
            rows.append(t)

    for w in gens:
        v = _nu(sig, w)
        for pivot, vb, b in pivots:
            if v & pivot:
                w ^= _pi(sig, w, b)
                v ^= vb
        if v:
            pivots.append((1 << (v.bit_length() - 1), v, w))
        else:
            into_n(w)
    basis = [b for _, _, b in pivots]
    for i, b in enumerate(basis):
        into_n(b ^ _pi(sig, b, b))
        for c in basis[:i]:
            into_n(_commutator_bits(sig, c, b))
    return basis, rows


@_memoized
def gray_basis(C: CodeGroup) -> Gf2Basis:
    """GF(2) row basis of all of Gray(C); callers only read it.

    The |C|-sized elimination behind ``invariants.span_group``: a test
    oracle for ``invariants.rank``, which reads the presentation.
    """
    return Gf2Basis(gray_codewords(C))


def _elementary(sig: GroupSignature, rows: Sequence[int]) -> CodeGroup:
    """The subgroup of Omega generated by the independent images ``rows``.

    Words of order <= 2 are central and pi fixes their images, so Gray
    adds on them and the subgroup's images are the span of the rows.
    """
    words = tuple(GroupWord._from_bits(sig, r) for r in rows)
    return CodeGroup(sig, words or (identity(sig),))


@_memoized
def torsion(C: CodeGroup) -> CodeGroup:
    """T(C) = {z in C : z^2 = e}; elementary abelian and central, generated
    by the rows of the presentation."""
    return _elementary(C.sig, C.torsion_rows)


@_memoized
def _coset_reps(C: CodeGroup) -> Tuple[GroupWord, ...]:
    """One word of C per coset of T(C): the ordered products of the basis
    b_1..b_k of the presentation; bit i of the index picks b_i, and
    index 0 is the identity.

    Every word of order <= 2 in Z2^k1 x Z4^k2 x Q8^k3 is central in the
    ambient group, and pi fixes its Gray image, so Gray(w t) = Gray(w) +
    Gray(t) for t in T(C).  A T-coset is thus an affine translate of the
    linear space Gray(T).  Squares, centrality, commutators, swappers and
    membership in K(C) and in the binary kernel are constant on T-cosets,
    so they are decided on these words and expanded by XOR with Gray(T).
    """
    basis = [GroupWord._from_bits(C.sig, b) for b in C.basis]
    return tuple(_products(C.sig, basis))


def _commutator_row(C: CodeGroup, a: GroupWord) -> List[int]:
    """Gray((a, w)) for each word w of ``_coset_reps``, by index.

    C has class 2: its commutators have order <= 2, so they are central,
    (a, xy) = (a, x)(a, y), and Gray adds on them.  So the row is the span
    of the k commutators (a, b_j), indexed like the products.
    """
    return _span([_commutator_bits(C.sig, a.bits, b) for b in C.basis])


def _cosets_where(C: CodeGroup, test: Callable[[GroupWord], bool]) -> CodeGroup:
    """The subgroup made of the T-cosets whose representative passes ``test``.

    The index of a representative is its coset's vector in C/T = GF(2)^k,
    so the passing indices form a subspace, and T's generators with the
    representatives at a basis of it generate the subgroup.
    """
    reps = _coset_reps(C)
    passing = [v for v, r in enumerate(reps) if test(r)]
    picked = Gf2Basis()
    gens = torsion(C).generators + tuple(reps[v] for v in passing if picked.add(v))
    return CodeGroup(C.sig, gens)


@_memoized
def center(C: CodeGroup) -> CodeGroup:
    """Z(C): the T-cosets whose representative commutes with the generators."""
    gens = C.generators
    return _cosets_where(C, lambda w: all(w * g == g * w for g in gens))


@_memoized
def commutator_subgroup(C: CodeGroup) -> CodeGroup:
    """C' = <(x, y) : x, y in C>, the span of the generator-pair commutators.

    Commutators are central of order <= 2 and biadditive in each slot, so
    generator pairs already generate C'.
    """
    gens = [g.bits for g in C.generators]
    span, rows = Gf2Basis(), []
    for x in gens:
        for y in gens:
            c = _commutator_bits(C.sig, x, y)
            if span.add(c):
                rows.append(c)
    return _elementary(C.sig, rows)


@_memoized
def code_type(C: CodeGroup) -> CodeType:
    """(sigma, delta, rho) from the presentation.

    sigma = dim T(C).  A word n p_v lies in Z(C) exactly when v is in the
    radical of the commutator form on C/T(C) = GF(2)^k, i.e. when the sum
    of the rows sum_j Gray((b_i, b_j)) << j*n picked by v is zero; so rho
    is the GF(2) rank of those rows and delta = k - rho.
    """
    sig, n = C.sig, C.sig.n
    form = Gf2Basis(
        sum(_commutator_bits(sig, a, b) << (j * n) for j, b in enumerate(C.basis))
        for a in C.basis
    )
    return CodeType(len(C.torsion_rows), len(C.basis) - form.rank, form.rank)


@_memoized
def standard_generators(C: CodeGroup) -> StandardGenSet:
    """Deterministic standard generating set (first-independent-wins).

    Scans elements in sorted order: x's are picked to enlarge the GF(2)
    span of Gray(T(C)), y's to enlarge <T, ys> within Z(C), z's to enlarge
    <Z, zs> within C.  nu is a homomorphism with kernel Omega, and
    C n Omega = T, so a word lies in <T, picked> exactly when its nu lies
    in the span of the picked words' nu; Z = <T, ys> gives the same for
    the z's.  The unique-product property is verified.
    """
    T = torsion(C)
    Z = center(C)

    xs: List[GroupWord] = []
    basis = Gf2Basis()
    for w in T.sorted_elements():
        if not w.is_identity() and basis.add(w.bits):
            xs.append(w)
    if len(xs) != T.log2_order:
        raise RuntimeError("torsion basis extraction failed")

    nus = Gf2Basis()

    def pick(candidates: Sequence[GroupWord], dim: int) -> List[GroupWord]:
        picked = []
        for w in candidates:
            if nus.rank == dim:
                break
            if nus.add(_nu(C.sig, w.bits)):
                picked.append(w)
        return picked

    ys = pick(Z.sorted_elements(), Z.log2_order - T.log2_order)
    zs = pick(C.sorted_elements(), C.log2_order - T.log2_order)

    gens = StandardGenSet(tuple(xs), tuple(ys), tuple(zs))
    verify_standard(C, gens)
    return gens


def verify_standard(C: CodeGroup, gens: StandardGenSet) -> None:
    """Check the defining invariants of a standard generating set.

    With each generator in its layer, the x's span T(C) exactly when their
    Gray images are independent, and the y/z products factor C uniquely
    exactly when their T-cosets tile Gray(C).  The 2^delta products of y's
    then fill the 2^delta T-cosets of Z(C), so every product that uses a z
    lies outside Z(C).
    """
    T = torsion(C)
    Z = center(C)
    ct = code_type(C)
    if (len(gens.xs), len(gens.ys), len(gens.zs)) != ct.as_tuple():
        raise ValueError(
            f"generator counts {len(gens.xs)},{len(gens.ys)},{len(gens.zs)} "
            f"do not match type {ct}"
        )
    if ct.sigma < ct.delta:
        raise RuntimeError(f"sigma < delta in type {ct}")
    for x in gens.xs:
        if x not in T:
            raise ValueError(f"x generator {x} not in T(C)")
    for y in gens.ys:
        if y not in Z or y.order() != 4:
            raise ValueError(f"y generator {y} not an order-4 central element")
    for z in gens.zs:
        if z in Z or z.order() != 4:
            raise ValueError(f"z generator {z} not an order-4 non-central element")
    if Gf2Basis(x.bits for x in gens.xs).rank != ct.sigma:
        raise ValueError("x generators are dependent")
    products = _products(C.sig, gens.ys + gens.zs)
    tbits = gray_codewords(T)
    if {p.bits ^ t for p in products for t in tbits} != gray_codewords(C):
        raise ValueError("y/z products do not meet each T-coset of C once")


def _products(sig: GroupSignature, gens: Sequence[GroupWord]) -> List[GroupWord]:
    """Products of the subsets of gens, in order; bit i of the index picks gens[i]."""
    out = [identity(sig)]
    for g in gens:
        out += [w * g for w in out]
    return out


@_memoized
def group_kernel(C: CodeGroup, full: bool = False) -> CodeGroup:
    """K(C) = {x in C : the swapper [x, y] lies in C for every y in C}.

    Swappers are homomorphisms in each slot, so testing y over the
    generators suffices, and x over one word per T-coset.  ``full`` also
    runs the |C|^2 scan over every x and y, and raises RuntimeError when
    its set is not that K.  Gray is injective, so [x, y] lies in C exactly
    when its Gray bits lie in Gray(C).  A test oracle for
    ``invariants.kernel_dim``, which reads the presentation; ``reproduce``
    and ``analyze(full_kernel_check=True)`` also call it.
    """
    codewords = gray_codewords(C)

    def passes(x: GroupWord, probes: Sequence[GroupWord]) -> bool:
        return all(_swapper_bits(x, y) in codewords for y in probes)

    if full:
        K = group_kernel(C)
        scan = frozenset(x.bits for x in C.elements if passes(x, C.elements))
        if scan != gray_codewords(K):
            raise RuntimeError("full kernel scan disagrees with the coset route")
        return K
    K = _cosets_where(C, lambda x: passes(x, C.generators))
    if not gray_codewords(torsion(C)) <= gray_codewords(K):
        raise RuntimeError("T(C) escaped K(C); swapper arithmetic is broken")
    return K
