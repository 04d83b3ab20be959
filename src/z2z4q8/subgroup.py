"""Subgroup enumeration and structural subgroups T, Z, C', K.

A ``CodeGroup`` is a fully enumerated subgroup together with the generators
it was built from; a wrapped subset derives greedy ones on first read.
Every derived fact is computed once and kept on the instance
(``_memoized``); element iteration order is always lexicographic on the
coordinate tuples so that every derived choice (bases, generating sets,
reports) is deterministic.  Every closure runs through ``_closure``, and
every fact constant on the cosets of T(C) is decided on one word per coset
(``_coset_reps``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .gf2 import Gf2Basis
from .groups import GroupSignature, GroupWord, commutator, identity

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


def _closure(
    base: Iterable[GroupWord],
    gens: Sequence[GroupWord],
    max_order: int = DEFAULT_MAX_ORDER,
    stage: str = "subgroup",
) -> set:
    """<base, gens> for a subgroup ``base`` that the gens generate or normalize.

    A worklist over right cosets base*r: each representative meets every
    generator, and a product outside the cosets found so far brings in its
    whole coset.  With base = {e} it is the element-by-element closure.
    ``stage`` names the closure when it outgrows ``max_order``.
    """
    base = list(base)
    others = [h for h in base if not h.is_identity()]
    seen = set(base)
    frontier = [base[0]]  # any element of base represents the coset base itself
    while frontier:
        rep = frontier.pop()
        for g in gens:
            nxt = rep * g
            if nxt not in seen:
                if len(seen) + len(base) > max_order:
                    raise EnumerationLimit(
                        f"{stage} order exceeds max_order={max_order}"
                    )
                seen.add(nxt)
                for h in others:
                    seen.add(h * nxt)
                frontier.append(nxt)
    return seen


def _first_independent(
    start: Iterable[GroupWord], candidates: Iterable[GroupWord], order: int
) -> List[GroupWord]:
    """Candidates, in order, that each enlarge <start, picked so far>.

    ``start`` is a subgroup normalized by every candidate; the scan stops at
    ``order`` elements.
    """
    picked: List[GroupWord] = []
    have = set(start)
    for w in candidates:
        if len(have) == order:
            break
        if w not in have:
            picked.append(w)
            have = _closure(have, picked)
    return picked


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
    """Enumerated subgroup of Z2^k1 x Z4^k2 x Q8^k3."""

    def __init__(
        self,
        sig: GroupSignature,
        elements: frozenset,
        generators: Optional[Tuple[GroupWord, ...]],
    ) -> None:
        self.sig = sig
        self.elements = elements
        order = len(elements)
        if order == 0 or order & (order - 1):
            raise ValueError(f"subgroup order {order} is not a power of 2")
        self._cache: dict = {}
        self._generators = generators

    @property
    def generators(self) -> Tuple[GroupWord, ...]:
        """The generators given, or for a wrapped subset (``generators`` None)
        the greedy first-independent ones in sorted order, derived on first
        read."""
        if self._generators is None:
            e = identity(self.sig)
            picked = _first_independent([e], self.sorted_elements(), self.order)
            self._generators = tuple(picked) or (e,)
        return self._generators

    @classmethod
    def generate(
        cls,
        generators: Sequence[GroupWord],
        max_order: int = DEFAULT_MAX_ORDER,
    ) -> "CodeGroup":
        """Smallest subgroup containing the generators (worklist closure)."""
        gens = tuple(generators)
        if not gens:
            raise ValueError("at least one generator is required")
        sig = gens[0].sig
        for g in gens[1:]:
            if g.sig != sig:
                raise ValueError(f"inconsistent signatures {sig} and {g.sig}")
        return cls(sig, frozenset(_closure([identity(sig)], gens, max_order)), gens)

    # -- basic container behaviour ------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def log2_order(self) -> int:
        return self.order.bit_length() - 1

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, w: GroupWord) -> bool:
        return w in self.elements

    def __iter__(self):
        return iter(self.sorted_elements())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CodeGroup)
            and self.sig == other.sig
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.sig, self.elements))

    @_memoized
    def sorted_elements(self) -> List[GroupWord]:
        return sorted(self.elements, key=lambda w: w.coords)

    def subgroup(self, elements: Iterable[GroupWord]) -> "CodeGroup":
        """Wrap an already-closed subset as a CodeGroup (greedy gens on read)."""
        return CodeGroup(self.sig, frozenset(elements), None)


def generate(
    generators: Sequence[GroupWord], max_order: int = DEFAULT_MAX_ORDER
) -> CodeGroup:
    return CodeGroup.generate(generators, max_order)


@_memoized
def gray_codewords(C: CodeGroup) -> frozenset:
    """Gray(C) as a set of image bits."""
    return frozenset(w.bits for w in C.elements)


def _swapper_bits(x: GroupWord, y: GroupWord) -> int:
    """Gray bits of the swapper [x, y]: Gray(x) + Gray(y) + Gray(xy)."""
    return x.bits ^ y.bits ^ (x * y).bits


@_memoized
def gray_basis(C: CodeGroup) -> Gf2Basis:
    """GF(2) row basis of Gray(C); callers only read it."""
    return Gf2Basis(gray_codewords(C))


@_memoized
def torsion(C: CodeGroup) -> CodeGroup:
    """T(C) = {z in C : z^2 = e}; elementary abelian and central."""
    return C.subgroup(w for w in C.elements if w.order() <= 2)


@_memoized
def _coset_reps(C: CodeGroup) -> Tuple[GroupWord, ...]:
    """One word of C per coset of T(C).

    Every word of order <= 2 in Z2^k1 x Z4^k2 x Q8^k3 is central in the
    ambient group, and pi fixes its Gray image, so Gray(w t) = Gray(w) +
    Gray(t) for t in T(C).  A T-coset is thus an affine translate of the
    linear space Gray(T), named by Gray(w) reduced modulo a basis of it.
    Squares, centrality, commutators, swappers and membership in K(C) and
    in the binary kernel are constant on T-cosets, so they are decided on
    these words and expanded with ``_cosets_where``.
    """
    basis = Gf2Basis(gray_codewords(torsion(C)))
    return tuple({basis.reduce(w.bits): w for w in C.elements}.values())


def _cosets_where(C: CodeGroup, test: Callable[[GroupWord], bool]) -> frozenset:
    """The words of the T-cosets whose representative passes ``test``."""
    tbits = gray_codewords(torsion(C))
    return frozenset(
        GroupWord._from_bits(C.sig, r.bits ^ t)
        for r in _coset_reps(C)
        if test(r)
        for t in tbits
    )


@_memoized
def center(C: CodeGroup) -> CodeGroup:
    """Z(C): the T-cosets whose representative commutes with the generators."""
    gens = C.generators
    return C.subgroup(_cosets_where(C, lambda w: all(w * g == g * w for g in gens)))


@_memoized
def commutator_subgroup(C: CodeGroup) -> CodeGroup:
    """C' = <(x, y) : x, y in C>.

    Commutators are central of order <= 2 and biadditive in each slot, so
    generator pairs already generate C'.
    """
    gens = C.generators
    comms = [commutator(x, y) for x in gens for y in gens]
    nontrivial = [c for c in comms if not c.is_identity()]
    return C.subgroup(_closure([identity(C.sig)], nontrivial))


@_memoized
def code_type(C: CodeGroup) -> CodeType:
    sigma = torsion(C).log2_order
    delta = center(C).log2_order - sigma
    rho = C.log2_order - center(C).log2_order
    return CodeType(sigma, delta, rho)


@_memoized
def standard_generators(C: CodeGroup) -> StandardGenSet:
    """Deterministic standard generating set (first-independent-wins).

    Scans elements in sorted order: x's are picked to enlarge the GF(2)
    span of Gray(T(C)), y's to enlarge <T, ys> within Z(C), z's to enlarge
    <Z, zs> within C.  The unique-product property is verified.
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

    # commutators have order <= 2, so they lie in T and every subgroup
    # containing T is normal in C
    ys = _first_independent(T.elements, Z.sorted_elements(), Z.order)
    zs = _first_independent(Z.elements, C.sorted_elements(), C.order)

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


def torsion_cosets(C: CodeGroup) -> List[GroupWord]:
    """Coset representatives of T(C) in C, in exponent order.

    Representative at index v (bits little-endian over ys+zs) is the product
    of the standard y/z generators selected by v; index 0 is the identity.
    """
    gens = standard_generators(C)
    return _products(C.sig, gens.ys + gens.zs)


@_memoized
def group_kernel(C: CodeGroup, full: bool = False) -> CodeGroup:
    """K(C) = {x in C : the swapper [x, y] lies in C for every y in C}.

    Swappers are homomorphisms in each slot, so testing y over the
    generators suffices, and x over one word per T-coset; ``full`` forces
    the |C|^2 cross-check.  Gray is injective, so [x, y] lies in C exactly
    when its Gray bits lie in Gray(C).
    """
    codewords = gray_codewords(C)
    probes = C.elements if full else C.generators

    def passes(x: GroupWord) -> bool:
        return all(_swapper_bits(x, y) in codewords for y in probes)

    members = filter(passes, C.elements) if full else _cosets_where(C, passes)
    K = C.subgroup(members)
    if not torsion(C).elements <= K.elements:
        raise RuntimeError("T(C) escaped K(C); swapper arithmetic is broken")
    return K
