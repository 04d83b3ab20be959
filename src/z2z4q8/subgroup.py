"""Code groups given by their generators, and the subgroups T, Z, C', K.

A ``CodeGroup`` is its generators.  Its constructor reads one GF(2)
presentation from them (``_present``), and everything else comes from
that: the order; one walk that locates a word (``_locate``), reducing
it by the presentation as a generator is, then by Gray(T), into the
index of its T-coset and one canonical word per coset x C, which is 0
exactly on C, so it gives membership (``w in C``) and keys the
constructions' outputs by the coset of the doubling element; one
canonical key of the group (``CodeGroup._key``), read by ``==`` and
``hash``; T(C), C' and the type; and one word per coset of T(C)
(``_coset_reps``), on which every fact constant on those cosets is
decided.  Squares, commutators and swappers of the basis are read by
XOR from the swapper table that ``_present`` keeps
(``CodeGroup.swappers``): Z(C) is the radical of the commutator form
(``_form``, ``_radical``).  The images and the squares of the 2^k coset
words are two lists built by XOR doubling on the table
(``_coset_images``, ``_coset_squares``), with no product: C has class
2, so the square map on C/T(C) is quadratic and every commutator is its
polar form (``_polar``), and no 2^k x 2^k table is built.  The span,
the null space and the lanes of one int are ``gf2``'s.  The standard
generators are read from the sort keys of the least word of each coset,
computed from images (``_minimum_keys``).  A generating set is its
words: ``verify_standard`` locates each y and z to check it, and returns
their coset indices, kept per set, for the readers of the set.  K(C)
is the T-cosets of the swapper null space (``group_kernel``).  No group
keeps its Gray image: Gray(C) is a stream, one T-coset at a time from
its image (``_gray_stream``), read by the weight count, by the words
(``elements``) and by the |C|-sized routes of ``oracles``.  Words are
built only for the readers that need them: search's draws, ``extend``'s
failure witness, the standard generators picked, the subgroups Z and K
(``_coset_reps``), the structural converse and the oracles.  Every
derived fact is computed once and kept on the instance (``_memoized``);
element iteration order is lexicographic on the coordinate tuples, so
every derived choice (bases, generating sets, reports) is deterministic.
Each subgroup built here is given by generators read from the same presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, wraps
from itertools import chain, product, starmap, takewhile
from operator import xor
from typing import Callable, Iterator, List, Sequence, Tuple, TypeVar

from . import gf2
from .groups import (
    GroupSignature,
    GroupWord,
    _commutator_bits,
    _commutator_blocks,
    _nu,
    _pi,
    _sort_key,
    identity,
)

DEFAULT_MAX_ORDER = 1 << 20


class EnumerationLimit(RuntimeError):
    """Raised when a closure would exceed the configured maximum order."""


_T = TypeVar("_T")


_MISSING = object()


def _memoized(fn: Callable[..., _T]) -> Callable[..., _T]:
    """Compute fn(C, ...) once per group and positional arguments, and
    keep it on C; a hit is one dict lookup."""

    @wraps(fn)
    def memoized(C: "CodeGroup", *args) -> _T:
        key = (fn, args)
        cache = C._cache
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = fn(C, *args)
        return value

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

    A set is its words.  The ``_coset_reps`` index of the T-coset of each
    y and z, which the shape analysis reads squares and commutators by, is
    what ``verify_standard(C, gens)`` returns.
    """

    xs: Tuple[GroupWord, ...]
    ys: Tuple[GroupWord, ...]
    zs: Tuple[GroupWord, ...]

    def all(self) -> Tuple[GroupWord, ...]:
        return self.xs + self.ys + self.zs

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the words, taken once: ``verify_standard``, kept per
        set, keys on it."""
        return hash((self.xs, self.ys, self.zs))


class CodeGroup:
    """A subgroup of Z2^k1 x Z4^k2 x Q8^k3, given by its generators.

    The constructor reads the GF(2) presentation of <generators> once
    (``_present``): ``basis`` holds the Gray images of b_1..b_k, a basis of
    C/T(C), ``torsion_rows`` a GF(2) basis of Gray(T(C)), so the order
    2^(k + dim T) is known without building a word, and ``swappers`` the
    k x k table s(b_i, b_j) = Gray(b_j) + pi_(b_i)(Gray(b_j)).  Membership
    reduces a word by the same presentation to its coset word
    (``_has_image``, ``_locate``), and equality and the hash read one
    canonical key (``_key``).  Gray(C) is not kept: it is streamed one
    T-coset at a time (``_gray_stream``), and the words themselves
    (``elements``) are built only for the readers that need them.
    """

    def __init__(self, sig: GroupSignature, generators: Sequence[GroupWord]) -> None:
        self.sig = sig
        self.generators = tuple(generators)
        pivots, self._torsion, rows, swappers = _present(
            sig, [g.bits for g in self.generators]
        )
        self._pivots: Tuple[Tuple[int, int, int], ...] = tuple(pivots)
        self.basis: Tuple[int, ...] = tuple(b for _, _, b in pivots)
        self.torsion_rows: Tuple[int, ...] = tuple(rows)
        self.swappers: Tuple[Tuple[int, ...], ...] = swappers
        self.log2_order = len(self.basis) + len(rows)
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

    def _has_image(self, x: int) -> bool:
        """Whether the word whose Gray image is x lies in C: its coset word
        is 0 (``_locate``); O(k + sigma) XORs, and no word of C is read."""
        return not _locate(self, x)[1]

    @cached_property
    def elements(self) -> frozenset:
        """The words of C, built from the Gray stream on first read."""
        return frozenset(GroupWord._from_bits(self.sig, b) for b in _gray_stream(self))

    # -- basic container behaviour ------------------------------------

    def __len__(self) -> int:
        return self.order

    def __contains__(self, w: GroupWord) -> bool:
        return (w.sig is self.sig or w.sig == self.sig) and self._has_image(w.bits)

    def __iter__(self):
        return iter(self.sorted_elements())

    @cached_property
    def _key(self) -> tuple:
        """A canonical key of the group: equal exactly when the groups are.

        It holds the signature, the rows of Gray(T(C)) and the reduced
        echelon basis of nu(C), each row with the image of a word of C over
        it, reduced by Gray(T).  The basis comes from back-substitution:
        ``_reduce`` multiplies each b_i by the later basis words b_j whose
        pivot its running nu has, in order.  nu(b_j) has the pivots before
        it clear, so step j clears pivot j and sets no pivot before j, b_i's
        own among them; and as pivot j lies below the top bit of b_i's nu,
        b_i keeps its pivot as top bit.  So every pivot ends up set in its own
        row only: the reduced echelon form, unique for the space nu(C).  The
        words stay in C, so each row r carries a word y of C with nu(y) = r;
        the words of C over r form the coset y T(C), and Gray(T) reduces all
        their images to one (``_locate``).  That is O(k^2) products.

        The key is complete.  Equal groups have equal T, whose reduced
        echelon rows (``Gf2Basis.rows``) are unique, equal nu(C) and equal
        cosets over each row.  Conversely, the reduced images are images of
        words z_1..z_k of C, and C = <T(C), z_1..z_k>: T(C) is the kernel of
        nu on C, and the nu(z_i) span nu(C).  So equal keys give equal
        generators, T(C) and the z_i, and equal groups.
        """
        sig, pivots, torsion = self.sig, self._pivots, self._torsion
        rows = (_reduce(sig, pivots[i + 1 :], b) for i, (_, _, b) in enumerate(pivots))
        lifts = tuple(sorted((v, torsion.reduce(x)) for x, v, _ in rows))
        return sig, tuple(torsion.rows()), lifts

    def __eq__(self, other) -> bool:
        return isinstance(other, CodeGroup) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    @_memoized
    def sorted_elements(self) -> List[GroupWord]:
        """The words of C in the order of their coordinate tuples, sorted by
        ``_sort_key`` on the Gray stream and built after the sort."""
        sig = self.sig
        images = sorted(_gray_stream(self), key=partial(_sort_key, sig))
        return [GroupWord._from_bits(sig, x) for x in images]


def generate(
    generators: Sequence[GroupWord], max_order: int = DEFAULT_MAX_ORDER
) -> CodeGroup:
    return CodeGroup.generate(generators, max_order)


_SPAN_BITS = 20


def _gray_stream(C: CodeGroup) -> Iterator[int]:
    """Gray(C), one T-coset at a time, in C-level steps.

    C = N x {ordered products p_v of the b_i}, N = T(C) in Omega, so
    Gray(p_v t) = Gray(p_v) + Gray(t) (``_coset_reps``), and the images
    Gray(p_v) are ``_coset_images``.  Each coset is its image plus every
    sum of the ``torsion_rows``.  The sums of the first ``cut`` rows are
    spanned once (``gf2.span``), and ``starmap(xor, product(...))`` adds them
    to every image.  The span holds 2^cut sums, with 2^cut * 2^bitlen(n)
    <= 2^20: all of Gray(T) at the lengths of the benchmark, and at most
    about 2^20 bits of images at any length.  The sums of the rows past the
    cut are walked one at a time (``gf2.walk``), each added to the images
    before the span is.
    """
    rows = C.torsion_rows
    cut = max(0, _SPAN_BITS - C.sig.n.bit_length())
    images, inner = _coset_images(C), gf2.span(rows[:cut])
    return chain.from_iterable(
        starmap(xor, product([o ^ x for x in images], inner)) for o in gf2.walk(rows[cut:])
    )


def _reduce(
    sig: GroupSignature, pivots: Sequence[Tuple[int, int, int]], x: int
) -> Tuple[int, int, int]:
    """(x b_i1 ... b_ir, its nu, the mask of i1..ir): x times each basis
    word, in order, whose pivot the running nu has (``_present``)."""
    v, index = _nu(sig, x), 0
    for i, (pivot, vb, b) in enumerate(pivots):
        if v & pivot:
            x ^= _pi(sig, x, b)
            v, index = v ^ vb, index | 1 << i
    return x, v, index


def _present(sig: GroupSignature, gens: Sequence[int]) -> Tuple[
    List[Tuple[int, int, int]], gf2.Gf2Basis, List[int], Tuple[Tuple[int, ...], ...]
]:
    """A GF(2) presentation of <gens>, on Gray images: the (pivot bit, nu,
    image) of b_1..b_k, a basis of Gray(N) with its rows, and the swapper
    table of the b_i.

    ``_nu`` is a homomorphism onto GF(2)^(k2+2k3) with kernel Omega, the
    words of order <= 2.  Each generator is multiplied on the right by the
    basis words whose pivot its nu has, which reduces nu (``_reduce``); a
    nonzero residue is a new basis word b_i, with the top bit of its nu as
    pivot, and a zero one lies in Omega.  The nu(b_i) are in echelon form:
    nu(b_i) has the pivots of the earlier b's clear (each step of the
    reduction clears its pivot and sets no earlier one), so in a nonzero
    sum of them the pivot of the earliest term is set.  So the reduction
    ends at nu = 0 exactly when nu of the input lies in the span of the
    nu(b_i), and the nu(b_i) are independent.

    Those residues, the squares b_i^2 and the commutators (b_i, b_j) lie
    in Omega, and generate a subgroup N that is central and elementary
    abelian, with Gray(N) the GF(2) span of their images; the rows returned
    are an independent subset of those images.

    The set N {b_1^e1 ... b_k^ek} is closed: a product of such words is
    put back in order by commutators, and squares (and b^-1 = b b^2) fold
    into N.  It holds
    every generator (g times its reducing basis words is a residue or a
    b_i), so it is C.  The 2^k ordered products have independent nu, so
    they lie in distinct cosets of Omega; hence T(C) = C n Omega = N and
    |C| = 2^(dim N + k).

    The squares and commutators are read from the k x k swapper table
    s(b_i, b_j) = Gray(b_j) + pi_(b_i)(Gray(b_j)), the Gray bits of the
    swapper [b_i, b_j] (``invariants._swappers``): s(b_i, b_i) = Gray(b_i)
    + pi_(b_i)(Gray(b_i)) = Gray(b_i^2), and, as s(x, y) = Gray(x) +
    Gray(y) + Gray(xy), s(b_j, b_i) + s(b_i, b_j) = Gray(b_j b_i) +
    Gray(b_i b_j) = Gray((b_j, b_i)) (``_commutator_bits``).  They
    enter N in the same order as before the table was kept: b_i^2, then
    (b_j, b_i) for j < i, so the rows are unchanged.  The table costs k^2
    applications of pi, one per square and two per commutator, as the
    squares and commutators alone did, and every later reader of squares,
    commutators and swappers of the b_i (``_radical``, ``_coset_images``,
    ``_coset_squares``, ``_coset_table``, ``is_abelian``, ``rank``,
    ``_kernel_cosets``, ``span_group`` and the Hadamard triple check) works
    on it by XOR.
    """
    pivots: List[Tuple[int, int, int]] = []  # (pivot bit, nu, word)
    torsion_basis = gf2.Gf2Basis()
    rows: List[int] = []

    def into_n(t: int) -> None:
        if torsion_basis.add(t):
            rows.append(t)

    for w in gens:
        w, v, _ = _reduce(sig, pivots, w)
        if v:
            pivots.append((1 << (v.bit_length() - 1), v, w))
        else:
            into_n(w)
    basis = [b for _, _, b in pivots]
    table = tuple(tuple(y ^ _pi(sig, x, y) for y in basis) for x in basis)
    for i, row in enumerate(table):
        into_n(row[i])
        for j in range(i):
            into_n(table[j][i] ^ row[j])
    return pivots, torsion_basis, rows, table


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
    """One word of C per coset of T(C): the ordered products p_v of the
    basis b_1..b_k of the presentation, built from their images
    (``_coset_images``); bit i of the index picks b_i, and index 0 is the
    identity.

    Every word of order <= 2 in Z2^k1 x Z4^k2 x Q8^k3 is central in the
    ambient group, and pi fixes its Gray image, so Gray(w t) = Gray(w) +
    Gray(t) for t in T(C).  A T-coset is thus an affine translate of the
    linear space Gray(T).  Squares, centrality, commutators, swappers and
    membership in K(C) and in the binary kernel are constant on T-cosets,
    so they are decided once per index and expanded by XOR with Gray(T).
    The analysis reads the index's image and square; these words are
    built only for the subgroups Z and K (``_cosets_where``) and the
    oracles.
    """
    return tuple(GroupWord._from_bits(C.sig, x) for x in _coset_images(C))


def _doubling(diagonal: Sequence[int], table: Sequence[Sequence[int]]) -> List[int]:
    """The 2^k values q[0] = 0 and q[w + 2^i] = q[w] + diagonal[i] + the sum
    of table[j][i] over the bits j of w, for w < 2^i.

    Built by XOR doubling: step i spans the i entries table[j][i], j < i,
    into the 2^i sums over w (``gf2.span``) and adds each to q[w]; 2^k XORs
    in all, and no product.
    """
    out = [0]
    for i, d in enumerate(diagonal):
        column = gf2.span([table[j][i] for j in range(i)])
        out += [q ^ d ^ c for q, c in zip(out, column)]
    return out


@_memoized
def _coset_images(C: CodeGroup) -> List[int]:
    """Gray(p_v) of the ``_coset_reps`` words, by index, by XOR doubling on
    the swapper table (``_doubling``): no product and no pi is evaluated.

    For w < 2^i the product p_(w + 2^i) is p_w b_i, and Gray(x y) =
    Gray(x) + Gray(y) + s(x, y) (``_present``), so its image is Gray(p_w) +
    Gray(b_i) + s(p_w, b_i).  s is exactly bilinear on words, s(xy, z) =
    s(x, z) + s(y, z) (``invariants._swappers``), so s(p_w, b_i) is the sum
    of s(b_j, b_i) over j in w.  ``oracles.verify`` compares the images
    with the word products (``coset_tables_by_products``).
    """
    return _doubling(C.basis, C.swappers)


@_memoized
def _coset_squares(C: CodeGroup) -> List[int]:
    """Gray(p_v^2) of the ``_coset_reps`` words, by index, by XOR doubling
    on the swapper table (``_doubling``): no product and no pi is evaluated.

    By the class-2 square law (xy)^2 = x^2 y^2 (x, y): xyxy = x^2 (x^-1 y
    x) y = x^2 y (y, x) y = x^2 y^2 (y, x), as (y, x) is central, and (y, x)
    = (x, y)^-1 = (x, y), of order <= 2.  For w < 2^i the product p_(w +
    2^i) is p_w b_i, so its square has the image squares[w] + s(b_i, b_i) +
    Gray((p_w, b_i)): all three factors have order <= 2, so they are
    central, pi fixes their images, and Gray adds.  s(b, b) = Gray(b^2)
    (``_present``).  C has class 2, so its commutators are central of order
    <= 2 and bilinear, and Gray((p_w, b_i)) is the sum of F(j, i) =
    Gray((b_j, b_i)) over j in w (``_form``).

    T(C) is central of exponent 2, so (p t)^2 = p^2: the list is the square
    map on C/T(C), and its polar form is the commutator (``_polar``).
    """
    diagonal = [row[i] for i, row in enumerate(C.swappers)]
    return _doubling(diagonal, _form(C))


def _polar(squares: Sequence[int], v: int, w: int) -> int:
    """Gray((p_v, p_w)) = squares[v] + squares[w] + squares[v ^ w], for the
    ``_coset_squares`` list: the commutator is the polar form of the
    square map on C/T(C).

    nu is a homomorphism and the nu(b_i) are independent (``_present``),
    so p_v p_w lies in the T-coset of index v ^ w: p_v p_w = p_(v ^ w) t
    with t in T(C), central of order <= 2, and (p t)^2 = p^2.  By the
    square law (``_coset_squares``) (p_v p_w)^2 = p_v^2 p_w^2 (p_v, p_w),
    three words of order <= 2, on which Gray adds.  So squares[v ^ w] =
    squares[v] + squares[w] + Gray((p_v, p_w)).
    """
    return squares[v] ^ squares[w] ^ squares[v ^ w]


def _locate(C: CodeGroup, x: int) -> Tuple[int, int]:
    """(index, coset word) of the word with Gray image x: the ``_coset_reps``
    index of its T-coset, meaningful only for a word of C, and a canonical
    image of the coset x C, one int per coset and 0 exactly on C.

    One pass over the pivots (``_reduce``) multiplies x on the right by the
    basis words b_i of C whose pivot its running nu has, and those i are
    the bits of the index.  This gives y in x C whose nu(y) has no
    pivot bit of the nu(b_i).  nu is a homomorphism, so nu(x c) = nu(x) +
    nu(c) runs over the coset nu(x) + nu(C) of the span of the nu(b_i), and
    that coset holds one vector with every pivot bit clear (``_present``: a
    nonzero sum of the nu(b_i) has the pivot of its earliest term set).  So
    for x' in x C the reduction y' has nu(y') = nu(y), and y^-1 y' lies in
    C n Omega = T(C): y' = y t with t in T(C).  t has order <= 2, so pi
    fixes its image and Gray(y t) = Gray(y) + Gray(t).  The echelon basis
    of Gray(T) reduces every vector of Gray(y) + Gray(T) to the one with
    its pivot bits clear, so the coset word is the same for x and x'.

    Conversely, if x and x' give the same coset word, Gray(y') = Gray(y) +
    Gray(t) = Gray(y t) for some t in T(C); Gray is injective, so y' = y t,
    and x' lies in y' C = y C = x C.  The identity gives 0, so the coset
    word is 0 exactly on C.  For x in C, the reduction ends at nu = 0, so
    nu(x) = sum_(i in v) nu(b_i) for the index v, and x lies in p_v T(C),
    as C n Omega = T(C); the index of a product is the XOR of the indices.
    The cost is O(k + sigma) XORs.
    """
    y, _, index = _reduce(C.sig, C._pivots, x)
    return index, C._torsion.reduce(y)


@_memoized
def _form(C: CodeGroup) -> List[List[int]]:
    """F(i, j) = Gray((b_i, b_j)) = s(b_i, b_j) + s(b_j, b_i): the
    commutator form on the basis, by XOR of the swapper table with its
    transpose (``_present``)."""
    table = C.swappers
    return [[a ^ b for a, b in zip(row, col)] for row, col in zip(table, zip(*table))]


@_memoized
def _side_by_side(C: CodeGroup) -> Tuple[int, int, int]:
    """(R, B, Q): the basis images b_j in lanes (``gf2.pack``), with R =
    ``gf2.lane_ones`` over them and Q = R * (the low bit of every Q8
    block), the masks ``_form_row`` reads."""
    width = gf2.lane_width(C.sig.n)
    ones = gf2.lane_ones(width, len(C.basis))
    return ones, gf2.pack(C.basis, width), ones * C.sig._q8


def _form_row(C: CodeGroup, a: int) -> int:
    """Gray((a, b_j)) in lane j, for the basis words b_j of C and a word a
    given by its image: one ``_commutator_blocks`` on a * R, a copy of a in
    each lane (a < 2^n), against the b_j in lanes, with the low bits of all
    their Q8 blocks (``_side_by_side``)."""
    ones, packed, q8 = _side_by_side(C)
    return _commutator_blocks(q8, a * ones, packed)


@_memoized
def _radical(C: CodeGroup) -> Tuple[int, ...]:
    """The indices v of ``_coset_reps`` whose T-coset lies in Z(C).

    Commutators in C are central of order <= 2 and bilinear, so p_v
    commutes with every b_j exactly when sum_i v_i Gray((b_i, b_j)) = 0.
    T(C) is central and C = <T(C), b_1..b_k>, so these v, the radical of
    the commutator form on C/T(C) = GF(2)^k, are Z(C)/T(C): the null space
    of the rows F(i, .) packed as lanes (``gf2.pack``), with F(i, j) =
    Gray((b_i, b_j)) read from the swapper table (``_form``).
    """
    width = gf2.lane_width(C.sig.n)
    return gf2.null_space([gf2.pack(row, width) for row in _form(C)])


@_memoized
def _kernel_cosets(C: CodeGroup) -> Tuple[int, ...]:
    """The indices v of ``_coset_reps`` whose T-coset lies in K(C).

    z is in the binary kernel of Gray(C) when z + Gray(C) = Gray(C); as 0
    is a codeword, z = Gray(x) for some x in C.  Gray(x) + Gray(y) =
    Gray(xy) + s(x, y) = Gray(s(x, y) xy), as s(x, y) lies in Omega (pi is
    1 on it and fixes its image), and s(x, y) xy lies in C exactly when
    s(x, y) does, i.e. when its bits lie in Gray(T)
    (``invariants._swappers``).  By bilinearity and s = 0 on T, x = p_v t
    passes for every y exactly when sum_i v_i s(b_i, b_j) lies in Gray(T)
    for every j: K(C)/T(C) is the null space of v -> (sum_i v_i s(b_i,
    b_j) mod Gray(T))_j.

    The k x k table is packed, s(b_i, b_j) in lane i*k + j, and every lane
    is reduced at once by Gray(T) (``C._torsion``, ``gf2.reduce_lanes``).
    Row i of the null space problem is then the k lanes from i*k, one lane
    k times as wide.  ``oracles.verify`` runs the second routes
    (``representative_kernel_cosets``, ``translation_kernel``,
    ``swapper_scan_kernel``).
    """
    k, width = len(C.basis), gf2.lane_width(C.sig.n)
    table = gf2.pack(chain.from_iterable(C.swappers), width)
    rows = gf2.unpack(gf2.reduce_lanes(table, width, k * k, C._torsion), k * width, k)
    return gf2.null_space(rows)


def _cosets_where(C: CodeGroup, passing: Sequence[int]) -> CodeGroup:
    """The subgroup made of the T-cosets at the ``_coset_reps`` indices
    ``passing``, a subspace of C/T = GF(2)^k: T's generators and the
    representatives at a basis of it generate the subgroup.
    """
    reps = _coset_reps(C)
    picked = gf2.Gf2Basis()
    gens = torsion(C).generators + tuple(reps[v] for v in passing if picked.add(v))
    return CodeGroup(C.sig, gens)


@_memoized
def center(C: CodeGroup) -> CodeGroup:
    """Z(C): the T-cosets of the radical of the commutator form."""
    return _cosets_where(C, _radical(C))


@_memoized
def commutator_subgroup(C: CodeGroup) -> CodeGroup:
    """C' = <(x, y) : x, y in C>, the span of the generator-pair commutators.

    Commutators are central of order <= 2 and biadditive in each slot, so
    generator pairs already generate C'.
    """
    gens = [g.bits for g in C.generators]
    independent = gf2.Gf2Basis()
    commutators = (_commutator_bits(C.sig, x, y) for x in gens for y in gens)
    return _elementary(C.sig, [c for c in commutators if independent.add(c)])


@_memoized
def code_type(C: CodeGroup) -> CodeType:
    """(sigma, delta, rho) from the presentation: sigma = dim T(C), delta =
    dim Z(C)/T(C), read from ``_radical``, and rho = k - delta."""
    delta = len(_radical(C)).bit_length() - 1
    return CodeType(len(C.torsion_rows), delta, len(C.basis) - delta)


@_memoized
def _key_basis(C: CodeGroup) -> gf2.Gf2Basis:
    """The rows _sort_key(t) << n | Gray(t) over a basis of T(C), the
    ``torsion_rows``, in reduced echelon form; every pivot is the top bit of
    a key (``_minimum_keys``)."""
    sig, n = C.sig, C.sig.n
    return gf2.Gf2Basis(_sort_key(sig, t) << n | t for t in C.torsion_rows)


@_memoized
def _minimum_keys(C: CodeGroup) -> Tuple[int, ...]:
    """key << n | Gray of the ``_sort_key``-least word of each T-coset
    (``_coset_minima``), by ``_coset_reps`` index; they order like the keys.

    On T-translates the key is additive: key(r t) = key(r) + key(t) for t
    in T(C).  Gray(r t) = Gray(r) + Gray(t) (``_coset_reps``), and each
    block of Gray(t) is 0 or the image of the order-2 entry: 1 (Z2), 11
    (Z4) or 1111 (Q8).  A Z2 key bit is its Gray bit.  Adding 11 to a Z4
    block (b0, b1) flips b0 and keeps b0^b1, so of its key (b0, b0^b1) only
    the first bit flips.  Adding 1111 to a Q8 block keeps p = b0^b1 and
    q = b0^b2 and flips b0, so of its key (q, b0^(q&~p), p^q, 0) only the
    second bit flips.  Each flip is the block of key(t), and the key's
    final reversal is a bit permutation.  So the key is linear on Gray(T),
    and injective, as each order-2 entry sets a key bit of its own, and the
    keys of the coset r T are key(r) + key(T).

    ``_key_basis`` holds the rows key(t) << n | Gray(t) in reduced echelon
    form, pivots at the top bit of key(t).  Reducing key(r) << n | Gray(r)
    by it gives the one vector of the coset whose pivot bits are all clear,
    and that is the least key: any other differs from it by a nonzero
    key(t), whose top bit is a pivot, clear in the reduced vector, with
    every higher bit equal.  The low n bits carry Gray(r) + Gray(t) =
    Gray(r t) along, for the same t.  The cost is O(sigma) XORs per coset.
    Both keys are read from images (``torsion_rows``, ``_coset_images``),
    so no word is built.
    """
    sig, n, keys = C.sig, C.sig.n, _key_basis(C)
    return tuple(keys.reduce(_sort_key(sig, r) << n | r) for r in _coset_images(C))


def _coset_minimum(C: CodeGroup, v: int) -> GroupWord:
    """The ``_sort_key``-least word of the T-coset of index v
    (``_minimum_keys``)."""
    return GroupWord._from_bits(C.sig, _minimum_keys(C)[v] & ((1 << C.sig.n) - 1))


def _coset_minima(C: CodeGroup) -> Tuple[GroupWord, ...]:
    """The ``_sort_key``-least word of each T-coset, by ``_coset_reps`` index
    (``_coset_minimum``); ``oracles.verify`` compares them with
    ``least_coset_words``."""
    return tuple(_coset_minimum(C, v) for v in range(len(_minimum_keys(C))))


@_memoized
def standard_generators(C: CodeGroup) -> StandardGenSet:
    """Deterministic standard generating set (first-independent-wins).

    These are the words a scan in sorted order picks: x's over T(C) that
    enlarge the GF(2) span of the Gray images, y's over Z(C) that enlarge
    <T, ys>, z's over C that enlarge <Z, zs> (the scan is the oracle
    ``oracles.scanned_standard_generators``).  They are read from the 2^k
    reduced keys of the coset minima (``_minimum_keys``), without sorting
    a group, and only the picked minima are built as words.

    x's: the key is linear and injective on T, so the scan picks the words
    of T whose key leaves the span of the keys picked before.  Once the
    rows of ``_key_basis`` at the j least pivots are picked, a key outside
    their span has a top bit at a later pivot, and the least key with top
    bit p is the row at p: adding rows at lower pivots sets the top one of
    those pivot bits, which the reduced row has clear.  So the x's are the
    rows by increasing pivot.

    y's and z's: nu is a homomorphism with kernel Omega and C n Omega =
    T(C), so nu(p_v t) = sum_i v_i nu(b_i), with the nu(b_i) independent
    (``_present``): a word of the coset v lies in <T, picked> exactly when
    v lies in the span of the picked indices.  The first word of a coset
    in sorted order is its minimum, and a coset dependent when its minimum
    is scanned stays dependent, so the scan picks minima only.  The y's are
    the minima of the radical's cosets (``_radical``), the z's those of all
    cosets, each in key order, taken when the index is independent of the
    indices taken before, until k are taken.  The set is checked by ``verify_standard``,
    which locates those indices again from the words.
    """
    low = (1 << C.sig.n) - 1
    xs = tuple(GroupWord._from_bits(C.sig, row & low) for row in _key_basis(C).rows())
    keys = _minimum_keys(C)
    radical = frozenset(_radical(C))
    scan = sorted(range(len(keys)), key=keys.__getitem__)
    taken = gf2.Gf2Basis()  # the span of the indices taken so far
    ys = [v for v in scan if v in radical and taken.add(v)]
    # no index is independent of k taken ones, so the scan stops there
    spanning = takewhile(lambda _: taken.rank < len(C.basis), scan)
    zs = [v for v in spanning if taken.add(v)]
    minimum = partial(_coset_minimum, C)
    gens = StandardGenSet(xs, tuple(map(minimum, ys)), tuple(map(minimum, zs)))
    verify_standard(C, gens)
    return gens


@_memoized
def verify_standard(C: CodeGroup, gens: StandardGenSet) -> Tuple[int, ...]:
    """Check the defining invariants of a standard generating set, and
    return the ``_coset_reps`` index of the T-coset of each y and z, in
    the order ys + zs.

    Every check reads the presentation, and none builds a word or the Gray
    image of C.  The x's are a basis of T(C) when they are sigma
    independent images in Gray(T).  The y's and z's are located in C by
    one pass each (``_locate``): a word lies in C exactly when its coset
    word is 0, and then the pass gives its index, the one value returned
    per word.  For a word w of C, nu(w) is the sum of the nu(b_i) over
    the bits of its index, and the nu(b_i) are independent (``_present``),
    so the nu facts below are read from the indices: as words have order
    1, 2 or 4 and ``_nu`` vanishes exactly on order <= 2, order 4 is a
    nonzero index, and the nu of a set of words of C have the rank of
    their indices.  Centrality is read from commutators with the
    presentation basis, not from ``_radical``: y is central in C
    exactly when it commutes with each b_i, as C = <T(C), b_1..b_k> and
    words of order <= 2 are central in the ambient group.  As commutators
    are bilinear, no product of z's is central when the z's commutator
    vectors are independent.

    The y/z products meet each T-coset of C once exactly when the nu of the
    y's and z's (their indices) have rank delta + rho.  nu is a
    homomorphism, so the ordered product p_e of the g_i picked by e has
    nu(p_e) = sum_i e_i nu(g_i).  Two products lie in one T-coset exactly
    when p_e^-1 p_e' lies in T(C) = C n Omega, i.e. when their nu agree.
    So the 2^(delta + rho) products lie in distinct T-cosets exactly when
    the nu(g_i) are independent, and as C has 2^(delta + rho) T-cosets, they then meet
    each once.  The 2^delta products of y's are central and those using a
    z are not, so Z(C) = <T(C), ys>, and delta is checked too.

    The check is a pure function of C and the set: it reads only their
    words and facts memoized on C.  So it is kept per (group, generating
    set) (``_memoized``): every reader of a set's indices, the shape
    analysis above all, which verifies the standard, normalized and
    witness sets and often finds them equal, gets them by one lookup, and
    the body runs once per distinct set.  A failure raises before anything
    is kept, so a failing set raises on every call, and no index of a set
    that is not standard for C is ever returned.  The
    ranks are taken by elimination on leading bits (``gf2.dimension``),
    with no reduced echelon basis built.
    """
    ct = code_type(C)
    if (len(gens.xs), len(gens.ys), len(gens.zs)) != ct.as_tuple():
        raise ValueError(
            f"generator counts {len(gens.xs)},{len(gens.ys)},{len(gens.zs)} "
            f"do not match type {ct}"
        )
    if ct.sigma < ct.delta:
        raise RuntimeError(f"sigma < delta in type {ct}")
    xs = [x.bits for x in gens.xs]
    if gf2.dimension(xs) != ct.sigma or not all(map(C._torsion.contains, xs)):
        raise ValueError("x generators are not a basis of T(C)")
    located = [_locate(C, w.bits) for w in gens.ys + gens.zs]
    if any(residue for _, residue in located):
        raise ValueError("a y or z generator lies outside C")
    indices = tuple(v for v, _ in located)
    if not all(indices):
        raise ValueError("a y or z generator does not have order 4")
    for y in gens.ys:
        if _form_row(C, y.bits):
            raise ValueError(f"y generator {y} is not central")
    if gf2.dimension(_form_row(C, z.bits) for z in gens.zs) != ct.rho:
        raise ValueError("a product of z generators is central")
    if gf2.dimension(indices) != ct.delta + ct.rho:
        raise ValueError("y/z products do not meet each T-coset of C once")
    return indices


@_memoized
def group_kernel(C: CodeGroup) -> CodeGroup:
    """K(C) = {x in C : the swapper [x, y] lies in C for every y in C}: the
    T-cosets of the swapper null space (``_kernel_cosets``).

    Gray is injective, so [x, y] lies in C exactly when its Gray bits lie
    in Gray(C), and Gray(K(C)) is the binary kernel of Gray(C).  The
    |C|^2 scan of every pair is ``oracles.swapper_scan_kernel``, run in
    the tests and by ``oracles.verify`` (``analyze --verify``).
    """
    return _cosets_where(C, _kernel_cosets(C))
