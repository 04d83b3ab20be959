"""Second routes to the facts the rest of the package reads from the GF(2)
presentation (``subgroup._present``), and ``verify``, which runs them.

Each route here reaches a fact by another way than the hot path does: by
building all of Gray(C) or the words of C, by scanning Z2^n, by testing
the 2^k coset representatives one against another, or by relabeling the
ambient group.  ``verify(C)`` runs every pair of routes and raises
``RuntimeError`` naming the pair that disagrees; ``analyze --verify``
calls it before ``report.analyze``, and the tests call it and the routes
themselves.  No package module but ``cli`` imports this one, so
``import z2z4q8`` does not load it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import xor
from typing import Iterable, List, Sequence, Tuple

from . import gf2
from .constructions import q8_automorphisms
from .gray import BinaryVector
from .groups import GroupSignature, GroupWord, _sort_key, commutator, identity, word
from .hadamard import (
    _generates,
    _hadamard_pair_triple_checks,
    _v_set,
    classify_shape,
    is_hadamard,
)
from .invariants import (
    _BRUTE_FORCE_LIMIT,
    _pairwise_checks,
    check_bounds,
    kernel_dim,
    rank,
    span_group,
    weight_distribution,
)
from .subgroup import (
    CodeGroup,
    EnumerationLimit,
    StandardGenSet,
    _coset_images,
    _coset_minima,
    _coset_reps,
    _coset_squares,
    _form,
    _gray_stream,
    _kernel_cosets,
    _memoized,
    _polar,
    center,
    code_type,
    standard_generators,
    torsion,
)

_VERIFY_MAX_ORDER = 1 << 10


def gray_codewords(C: CodeGroup) -> frozenset:
    """Gray(C) as a set of image bits, built anew on every call."""
    return frozenset(_gray_stream(C))


@_memoized
def gray_basis(C: CodeGroup) -> gf2.Gf2Basis:
    """GF(2) row basis of all of Gray(C); callers only read it.

    The oracle for ``invariants.rank`` and ``invariants.span_group``.
    """
    return gf2.Gf2Basis(gray_codewords(C))


def _swapper_bits(x: GroupWord, y: GroupWord) -> int:
    """Gray bits of the swapper [x, y]: Gray(x) + Gray(y) + Gray(xy)."""
    return x.bits ^ y.bits ^ (x * y).bits


def coset_row_space(C: CodeGroup) -> gf2.Gf2Basis:
    """The row space of Gray(C) from one codeword per T-coset: Gray(T)
    plus the 2^k images of ``_coset_reps``.

    The T-cosets tile C and Gray(p t) = Gray(p) + Gray(t), so these rows
    span all of Gray(C).  The second route to ``invariants.rank``, which
    spans the presentation instead; ``verify`` asks for the same dimension
    and for every Gray(b_i) and s(b_i, b_j) to lie in it.
    """
    return gf2.Gf2Basis(C.torsion_rows + tuple(p.bits for p in _coset_reps(C)))


def _products(sig: GroupSignature, gens: Sequence[GroupWord]) -> List[GroupWord]:
    """Products of the subsets of gens, in order; bit i of the index picks gens[i]."""
    out = [identity(sig)]
    for g in gens:
        out += [w * g for w in out]
    return out


def coset_tables_by_products(
    C: CodeGroup,
) -> Tuple[List[int], List[int], List[List[int]], List[List[int]]]:
    """(images, squares, commutator rows, reduced swappers) of the 2^k
    ordered products p_v of the basis words, by index, from the words
    themselves: Gray(p), (p p), commutator(p, q) and the swapper bits of
    (p, q) reduced by Gray(T) (``C._torsion``).

    The words are multiplied out here (``_products``), not read from
    ``_coset_reps``, which is built from ``subgroup._coset_images``.  The
    second route to ``_coset_images`` and ``_coset_squares``, to the
    commutators as the polar form of the squares (``_polar``), and to
    ``_coset_table`` and ``_reduced_swappers``, which read the same
    tables by XOR from the k x k swapper table, by the class-2 laws and
    bilinearity.  The cost is 4^k <= |C|^2 word products of each kind.
    """
    basis = [GroupWord._from_bits(C.sig, b) for b in C.basis]
    reps, reduce = _products(C.sig, basis), C._torsion.reduce
    images = [p.bits for p in reps]
    squares = [(p * p).bits for p in reps]
    rows = [[commutator(p, q).bits for q in reps] for p in reps]
    residues = [[reduce(_swapper_bits(p, q)) for q in reps] for p in reps]
    return images, squares, rows, residues


def _span_table(base: Sequence[List[int]]) -> List[List[int]]:
    """The 2^k rows T[w] = sum of base[i] over the bits i of w, entry by
    entry, for k equal-length rows base[i] of 2^k entries.

    Built by XOR doubling, T[0] = 0 and T[w + 2^i] = T[w] + base[i] for
    w < 2^i, each row one C-level ``map`` of ``xor``: 4^k XORs, and no
    Python step per entry.
    """
    table = [[0] * (1 << len(base))]
    for b in base:
        table += [list(map(xor, row, b)) for row in table]
    return table


def _coset_table(C: CodeGroup) -> Tuple[List[int], List[List[int]]]:
    """(squares, commutator rows) of the ``_coset_reps`` words, by index:
    the 4^k table the Hadamard pair and triple checks read before they
    polarized the squares.

    The squares are ``_coset_squares``.  The rows are by bilinearity: C
    has class 2, so its commutators have order <= 2, they are central,
    (xy, z) = (x, z)(y, z) = (z, xy), and Gray adds on them.  So with
    F(i, j) = Gray((b_i, b_j)) (``_form``), the entry Gray((p_w, p_v)) is
    the sum of F(i, j) over i in w and j in v: the sum over i in w of the
    rows span(F(i, .)), indexed like the products (``gf2.span``,
    ``_products``), and the table is their ``_span_table``.  T(C) is
    central of exponent 2, so (p t, w) = (p, w).
    """
    return _coset_squares(C), _span_table([gf2.span(f) for f in _form(C)])


def _reduced_swappers(C: CodeGroup) -> List[List[int]]:
    """s(p_v, p_w) mod Gray(T) by (v, w), for the ``_coset_reps`` words, by
    XOR on the swapper table reduced once: no product and no pi is evaluated.

    s is exactly bilinear on words (``invariants._swappers``), so
    s(p_v, p_w) is the sum of s(b_i, b_j) over i in v and j in w: the sum
    over i in v of the rows span(s(b_i, .)), indexed like the products
    (``gf2.span``), and the table is their ``_span_table``.  Reduction
    (``Gf2Basis.reduce``) is linear, so it is applied once per entry of
    the k x k table, and the sums of residues are the residues of the sums.
    """
    reduce = C._torsion.reduce
    return _span_table([gf2.span([reduce(s) for s in row]) for row in C.swappers])


def table_pair_counts(C: CodeGroup) -> List[int]:
    """The two counts of ``invariants._pairwise_checks``, pair by pair over
    the 4^k table ``_coset_table``: the a, b outside T(C) whose commutator
    outweighs a^2, and those with b != a, a^2 = b^2 and (a, b) = 0."""
    squares, rows = _coset_table(C)
    outside = range(1, len(squares))
    weight = commuting = 0
    for a in outside:
        a2, row, wa = squares[a], rows[a], squares[a].bit_count()
        weight += sum(row[b].bit_count() > wa for b in outside)
        commuting += sum(b != a and squares[b] == a2 and not row[b] for b in outside)
    return [weight, commuting]


def table_pair_triple_counts(C: CodeGroup) -> List[int]:
    """The three counts of ``hadamard._hadamard_pair_triple_checks``, read
    from the 4^k tables ``_coset_table`` and ``_reduced_swappers``: the
    commutator (a, b) is the table entry, and the swapper residues of a
    are its row of the residue table.  The pair count reads a row only
    when one of its unit entries lies outside {0, a^2}, as every entry is a
    sum of them; the triple counts walk each square class."""
    u = (1 << C.sig.n) - 1
    squares, rows = _coset_table(C)
    outside = range(1, len(squares))
    units = [1 << j for j in range(len(C.basis))]
    pair_bad = 0
    for v in outside:
        a2, row = squares[v], rows[v]
        if a2 != u and any(row[j] and row[j] != a2 for j in units):
            good = row.count(0) + (row.count(a2) if a2 else 0) - (row[0] in (0, a2))
            pair_bad += len(outside) - good
    by_square: dict = {}
    for v in outside:
        if squares[v] != u:
            by_square.setdefault(squares[v], []).append(v)
    wide = sum(gf2.Gf2Basis(members).rank > 2 for members in by_square.values())
    residues = _reduced_swappers(C)
    triple = 0
    for a2, members in by_square.items():
        for ai, a in enumerate(members):
            for b in members[ai + 1 :]:
                if rows[a][b] == a2:
                    ra, rb = residues[a], residues[b]
                    triple += sum(
                        0 != ra[j] != rb[j] != 0 for j in outside if squares[j] != a2
                    )
    return [pair_bad, wide, triple]


def translation_kernel(C: CodeGroup) -> frozenset:
    """K(Gray(C)) = {z : Gray(C) + z = Gray(C)}, by translation test over
    all of Gray(C).

    The oracle for ``invariants.kernel_dim`` and
    ``invariants.binary_kernel``.  Since the zero vector is a codeword the
    kernel is contained in the code; it is linear and contains Gray(T(C)),
    so one codeword per T-coset is tested and the passing ones are
    expanded by XOR with Gray(T).
    """
    codewords = gray_codewords(C)
    tbits = gf2.span(C.torsion_rows)
    members = (
        r.bits ^ t
        for r in _coset_reps(C)
        if all((c ^ r.bits) in codewords for c in codewords)
        for t in tbits
    )
    return frozenset(BinaryVector(C.sig.n, z) for z in members)


def representative_kernel_cosets(C: CodeGroup) -> Tuple[int, ...]:
    """The indices v of ``_coset_reps`` whose T-coset lies in the binary
    kernel, by the translation test on the representatives.

    z is in the binary kernel exactly when z + Gray(p_w) lies in Gray(C)
    for every w, since the T-cosets tile Gray(C) as affine translates of
    Gray(T).  A vector lies in Gray(p_w) + Gray(T) exactly when its
    residue mod Gray(T) is the residue of Gray(p_w), and residues add, so
    z = Gray(p_v) passes when res_v + res_w is a coset residue for every
    w: at most 4^k set lookups, 2^sigma times fewer than testing each
    representative against all of Gray(C).  The second route to
    ``subgroup._kernel_cosets``, the swapper null space.
    """
    residues = [C._torsion.reduce(p.bits) for p in _coset_reps(C)]
    cosets = frozenset(residues)
    return tuple(
        v
        for v, rv in enumerate(residues)
        if cosets.issuperset(map(rv.__xor__, residues))
    )


def full_space_kernel(C: CodeGroup) -> frozenset:
    """K(Gray(C)) by the translation test of every vector of Z2^n, n <= 16.

    The test runs one codeword at a time over the vectors that passed the
    codewords before it, so the first pass scans Z2^n and leaves a coset
    of C, and the rest cost |C| lookups each.
    """
    n = C.sig.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"full-space kernel scan needs n <= {_BRUTE_FORCE_LIMIT}, got n={n}"
        )
    codewords = gray_codewords(C)
    passing = range(1 << n)
    for c in codewords:
        passing = [z for z in passing if (c ^ z) in codewords]
    return frozenset(BinaryVector(n, z) for z in passing)


def swapper_scan_kernel(C: CodeGroup) -> frozenset:
    """K(C) = {x in C : the swapper [x, y] lies in C for every y in C}, by
    the |C|^2 scan of every pair of words.

    Gray is injective, so [x, y] lies in C exactly when its Gray bits lie
    in Gray(C).  The oracle for ``subgroup.group_kernel``.
    """
    codewords = gray_codewords(C)
    return frozenset(
        x
        for x in C.elements
        if all(_swapper_bits(x, y) in codewords for y in C.elements)
    )


# ---------------------------------------------------------------------------
# Words and standard generators by closure
# ---------------------------------------------------------------------------


def closure(base: Iterable[GroupWord], gens: Sequence[GroupWord]) -> set:
    """<base, gens> for a subgroup ``base`` that the gens generate or normalize.

    A worklist over right cosets base*r: each representative meets every
    generator, and a product outside the cosets found so far brings in its
    whole coset.  With base = {e} it is the element-by-element closure, the
    oracle for ``CodeGroup.elements``.
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
                seen.add(nxt)
                for h in others:
                    seen.add(h * nxt)
                frontier.append(nxt)
    return seen


def first_independent(
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
            have = closure(have, picked)
    return picked


def scanned_standard_generators(C: CodeGroup) -> Tuple[tuple, tuple, tuple]:
    """(xs, ys, zs) by closures: the x's enlarge the GF(2) span of Gray(T)
    over sorted T, the y's enlarge <T, ys> over sorted Z, the z's enlarge
    <Z, zs> over sorted C; the oracle for ``standard_generators``."""
    T, Z = torsion(C), center(C)
    span = gf2.Gf2Basis()
    xs = [w for w in T.sorted_elements() if span.add(w.bits)]
    ys = first_independent(T.elements, Z.sorted_elements(), Z.order)
    zs = first_independent(Z.elements, C.sorted_elements(), C.order)
    return tuple(xs), tuple(ys), tuple(zs)


def least_coset_words(C: CodeGroup) -> Tuple[GroupWord, ...]:
    """min(coset, key=string_sort_key) over the words of each T-coset, by
    ``_coset_reps`` index; the oracle for ``_coset_minima``."""
    T = torsion(C).elements
    return tuple(
        min((r * t for t in T), key=lambda w: string_sort_key(w.sig, w.bits))
        for r in _coset_reps(C)
    )


def string_sort_key(sig: GroupSignature, x: int) -> int:
    """``groups._sort_key`` with the n-bit reversal made on the binary
    string, ``format(y, "0nb")[::-1]``, instead of by byte table: the
    second route to the key that orders words like their coordinates."""
    z4, q8 = sig._z4, sig._q8
    p = (x ^ (x >> 1)) & q8
    q = (x ^ (x >> 2)) & q8
    y = (x & ~(q8 * 0b1111)) ^ ((x & z4) << 1)
    y |= q | (((x & q8) ^ (q & ~p)) << 1) | ((p ^ q) << 2)
    return int(format(y, f"0{sig.n}b")[::-1], 2)


def generated_by_presentation(C: CodeGroup, words: Sequence[GroupWord], x: int) -> bool:
    """Whether the image x is the image of a word of <words>, by building
    that subgroup's presentation (``CodeGroup(C.sig, words)._has_image``):
    the second route to ``hadamard._generates``."""
    return CodeGroup(C.sig, words)._has_image(x)


def tiles(C: CodeGroup, gens: StandardGenSet) -> bool:
    """The y/z products meet each T-coset of C once: their translates of
    Gray(T) make up Gray(C) exactly.  The |C|-sized oracle for the rank test
    of ``verify_standard``."""
    tbits = gray_codewords(torsion(C))
    products = _products(C.sig, gens.ys + gens.zs)
    return {p.bits ^ t for p in products for t in tbits} == gray_codewords(C)


# ---------------------------------------------------------------------------
# Relabelings: the symmetries of the ambient group that keep Gray weights
# ---------------------------------------------------------------------------

_Z4_SIGNS = ((0, 1, 2, 3), (0, 3, 2, 1))


@lru_cache(maxsize=1)
def q8_bit_automorphisms() -> Tuple[Tuple[int, ...], ...]:
    """The automorphisms of Q8 (``q8_automorphisms``) that act on the Gray
    image of a Q8 block as a permutation of its four bits: 12 of the 24.

    The other 12 keep the weight of every image, but not sums of images,
    and applied to one coordinate they can change the binary code: the
    diagonal Q8 = <(a, a), (b, b)> in Q8^2 has (rank, kernel_dim) = (3, 3),
    and (4, 1) after a -> a, b -> ab on its second coordinate.
    """
    sig = GroupSignature(0, 0, 1)
    image = [word(sig, (v,)).bits for v in range(8)]
    permuted = {
        tuple(sum((x >> p[i] & 1) << i for i in range(4)) for x in image)
        for p in permutations(range(4))
    }
    return tuple(
        t for t in q8_automorphisms() if tuple(image[t[v]] for v in range(8)) in permuted
    )


@dataclass(frozen=True)
class Relabeling:
    """An automorphism of Z2^k1 x Z4^k2 x Q8^k3, coordinate by coordinate,
    that permutes the bits of every Gray image in one way: coordinate i of
    the image is ``tables[i]`` applied to coordinate ``source[i]`` of the
    word.  ``source`` permutes the coordinates within each kind, and each
    table is the identity (Z2), x -> x or x -> -x (Z4), or one of the 12
    automorphisms of Q8 that permute the bits of its block
    (``q8_bit_automorphisms``).

    On a Z4 block, x -> -x swaps the two bits (1 and 3 have the images 10
    and 01; 0 and 2 are 00 and 11).  So Gray(phi(w)) is Gray(w) with its n
    bits permuted by one permutation P, for every word w, and Gray(phi(C))
    = P(Gray(C)): the same binary code up to the order of its
    coordinates, with the same rank, kernel dimension and weights.  phi is
    a group automorphism, so phi(C) has the type of C, and it maps each
    square and commutator of C to those of the images, of the same
    weight, so every row of ``check_bounds`` is kept: a non-Hadamard
    report is the same, byte for byte.
    """

    source: Tuple[int, ...]
    tables: Tuple[Tuple[int, ...], ...]

    def __call__(self, w: GroupWord) -> GroupWord:
        coords = w.coords
        return word(w.sig, (t[coords[i]] for i, t in zip(self.source, self.tables)))

    def group(self, C: CodeGroup) -> CodeGroup:
        """phi(C), given by the images of C's generators."""
        return CodeGroup(C.sig, [self(g) for g in C.generators])


def random_relabeling(sig: GroupSignature, rng: random.Random) -> Relabeling:
    """A ``Relabeling`` of ``sig`` drawn uniformly by ``rng``."""
    source: List[int] = []
    tables: List[Tuple[int, ...]] = []
    kinds = ((sig.k1, ((0, 1),)), (sig.k2, _Z4_SIGNS), (sig.k3, q8_bit_automorphisms()))
    start = 0
    for count, choices in kinds:
        block = list(range(start, start + count))
        rng.shuffle(block)
        source += block
        tables += [rng.choice(choices) for _ in block]
        start += count
    return Relabeling(tuple(source), tuple(tables))


# ---------------------------------------------------------------------------
# Every pair of routes
# ---------------------------------------------------------------------------


def _agree(ok: bool, route: str, oracle: str) -> None:
    if not ok:
        raise RuntimeError(f"verify: {route} disagrees with {oracle}")


def verify(C: CodeGroup) -> None:
    """Run every pair of routes on C; RuntimeError names the pair that
    disagrees.  ``analyze --verify`` runs it before ``report.analyze``, so
    a disagreement is reported before any report is built.

    - the words: ``CodeGroup.elements`` against the closure of the
      generators;
    - the rank: ``invariants.rank`` against ``coset_row_space`` (the same
      dimension, holding every Gray(b_i) and s(b_i, b_j)), ``gray_basis``
      and the order of ``span_group``;
    - the kernel: ``subgroup._kernel_cosets`` against
      ``representative_kernel_cosets``, and 2^kernel_dim against the sizes
      of ``translation_kernel``, ``swapper_scan_kernel`` and, at n <= 16,
      ``full_space_kernel``;
    - the standard generators: ``tiles``, ``scanned_standard_generators``,
      and ``_coset_minima`` against ``least_coset_words``;
    - the sort key: ``groups._sort_key`` against ``string_sort_key`` on
      every image of C;
    - the coset words and their tables against ``coset_tables_by_products``,
      which multiplies the basis words out: the images (``_coset_images``),
      the squares (``_coset_squares``), every commutator as the polar form
      of the squares (``_polar``), and the 4^k tables ``_coset_table`` and
      ``_reduced_swappers``;
    - the pair counts of ``check_bounds`` and the Hadamard pair and
      triple counts, which read the squares, against ``table_pair_counts``
      and ``table_pair_triple_counts``, which read those tables;
    - on a Hadamard C, u in <U> and in <V> for the shape witness's V
      (``hadamard._v_set``) and U, those of V whose square is not u, by
      ``hadamard._generates`` against ``generated_by_presentation``;
    - the relabeling: the type, rank, kernel dimension, weights and
      ``check_bounds`` of C against those of its image under a
      ``Relabeling`` drawn from a fixed seed.

    The |C|^2 swapper scan sets the cost, about 4x per doubling of |C|, so
    C is refused with ``EnumerationLimit`` past ``_VERIFY_MAX_ORDER``
    before any route runs, and a span group past ``DEFAULT_MAX_ORDER`` is
    refused (by ``span_group``) before any scan.  At the limit, on a linear
    code of 2^10 words in Z2^16, ``verify`` took 2.4-2.9 s and the swapper
    scan alone 2.2-2.7 s, over five runs (2-core shared VM, Python 3.11.7).
    """
    if C.order > _VERIFY_MAX_ORDER:
        raise EnumerationLimit(
            f"verify: the |C|^2 swapper scan needs |C| <= {_VERIFY_MAX_ORDER}, "
            f"got |C| = {C.order}"
        )
    D = span_group(C)  # refuses a D past DEFAULT_MAX_ORDER before any scan
    _agree(
        C.elements == closure([identity(C.sig)], C.generators),
        "C.elements",
        "the closure of the generators",
    )
    r, rows = rank(C), coset_row_space(C)
    swappers = (s for i, row in enumerate(C.swappers) for s in row[i + 1 :])
    _agree(
        r == rows.rank and all(map(rows.contains, (*C.basis, *swappers))),
        "rank",
        "coset_row_space",
    )
    _agree(r == gray_basis(C).rank, "rank", "gray_basis")
    _agree(r == D.log2_order, "rank", "span_group")
    _agree(
        _kernel_cosets(C) == representative_kernel_cosets(C),
        "_kernel_cosets",
        "representative_kernel_cosets",
    )
    size = 1 << kernel_dim(C)
    _agree(len(translation_kernel(C)) == size, "kernel_dim", "translation_kernel")
    _agree(len(swapper_scan_kernel(C)) == size, "kernel_dim", "swapper_scan_kernel")
    if C.sig.n <= _BRUTE_FORCE_LIMIT:
        _agree(len(full_space_kernel(C)) == size, "kernel_dim", "full_space_kernel")
    gens = standard_generators(C)
    _agree(tiles(C, gens), "standard_generators", "tiles")
    _agree(
        (gens.xs, gens.ys, gens.zs) == scanned_standard_generators(C),
        "standard_generators",
        "scanned_standard_generators",
    )
    _agree(
        _coset_minima(C) == least_coset_words(C),
        "_coset_minima",
        "least_coset_words",
    )
    _agree(
        all(_sort_key(C.sig, x) == string_sort_key(C.sig, x) for x in _gray_stream(C)),
        "_sort_key",
        "string_sort_key",
    )
    images, squares, rows, residues = coset_tables_by_products(C)
    _agree(_coset_images(C) == images, "_coset_images", "coset_tables_by_products")
    _agree(_coset_squares(C) == squares, "_coset_squares", "coset_tables_by_products")
    indices = range(len(squares))
    _agree(
        [[_polar(squares, v, w) for w in indices] for v in indices] == rows,
        "_polar",
        "coset_tables_by_products",
    )
    _agree(_coset_table(C) == (squares, rows), "_coset_table", "coset_tables_by_products")
    _agree(
        _reduced_swappers(C) == residues, "_reduced_swappers", "coset_tables_by_products"
    )
    _agree(
        [c.lhs for c in _pairwise_checks(C)] == table_pair_counts(C),
        "_pairwise_checks",
        "table_pair_counts",
    )
    _agree(
        [c.lhs for c in _hadamard_pair_triple_checks(C)] == table_pair_triple_counts(C),
        "_hadamard_pair_triple_checks",
        "table_pair_triple_counts",
    )
    if is_hadamard(C):
        u = (1 << C.sig.n) - 1
        v_set = _v_set(C, classify_shape(C))
        u_set = [(w, v) for w, v in v_set if (w * w).bits != u]
        for words in (u_set, v_set):
            _agree(
                _generates(C, words, u)
                == generated_by_presentation(C, [w for w, _ in words], u),
                "_generates",
                "generated_by_presentation",
            )
    image = random_relabeling(C.sig, random.Random(0)).group(C)
    _agree(
        _relabeled_facts(C) == _relabeled_facts(image),
        "the invariants",
        "those of a relabeled copy",
    )


def _relabeled_facts(C: CodeGroup) -> tuple:
    """The facts of C that every ``Relabeling`` keeps."""
    return code_type(C), rank(C), kernel_dim(C), weight_distribution(C), check_bounds(C)
