"""Hadamard detection, normalization, shape classification and bounds."""

from __future__ import annotations

import random

import pytest

from z2z4q8 import (
    GroupSignature,
    classify_shape,
    code_type,
    commutator,
    generate,
    hadamard_bounds,
    is_extended_perfect,
    is_hadamard,
    is_perfect,
    kernel_dim,
    gray,
    normalize_generators,
    rank,
    swapper,
    u_element,
    word_from_tokens,
)
from z2z4q8.fixtures import load_fixture
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.groups import Q8_MUL
from z2z4q8.hadamard import _coset_swappers, _hadamard_pair_triple_checks, _pair_reorder
from z2z4q8.oracles import _is_perfect_set, _swapper_bits, gray_codewords
from z2z4q8.subgroup import _coset_reps, verify_standard

from conftest import SHIPPED_FIXTURES, q8_word, random_subgroup


def test_is_hadamard_positive(hadamard16, shape5_32):
    assert is_hadamard(hadamard16)
    assert is_hadamard(shape5_32)


def test_is_hadamard_negative(pure_q8):
    assert not is_hadamard(pure_q8)  # 8 codewords on length 8, needs 16
    rep = generate([q8_word("a2")])
    assert not is_hadamard(rep)  # 2 codewords on length 4


def test_hadamard_contains_u(hadamard16, shape5_32):
    for C in (hadamard16, shape5_32):
        assert u_element(C.sig) in C


def test_normalize_requires_hadamard(pure_q8):
    with pytest.raises(ValueError):
        normalize_generators(pure_q8)


def test_normalize_generators_valid(hadamard16, shape5_32):
    for C in (hadamard16, shape5_32):
        ngs = normalize_generators(C)
        u = u_element(C.sig)
        square_u = [z for z in ngs.zs if z * z == u]
        assert len(square_u) <= 2
        if len(square_u) == 2:
            assert commutator(square_u[0], square_u[1]) == u
        assert ngs.epsilon <= 2
        verify_standard(C, ngs.base)
        # pair layout: leading consecutive equal squares, distinct afterwards
        squares = [(z * z).coords for z in ngs.zs]
        for t in range(ngs.epsilon):
            assert squares[2 * t] == squares[2 * t + 1]
        tail = squares[2 * ngs.epsilon:] + [
            squares[2 * t] for t in range(ngs.epsilon)
        ]
        assert len(tail) == len(set(tail))


def test_listed_shape5_generators_are_normalized(shape5_32):
    # the four listed generators already form a normalized set with eps=2
    sig = shape5_32.sig
    zs = [
        word_from_tokens(sig, tuple("a a a a a a a a".split())),
        word_from_tokens(sig, tuple("b b ab ab b b ab ab".split())),
        word_from_tokens(sig, tuple("a a a3 a3 1 1 a2 a2".split())),
        word_from_tokens(sig, tuple("b a2b ab a3b 1 a2 1 a2".split())),
    ]
    u = u_element(sig)
    assert zs[0] * zs[0] == u and zs[1] * zs[1] == u
    assert commutator(zs[0], zs[1]) == u
    assert zs[2] * zs[2] == zs[3] * zs[3] != u
    _, eps = _pair_reorder(shape5_32, zs)
    assert eps == 2


def test_shape_of_known_codes(hadamard16, shape5_32):
    assert classify_shape(hadamard16).tag == 2
    assert classify_shape(shape5_32).tag == 5
    assert classify_shape(load_fixture("hadamard8_z4")).tag == 1
    assert classify_shape(load_fixture("hadamard16_z2z4_delta2")).tag == 1
    assert classify_shape(load_fixture("hadamard8_z2q8_shape4")).tag == 4
    assert classify_shape(load_fixture("hadamard16_z2q8_shape4_rank6")).tag == 4


def test_shape_witness_regenerates_group(hadamard16, shape5_32):
    for C in (hadamard16, shape5_32):
        shape = classify_shape(C)
        gens = shape.witness.base.all()
        assert generate(list(gens)) == C


def test_shape_structure_strings(hadamard16):
    assert classify_shape(hadamard16).structure == "(Z4 : Q8)"
    assert classify_shape(load_fixture("hadamard8_z2q8_shape4")).structure == (
        "Z2 x Q8"
    )


def test_q8_itself_is_hadamard_shape2():
    C = generate([q8_word("a"), q8_word("b")])
    assert is_hadamard(C)
    shape = classify_shape(C)
    assert shape.tag == 2
    assert shape.structure == "Q8"


def test_hadamard_bounds_known_codes(hadamard16, shape5_32):
    for C in (hadamard16, shape5_32):
        report = hadamard_bounds(C)
        assert report.all_ok, [c.name for c in report.failures()]


def test_hadamard_bounds_exception_recognized(shape5_32):
    # (m, sigma, delta, rho) = (5, 2, 0, 4): k = 2 < ceil(m/2) = 3 without a
    # flagged violation
    assert code_type(shape5_32).as_tuple() == (2, 0, 4)
    assert kernel_dim(shape5_32) == 2
    report = hadamard_bounds(shape5_32)
    assert report.all_ok
    exempted = [c for c in report.checks if "exempt" in c.name]
    assert exempted and all(c.ok for c in exempted)


def test_hadamard_bounds_rank_caps(hadamard16):
    # m = 4: the even-length cap m + 2 + C(m/2, 2) = 7 is met exactly
    r = rank(hadamard16)
    assert r == 7
    cap = [c for c in hadamard_bounds(hadamard16).checks if c.name == "rank <= parity cap"]
    assert cap and cap[0].rhs == 7


def test_hadamard_bounds_reject_non_hadamard(pure_q8):
    with pytest.raises(ValueError):
        hadamard_bounds(pure_q8)


def test_linear_hadamard16_rank_kernel():
    # linear case: r = k = m + 1
    base = load_fixture("hadamard8_z4")
    from z2z4q8 import extend, xi_lift
    from z2z4q8.parsing import parse_element

    lifted = xi_lift(base)
    C = extend(lifted, parse_element("b b b b", lifted.sig))
    assert rank(C) == kernel_dim(C) == 5


def test_is_perfect_hamming7():
    C = load_fixture("hamming7_z2q8")
    assert is_perfect(C)
    assert not is_extended_perfect(C)  # odd weights appear


def test_extended_perfect_instances():
    for name in ("ext_hamming8_z2q8", "ext_hamming8_z4q8", "ext_hamming8_q8q8", "rep4_q8"):
        C = load_fixture(name)
        assert is_extended_perfect(C), name
        assert not is_perfect(C), name


def test_extended_perfect_any_position():
    """Puncturing any one coordinate of an extended perfect code leaves a
    perfect code: the sphere partition holds at every position."""
    C = load_fixture("ext_hamming8_q8q8")
    codewords = gray_codewords(C)
    for pos in range(C.sig.n):
        low = (1 << pos) - 1
        punctured = frozenset((b & low) | (b >> (pos + 1) << pos) for b in codewords)
        assert len(punctured) == len(codewords), pos
        assert _is_perfect_set(punctured, C.sig.n - 1), pos


def test_perfect_rejects_large_lengths(shape5_32):
    with pytest.raises(ValueError):
        is_perfect(shape5_32)


def test_not_perfect_hadamard16(hadamard16):
    assert not is_perfect(hadamard16)
    assert not is_extended_perfect(hadamard16)


def test_shape1_exact_rank_kernel_values():
    # mixed (non-quaternary) case, delta >= 2: k = sigma, r = sigma + delta
    # + C(delta, 2)
    C = load_fixture("hadamard16_z2z4_delta2")
    ct = code_type(C)
    assert ct.as_tuple() == (3, 2, 0)
    assert kernel_dim(C) == ct.sigma
    assert rank(C) == ct.sigma + ct.delta + 1
    C2 = load_fixture("hadamard32_z2z4_rank7")
    ct2 = code_type(C2)
    assert ct2.as_tuple() == (4, 2, 0)
    assert kernel_dim(C2) == ct2.sigma
    assert rank(C2) == ct2.sigma + ct2.delta + 1


def test_classify_from_double_pair_without_u_squares(shape5_32):
    # two equal-square pairs, neither squaring to u: the pairs merge into a
    # square-u pair and the result is still shape 5
    from z2z4q8 import StandardGenSet, standard_generators
    from z2z4q8.parsing import parse_element

    sig = shape5_32.sig
    z1 = parse_element("a a a a a a a a", sig)
    z2 = parse_element("b b ab ab b b ab ab", sig)
    z3 = parse_element("a a a3 a3 1 1 a2 a2", sig)
    z4 = parse_element("b a2b ab a3b 1 a2 1 a2", sig)
    xs = standard_generators(shape5_32).xs
    alt = (z1 * z3, z2 * z4, z3, z4)
    u = u_element(sig)
    assert all((w * w) != u for w in alt)
    shape = classify_shape(shape5_32, base=StandardGenSet(xs, (), alt))
    assert shape.tag == 5
    assert "merged the two pairs into a square-u pair" in shape.trail


def test_classify_from_u_pair_with_tail_span_containing_u(shape5_32):
    # a square-u pair whose tail squares span u forces rho=4 and a rebuild
    # into two equal-square pairs
    from z2z4q8 import StandardGenSet, standard_generators
    from z2z4q8.parsing import parse_element

    sig = shape5_32.sig
    z1 = parse_element("a a a a a a a a", sig)
    z2 = parse_element("b b ab ab b b ab ab", sig)
    z3 = parse_element("a a a3 a3 1 1 a2 a2", sig)
    z4 = parse_element("b a2b ab a3b 1 a2 1 a2", sig)
    xs = standard_generators(shape5_32).xs
    u = u_element(sig)
    tail = z2 * z4
    assert (tail * tail) == u * (z3 * z3)  # tail squares multiply to u
    shape = classify_shape(
        shape5_32, base=StandardGenSet(xs, (), (z1, z2, z3, tail))
    )
    assert shape.tag == 5
    assert "rebuilt generators to exhibit two equal-square pairs" in shape.trail


def test_classify_from_distinct_squares_with_central_order4():
    # delta > 0 with all z-squares distinct: the central order-4 element is
    # folded into z1 so that the equal-square pair of shape 4 appears
    from z2z4q8 import (
        StandardGenSet,
        center,
        generalized_kronecker,
        standard_generators,
    )

    base = load_fixture("ext_hamming8_z4q8")
    g = word_from_tokens(base.sig, ("1", "1", "1"))
    D = generalized_kronecker(base, g).output
    assert code_type(D).as_tuple() == (2, 1, 2)
    gens = standard_generators(D)
    u = u_element(D.sig)
    z1, z2 = gens.zs
    t = z1 * z1
    assert t == z2 * z2 != u
    y = next(
        w for w in center(D).sorted_elements()
        if w.order() == 4 and w * w == u * t
    )
    shape = classify_shape(
        D, base=StandardGenSet(gens.xs, gens.ys, (y * z1, z2))
    )
    assert shape.tag == 4
    assert "replaced z1 by y*z1 to pair its square with z2^2" in shape.trail


def test_normalization_substitutions_over_all_u_square_triples(shape5_32):
    # drive the substitution table with every generating set of the
    # shape-5 group that starts from three independent square-u cosets
    from itertools import combinations, permutations

    from z2z4q8 import StandardGenSet, normalize_generators, standard_generators
    from z2z4q8.gf2 import Gf2Basis
    from z2z4q8.subgroup import _products

    C = shape5_32
    u = u_element(C.sig)
    gens = standard_generators(C)
    xs = gens.xs
    # a T-coset transversal indexed by exponent vectors over the y's and z's
    reps = list(enumerate(_products(C.sig, gens.ys + gens.zs)))[1:]
    u_squares = [(v, w) for v, w in reps if w * w == u]
    others = [(v, w) for v, w in reps if w * w != u]
    assert len(u_squares) >= 3
    tried = 0
    for triple in combinations(u_squares, 3):
        vecs = [v for v, _ in triple]
        if Gf2Basis(vecs).rank != 3:
            continue
        completion = next(
            w
            for v, w in others
            if Gf2Basis(vecs + [v]).rank == 4
        )
        for perm in permutations([w for _, w in triple]):
            zs = tuple(perm) + (completion,)
            ngs = normalize_generators(C, base=StandardGenSet(xs, (), zs))
            square_u = [z for z in ngs.zs if z * z == u]
            assert len(square_u) <= 2
            if len(square_u) == 2:
                assert commutator(square_u[0], square_u[1]) == u
            shape = classify_shape(C, base=StandardGenSet(xs, (), zs))
            assert shape.tag == 5
            tried += 1
    assert tried >= 6


def test_mixed_ext_hamming_group_is_shape3():
    # the Z4^2 x Q8 presentation of the extended Hamming code: a linear
    # image carried by a shape-3 group
    C = load_fixture("ext_hamming8_z4q8")
    assert code_type(C).as_tuple() == (2, 0, 2)
    shape = classify_shape(C)
    assert shape.tag == 3
    from z2z4q8 import structural_converse_check

    result = structural_converse_check(C, shape)
    assert is_hadamard(result.base)
    assert result.base.sig == GroupSignature(2, 1, 0)


def test_shape4_with_delta_one():
    # doubling the shape-3 mixed group with a central order-4 ambient word
    # produces the delta=1 member of the shape-4 family
    from z2z4q8 import generalized_kronecker

    base = load_fixture("ext_hamming8_z4q8")
    g = word_from_tokens(base.sig, ("1", "1", "1"))  # odd Z4 entries, Q8 identity
    assert all(g * w == w * g for w in base.generators)
    assert (g * g) in base
    assert all((g * c).order() > 2 for c in base.elements)
    out = generalized_kronecker(base, g).output
    assert code_type(out).as_tuple() == (2, 1, 2)
    shape = classify_shape(out)
    assert shape.tag == 4
    assert hadamard_bounds(out, shape).all_ok


def _first_delta_growing_element(C):
    """Smallest order-4 ambient word with g^2 in C and no order-<=2 coset word."""
    from conftest import all_words

    for g in all_words(C.sig):
        if g.order() != 4 or (g * g) not in C:
            continue
        if all((g * c).order() > 2 for c in C.elements):
            return g
    raise AssertionError("no delta-growing element found")


def test_shape1_z4linear_exact_values():
    # quaternary case with delta >= 3: k = sigma + 1, r = sigma + delta
    # + C(delta - 1, 2); built by doubling the delta=2 quaternary base
    from z2z4q8 import generalized_kronecker, kronecker

    C = load_fixture("hadamard8_z4")  # type (2,2,0), pure Z4
    C = kronecker(C).output  # (3,2,0) at length 16
    g = _first_delta_growing_element(C)
    C = generalized_kronecker(C, g).output  # (3,3,0) at length 32
    ct = code_type(C)
    assert ct.as_tuple() == (3, 3, 0)
    assert C.sig.k1 == 0 and C.sig.k3 == 0
    assert is_hadamard(C)
    assert classify_shape(C).tag == 1
    assert kernel_dim(C) == ct.sigma + 1
    assert rank(C) == ct.sigma + ct.delta + (ct.delta - 1) * (ct.delta - 2) // 2


SHAPE2_FIXTURES = [
    "ext_hamming8_q8q8",
    "hadamard16_q8",
    "hadamard32_q8_rank7",
    "kronecker32_plain",
    "lift_extend_hadamard16_k3",
    "lift_extend_linear16",
]


@pytest.mark.parametrize("name", SHAPE2_FIXTURES)
def test_shape2_witness_keeps_u_outside_tail_square_span(name):
    """The shape-2 structure needs u outside <z3^2..z_rho^2>, which the
    checked relations already force (see the tag-2 branch of _verify_shape):
    z1^2 = (z1,z2) = u makes the signature pure Q8 with z1_i, z2_i
    non-commuting in every coordinate, and (z1,z_j) = (z2,z_j) = z_j^2 puts
    every tail coordinate in {+-1, +-z1_i z2_i}.  Each step is recomputed
    here from the witness words."""
    C = load_fixture(name)
    shape = classify_shape(C)
    assert shape.tag == 2
    zs = shape.witness.zs
    assert (C.sig.k1, C.sig.k2) == (0, 0)
    a2 = 2  # the order-2 element of Q8 in the a^i b^j encoding
    for i, (p, q) in enumerate(zip(zs[0].coords, zs[1].coords)):
        assert Q8_MUL[p][q] != Q8_MUL[q][p]
        pq = Q8_MUL[p][q]
        for z in zs[2:]:
            assert z.coords[i] in {0, a2, pq, Q8_MUL[pq][a2]}
    tail_squares = Gf2Basis(gray(z * z).bits for z in zs[2:])
    assert not tail_squares.contains(gray(u_element(C.sig)).bits)


def _reference_triple_count(C, commutator_is_square=True):
    """Word-level count of the third pair/triple check: pairs a, b from
    distinct T-cosets with a^2 = b^2 != u, taken when (a, b) = a^2 is
    ``commutator_is_square``, against each c with c^2 != a^2 for which
    none of [a,c], [b,c], [a,c][b,c] lies in C."""
    u = u_element(C.sig)
    reps = _coset_reps(C)[1:]
    count = 0
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            a2 = a * a
            if a2 == u or b * b != a2:
                continue
            if (commutator(a, b) == a2) != commutator_is_square:
                continue
            for c in reps:
                if c * c != a2:
                    s1, s2 = swapper(a, c), swapper(b, c)
                    count += s1 not in C and s2 not in C and s1 * s2 not in C
    return count


def test_triple_check_takes_only_pairs_whose_commutator_is_their_square():
    """On this non-Hadamard group the third count is 6 over the pairs with
    (a, b) = a^2 and 0 over the others, so it sees the commutator filter."""
    sig = GroupSignature(0, 0, 5)
    C = generate(
        [
            word_from_tokens(sig, tuple(w.split()))
            for w in ("a ab a ab 1", "b b b b 1", "a2 1 a3 ab a2b")
        ]
    )
    assert not is_hadamard(C)
    checks = {c.name: c for c in _hadamard_pair_triple_checks(C)}
    count = checks["swapper pairs against a third square stay within index 2 mod T"]
    assert count.lhs == _reference_triple_count(C) == 6
    assert _reference_triple_count(C, commutator_is_square=False) == 0


def test_coset_swappers_match_the_word_products():
    """The 2^k x 2^k swapper table of the coset words, read by XOR from
    ``C.swappers``, equals Gray(a) + Gray(c) + Gray(ac) over every pair of
    ``_coset_reps`` words, on the shipped fixtures and mixed random groups."""
    rng = random.Random(5)
    groups = [load_fixture(name) for name in SHIPPED_FIXTURES]
    groups += [
        random_subgroup(sig, rng, 3, max_order=1 << 10)
        for sig in (GroupSignature(1, 2, 2), GroupSignature(0, 0, 5)) * 4
    ]
    for C in groups:
        reps = _coset_reps(C)
        expected = [[_swapper_bits(a, c) for c in reps] for a in reps]
        assert _coset_swappers(C) == expected, C.generators
