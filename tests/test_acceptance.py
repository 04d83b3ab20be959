"""Acceptance suite: one test per criterion, exact integer comparisons.

Each passing criterion prints one ``[PASS]`` line.  Three sub-criteria
(6a, 8b, 8d) were first stated with outcomes the codes cannot have; their
tests assert the attainable outcomes, carry the proof in their docstrings
and back each one with a check that does not use the routine under test.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb

import pytest

from z2z4q8 import (
    ConstructionError,
    GroupSignature,
    binary_kernel,
    check_bounds,
    classify_shape,
    code_type,
    commutator,
    extend,
    generalized_kronecker,
    gray,
    group_kernel,
    hadamard_bounds,
    identity,
    is_abelian,
    is_extended_perfect,
    is_hadamard,
    is_linear,
    is_perfect,
    kernel_dim,
    kronecker,
    rank,
    span_group,
    structural_converse_check,
    swapper,
    torsion,
    u_element,
    word,
    xi_lift,
)
from z2z4q8.constructions import random_doubling_element
from z2z4q8.fixtures import fixtures, load_fixture, reproduce
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.invariants import _kernel_cosets
from z2z4q8.oracles import (
    coset_row_space,
    gray_basis,
    gray_codewords,
    representative_kernel_cosets,
    swapper_scan_kernel,
    translation_kernel,
    verify,
)
from z2z4q8.parsing import parse_element
from z2z4q8.search import _random_abelian_base, _random_torsion_word, search

from conftest import (
    Q8,
    Z4,
    all_words,
    random_subgroup,
    random_word,
    record_criterion_line,
)


def _ok(n, text: str) -> None:
    line = f"[PASS] criterion {n}: {text}"
    print(line)
    record_criterion_line(line)


# -- criterion 1 -----------------------------------------------------------

Q8_CLASS = {0: 0, 2: 0, 1: 1, 3: 1, 4: 2, 6: 2, 5: 3, 7: 3}
Q8_SWAPPER_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
)


def test_criterion_01_swapper_oracle():
    # definition-route evaluation matches the frozen table on all pairs
    for x in range(4):
        for y in range(4):
            expected = (2,) if (x % 2 and y % 2) else (0,)
            assert swapper(word(Z4, (x,)), word(Z4, (y,))).coords == expected
    for x in range(8):
        for y in range(8):
            got = swapper(word(Q8, (x,)), word(Q8, (y,))).coords[0]
            assert got == 2 * Q8_SWAPPER_TABLE[Q8_CLASS[x]][Q8_CLASS[y]]

    def identities(x, y, z):
        assert swapper(x, x.inverse()) == swapper(x, x) == x * x
        assert swapper(x, y) * swapper(y, x) == commutator(x, y)
        assert swapper(x, y * z) == swapper(x, y) * swapper(x, z)
        assert swapper(x * y, z) == swapper(x, z) * swapper(y, z)
        if (z * z).is_identity():
            assert swapper(z * x, y) == swapper(x, y) == swapper(x, z * y)
            assert swapper(z, x).is_identity() and swapper(x, z).is_identity()

    for sig in (Q8, Z4):
        words = all_words(sig)
        for x in words:
            for y in words:
                for z in words:
                    identities(x, y, z)
    mixed = GroupSignature(2, 2, 2)
    rng = random.Random(1)
    for _ in range(10_000 // 3 + 1):
        identities(*(random_word(mixed, rng) for _ in range(3)))
    _ok(1, "swapper matches the table; all five identity families hold")


# -- criterion 2 -----------------------------------------------------------

def test_criterion_02_pure_code():
    C = load_fixture("pure_q8_n8")
    assert C.order == 8
    assert code_type(C).as_tuple() == (1, 0, 2)
    assert not is_linear(C) and not is_abelian(C)
    r, k = rank(C), kernel_dim(C)
    assert (r, k) == (4, 1)
    # tightness of the whole chain
    sigma, delta, rho = code_type(C).as_tuple()
    assert r == k + 3
    assert k == sigma == delta + min(1, rho)
    assert r == sigma + delta + rho + comb(delta + rho, 2)  # 4 = 3 + 1
    assert check_bounds(C).all_ok
    _ok(2, "pure quaternionic code: |C|=8, type (1,0,2), (r,k)=(4,1), tight")


# -- criterion 3 -----------------------------------------------------------

def test_criterion_03_hadamard16():
    C = load_fixture("hadamard16_q8")
    assert is_hadamard(C) and C.sig.n == 16
    assert code_type(C).as_tuple() == (2, 0, 3)
    assert group_kernel(C).elements == torsion(C).elements
    assert (rank(C), kernel_dim(C)) == (7, 2)
    assert classify_shape(C).tag == 2
    _ok(3, "length-16 quaternionic Hadamard: type (2,0,3), (r,k)=(7,2), shape 2")


# -- criterion 4 -----------------------------------------------------------

def test_criterion_04_perfect_instances():
    ext8 = ["ext_hamming8_z2q8", "ext_hamming8_z4q8", "ext_hamming8_q8q8"]
    for name in ext8:
        C = load_fixture(name)
        assert C.sig.n == 8 and is_extended_perfect(C), name
    ham = load_fixture("hamming7_z2q8")
    assert ham.sig.n == 7 and is_perfect(ham)
    rep = load_fixture("rep4_q8")
    assert {str(gray(w)) for w in rep.elements} == {"0000", "1111"}
    assert is_extended_perfect(rep)
    _ok(4, "perfect/extended-perfect instances verified by sphere partition")


# -- criterion 5 -----------------------------------------------------------

def test_criterion_05_shape5_code():
    C = load_fixture("hadamard32_q8_shape5")
    assert is_hadamard(C) and C.sig.n == 32
    assert code_type(C).as_tuple() == (2, 0, 4)
    assert classify_shape(C).tag == 5
    assert (rank(C), kernel_dim(C)) == (8, 2)
    # exceptional parameters: k = 2 < ceil(m/2) = 3 with no flagged violation
    report = hadamard_bounds(C)
    assert report.all_ok
    exempt = [c for c in report.checks if "exempt" in c.name]
    assert exempt and all(c.ok for c in exempt)
    assert kernel_dim(C) == 2 < 3
    _ok(5, "length-32 shape-5 code: type (2,0,4), (r,k)=(8,2), exception honored")


# -- criterion 6 -----------------------------------------------------------

def test_criterion_06a_identity_pattern_extension():
    """Lift-and-extend of the quaternary length-8 code gives the linear
    Hadamard code of length 16 with r = k = 5.

    The criterion names (1,1,a2,a2) as the extension element, but that
    word cannot double the lifted group L: (0,0,2,2) = 2*(2,0,1,3) lies
    in the base code, so its lift (1,1,a2,a2) is the square of the lifted
    generator (a2,1,a,a3) and already lies in L.  ``extend`` requires its
    element to lie outside the group, so it refuses; the test asserts that
    refusal.  The criterion holds with any element of the coset b*L; the
    test extends by b*(1,1,a2,a2) = (b,b,a2b,a2b) and asserts r = k = 5.
    Independent check, not reading rank or kernel: the 32 Gray images are
    closed under XOR, so the binary image is a linear code of dimension 5.
    """
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    displayed = parse_element("1 1 a2 a2", lifted.sig)
    generator = parse_element("a2 1 a a3", lifted.sig)
    assert generator in lifted and generator * generator == displayed
    with pytest.raises(ConstructionError, match="already lies in the group"):
        extend(lifted, displayed)

    C = extend(lifted, parse_element("b b a2b a2b", lifted.sig))
    assert C == load_fixture("lift_extend_linear16")
    assert is_linear(C) and rank(C) == kernel_dim(C) == 5
    images = {gray(w).bits for w in C.elements}
    assert len(images) == 32
    assert all(a ^ b in images for a in images for b in images)
    _ok("6a", "(1,1,a2,a2) is refused; extension by (b,b,a2b,a2b) is linear, r=k=5")


def test_criterion_06b_quaternionic_extension():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    C = extend(lifted, parse_element("b ab b ab", lifted.sig))
    assert C == load_fixture("hadamard16_q8")
    assert (rank(C), kernel_dim(C)) == (7, 2)
    _ok("6b", "extension by (b,ab,b,ab) hits the rank-7 group exactly")


def test_criterion_06c_kernel3_extension():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    C = extend(lifted, parse_element("b b b a3b", lifted.sig))
    assert is_hadamard(C)
    assert (rank(C), kernel_dim(C)) == (6, 3)
    _ok("6c", "extension by (b,b,b,a3b) gives (r,k)=(6,3)")


# -- criterion 7 -----------------------------------------------------------

def test_criterion_07_length32_rank9():
    lifted = xi_lift(load_fixture("hadamard16_z2z4_delta2"))
    C = extend(lifted, parse_element("1 1 1 1 b ab b ab ab a3b", lifted.sig))
    assert is_hadamard(C) and C.sig.n == 32
    assert code_type(C).as_tuple() == (3, 0, 3)
    assert classify_shape(C).tag == 3
    assert (rank(C), kernel_dim(C)) == (9, 3)
    m = 5
    assert rank(C) == m + 1 + comb((m + 1) // 2, 2) == 9  # odd-length maximum
    _ok(7, "length-32 shape-3 code meets the odd-length rank maximum 9")


# -- criterion 8 -----------------------------------------------------------

def test_criterion_08a_rank7_code_invariants():
    C = load_fixture("hadamard32_q8_rank7")
    assert is_hadamard(C)
    assert code_type(C).as_tuple() == (3, 0, 3)
    assert (rank(C), kernel_dim(C)) == (7, 4)
    _ok("8a", "length-32 code: type (3,0,3), (r,k)=(7,4)")


def _square_profile(C) -> Counter:
    """How many elements of C square to each word; no shape analysis."""
    return Counter(w * w for w in C.elements)


def test_criterion_08b_rank7_code_shape3():
    """The length-32 rank-7 code is shape 2, Z2 x (Z4 : Q8); not shape 3.

    The criterion asked for shape 3, which this group cannot have.  Its
    generators z1 (all a) and z2 (b/ab alternating) both square to the
    all-order-2 word u with commutator u, and modulo the torsion subgroup
    only two cosets have squares other than u (z4^2 and u*z4^2, whose
    span contains u), so no generating set puts u outside the span of the
    tail squares as shape 3 requires.  An exhaustive search over all
    ordered torsion-coset triples finds 8 shape-2 witnesses and no
    shape-3 witness.  The test asserts the attainable label, 2.

    Independent check, not reading ``classify_shape``: order-2 words are
    central, and in shape 3 z1 inverts the tail z2..z_rho, so every word
    z1*t*s (t a tail product, s of order <= 2) squares to u, while no word
    t*s does (u lies outside the span of the tail squares).  Exactly |C|/2 words of a
    shape-3 group square to u; here 40 of the 64 do.
    """
    C = load_fixture("hadamard32_q8_rank7")
    assert classify_shape(C).tag == 2

    squares = _square_profile(C)
    u = u_element(C.sig)
    assert C.order == 64 and squares[u] == 40 != C.order // 2
    _ok("8b", "length-32 rank-7 code: shape 2; 40 of 64 words square to u, not 32")


def test_criterion_08c_kronecker_strict_drop():
    C = load_fixture("hadamard32_q8_rank7")
    g = parse_element("a2 a2 1 1 b ab b ab", C.sig)
    out = generalized_kronecker(C, g).output
    assert out.sig.n == 64
    assert code_type(out).as_tuple() == (3, 0, 4)
    assert (rank(out), kernel_dim(out)) == (8, 3)
    assert kernel_dim(out) < kernel_dim(C) + 1  # strict kernel drop
    _ok("8c", "doubling to length 64: type (3,0,4), (r,k)=(8,3), kernel drops")


def test_criterion_08d_kronecker_output_shape2():
    """The length-64 double of the rank-7 code is shape 5, Z2 x (Q8 : Q8).

    The criterion asked for shape 2, which the doubled group cannot have:
    an exhaustive search over all ordered torsion-coset quadruples
    (squares and commutators are constant on torsion cosets, so this
    covers every generating set) finds 432 shape-5 witnesses and no
    shape-2 witness.  The test asserts the attainable label, 5.

    Independent check, not reading ``classify_shape``: squares are
    constant on cosets of the torsion subgroup T.  In shape 2 the cosets
    of z1*t and z2*t square to u and those of t and z1*z2*t to t^2 and
    u*t^2, with t ranging over the abelian tail; as t -> t^2 is injective
    modulo T, each square value other than u is taken by |T| words, or by
    2|T| if u were a tail square.  Here a value other than u is taken
    by 3|T| = 24 words.
    """
    C = load_fixture("hadamard32_q8_rank7")
    g = parse_element("a2 a2 1 1 b ab b ab", C.sig)
    out = generalized_kronecker(C, g).output
    assert out == load_fixture("kronecker64_shape5")
    assert classify_shape(out).tag == 5

    squares = _square_profile(out)
    t_order = squares[identity(out.sig)]  # T = {w : w^2 = e}
    u = u_element(out.sig)
    assert t_order == 8
    assert max(m for w, m in squares.items() if w != u) > 2 * t_order
    _ok("8d", "doubled length-64 code: shape 5; a square value other than u has 24 roots")


# -- criterion 9 -----------------------------------------------------------

def test_criterion_09_mixed_code_same_invariants():
    C = load_fixture("hadamard32_z2z4_rank7")
    assert is_hadamard(C) and C.sig.n == 32
    assert (rank(C), kernel_dim(C)) == (7, 4)
    other = load_fixture("hadamard32_q8_rank7")
    assert (rank(other), kernel_dim(other)) == (7, 4)
    _ok(9, "mixed Z2/Z4 length-32 code shares the invariants (7,4)")


# -- criterion 10 ----------------------------------------------------------

def test_criterion_10_shape4_chain():
    C = load_fixture("hadamard8_z2q8_shape4")
    assert classify_shape(C).tag == 4
    assert is_linear(C) and C.sig.n == 8
    D = kronecker(C).output
    assert D.sig.n == 16
    assert is_linear(D)
    assert rank(D) == kernel_dim(D) == 5
    modified = load_fixture("hadamard16_z2q8_shape4_rank6")
    assert classify_shape(modified).tag == 4
    assert rank(modified) == 6
    z1 = parse_element("1 1 0 0 1 1 0 0 a a", modified.sig)
    zbar2 = parse_element("1 0 1 0 1 0 1 0 ab b", modified.sig)
    displayed = parse_element("0 0 0 0 0 0 0 0 a2 1", modified.sig)
    assert displayed in {swapper(z1, zbar2), swapper(zbar2, z1)}
    assert displayed in span_group(modified)
    assert displayed not in modified
    _ok(10, "shape-4 chain: linear base, dimension-5 double, rank-6 variant")


# -- criterion 11 ----------------------------------------------------------

def test_criterion_11_kronecker_laws_on_random_inputs():
    """Doubling laws on 200 construction-generated Hadamard inputs.

    The doubling element for the generalized step is sampled from the
    torsion-coset regime (a group member times an order-<=2 ambient
    word), where the rank-growth law is provable; the type prediction,
    kernel cap and Hadamard preservation are asserted inside the
    construction for every call.
    """
    rng = random.Random(1105)
    count = 0
    while count < 200:
        length = rng.choice((8, 8, 16))
        try:
            base = _random_abelian_base(length // 2, rng)
            if rng.random() < 0.5:
                lifted = xi_lift(base)
                C = extend(lifted, random_doubling_element(lifted.sig, rng))
            else:
                members = sorted(base.elements, key=lambda w: w.coords)
                g0 = rng.choice(members) * _random_torsion_word(base.sig, rng)
                C = generalized_kronecker(base, g0).output
        except ConstructionError:
            continue
        assert is_hadamard(C)
        members = sorted(C.elements, key=lambda w: w.coords)
        g = rng.choice(members) * _random_torsion_word(C.sig, rng)
        result = generalized_kronecker(C, g)  # asserts type, kernel cap
        assert rank(result.output) == rank(C) + 1
        assert is_hadamard(result.output)
        plain = kronecker(C)  # asserts k(K) = k + 1 and type (sigma+1, ...)
        assert kernel_dim(plain.output) == kernel_dim(C) + 1
        assert rank(plain.output) == rank(C) + 1
        count += 1
    _ok(11, "doubling laws hold on 200 random Hadamard inputs")


# -- criterion 12 ----------------------------------------------------------

def test_criterion_12_property_suites():
    signatures = [
        GroupSignature(0, 0, 2),  # Q8^2
        GroupSignature(0, 1, 1),  # Z4 x Q8
        GroupSignature(1, 1, 1),
        GroupSignature(0, 2, 1),
        GroupSignature(2, 0, 2),
        GroupSignature(0, 0, 3),
        GroupSignature(3, 2, 1),
        GroupSignature(0, 4, 2),
        GroupSignature(0, 0, 4),
        GroupSignature(8, 4, 1),
        GroupSignature(0, 0, 8),
        GroupSignature(4, 6, 3),
    ]
    rng = random.Random(1212)
    for i in range(500):
        sig = signatures[i % len(signatures)]
        n_gens = 3 if sig.l <= 4 and i % 3 == 0 else 2
        C = random_subgroup(sig, rng, n_gens, max_order=1 << 10)
        report = check_bounds(C)  # covers the rank/kernel/type inequalities
        assert report.all_ok, [c.name for c in report.failures()]
        assert rank(C) == coset_row_space(C).rank
        assert _kernel_cosets(C) == representative_kernel_cosets(C)

    # Hadamard instances: sharpened bounds, classification, converse
    instances = [
        load_fixture(name)
        for name in (
            "hadamard16_q8",
            "hadamard32_q8_shape5",
            "hadamard32_q8_rank7",
            "hadamard32_z2z4_rank7",
            "hadamard16_z2z4_delta2",
            "hadamard8_z4",
            "hadamard8_z2q8_shape4",
            "hadamard16_z2q8_shape4_rank6",
        )
    ]
    rng2 = random.Random(1213)
    built = 0
    while built < 40:
        length = rng2.choice((8, 16, 16, 32))
        try:
            base = _random_abelian_base(length // 2, rng2)
            lifted = xi_lift(base)
            C = extend(lifted, random_doubling_element(lifted.sig, rng2))
        except ConstructionError:
            continue
        instances.append(C)
        built += 1
    for C in instances:
        shape = classify_shape(C)  # verified witness relations inside
        report = hadamard_bounds(C)
        assert report.all_ok, (C.sig, shape.tag, [c.name for c in report.failures()])
        if shape.tag in (2, 3):
            result = structural_converse_check(C)
            rebuilt = extend(xi_lift(result.base), result.doubling_element)
            assert rebuilt == result.relabeled
    _ok(12, "500 random subgroups and all Hadamard instances pass every suite")


# -- criterion 13 ----------------------------------------------------------

def test_criterion_13_cross_oracles():
    """rank: presentation vs span group vs elimination, and the span group's
    image inside the row space; kernel: presentation null space vs
    translation test vs Gray image of the |C|^2 swapper scan; and every
    pair of routes that ``verify`` runs.  Criterion 12 runs the two 2^k
    second routes, on the coset representatives, on its 500 random
    subgroups."""
    names = (
        "pure_q8_n8",
        "hadamard16_q8",
        "hadamard32_q8_shape5",
        "hadamard32_q8_rank7",
        "hadamard32_z2z4_rank7",
        "hadamard16_z2z4_delta2",
        "hadamard8_z4",
        "hamming7_z2q8",
        "ext_hamming8_z4q8",
        "hadamard8_z2q8_shape4",
        "hadamard16_z2q8_shape4_rank6",
    )
    rng = random.Random(13)
    groups = [load_fixture(name) for name in names]
    groups += [
        random_subgroup(GroupSignature(0, 0, 2), rng, 2),
        random_subgroup(GroupSignature(0, 2, 1), rng, 2),
        random_subgroup(GroupSignature(0, 0, 4), rng, 2),
    ]
    for C in groups:
        verify(C)
        elimination = Gf2Basis(gray(w).bits for w in C.elements).rank
        assert span_group(C).log2_order == elimination
        assert rank(C) == elimination
        D, basis = span_group(C), gray_basis(C)
        assert all(basis.contains(b) for b in gray_codewords(D))
        translation, scan = translation_kernel(C), swapper_scan_kernel(C)
        assert translation == frozenset(gray(w) for w in scan) == binary_kernel(C)
        assert scan == group_kernel(C).elements
        assert len(translation) == 1 << kernel_dim(C)
    _ok(13, "rank and kernel dual routes agree on every checked code")


# -- closing note: the length-16 landscape ---------------------------------

def test_length16_rank_cap_and_search():
    """At length 16 the per-shape rank caps all evaluate to at most 7, and
    the seeded search never produces (r,k) outside {(5,5),(6,3),(7,2)}."""
    m = 4
    caps = {
        1: comb(m // 2, 2),
        2: 1 + comb(m // 2, 2),
        3: comb(m // 2, 2),
        4: 1,
        5: 3,
    }
    assert all(m + 1 + h <= 7 for shape, h in caps.items() if shape != 5)
    # shape 5 cannot occur at m = 4: it needs sigma >= 2 and rho = 4, so
    # sigma + delta + rho - 1 = m forces sigma = 1 < 2
    assert 2 + 0 + 4 - 1 > m
    found = search(length=16, shape=None, seed=1, budget=2500)
    observed = {(r.rank, r.kernel_dim) for r in found}
    assert observed <= {(5, 5), (6, 3), (7, 2)}
    assert observed & {(7, 2), (6, 3), (5, 5)}
    found2 = search(length=16, shape=2, seed=1, budget=2500)
    assert {(r.rank, r.kernel_dim) for r in found2} <= {(5, 5), (6, 3), (7, 2)}
    assert found2
    _ok("closing note", "length-16 rank cap 7 and search landscape")


def test_reproduce_all_fixtures():
    results = reproduce()
    failed = [r.case_id for r in results if not r.ok]
    assert not failed, failed
    _ok("reproduce", f"{len(results)}/{len(results)} fixtures pass")


def test_fixture_registry_is_built_once_and_read_only():
    table = fixtures()
    assert fixtures() is table and len(table) == 24
    case = next(iter(table.values()))
    with pytest.raises(TypeError):
        table["another"] = case
    with pytest.raises(TypeError):
        case.expected["rank"] = 0
