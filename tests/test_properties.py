"""Randomized structural property suites (theorem-backed, hard-fail)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2z4q8 import (
    CodeGroup,
    ConstructionError,
    EnumerationLimit,
    GroupSignature,
    binary_kernel,
    check_bounds,
    classify_shape,
    code_type,
    commutator,
    conjugate,
    extend,
    format_generators,
    generate,
    gray,
    gray_inv,
    group_kernel,
    hadamard_bounds,
    identity,
    is_abelian,
    is_hadamard,
    is_linear,
    kernel_dim,
    parse_element,
    parse_generators,
    pi_of,
    random_doubling_element,
    rank,
    structural_converse_check,
    swapper,
    u_element,
    word,
    word_from_tokens,
    xi_lift,
)
from z2z4q8.constructions import _pair_bits, _pair_word, generalized_kronecker
from z2z4q8.fixtures import load_fixture
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.groups import _GRAY_BLOCKS, Q8_TOKENS, GroupWord, _nu, _pi
from z2z4q8.search import _random_abelian_base, _random_torsion_word
from z2z4q8.invariants import span_group
from z2z4q8.oracles import (
    _swapper_bits,
    full_space_kernel,
    gray_basis,
    gray_codewords,
    swapper_scan_kernel,
    translation_kernel,
)
from z2z4q8.subgroup import (
    _coset_minima,
    _coset_reps,
    _coset_table,
    _coset_word,
    _form_row,
    _null_space,
    _radical,
)

from conftest import (
    assert_matches_reference,
    closure,
    kind_of,
    least_coset_words,
    random_subgroup,
    word_commutator,
)

SIGNATURES = [
    GroupSignature(0, 0, 2),
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


def test_random_subgroup_bounds():
    """Every structural inequality holds on random subgroups (n <= 32).

    check_bounds covers the kernel/rank gap, delta <= sigma <= k, both
    rank caps, sigma >= delta + min(1, rho), and the pair facts; rank()
    and kernel_dim() internally cross-check their two routes.  The
    acceptance suite runs the same loop at its full count.
    """
    rng = random.Random(2024)
    for i in range(150):
        sig = SIGNATURES[i % len(SIGNATURES)]
        n_gens = 3 if sig.l <= 4 and i % 3 == 0 else 2
        C = random_subgroup(sig, rng, n_gens, max_order=1 << 10)
        report = check_bounds(C)
        assert report.all_ok, (
            sig,
            [g.tokens() for g in C.generators],
            [c.name for c in report.failures()],
        )


def _random_hadamard_instances(count: int, seed: int):
    """Hadamard code groups produced by the constructions themselves."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        length = rng.choice((8, 8, 16, 16, 32))
        try:
            base = _random_abelian_base(length // 2, rng)
            if rng.random() < 0.65:
                lifted = xi_lift(base)
                C = extend(lifted, random_doubling_element(lifted.sig, rng))
            else:
                members = sorted(base.elements, key=lambda w: w.coords)
                g = rng.choice(members) * _random_torsion_word(base.sig, rng)
                C = generalized_kronecker(base, g).output
        except ConstructionError:
            continue
        out.append(C)
    return out


def test_hadamard_instances_bounds_and_classification():
    """Hadamard-specific facts on construction-generated instances.

    For every instance: the sharpened bound set holds (including the pair
    and triple facts and the normalized-set inequalities), classification
    succeeds with machine-verified witness relations, and shape-2/3
    instances round-trip through the doubling converse.
    """
    instances = _random_hadamard_instances(60, seed=7)
    shapes_seen = set()
    for C in instances:
        assert is_hadamard(C)
        shape = classify_shape(C)
        shapes_seen.add(shape.tag)
        report = hadamard_bounds(C, shape)
        assert report.all_ok, (
            C.sig,
            shape.tag,
            [c.name for c in report.failures()],
        )
        if shape.tag in (2, 3):
            result = structural_converse_check(C, shape)
            assert result.base.sig.k3 == 0
            assert is_hadamard(result.base)
    assert {1, 2} <= shapes_seen  # sampler reaches several shapes


def test_fixture_hadamard_bounds_all_ok():
    for name in (
        "hadamard16_q8",
        "hadamard32_q8_shape5",
        "hadamard32_q8_rank7",
        "hadamard32_z2z4_rank7",
        "hadamard16_z2z4_delta2",
        "hadamard8_z4",
        "hadamard8_z2q8_shape4",
        "hadamard16_z2q8_shape4_rank6",
    ):
        C = load_fixture(name)
        report = hadamard_bounds(C)
        assert report.all_ok, (name, [c.name for c in report.failures()])


def test_small_mixed_codes_are_linear():
    """Abelian Z2/Z4 code groups with at most 8 elements are linear.

    Verified by enumerating every subgroup of order <= 8 of each ambient
    Z2^a x Z4^b with a + 2b <= 6.
    """
    ambients = [
        (a, b)
        for a in range(7)
        for b in range(4)
        if a + 2 * b <= 6 and a + b >= 1
    ]
    checked = 0
    for a, b in ambients:
        sig = GroupSignature(a, b, 0)
        mods = [2] * a + [4] * b
        stack = [()]
        for m in mods:
            stack = [prefix + (v,) for prefix in stack for v in range(m)]
        ambient_words = [word(sig, coords) for coords in stack]
        seen = {frozenset({identity(sig)})}
        frontier = [generate([identity(sig)])]
        while frontier:
            S = frontier.pop()
            # <S, g> = <S, s*g>: close once per right coset S*g
            tried = set(S.elements)
            for g in ambient_words:
                if g in tried:
                    continue
                tried.update(s * g for s in S.elements)
                try:
                    T = generate(list(S.generators) + [g], max_order=8)
                except EnumerationLimit:
                    continue
                if T.elements in seen:
                    continue
                seen.add(T.elements)
                frontier.append(T)
                assert is_linear(T), (sig, [w.tokens() for w in T.elements])
                checked += 1
    assert checked == 3463


def test_cross_oracle_rank_and_kernel():
    """Presentation rank == elimination rank; the translation test over
    Gray(C) == the binary kernel == Gray of the group kernel, both read
    from the presentation, of order 2^kernel_dim; checked explicitly on a
    random batch."""
    rng = random.Random(4096)
    for _ in range(60):
        sig = SIGNATURES[rng.randrange(len(SIGNATURES))]
        C = random_subgroup(sig, rng, 2, max_order=1 << 10)
        elimination = Gf2Basis(gray(w).bits for w in C.elements).rank
        assert rank(C) == elimination
        translation = translation_kernel(C)
        assert translation == binary_kernel(C)
        assert translation == frozenset(gray(w) for w in group_kernel(C).elements)
        assert len(translation) == 1 << kernel_dim(C)


def test_kernel_full_space_agrees_small():
    """The scan of all of Z2^n, the translation test over Gray(C) and the
    binary kernel read from the presentation give one set."""
    rng = random.Random(11)
    for _ in range(10):
        C = random_subgroup(GroupSignature(1, 1, 1), rng, 2, max_order=1 << 8)
        assert full_space_kernel(C) == translation_kernel(C) == binary_kernel(C)


def test_nonlinear_gap_and_kernel_index():
    rng = random.Random(52)
    for _ in range(80):
        sig = SIGNATURES[rng.randrange(len(SIGNATURES))]
        C = random_subgroup(sig, rng, 2, max_order=1 << 10)
        k = kernel_dim(C)
        r = rank(C)
        if is_linear(C):
            assert r == k == C.log2_order
        else:
            assert r >= k + 3
            assert k < C.log2_order - 1


def test_type_chain_consistency_random():
    rng = random.Random(63)
    for _ in range(80):
        sig = SIGNATURES[rng.randrange(len(SIGNATURES))]
        C = random_subgroup(sig, rng, rng.choice((1, 2, 3)), max_order=1 << 9)
        ct = code_type(C)
        assert 2 ** ct.total == C.order
        assert ct.sigma >= ct.delta + min(1, ct.rho)
        u = u_element(sig)
        if is_hadamard(C):
            assert u in C


# -- hypothesis properties over single-kind and mixed signatures (l <= 4) --

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=40
)

_counts = st.integers(1, 4)
_mixed = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
    lambda ks: sum(1 for k in ks if k) >= 2 and sum(ks) <= 4
)
signatures = st.one_of(
    _counts.map(lambda k: GroupSignature(k, 0, 0)),
    _counts.map(lambda k: GroupSignature(0, k, 0)),
    _counts.map(lambda k: GroupSignature(0, 0, k)),
    _mixed.map(lambda ks: GroupSignature(*ks)),
)


def coords_of(sig: GroupSignature):
    mods = [2] * sig.k1 + [4] * sig.k2 + [8] * sig.k3
    return st.tuples(*(st.integers(0, m - 1) for m in mods))


def words_of(sig: GroupSignature):
    return coords_of(sig).map(lambda coords: word(sig, coords))


_long = st.integers(1, 40)
long_signatures = st.one_of(
    _long.map(lambda k: GroupSignature(k, 0, 0)),
    _long.map(lambda k: GroupSignature(0, k, 0)),
    _long.map(lambda k: GroupSignature(0, 0, k)),
    st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    .filter(lambda ks: sum(1 for k in ks if k) >= 2)
    .map(lambda ks: GroupSignature(*ks)),
)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_codec_round_trips(data):
    """Encoding, decoding, tokens and the token parser agree with the Gray
    blocks laid down one coordinate at a time, over Z2-only, Z4-only,
    Q8-only and mixed signatures whose sections run over several bytes."""
    sig = data.draw(long_signatures)
    coords = data.draw(coords_of(sig))
    w = word(sig, coords)
    bits, pos = 0, 0
    for i, v in enumerate(coords):
        width, blocks = _GRAY_BLOCKS[kind_of(sig, i)]
        bits |= blocks[v] << pos
        pos += width
    assert w.bits == bits and w.coords == coords
    tokens = tuple(Q8_TOKENS[v] if kind_of(sig, i) == "q8" else str(v) for i, v in enumerate(coords))
    assert w.tokens() == tokens
    assert word_from_tokens(sig, tokens) == w == parse_element(" ".join(tokens), sig)
    assert gray_inv(gray(w), sig) == w


@PROPERTY_SETTINGS
@given(st.data())
def test_property_gray_inverse_and_propelinear_product(data):
    sig = data.draw(signatures)
    x, y = data.draw(words_of(sig)), data.draw(words_of(sig))
    assert gray_inv(gray(x), sig) == x
    assert gray(x * y) == gray(x) ^ pi_of(x).apply(gray(y))


@PROPERTY_SETTINGS
@given(st.data())
def test_property_product_matches_coordinatewise_reference(data):
    sig = data.draw(signatures)
    cx, cy = data.draw(coords_of(sig)), data.draw(coords_of(sig))
    x, y = word(sig, cx), word(sig, cy)
    assert x.coords == cx and y.coords == cy
    assert_matches_reference(x, y)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_table_swapper_bits_match_swapper(data):
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    C = generate(gens)
    words = C.sorted_elements()
    for _ in range(4):
        x = words[data.draw(st.integers(0, len(words) - 1))]
        y = words[data.draw(st.integers(0, len(words) - 1))]
        assert _swapper_bits(x, y) == gray(swapper(x, y)).bits


@PROPERTY_SETTINGS
@given(st.data())
def test_property_nu_is_a_homomorphism_with_kernel_omega(data):
    sig = data.draw(signatures)
    x, y = data.draw(words_of(sig)), data.draw(words_of(sig))
    assert _nu(sig, (x * y).bits) == _nu(sig, x.bits) ^ _nu(sig, y.bits)
    assert (_nu(sig, x.bits) == 0) == (x.order() <= 2) == ((x * x).is_identity())


@PROPERTY_SETTINGS
@given(st.data())
def test_property_generate_equals_the_closure(data):
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    assert generate(gens).elements == closure([identity(sig)], gens)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_swapper_is_bilinear_and_lies_in_omega(data):
    """s(x, y) = Gray(y) + pi_x(Gray(y)) is the image of a word of order
    <= 2, adds in each slot (exactly, hence mod Gray(T)), and is 0 when
    either argument lies in T(C)."""
    sig = data.draw(signatures)
    C = generate(data.draw(st.lists(words_of(sig), min_size=1, max_size=3)))
    words = C.sorted_elements()
    x, y, z = (words[data.draw(st.integers(0, len(words) - 1))] for _ in range(3))
    s = _swapper_bits
    assert _nu(sig, s(x, y)) == 0 and s(x, y) == gray(swapper(x, y)).bits
    assert (swapper(x, y) * swapper(x, y)).is_identity()
    assert s(x * y, z) == s(x, z) ^ s(y, z)
    assert s(x, y * z) == s(x, y) ^ s(x, z)
    for t in (x * x, y * y):  # squares lie in T(C)
        assert s(t, z) == s(z, t) == 0


@PROPERTY_SETTINGS
@given(st.data())
def test_property_presentation_rank_and_kernel_match_the_oracles(data):
    """rank == log2|span group| == elimination of all of Gray(C), and the
    span group's image lies in that row space; the binary kernel and the
    group kernel equal the translation test and the |C|^2 swapper scan,
    of order 2^kernel_dim."""
    sig = data.draw(signatures)
    C = generate(data.draw(st.lists(words_of(sig), min_size=1, max_size=3)))
    r, k = rank(C), kernel_dim(C)
    basis, D = gray_basis(C), span_group(C)
    assert r == D.log2_order == basis.rank
    assert all(basis.contains(b) for b in gray_codewords(D))
    assert is_linear(C) == (r == C.log2_order)
    assert binary_kernel(C) == translation_kernel(C)
    assert group_kernel(C).elements == swapper_scan_kernel(C)
    assert len(binary_kernel(C)) == group_kernel(C).order == 1 << k


@PROPERTY_SETTINGS
@given(st.data())
def test_property_coset_minima_are_the_least_words(data):
    """Reducing key(r) << n | Gray(r) by the echelon rows of the keys of
    T(C) gives the _sort_key-least word of the coset r T(C)."""
    sig = data.draw(signatures)
    C = generate(data.draw(st.lists(words_of(sig), min_size=1, max_size=3)))
    assert _coset_minima(C) == least_coset_words(C)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_swapper_table_and_its_readers_match_word_products(data):
    """The table kept by the presentation is y + pi_x(y) over the basis,
    recomputed; the squares and commutator rows read from it by XOR are
    the word products over the representatives; the radical read from it
    is the null space of the ``_form_row`` rows; and ``is_abelian`` agrees
    with the generator-pair products and with rho = 0."""
    sig = data.draw(signatures)
    C = generate(data.draw(st.lists(words_of(sig), min_size=1, max_size=3)))
    basis = C.basis
    assert C.swappers == tuple(tuple(y ^ _pi(sig, x, y) for y in basis) for x in basis)
    reps = _coset_reps(C)
    assert _coset_table(C) == (
        [(p * p).bits for p in reps],
        [[word_commutator(p, q).bits for q in reps] for p in reps],
    )
    form = [_form_row(sig, b, basis) for b in basis]
    assert _radical(C) == _null_space(form)
    gens = C.generators
    pairs = all(x * y == y * x for x in gens for y in gens)
    assert is_abelian(C) == pairs == (code_type(C).rho == 0)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_commutator_matches_the_word_products(data):
    """(x, y) from two applications of pi equals x^-1 y^-1 x y on random
    ambient words, whose group need not be a code of any kind."""
    sig = data.draw(signatures)
    x, y = data.draw(words_of(sig)), data.draw(words_of(sig))
    assert commutator(x, y) == word_commutator(x, y)
    assert commutator(x, x).is_identity()


def _omega_words(sig: GroupSignature):
    """Words of order <= 2: central, so s * o keeps nu(s) for s in C."""
    mods = [(0, 1)] * sig.k1 + [(0, 2)] * (sig.k2 + sig.k3)
    return st.tuples(*(st.sampled_from(m) for m in mods)).map(lambda c: word(sig, c))


def _near(sig: GroupSignature, members: list):
    """A random ambient word, a word of the group, or one times a word of
    order <= 2: the last passes the nu test of membership, so only
    T(C) decides it."""
    return st.one_of(
        words_of(sig),
        st.sampled_from(members),
        st.tuples(st.sampled_from(members), _omega_words(sig)).map(lambda p: p[0] * p[1]),
    )


def _other_signature(sig: GroupSignature) -> GroupSignature:
    """Another signature in which each image of ``sig`` is again the image
    of a word: a Z4 block read as two Z2 bits, a Q8 block as two Z4
    blocks, or one more Z2 coordinate."""
    if sig.k2:
        return GroupSignature(sig.k1 + 2, sig.k2 - 1, sig.k3)
    if sig.k3:
        return GroupSignature(sig.k1, sig.k2 + 2, sig.k3 - 1)
    return GroupSignature(sig.k1 + 1, 0, 0)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_membership_matches_the_closure(data):
    """``w in C`` (nu reduced by the presentation, then the residue tested
    against Gray(T)) agrees with the word closure of the generators, and a
    word of another signature is never in C."""
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    C = generate(gens)
    members = closure([identity(sig)], gens)
    assert all(w in C for w in members)
    ordered = sorted(members, key=lambda w: w.coords)
    for w in data.draw(st.lists(_near(sig, ordered), min_size=8, max_size=8)):
        assert (w in C) == (w in members), (sig, w)
    other = _other_signature(sig)
    for w in ordered[:4] + ordered[-4:]:
        alien = GroupWord._from_bits(other, w.bits)
        assert alien not in C
        assert alien in CodeGroup(other, (alien,))


@PROPERTY_SETTINGS
@given(st.data())
def test_property_coset_word_is_constant_on_cosets_and_zero_on_the_group(data):
    """``_coset_word(C, x)`` is the same for x and x c with c in C, is 0
    exactly when x lies in the word closure of the generators, and tells
    cosets apart: two words share it exactly when x^-1 y lies in C."""
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    C = generate(gens)
    members = closure([identity(sig)], gens)
    ordered = sorted(members, key=lambda w: w.coords)
    xs = data.draw(st.lists(_near(sig, ordered), min_size=6, max_size=6))
    cs = data.draw(st.lists(st.sampled_from(ordered), min_size=4, max_size=4))
    for x in xs:
        key = _coset_word(C, x.bits)
        assert (key == 0) == (x in members), (sig, x)
        assert all(_coset_word(C, (x * c).bits) == key for c in cs), (sig, x)
        for y in xs:
            same = _coset_word(C, y.bits) == key
            assert same == (x.inverse() * y in members), (sig, x, y)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_equality_and_hash_match_the_closure(data):
    """C == D exactly when their closures are equal, and so are their
    canonical keys (``_key``), so equal groups hash alike; a group given by
    its generators shuffled and with redundant products added is the same
    group."""
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    C = generate(gens)
    members = frozenset(closure([identity(sig)], gens))
    extra = data.draw(st.lists(st.sampled_from(sorted(members, key=lambda w: w.coords)), max_size=3))
    redundant = data.draw(st.permutations(list(gens) + extra + [gens[0] * gens[-1]]))
    D = generate(redundant)
    assert C == D and D == C and hash(C) == hash(D) and C._key == D._key
    # one generator swapped for a near word: often the same order, not always the group
    swapped = list(gens[:-1]) + [data.draw(_near(sig, sorted(members, key=lambda w: w.coords)))]
    E = generate(swapped)
    same = members == frozenset(closure([identity(sig)], swapped))
    assert (C == E) == (E == C) == (C._key == E._key) == same, (sig, gens, swapped)
    if same:
        assert hash(C) == hash(E)
    other = _other_signature(sig)
    assert C != generate([GroupWord._from_bits(other, g.bits) for g in gens])
    assert C != C.generators


def _precondition_messages(S, gens, x, label):
    """The failing preconditions of a doubling by x, word by word against
    the closure S, as the messages extend/generalized_kronecker give."""
    failing = []
    if label == "extend" and x in S:
        failing.append(f"extension element {x} already lies in the group")
    if x * x not in S:
        failing.append(f"square of {x} lies outside the group")
    failing += [
        f"{x} does not normalize the group (moves {g})"
        for g in gens
        if conjugate(g, x) not in S
    ]
    return failing


@PROPERTY_SETTINGS
@given(st.data())
def test_property_extend_order_test_matches_its_preconditions(data):
    """x outside Cq, x^2 in Cq and x normalizing Cq, each tested word by
    word on the closure, hold together exactly when |<Cq, x>| = 2|Cq|; and
    extend refuses with the first failing test's message, or refuses none."""
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    Cq = generate(gens)
    S = closure([identity(sig)], gens)
    near = _near(sig, sorted(S, key=lambda w: w.coords))
    for x in data.draw(st.lists(near, min_size=6, max_size=6)):
        failing = _precondition_messages(S, gens, x, "extend")
        doubled = CodeGroup(sig, Cq.generators + (x,)).order == 2 * Cq.order
        assert doubled == (not failing), (sig, gens, x)
        try:
            extend(Cq, x)
            raised = None
        except (ConstructionError, RuntimeError) as err:
            raised = str(err)
        if failing:
            assert raised == failing[0]
        else:
            assert raised is None or raised.startswith(
                ("weight", "binary length", "extension produced")
            )


@PROPERTY_SETTINGS
@given(st.data())
def test_property_kronecker_order_test_matches_its_preconditions(data):
    """g^2 in C and g normalizing C, each tested word by word on the
    closure, hold together exactly when |<diag(C), (g, g u)>| <= 2|C|; and
    generalized_kronecker refuses with the first failing test's message,
    or builds the doubled group."""
    sig = data.draw(signatures)
    gens = data.draw(st.lists(words_of(sig), min_size=1, max_size=3))
    C = generate(gens)
    S = closure([identity(sig)], gens)
    pairs = tuple(_pair_word(sig.doubled(), w, w) for w in C.generators)
    near = _near(sig, sorted(S, key=lambda w: w.coords))
    for g in data.draw(st.lists(near, min_size=6, max_size=6)):
        failing = _precondition_messages(S, gens, g, "kronecker")
        out = CodeGroup(sig.doubled(), pairs + (_pair_word(sig.doubled(), g, g * u_element(sig)),))
        assert (out.order <= 2 * C.order) == (not failing), (sig, gens, g)
        if failing:
            with pytest.raises(ConstructionError) as err:
                generalized_kronecker(C, g)
            assert str(err.value) == failing[0]
        else:
            assert generalized_kronecker(C, g).output == out


def _reference_pair(w1, w2):
    """(w1, w2) in the doubled signature, spliced coordinate by coordinate."""
    sig = w1.sig
    k1, k2 = sig.k1, sig.k2
    a, b = w1.coords, w2.coords
    return word(
        sig.doubled(),
        a[:k1] + b[:k1] + a[k1 : k1 + k2] + b[k1 : k1 + k2]
        + a[k1 + k2 :] + b[k1 + k2 :],
    )


@PROPERTY_SETTINGS
@given(st.data())
def test_property_pair_bits_match_coordinate_splice(data):
    sig = data.draw(signatures)
    x, y = data.draw(words_of(sig)), data.draw(words_of(sig))
    assert _pair_bits(sig, x.bits, y.bits) == _reference_pair(x, y).bits
    assert _pair_word(sig.doubled(), x, y) == _reference_pair(x, y)


@PROPERTY_SETTINGS
@given(st.data())
def test_property_generator_files_round_trip(data):
    sig = data.draw(signatures)
    words = data.draw(st.lists(words_of(sig), min_size=1, max_size=4))
    assert parse_generators(format_generators(sig, words)) == (sig, words)


def _exponent_token(letter: str, e: int, caret: bool) -> str:
    if e == 1 and not caret:
        return letter
    return f"{letter}^{e}" if caret else f"{letter}{e}"


@PROPERTY_SETTINGS
@given(st.integers(0, 7), st.integers(0, 5), st.booleans(), st.booleans())
def test_property_noncanonical_q8_tokens_normalise(i, j, caret_a, caret_b):
    """a^i b^j in any spelling (b3, a^2b, a5b^2, ...) parses to its product."""
    parts = []
    if i:
        parts.append(_exponent_token("a", i, caret_a))
    if j:
        parts.append(_exponent_token("b", j, caret_b))
    token = "".join(parts) or "1"
    sig = GroupSignature(0, 0, 1)
    a, b = word_from_tokens(sig, ("a",)), word_from_tokens(sig, ("b",))
    expected = a ** i * b ** j
    _, (parsed,) = parse_generators(f"sig 0 0 1\ngen {token}\n")
    assert parsed == expected
    assert parse_generators(format_generators(sig, [parsed])) == (sig, [parsed])
