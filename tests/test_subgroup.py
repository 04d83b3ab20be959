"""Subgroup closure and the structural subgroups T, Z, C', K."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from z2z4q8 import (
    CodeGroup,
    EnumerationLimit,
    GroupSignature,
    GroupWord,
    center,
    classify_shape,
    code_type,
    commutator_subgroup,
    generate,
    generalized_kronecker,
    gray,
    gray_inv,
    group_kernel,
    commutator,
    identity,
    normalize_generators,
    parse_generators,
    standard_generators,
    swapper,
    search,
    span_group,
    torsion,
    word,
    word_from_tokens,
)
from z2z4q8.fixtures import fixture_text, fixtures, load_fixture
import z2z4q8.subgroup as subgroup_module
import z2z4q8.gf2 as gf2
from z2z4q8.gf2 import span
from z2z4q8.oracles import (
    _coset_table,
    closure,
    least_coset_words,
    scanned_standard_generators,
    swapper_scan_kernel,
    tiles,
)
from z2z4q8.report import analyze, render_json
from z2z4q8.groups import _commutator_bits, _sort_key
from z2z4q8.subgroup import (
    StandardGenSet,
    _coset_images,
    _coset_minima,
    _coset_reps,
    _locate,
    verify_standard,
)

from conftest import (
    Q8,
    SHIPPED_FIXTURES,
    all_words,
    count_calls,
    q8_word,
    random_subgroup,
    record_word_sets,
    word_commutator,
)

Q8_PAIR = GroupSignature(0, 0, 2)

# the eight elements of the pure code, frozen from the source listing
PURE_ELEMENTS = {
    ("1", "1"),
    ("a", "a"),
    ("a2", "a2"),
    ("a3", "a3"),
    ("ab", "b"),
    ("a2b", "ab"),
    ("a3b", "a2b"),
    ("b", "a3b"),
}


def test_enumerate_pure_code_exact_elements(pure_q8):
    assert pure_q8.order == 8
    assert {w.tokens() for w in pure_q8.elements} == PURE_ELEMENTS


def test_enumerate_trivial():
    C = generate([identity(Q8_PAIR)])
    assert C.order == 1


def test_enumerate_hadamard16(hadamard16):
    assert hadamard16.order == 32


def test_enumerate_signature_mismatch():
    with pytest.raises(ValueError):
        generate([identity(Q8_PAIR), identity(Q8)])


def test_enumerate_max_order():
    gens = [
        word_from_tokens(Q8_PAIR, ("a", "1")),
        word_from_tokens(Q8_PAIR, ("1", "a")),
        word_from_tokens(Q8_PAIR, ("b", "b")),
    ]
    with pytest.raises(EnumerationLimit) as err:
        generate(gens, max_order=8)
    assert "max_order=8" in str(err.value)


def test_torsion_of_pure_code(pure_q8):
    T = torsion(pure_q8)
    assert {w.tokens() for w in T.elements} == {("1", "1"), ("a2", "a2")}


def test_torsion_of_a2_subgroup():
    C = generate([q8_word("a2")])
    assert torsion(C) == C


def test_torsion_of_hadamard16(hadamard16):
    assert torsion(hadamard16).order == 4


def test_center_and_commutator_subgroup(pure_q8):
    assert center(pure_q8).order == 2
    assert {w.tokens() for w in commutator_subgroup(pure_q8).elements} == {
        ("1", "1"),
        ("a2", "a2"),
    }


def test_abelian_center_is_whole_group():
    sig = GroupSignature(1, 1, 0)
    C = generate([word(sig, (1, 1))])
    assert center(C) == C
    assert commutator_subgroup(C).order == 1


def test_hadamard16_center_equals_torsion(hadamard16):
    Z = center(hadamard16)
    T = torsion(hadamard16)
    assert Z.elements == T.elements
    assert Z.order == 4
    # Z(C) = T(C) = <a^2, c^2> with the listed generators
    a = word_from_tokens(hadamard16.sig, ("a", "a", "a", "a"))
    c = word_from_tokens(hadamard16.sig, ("a2", "1", "a", "a3"))
    assert generate([a * a, c * c]) == Z


def test_code_type_values(pure_q8, hadamard16, shape5_32):
    assert code_type(pure_q8).as_tuple() == (1, 0, 2)
    assert code_type(hadamard16).as_tuple() == (2, 0, 3)
    assert code_type(shape5_32).as_tuple() == (2, 0, 4)


def test_chain_of_subgroups(pure_q8, hadamard16):
    for C in (pure_q8, hadamard16):
        Cp = commutator_subgroup(C)
        T = torsion(C)
        Z = center(C)
        K = group_kernel(C)
        assert Cp.elements <= T.elements <= Z.elements <= K.elements <= C.elements


def test_standard_generators_elementary_abelian():
    sig = GroupSignature(3, 0, 0)
    C = generate([word(sig, (1, 0, 0)), word(sig, (0, 1, 0)), word(sig, (0, 0, 1))])
    gens = standard_generators(C)
    assert len(gens.xs) == 3 and not gens.ys and not gens.zs


def test_standard_generators_pure_code(pure_q8):
    gens = standard_generators(pure_q8)
    assert len(gens.xs) == 1 and len(gens.ys) == 0 and len(gens.zs) == 2
    assert gens.xs[0].tokens() == ("a2", "a2")
    for z in gens.zs:
        assert z.order() == 4
    verify_standard(pure_q8, gens)


def test_standard_generators_hadamard16(hadamard16):
    gens = standard_generators(hadamard16)
    assert (len(gens.xs), len(gens.ys), len(gens.zs)) == (2, 0, 3)
    verify_standard(hadamard16, gens)


def test_standard_generators_random_groups():
    rng = random.Random(101)
    for _ in range(40):
        sig = rng.choice(
            [GroupSignature(0, 0, 2), GroupSignature(1, 1, 1), GroupSignature(0, 2, 1)]
        )
        C = random_subgroup(sig, rng, rng.choice((1, 2, 3)))
        verify_standard(C, standard_generators(C))


def test_standard_generators_stop_the_z_scan_at_k_independent_indices(monkeypatch):
    """The z scan stops at the k-th independent index, as no later one can
    be independent: on ``hadamard32_q8_shape5`` (k = 4, delta = 0) one call
    adds each radical index and each index scanned up to the last z, 10 in
    all, where a scan of all 2^k indices adds 17."""
    C = load_fixture("hadamard32_q8_shape5")
    keys, radical = subgroup_module._minimum_keys(C), subgroup_module._radical(C)
    subgroup_module._key_basis(C)
    real, adds = gf2.Gf2Basis.add, []
    monkeypatch.setattr(gf2.Gf2Basis, "add", lambda self, v: adds.append(v) or real(self, v))
    gens = standard_generators(C)
    scan = sorted(range(len(keys)), key=keys.__getitem__)
    last_z = verify_standard(C, gens)[-1]
    assert len(C.basis) == len(gens.ys) + len(gens.zs) == 4
    assert len(adds) == len(radical) + scan.index(last_z) + 1 == 10
    assert len(radical) + len(keys) == 17


# -- standard generators against the closure scan -----------------------


def _assert_scan_matches(C, label):
    gens = standard_generators(C)
    assert (gens.xs, gens.ys, gens.zs) == scanned_standard_generators(C), label


def test_standard_generators_match_the_closure_scan_on_fixtures_and_cases():
    for name in SHIPPED_FIXTURES:
        _assert_scan_matches(load_fixture(name), name)
    cases = fixtures()
    assert len(cases) == 24
    for case_id, fx in sorted(cases.items()):
        _assert_scan_matches(fx.build(), case_id)


MIXED_SIGNATURES = [
    GroupSignature(1, 1, 1),
    GroupSignature(0, 1, 1),
    GroupSignature(2, 1, 1),
    GroupSignature(1, 2, 1),
    GroupSignature(0, 2, 2),
    GroupSignature(1, 0, 2),
    GroupSignature(2, 2, 0),
]


def test_standard_generators_match_the_closure_scan_on_random_groups():
    rng = random.Random(339)
    for i in range(320):
        sig = MIXED_SIGNATURES[i % len(MIXED_SIGNATURES)]
        C = random_subgroup(sig, rng, rng.choice((1, 2, 3, 4)), max_order=256)
        _assert_scan_matches(C, (sig, C.generators))


@pytest.mark.parametrize("length", [16, 32, 64])
def test_standard_generators_match_the_closure_scan_on_search_outputs(length):
    found = search(length, seed=1, budget={16: 2500, 32: 300, 64: 200}[length])
    assert found
    for f in found:
        _assert_scan_matches(generate(f.generators), f.generators)


def _kronecker_chain(start, max_n, rng):
    """The fixture ``start`` and its generalized Kronecker doublings up to
    length max_n, each g a seeded product of powers of the generators."""
    C = load_fixture(start)
    chain = [C]
    while C.sig.n < max_n:
        g = identity(C.sig)
        for w in C.generators:
            g = g * w ** rng.randrange(4)
        C = generalized_kronecker(C, g).output
        chain.append(C)
    return chain


@pytest.mark.parametrize("start", ["hadamard16_q8", "hadamard16_z2z4_delta2"])
def test_standard_generators_match_the_closure_scan_on_kronecker_chains(start):
    for C in _kronecker_chain(start, 256, random.Random(start)):
        _assert_scan_matches(C, (start, C.sig.n))


# -- coset minima ----------------------------------------------------------


def test_coset_minima_are_the_least_words_on_fixtures():
    for name in SHIPPED_FIXTURES:
        C = load_fixture(name)
        assert _coset_minima(C) == least_coset_words(C), name


@pytest.mark.parametrize(
    "sig",
    [
        GroupSignature(5, 0, 0),
        GroupSignature(0, 4, 0),
        GroupSignature(0, 0, 3),
        GroupSignature(1, 2, 1),
        GroupSignature(2, 1, 2),
    ],
    ids=str,
)
def test_coset_minima_are_the_least_words_on_random_groups(sig):
    rng = random.Random(sig.n * 31 + sig.l)
    for _ in range(16):
        C = random_subgroup(sig, rng, rng.choice((1, 2, 3, 4)), max_order=256)
        assert _coset_minima(C) == least_coset_words(C), C.generators


def test_group_kernel_of_hadamard16(hadamard16):
    K = group_kernel(hadamard16)
    assert K.elements == torsion(hadamard16).elements
    # the coset route agrees with the full quadratic scan
    assert swapper_scan_kernel(hadamard16) == K.elements


def _word_level_kernel(C):
    """{x in C : swapper(x, y) in C for all y in C}, through the public swapper."""
    return frozenset(
        x for x in C.elements if all(swapper(x, y) in C for y in C.elements)
    )




def test_group_kernel_matches_word_level_reference_on_fixtures():
    checked = 0
    for name in SHIPPED_FIXTURES:
        C = load_fixture(name)
        if C.order > 64:
            continue
        reference = _word_level_kernel(C)
        assert group_kernel(C).elements == reference, name
        assert swapper_scan_kernel(C) == reference, name
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize(
    "sig",
    [
        GroupSignature(4, 0, 0),
        GroupSignature(0, 3, 0),
        GroupSignature(0, 0, 2),
        GroupSignature(1, 1, 1),
        GroupSignature(2, 2, 1),
    ],
    ids=str,
)
def test_group_kernel_matches_word_level_reference_on_random_groups(sig):
    rng = random.Random(sig.k1 * 100 + sig.k2 * 10 + sig.k3)
    for _ in range(12):
        C = random_subgroup(sig, rng, rng.choice((1, 2, 3)), max_order=64)
        reference = _word_level_kernel(C)
        assert group_kernel(C).elements == reference
        assert swapper_scan_kernel(C) == reference


def test_group_kernel_reads_the_gray_table(monkeypatch):
    """Words are stored as their Gray images, so the coset route and the
    quadratic scan map no word either way, even on a fresh group."""
    C = load_fixture("hadamard32_q8_shape5")  # a fresh group, nothing cached
    calls = Counter()
    originals = {"gray": gray, "gray_inv": gray_inv}

    def counting(name):
        def call(*args):
            calls[name] += 1
            return originals[name](*args)

        return call

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "z2z4q8":
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name))
    group_kernel(C)
    swapper_scan_kernel(C)
    assert calls == Counter()


def test_subgroups_carry_generators_that_generate_them():
    """T, Z, K, C' and the span group D are each given by generators read
    from C's presentation; the words read from their own presentation are
    the word-by-word closure of those generators."""
    for name, C in _coset_groups():
        for label, S in (
            ("T", torsion(C)),
            ("Z", center(C)),
            ("K", group_kernel(C)),
            ("C'", commutator_subgroup(C)),
            ("D", span_group(C)),
        ):
            words = closure([identity(C.sig)], S.generators)
            assert S.elements == words, (name, label)


def test_swapper_scan_catches_a_wrong_coset_route(monkeypatch):
    """The coset route is made to keep T only; K of this abelian Z4 code is
    all of C, so the quadratic scan disagrees with it."""
    C = load_fixture("hadamard8_z4")
    assert swapper_scan_kernel(C) == group_kernel(C).elements == C.elements
    real = subgroup_module._cosets_where
    monkeypatch.setattr(
        subgroup_module,
        "_cosets_where",
        lambda C, passing: real(C, [0]),
    )
    broken = load_fixture("hadamard8_z4")
    assert group_kernel(broken) == torsion(broken) != broken
    assert swapper_scan_kernel(broken) == broken.elements


def test_group_kernel_abelian_z4():
    C = load_fixture("hadamard8_z4")
    assert group_kernel(C) == C  # all swappers already lie in the group


def test_group_kernel_pure_code(pure_q8):
    assert group_kernel(pure_q8).order == 2


# -- the T-coset quotient C/T(C) ----------------------------------------

COSET_SIGNATURES = [
    GroupSignature(4, 0, 0),
    GroupSignature(0, 3, 0),
    GroupSignature(0, 0, 2),
    GroupSignature(1, 1, 1),
    GroupSignature(2, 2, 1),
]


def _coset_groups():
    for name in SHIPPED_FIXTURES:
        yield name, load_fixture(name)
    for sig in COSET_SIGNATURES:
        rng = random.Random(7 * sig.l + sig.n)
        for i in range(8):
            C = random_subgroup(sig, rng, rng.choice((1, 2, 3)), max_order=64)
            yield f"{sig}#{i}", C


def test_coset_reps_are_a_transversal_of_torsion():
    for name, C in _coset_groups():
        T = torsion(C)
        reps = _coset_reps(C)
        assert len(reps) * T.order == C.order, name
        # |reps| cosets of |T| words each cover C only if no two coincide
        cosets = [frozenset(r * t for t in T.elements) for r in reps]
        assert frozenset().union(*cosets) == C.elements, name


def test_coset_index_names_the_coset_of_a_word():
    """``_locate`` reads the T-coset index of a word of C from nu alone: the
    representative p_v has index v, and a sampled word a of C lies in the
    coset of its index, p_v^-1 a having order <= 2."""
    for name, C in _coset_groups():
        reps = _coset_reps(C)
        assert [_locate(C, p.bits)[0] for p in reps] == list(range(len(reps))), name
        for a in C.sorted_elements()[:: max(1, C.order // 16)]:
            assert (reps[_locate(C, a.bits)[0]].inverse() * a).order() <= 2, name


def test_equal_groups_hash_equal_and_hash_their_key_once(monkeypatch):
    """Groups built from shuffled generators, with a redundant product
    added, equal the original and hash equal to it; and however often a
    group is hashed, its ``_key`` tuple is hashed once."""
    hashed = []

    class CountingKey(tuple):
        def __hash__(self):
            hashed.append(1)
            return tuple.__hash__(self)

    key = CodeGroup._key.func
    monkeypatch.setattr(CodeGroup, "_key", property(lambda C: CountingKey(key(C))))
    rng = random.Random(11)
    for name in SHIPPED_FIXTURES:
        C = load_fixture(name)
        gens = list(C.generators) + [C.generators[0] * C.generators[-1]]
        rng.shuffle(gens)
        D = generate(gens)
        del hashed[:]
        for _ in range(3):
            assert hash(C) == hash(D), name
        assert C == D and len({C, D, C}) == 1, name
        assert len(hashed) == 2, name


def test_gray_is_additive_on_torsion_translates():
    for name, C in _coset_groups():
        for t in torsion(C).elements:
            for w in C.elements:
                assert gray(w * t).bits == gray(w).bits ^ gray(t).bits, name


def test_torsion_is_the_words_squaring_to_e():
    for name, C in _coset_groups():
        e = identity(C.sig)
        whole = frozenset(w for w in C.elements if w * w == e)
        assert torsion(C).elements == whole, name


def test_center_and_kernel_from_cosets_match_whole_group_scans():
    for name, C in _coset_groups():
        whole = frozenset(
            w for w in C.elements if all(w * c == c * w for c in C.elements)
        )
        assert center(C).elements == whole, name
        assert group_kernel(C).elements == swapper_scan_kernel(C), name


def _mixed_group_with_y_and_z():
    """A seeded random group of type (sigma, delta >= 1, rho >= 1)."""
    rng = random.Random(11)
    while True:
        C = random_subgroup(GroupSignature(1, 2, 2), rng, 3, max_order=256)
        ct = code_type(C)
        if ct.delta and ct.rho:
            return C


def _bad_sets():
    """(name, group, generating set) violating one condition each."""
    h16 = load_fixture("hadamard16_q8")  # type (2, 0, 3)
    g = standard_generators(h16)
    (x1, x2), (z1, z2, z3) = g.xs, g.zs
    outside = next(
        w for w in all_words(h16.sig) if w.order() == 4 and w not in h16
    )
    mixed = _mixed_group_with_y_and_z()
    m = standard_generators(mixed)
    return [
        ("x outside T", h16, StandardGenSet((z1, x2), (), g.zs)),
        ("dependent x's", h16, StandardGenSet((x1, x1), (), g.zs)),
        ("non-central y", mixed, StandardGenSet(m.xs, (m.zs[0],) + m.ys[1:], m.zs)),
        ("central z", mixed, StandardGenSet(m.xs, m.ys, (m.ys[0],) + m.zs[1:])),
        ("two products in one coset", h16, StandardGenSet(g.xs, (), (z1, z2, z1 * z2))),
        ("product outside C", h16, StandardGenSet(g.xs, (), (z1, z2, outside))),
    ]


@pytest.mark.parametrize("case", range(6))
def test_verify_standard_rejects_each_violation(case):
    name, C, gens = _bad_sets()[case]
    with pytest.raises(ValueError):
        verify_standard(C, gens)


def test_a_failing_set_raises_on_every_call():
    """verify_standard keeps only what passed: a set that fails raises on a
    second call too, and a passing set stays accepted."""
    for name, C, gens in _bad_sets():
        for _ in range(2):
            with pytest.raises(ValueError):
                verify_standard(C, gens)
        verify_standard(C, standard_generators(C))


def test_shape_analysis_verifies_each_distinct_set_once(monkeypatch):
    """On ``hadamard16_z2z4_delta2``, of type (3,2,0) and shape 1, the
    standard, normalized and witness sets coincide, so the check body runs
    once: one ``_locate`` and one ``_form_row`` per y and none for the
    empty z's.  On ``hadamard16_q8``, of type (2,0,3) and shape 2, the
    three sets differ, and the body runs once for each, on three z's."""
    C = load_fixture("hadamard16_z2z4_delta2")
    calls = count_calls(monkeypatch, subgroup_module, "_locate", "_form_row")
    shape = classify_shape(C)
    assert code_type(C).as_tuple() == (3, 2, 0) and shape.tag == 1
    assert shape.witness == standard_generators(C)
    assert calls == Counter({"_locate": 2, "_form_row": 2})
    D = load_fixture("hadamard16_q8")
    calls.clear()
    shape = classify_shape(D)
    sets = {standard_generators(D), normalize_generators(D), shape.witness}
    assert code_type(D).as_tuple() == (2, 0, 3) and shape.tag == 2 and len(sets) == 3
    assert calls == Counter({"_locate": 9, "_form_row": 9})


def test_verify_standard_returns_the_coset_index_of_each_y_and_z():
    """``verify_standard`` returns the ``_coset_reps`` index of each y and
    z, checked here apart from the walk that finds it: Gray(w) plus the
    image of the coset word at that index (``_coset_images``, built by XOR
    doubling) lies in Gray(T), and at no other index does.  Checked on the
    standard set of every fixture and random group, and on caller sets
    with the z's shuffled and each y and z times a random word of T(C)."""
    rng = random.Random(34)
    checked = 0
    for name, C in _coset_groups():
        gens, images = standard_generators(C), _coset_images(C)
        torsion_words = [GroupWord._from_bits(C.sig, r) for r in span(C.torsion_rows)]
        zs = list(gens.zs)
        rng.shuffle(zs)
        moved = StandardGenSet(
            gens.xs,
            tuple(y * rng.choice(torsion_words) for y in gens.ys),
            tuple(z * rng.choice(torsion_words) for z in zs),
        )
        for trial in (gens, moved):
            indices = verify_standard(C, trial)
            assert len(indices) == len(trial.ys + trial.zs), name
            for w, v in zip(trial.ys + trial.zs, indices):
                hits = [i for i, x in enumerate(images) if C._torsion.contains(w.bits ^ x)]
                assert hits == [v], (name, w)
                checked += 1
    assert checked >= 200


def test_tiling_oracle_agrees_with_verify_standard():
    """verify_standard decides the tiling by the rank of the nu of the y's
    and z's; on random central and non-central order-4 picks its verdict is
    the |C|-sized tiling oracle's, and the two tiling violations fail both."""
    rng = random.Random(29)
    verdicts = Counter()
    for name, C in _coset_groups():
        gens = standard_generators(C)
        assert tiles(C, gens), name
        Z = center(C)
        order4 = sorted((w for w in C.elements if w.order() == 4), key=lambda w: _sort_key(w.sig, w.bits))
        central = [w for w in order4 if w in Z]
        other = [w for w in order4 if w not in Z]
        for _ in range(6):
            ys = tuple(rng.choice(central) for _ in gens.ys)
            zs = tuple(rng.choice(other) for _ in gens.zs)
            trial = StandardGenSet(gens.xs, ys, zs)
            try:
                verify_standard(C, trial)
                ok = True
            except ValueError:
                ok = False
            assert ok == tiles(C, trial), (name, trial)
            verdicts[ok] += 1
    assert verdicts[True] and verdicts[False]
    for name, C, gens in _bad_sets()[4:]:  # the two tiling violations
        assert not tiles(C, gens), name


def test_verify_standard_catches_a_wrong_radical(monkeypatch):
    """verify_standard decides centrality by commuting with the generators,
    not from ``_radical``: a radical that keeps T only leaves Z(C) to the
    z's, and no product of z's may be central."""
    C = generate(_mixed_group_with_y_and_z().generators)  # nothing cached
    monkeypatch.setattr(subgroup_module, "_radical", lambda C: (0,))
    with pytest.raises(ValueError, match="a product of z generators is central"):
        standard_generators(C)


def test_analyze_builds_no_word_set_and_sorts_no_group(monkeypatch):
    """The Hadamard path reads the T-cosets too: the reports of the shipped
    fixtures and of a Kronecker chain to n=1024 build the words of no
    group, and neither compute Z(C) as a group nor sort one."""
    chain = _kronecker_chain("hadamard16_q8", 1024, random.Random(1024))
    inputs = [parse_generators(fixture_text(name))[1] for name in SHIPPED_FIXTURES]
    inputs += [C.generators for C in chain[1:]]
    built = record_word_sets(monkeypatch)
    calls = count_calls(monkeypatch, subgroup_module, "center")
    real = CodeGroup.sorted_elements

    def sorting(C):
        calls["sorted_elements"] += 1
        return real(C)

    monkeypatch.setattr(CodeGroup, "sorted_elements", sorting)
    hadamard = 0
    for gens in inputs:
        payload = analyze(generate(gens))
        hadamard += payload["is_hadamard"]
        render_json(payload)
    assert hadamard >= 20
    assert built == []
    assert calls == Counter()


def test_analyze_leaves_no_gray_image_on_the_group():
    """A group keeps no Gray image: after the report of every shipped
    fixture and of a Kronecker chain to n=1024, no attribute of the group
    and no memoised fact is a collection of |C| or more entries.  The
    per-coset tables have 2^k entries, and 2^k < |C| as sigma >= 1; the
    two-word group ``rep4_q8`` is left out, as any pair of facts (its two
    weights, the squares and commutators table) has |C| entries there."""
    chain = _kronecker_chain("hadamard16_q8", 1024, random.Random(1024))
    inputs = [parse_generators(fixture_text(name))[1] for name in SHIPPED_FIXTURES]
    inputs += [C.generators for C in chain[1:]]
    checked = 0
    for gens in inputs:
        C = generate(gens)
        render_json(analyze(C))
        if C.order == 2:
            continue
        checked += 1
        held = [v for k, v in vars(C).items() if k != "_cache"]
        held += C._cache.values()
        sizes = [len(v) for v in held if isinstance(v, (tuple, list, dict, frozenset, set))]
        assert max(sizes) < C.order, (C.sig, C.order, sizes)
    assert checked == len(inputs) - 1


def test_non_hadamard_analyze_builds_no_standard_generators(monkeypatch):
    """Pair checks read the T-cosets directly, so a non-Hadamard analysis
    never derives a standard generating set."""
    C = load_fixture("pure_q8_n8")  # a fresh group, not Hadamard
    calls = count_calls(monkeypatch, subgroup_module, "standard_generators")
    assert analyze(C)["shape"] is None
    assert calls == Counter()


# -- the GF(2) presentation ----------------------------------------------


def test_generate_equals_the_closure_on_fixtures():
    for name in SHIPPED_FIXTURES:
        sig, gens = parse_generators(fixture_text(name))
        assert generate(gens).elements == closure([identity(sig)], gens), name


@pytest.mark.parametrize("span_bits", [0, 7, 20])
def test_the_gray_stream_cut_walks_the_same_words(monkeypatch, span_bits):
    """``_gray_stream`` spans the torsion rows up to a cut set by n and
    walks the rest in Gray-code order.  Wherever the cut falls, as low as
    no spanned row (0) or part of Gray(T) at n = 16..64 (7), the stream
    visits each word once, and the words are the closure of the
    generators."""
    monkeypatch.setattr(subgroup_module, "_SPAN_BITS", span_bits)
    for name in SHIPPED_FIXTURES:
        sig, gens = parse_generators(fixture_text(name))
        C = generate(gens)
        stream = list(subgroup_module._gray_stream(C))
        assert len(stream) == C.order == len(set(stream)), name
        assert C.elements == closure([identity(sig)], gens), name


def test_generate_refuses_before_building_a_word(monkeypatch):
    gens = [word_from_tokens(Q8_PAIR, t) for t in (("a", "1"), ("1", "a"), ("b", "b"))]
    built = Counter()
    original = GroupWord._from_bits

    def counting(cls, sig, bits):
        built["words"] += 1
        return original(sig, bits)

    monkeypatch.setattr(GroupWord, "_from_bits", classmethod(counting))
    with pytest.raises(EnumerationLimit, match="subgroup order exceeds max_order=16"):
        generate(gens, max_order=16)
    assert built == Counter()
    assert generate(gens, max_order=32).order == 32


def test_commutator_rows_match_word_commutators():
    """The squares and commutator rows that both pair checks read, built by
    XOR from the swapper table (``_coset_table``), and the Gray form of the
    commutator, against word products: every row and square over
    ``_coset_reps``, and sampled words of C against the representatives."""
    for name, C in _coset_groups():
        reps = _coset_reps(C)
        squares, rows = _coset_table(C)
        assert squares == [(p * p).bits for p in reps], name
        assert rows == [[word_commutator(p, q).bits for q in reps] for p in reps], name
        for a in C.sorted_elements()[:: max(1, C.order // 16)]:
            expected = [word_commutator(a, b).bits for b in reps]
            assert [_commutator_bits(C.sig, a.bits, b.bits) for b in reps] == expected
            assert [commutator(a, b).bits for b in reps] == expected, name


def test_center_order_matches_the_type_from_the_commutator_form():
    for name, C in _coset_groups():
        ct = code_type(C)
        assert center(C).log2_order == ct.sigma + ct.delta, name
        assert torsion(C).log2_order == ct.sigma, name


def test_non_hadamard_analyze_computes_no_center(monkeypatch):
    """code_type reads delta and rho from the commutator form."""
    C = random_subgroup(GroupSignature(1, 2, 2), random.Random(5), 4, max_order=1 << 10)
    C = generate(C.generators)  # a fresh group, nothing cached
    calls = count_calls(monkeypatch, subgroup_module, "center")
    assert analyze(C)["shape"] is None
    assert C.order >= 64
    assert calls == Counter()


def test_non_hadamard_analyze_builds_no_word_set(monkeypatch):
    """A group is its generators: the report of a non-Hadamard group with
    2^8..2^10 words reads the presentation, the Gray stream and one word
    per T-coset, and builds the words of no group."""
    rng = random.Random(13)
    wanted = {1 << k for k in (8, 9, 10)}
    groups = {}
    while len(groups) < len(wanted):
        sig = rng.choice((GroupSignature(2, 3, 2), GroupSignature(0, 2, 3)))
        C = random_subgroup(sig, rng, rng.randint(3, 6), max_order=1 << 10)
        if C.order in wanted:
            groups.setdefault(C.order, C)
    built = record_word_sets(monkeypatch)
    for order, C in sorted(groups.items()):
        payload = analyze(C)
        assert not payload["is_hadamard"] and payload["order"] == order
        render_json(payload)
    assert built == []
