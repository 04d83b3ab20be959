"""Swappers, span group, rank, binary kernel and the structural bounds."""

from __future__ import annotations

import random
import sys
from collections import Counter
from math import comb

import pytest

from z2z4q8 import (
    EnumerationLimit,
    GroupSignature,
    GroupWord,
    binary_kernel,
    check_bounds,
    code_type,
    commutator,
    generate,
    gray,
    group_kernel,
    identity,
    is_abelian,
    is_hadamard,
    is_linear,
    kernel_dim,
    rank,
    span_group,
    structure_report,
    swapper,
    u_element,
    weight_distribution,
    word_from_tokens,
)
import z2z4q8.invariants as invariants_module
import z2z4q8.oracles as oracles_module
import z2z4q8.subgroup as subgroup_module
from z2z4q8.fixtures import fixture_text, load_fixture
from z2z4q8.gf2 import Gf2Basis
from z2z4q8.oracles import (
    full_space_kernel,
    gray_basis,
    gray_codewords,
    translation_kernel,
)
from z2z4q8.parsing import parse_generators
from z2z4q8.report import analyze, render_json
from z2z4q8.search import search

from conftest import (
    Q8,
    SHIPPED_FIXTURES,
    Z4,
    all_words,
    count_calls,
    q8_word,
    random_word,
    z4_word,
)

# Frozen swapper oracle: class representatives {1,a2}, {a,a3}, {b,a2b},
# {ab,a3b}; entry 1 means the swapper is a^2, 0 means it is trivial.
Q8_CLASS = {0: 0, 2: 0, 1: 1, 3: 1, 4: 2, 6: 2, 5: 3, 7: 3}
Q8_SWAPPER_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
)


def test_swapper_z4_table():
    # swapper is 2 exactly when both arguments are odd
    for x in range(4):
        for y in range(4):
            expected = 2 if (x % 2 and y % 2) else 0
            assert swapper(z4_word(x), z4_word(y)).coords == (expected,)


def test_swapper_q8_table():
    a2 = q8_word("a2")
    e = identity(Q8)
    for x in range(8):
        for y in range(8):
            got = swapper(
                word_from_tokens(Q8, (("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")[x],)),
                word_from_tokens(Q8, (("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")[y],)),
            )
            expected = a2 if Q8_SWAPPER_TABLE[Q8_CLASS[x]][Q8_CLASS[y]] else e
            assert got == expected


def test_swapper_z2_always_trivial():
    sig = GroupSignature(2, 0, 0)
    for x in all_words(sig):
        for y in all_words(sig):
            assert swapper(x, y).is_identity()


def test_swapper_specific_values():
    assert swapper(z4_word(1), z4_word(3)).coords == (2,)
    assert swapper(q8_word("b"), q8_word("ab")) == q8_word("a2")
    sig = GroupSignature(0, 0, 2)
    x = word_from_tokens(sig, ("a", "a"))
    y = word_from_tokens(sig, ("ab", "b"))
    # the source displays this swapper with the arguments transposed
    assert swapper(y, x) == word_from_tokens(sig, ("a2", "1"))
    assert swapper(x, y) == word_from_tokens(sig, ("1", "a2"))
    # both lie outside the group and differ by the commutator
    assert swapper(x, y) * commutator(x, y) == swapper(y, x)


def _check_swapper_identities(words, pairs):
    for x, y in pairs:
        sx = swapper(x, y)
        # defining property: Gray([x,y] x y) = Gray(x) + Gray(y)
        assert gray(sx * x * y) == gray(x) ^ gray(y)
        assert (sx * sx).is_identity()
        assert swapper(x, x.inverse()) == swapper(x, x)
        assert swapper(x, x) == x * x
        assert swapper(x, y) * swapper(y, x) == commutator(x, y)
    for x, y, z in zip(words, words[1:], words[2:]):
        if (z * z).is_identity():
            assert swapper(z * x, y) == swapper(x, y)
            assert swapper(x, z * y) == swapper(x, y)
            assert swapper(z, x).is_identity()
            assert swapper(x, z).is_identity()
        assert swapper(x, y * z) == swapper(x, y) * swapper(x, z)
        assert swapper(x * y, z) == swapper(x, z) * swapper(y, z)


def test_swapper_identities_exhaustive_q8():
    words = all_words(Q8)
    _check_swapper_identities(
        words, [(x, y) for x in words for y in words]
    )
    for x in words:
        for y in words:
            for z in words:
                assert swapper(x, y * z) == swapper(x, y) * swapper(x, z)
                assert swapper(x * y, z) == swapper(x, z) * swapper(y, z)
                if (z * z).is_identity():
                    assert swapper(z * x, y) == swapper(x, y)


def test_swapper_identities_exhaustive_z4():
    words = all_words(Z4)
    for x in words:
        for y in words:
            for z in words:
                assert swapper(x, y * z) == swapper(x, y) * swapper(x, z)
                if (z * z).is_identity():
                    assert swapper(z * x, y) == swapper(x, y) == swapper(x, z * y)


def test_swapper_identities_random_mixed():
    sig = GroupSignature(2, 2, 2)
    rng = random.Random(31)
    words = [random_word(sig, rng) for _ in range(300)]
    _check_swapper_identities(
        words, [(random_word(sig, rng), random_word(sig, rng)) for _ in range(300)]
    )


def test_span_group_linear_code_is_itself():
    C = load_fixture("ext_hamming8_q8q8")
    assert span_group(C) == C


def test_span_group_pure_code(pure_q8):
    D = span_group(pure_q8)
    assert D.order == 16
    assert rank(pure_q8) == 4


def test_span_group_hadamard16(hadamard16):
    D = span_group(hadamard16)
    assert D.order == 128
    assert rank(hadamard16) == 7
    # D = <C, [a,b], [b,c]> with the listed generators; [a,c] contributes
    # nothing since it equals c^2, which already lies in the group
    sig = hadamard16.sig
    a = word_from_tokens(sig, ("a", "a", "a", "a"))
    b = word_from_tokens(sig, ("b", "ab", "b", "ab"))
    c = word_from_tokens(sig, ("a2", "1", "a", "a3"))
    assert swapper(a, b) == word_from_tokens(sig, ("a2", "1", "a2", "1"))
    assert swapper(b, c) == word_from_tokens(sig, ("1", "1", "1", "a2"))
    assert swapper(a, c) == c * c
    assert swapper(a, c) in hadamard16
    extra = [swapper(a, b), swapper(b, c)]
    assert generate(list(hadamard16.generators) + extra) == D


def test_span_group_refuses_before_building_a_word(monkeypatch):
    """|D| = 128 for hadamard16_q8; the limit is met on the swapper table
    alone, and no word of D is built."""
    import z2z4q8.invariants as invariants_module

    C = load_fixture("hadamard16_q8")  # a fresh group, nothing cached
    code_type(C)
    built = Counter()
    original = GroupWord._from_bits

    def counting(cls, sig, bits):
        built["words"] += 1
        return original(sig, bits)

    monkeypatch.setattr(GroupWord, "_from_bits", classmethod(counting))
    monkeypatch.setattr(invariants_module, "DEFAULT_MAX_ORDER", 64)
    with pytest.raises(EnumerationLimit, match="span group order exceeds max_order=64"):
        span_group(C)
    assert built["words"] == 0
    monkeypatch.setattr(invariants_module, "DEFAULT_MAX_ORDER", 128)
    assert span_group(C).order == 128


def test_span_group_matches_full_swapper_set(pure_q8, hadamard16):
    for C in (pure_q8, hadamard16):
        swappers = [swapper(x, y) for x in C.elements for y in C.elements]
        full = generate(list(C.generators) + [s for s in swappers if not s.is_identity()])
        assert full == span_group(C)


def test_span_group_image_is_the_row_space_of_the_code():
    """Gray(D) is the GF(2) row space of all of Gray(C): the same dimension,
    and every image of D lies in it, on every shipped fixture."""
    for name in SHIPPED_FIXTURES:
        C = load_fixture(name)
        D, basis = span_group(C), gray_basis(C)
        assert D.log2_order == basis.rank, name
        assert all(basis.contains(b) for b in gray_codewords(D)), name


def test_rank_cross_oracle_random():
    rng = random.Random(37)
    sig = GroupSignature(1, 1, 1)
    for _ in range(30):
        from conftest import random_subgroup

        C = random_subgroup(sig, rng, 2)
        basis = Gf2Basis(gray(w).bits for w in C.elements)
        assert rank(C) == basis.rank


def test_binary_kernel_values(pure_q8, hadamard16):
    assert kernel_dim(pure_q8) == 1
    assert kernel_dim(hadamard16) == 2
    K = binary_kernel(hadamard16)
    assert translation_kernel(hadamard16) == K
    assert frozenset(gray(w) for w in group_kernel(hadamard16).elements) == K


def test_binary_kernel_full_space_small(pure_q8):
    assert full_space_kernel(pure_q8) == binary_kernel(pure_q8)


def test_full_space_kernel_refuses_long_codes():
    with pytest.raises(ValueError, match="needs n <= 16, got n=32"):
        full_space_kernel(load_fixture("hadamard32_q8_shape5"))


def test_binary_kernel_matches_the_translation_test_on_fixtures():
    """The binary kernel, read from the presentation, equals the translation
    test over all of Gray(C) on every shipped fixture."""
    for name in SHIPPED_FIXTURES:
        C = load_fixture(name)
        assert binary_kernel(C) == translation_kernel(C), name


def test_rank_kernel_examples():
    ex58 = load_fixture("hadamard32_q8_rank7")
    assert (rank(ex58), kernel_dim(ex58)) == (7, 4)


def test_is_linear_and_abelian(pure_q8):
    assert not is_linear(pure_q8)
    assert not is_abelian(pure_q8)
    rep = generate([q8_word("a2")])
    assert is_linear(rep)
    ext8 = load_fixture("ext_hamming8_q8q8")
    assert is_linear(ext8) and not is_abelian(ext8)
    z4code = load_fixture("hadamard8_z4")
    assert is_linear(z4code) and is_abelian(z4code)


def test_weight_distribution(hadamard16):
    assert weight_distribution(hadamard16) == {0: 1, 8: 30, 16: 1}


def test_derived_facts_are_computed_once(monkeypatch):
    """A second round of queries on one group multiplies no words and maps
    no word through Gray: every fact is kept on the group."""
    C = load_fixture("hadamard32_q8_shape5")  # a fresh group, nothing cached
    calls = Counter()
    mul, gray_map = GroupWord.__mul__, gray

    def counting_mul(x, y):
        calls["mul"] += 1
        return mul(x, y)

    def counting_gray(w):
        calls["gray"] += 1
        return gray_map(w)

    monkeypatch.setattr(GroupWord, "__mul__", counting_mul)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "z2z4q8" and getattr(module, "gray", None) is gray_map:
            monkeypatch.setattr(module, "gray", counting_gray)

    def query():
        return (
            weight_distribution(C),
            is_linear(C),
            is_hadamard(C),
            code_type(C),
            rank(C),
        )

    first = query()
    assert calls["mul"] > 0
    calls.clear()
    assert query() == first
    assert calls == Counter()
    # the caller owns the dict it gets; changing it leaves the group alone
    first[0][1] = 1
    assert 1 not in weight_distribution(C)


def test_check_bounds_pure_code_tight(pure_q8):
    report = check_bounds(pure_q8)
    assert report.all_ok
    # tightness of the whole chain: r = k+3, k = sigma, r hits the h-cap
    assert rank(pure_q8) == kernel_dim(pure_q8) + 3
    assert kernel_dim(pure_q8) == 1


def test_check_bounds_linear_vacuous():
    C = load_fixture("ext_hamming8_z2q8")
    report = check_bounds(C)
    assert report.all_ok
    assert rank(C) == kernel_dim(C)


def test_structure_report_fields(hadamard16):
    report = structure_report(hadamard16)
    assert report.type.as_tuple() == (2, 0, 3)
    assert report.m == 4
    assert report.rank == 7
    assert report.kernel_dim == 2
    assert report.h == 7 - 5
    assert report.is_hadamard and not report.is_linear
    assert report.bounds.all_ok


def test_structure_report_non_power_of_two():
    C = load_fixture("hamming7_z2q8")
    assert structure_report(C).m is None


def test_nonlinear_kernel_gap_random():
    rng = random.Random(41)
    from conftest import random_subgroup

    for _ in range(25):
        sig = rng.choice([GroupSignature(0, 0, 2), GroupSignature(2, 1, 1)])
        C = random_subgroup(sig, rng, 2)
        if not is_linear(C):
            assert rank(C) >= kernel_dim(C) + 3
            assert C.order >= 4 * len(translation_kernel(C))


def test_u_translation_preserves_code(hadamard16):
    u = u_element(hadamard16.sig)
    assert all((u * w) in hadamard16 for w in hadamard16.elements)


# -- rank and kernel from the presentation ---------------------------------


def test_rank_and_kernel_past_the_span_group_limit():
    """Seven random words of Z4^40 give |C| = 2^14 of type (7,7,0), whose
    span group D has 2^35 words, past max_order = 2^20.  rank and
    kernel_dim read the presentation and build no D, so the code is not
    refused; rank meets the cap log2|C| + C(log2|C| - kernel_dim, 2)."""
    sig = GroupSignature(0, 40, 0)
    rng = random.Random(3)
    gens = [GroupWord(sig, [rng.randrange(4) for _ in range(40)]) for _ in range(7)]
    C = generate(gens)
    assert C.order == 1 << 14
    assert code_type(C).as_tuple() == (7, 7, 0)
    assert (rank(C), kernel_dim(C)) == (35, 7)
    assert rank(C) == 14 + comb(14 - 7, 2)
    assert Gf2Basis(w.bits for w in C.elements).rank == 35
    payload = analyze(C)
    assert (payload["rank"], payload["kernel_dim"]) == (35, 7)
    assert all(b["ok"] for b in payload["bounds"])
    with pytest.raises(EnumerationLimit, match="span group order exceeds"):
        span_group(C)


def test_rank_second_route_catches_dropped_swappers(monkeypatch):
    """With the swappers left out of the presentation span, the rank falls
    below the row space of the coset representatives, and rank raises."""
    C = load_fixture("hadamard16_q8")  # rank 7 = sigma + k + 2 swappers
    real = invariants_module._swappers
    monkeypatch.setattr(
        invariants_module, "_swappers", lambda C: [[0] * len(r) for r in real(C)]
    )
    with pytest.raises(RuntimeError, match="coset row-space rank 7"):
        rank(C)


def test_kernel_second_route_catches_a_wrong_null_space(monkeypatch):
    """With the swappers zeroed, every T-coset passes the null-space test;
    the translation test on the representatives keeps only K(C)/T(C), and
    kernel_dim raises."""
    C = load_fixture("pure_q8_n8")  # K(C) = T(C), |C/T| = 4
    real = invariants_module._swappers
    monkeypatch.setattr(
        invariants_module, "_swappers", lambda C: [[0] * len(r) for r in real(C)]
    )
    with pytest.raises(RuntimeError, match="translation test on representatives"):
        kernel_dim(C)


def test_full_kernel_check_compares_with_the_presentation_kernel(monkeypatch):
    """The null-space route is made to keep T only; K of this abelian Z4
    code is all of C, so both full scans disagree with 2^kernel_dim."""
    C = load_fixture("hadamard8_z4")
    assert analyze(C, full_kernel_check=True)["kernel_dim"] == C.log2_order
    monkeypatch.setattr(invariants_module, "_kernel_cosets", lambda C: (0,))
    with pytest.raises(RuntimeError, match="disagrees with the presentation kernel"):
        analyze(load_fixture("hadamard8_z4"), full_kernel_check=True)


def test_hot_path_runs_no_enumerating_oracle(monkeypatch):
    """analyze, render_json and search read rank and kernel from the
    presentation: no function of ``oracles`` runs, nor do the span group
    and the two kernels, which nothing there needs."""
    names = [
        name
        for name, fn in vars(oracles_module).items()
        if callable(fn) and getattr(fn, "__module__", None) == oracles_module.__name__
    ]
    assert {"gray_codewords", "swapper_scan_kernel", "is_perfect"} <= set(names)
    oracles = count_calls(monkeypatch, oracles_module, *names)
    readers = count_calls(monkeypatch, invariants_module, "span_group", "binary_kernel")
    kernels = count_calls(monkeypatch, subgroup_module, "group_kernel")
    assert len(SHIPPED_FIXTURES) == 21
    for name in SHIPPED_FIXTURES:
        _, gens = parse_generators(fixture_text(name))
        render_json(analyze(generate(gens)))
    assert search(16, seed=1, budget=200)
    assert oracles == readers == kernels == Counter()
