"""Doubling lift, extension, Kronecker constructions and the converse."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from z2z4q8 import (
    CodeGroup,
    ConstructionError,
    EnumerationLimit,
    GroupSignature,
    classify_shape,
    code_type,
    extend,
    generalized_kronecker,
    generate,
    gray,
    identity,
    is_hadamard,
    kernel_dim,
    kronecker,
    lift_and_extend,
    random_doubling_element,
    rank,
    structural_converse_check,
    word,
    xi_lift,
)
import z2z4q8.constructions as constructions_module
import z2z4q8.fixtures as fixtures_module
import z2z4q8.invariants as invariants_module
import z2z4q8.subgroup as subgroup_module
from z2z4q8.constructions import _pair_bits, lift_word, q8_automorphisms
from z2z4q8.fixtures import fixtures, load_fixture
from z2z4q8.oracles import gray_codewords
from z2z4q8.parsing import parse_element
from z2z4q8.search import _random_abelian_base, _random_torsion_word, search
from z2z4q8.subgroup import DEFAULT_MAX_ORDER

from conftest import (
    closure,
    count_calls,
    random_subgroup,
    random_word,
    record_word_sets,
)


def test_lift_word_values():
    sig = GroupSignature(2, 2, 0)
    w = word(sig, (1, 0, 3, 2))
    lifted = lift_word(w)
    assert lifted.sig == GroupSignature(0, 2, 2)
    assert lifted.coords == (2, 0, 3, 2)


def test_xi_lift_of_quaternary_base():
    base = load_fixture("hadamard8_z4")
    lifted = xi_lift(base)
    assert lifted.sig == GroupSignature(0, 0, 4)
    assert lifted.order == base.order
    assert code_type(lifted) == code_type(base)
    expected = generate(
        [
            parse_element("a a a a", lifted.sig),
            parse_element("a2 1 a a3", lifted.sig),
        ]
    )
    assert lifted == expected


def test_xi_lift_trivial_group():
    sig = GroupSignature(1, 1, 0)
    C = generate([identity(sig)])
    assert xi_lift(C).order == 1


def test_xi_lift_of_mixed_base_matches_displayed_generators():
    base = load_fixture("hadamard16_z2z4_delta2")
    lifted = xi_lift(base)
    sig = lifted.sig
    displayed = generate(
        [
            parse_element("2 2 2 2 a2 a2 a2 a2 a2 a2", sig),
            parse_element("0 2 0 2 1 a2 a a a a", sig),
            parse_element("0 0 2 2 a a 1 a a2 a3", sig),
        ]
    )
    assert lifted == displayed


def test_xi_lift_rejects_quaternionic_input(pure_q8):
    with pytest.raises(ConstructionError):
        xi_lift(pure_q8)


def test_xi_lift_doubles_weights():
    base = load_fixture("hadamard16_z2z4_delta2")
    lookup = {lift_word(w): w for w in base.elements}
    lifted = xi_lift(base)
    for w in lifted.elements:
        assert gray(w).weight() == 2 * gray(lookup[w]).weight()
        assert w.order() == lookup[w].order()


def test_construction_outputs_share_one_signature_object():
    """A lift and a Kronecker step build their output signature once, so
    every generator carries that one object and products on the output
    take the identity check of ``GroupWord.__mul__``."""
    lifted = xi_lift(load_fixture("hadamard16_z2z4_delta2"))
    C = load_fixture("hadamard16_q8")
    doubled = generalized_kronecker(C, C.generators[-1]).output
    for G in (lifted, doubled):
        assert all(w.sig is G.sig for w in G.generators)


def test_extend_produces_hadamard_and_detects_violations():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    C = extend(lifted, parse_element("b ab b ab", lifted.sig))
    assert is_hadamard(C)
    assert C == load_fixture("hadamard16_q8")
    # violating element: inside the group
    with pytest.raises(ConstructionError):
        extend(lifted, parse_element("1 1 a2 a2", lifted.sig))
    # violating element: weight condition fails, witness named
    bad = parse_element("a2 1 1 1", lifted.sig)
    with pytest.raises(ConstructionError) as err:
        extend(lifted, bad)
    assert "weight condition" in str(err.value)


def test_extend_rejects_non_normalizing_element():
    sig = GroupSignature(0, 0, 2)
    Cq = generate([word(sig, (4, 1))])  # <(b, a)>, not normal in Q8^2
    x = word(sig, (1, 1))  # (a, a): x^2 = (a2, a2) lies in the group
    assert (x * x) in Cq and x not in Cq
    with pytest.raises(ConstructionError) as err:
        extend(Cq, x)
    assert "normalize" in str(err.value)


def test_generalized_kronecker_rejects_non_normalizing_element():
    sig = GroupSignature(0, 0, 2)
    C = generate([word(sig, (4, 1))])  # <(b, a)>
    g = word(sig, (1, 1))
    with pytest.raises(ConstructionError) as err:
        generalized_kronecker(C, g)
    assert "normalize" in str(err.value)


def test_lift_and_extend_record():
    base = load_fixture("hadamard8_z4")
    lifted_sig = GroupSignature(0, 0, 4)
    result = lift_and_extend(base, parse_element("b b b a3b", lifted_sig))
    assert result.condition_ok
    assert result.extended.order == 2 * result.lifted.order
    assert rank(result.extended) == 6
    assert kernel_dim(result.extended) == 3


def test_all_three_length16_codes_from_one_base():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    outcomes = set()
    for literal in ("b b b b", "b ab b ab", "b b b a3b"):
        C = extend(lifted, parse_element(literal, lifted.sig))
        outcomes.add((rank(C), kernel_dim(C)))
    assert outcomes == {(5, 5), (7, 2), (6, 3)}


def test_doubling_element_sufficiency_property():
    # coordinates outside <a> (and odd Z4 entries) always satisfy the
    # weight condition on lifted inputs
    rng = random.Random(77)
    for base_name in ("hadamard8_z4", "hadamard16_z2z4_delta2"):
        lifted = xi_lift(load_fixture(base_name))
        for _ in range(20):
            x = random_doubling_element(lifted.sig, rng)
            n = lifted.sig.n
            assert all(
                gray(x * c).weight() == n // 2 for c in lifted.elements
            )
            C = extend(lifted, x)
            assert is_hadamard(C)


def test_kronecker_plain_laws(hadamard16):
    result = kronecker(hadamard16)
    out = result.output
    assert out.order == 2 * hadamard16.order
    assert out.sig == hadamard16.sig.doubled()
    assert rank(out) == rank(hadamard16) + 1
    assert kernel_dim(out) == kernel_dim(hadamard16) + 1
    ct = code_type(hadamard16)
    assert result.predicted_type.as_tuple() == (ct.sigma + 1, ct.delta, ct.rho)
    assert is_hadamard(out)


def test_kronecker_of_two_word_code():
    sig = GroupSignature(0, 0, 1)
    C = generate([word(sig, (2,))])  # {0000, 1111}
    out = kronecker(C).output
    assert out.sig.n == 8
    assert out.order == 4


def test_generalized_kronecker_examples(hadamard16):
    g = parse_element("b ab 1 1", hadamard16.sig)
    result = generalized_kronecker(hadamard16, g)
    assert result.output.sig.n == 32
    assert rank(result.output) == 8
    assert kernel_dim(result.output) == 2
    assert code_type(result.output).as_tuple() == (2, 0, 4)
    # same invariants as the stored shape-5 code of length 32
    other = load_fixture("hadamard32_q8_shape5")
    assert (rank(other), kernel_dim(other)) == (8, 2)
    assert classify_shape(result.output).tag == classify_shape(other).tag == 5


def test_generalized_kronecker_strict_kernel_drop():
    C = load_fixture("hadamard32_q8_rank7")
    g = parse_element("a2 a2 1 1 b ab b ab", C.sig)
    result = generalized_kronecker(C, g)
    assert code_type(result.output).as_tuple() == (3, 0, 4)
    assert rank(result.output) == 8
    assert kernel_dim(result.output) == 3  # dropped below k(C) + 1 = 5
    assert kernel_dim(result.output) < kernel_dim(C) + 1


def test_generalized_kronecker_with_member_equals_plain(hadamard16):
    g = sorted(hadamard16.elements, key=lambda w: w.coords)[3]
    assert g in hadamard16
    result = generalized_kronecker(hadamard16, g)
    assert result.output == kronecker(hadamard16).output


def test_generalized_kronecker_rejects_bad_elements(hadamard16):
    bad = parse_element("a 1 1 1", hadamard16.sig)
    assert (bad * bad) not in hadamard16
    with pytest.raises(ConstructionError):
        generalized_kronecker(hadamard16, bad)


def test_kronecker_rank_law_fails_beyond_torsion_coset_elements():
    """Known counterexample to the unqualified rank law.

    Doubling the quaternary length-16 group of type (3,2,0) with the
    order-4 element (0,0,0,0,1,1,1,1) is valid and Hadamard, but the rank
    grows from 5 to 7: the output is the delta=3 quaternary code, whose
    rank is forced to sigma + delta + C(delta-1, 2) = 7 by the shape-1
    value table.  Rank +1 is only guaranteed when some g*c has order <= 2.
    """
    C = kronecker(load_fixture("hadamard8_z4")).output
    g = word(C.sig, (0, 0, 0, 0, 1, 1, 1, 1))
    assert g.order() == 4 and (g * g) in C
    assert all((g * c).order() > 2 for c in C.elements)
    result = generalized_kronecker(C, g)
    assert code_type(result.output).as_tuple() == (3, 3, 0)
    assert rank(C) == 5
    assert rank(result.output) == 7
    assert is_hadamard(result.output)
    assert kernel_dim(result.output) == 4  # sigma + 1, per the value table


def test_converse_shape2(hadamard16):
    result = structural_converse_check(hadamard16)
    base = result.base
    assert base.sig.k3 == 0 and base.sig.k1 == 0  # quaternary base
    assert is_hadamard(base)
    assert base.sig.n * 2 == hadamard16.sig.n
    rebuilt = extend(xi_lift(base), result.doubling_element)
    assert rebuilt == result.relabeled


def test_converse_shape3():
    lifted = xi_lift(load_fixture("hadamard16_z2z4_delta2"))
    C = extend(lifted, parse_element("1 1 1 1 b ab b ab ab a3b", lifted.sig))
    result = structural_converse_check(C)
    base = result.base
    assert is_hadamard(base)
    assert code_type(base).as_tuple() == (3, 2, 0)
    assert base.sig.n == 16


def test_converse_rejects_other_shapes(shape5_32):
    with pytest.raises(ConstructionError):
        structural_converse_check(shape5_32)
    with pytest.raises(ConstructionError):
        structural_converse_check(load_fixture("hadamard8_z2q8_shape4"))


def test_abelian_index2_subgroup_dichotomy(shape5_32, hadamard16):
    """Shape-5 groups admit no abelian index-2 subgroup (which is why the
    doubling converse excludes them); shape-2/3 groups always do.  Index-2
    subgroups are enumerated as kernels of GF(2) functionals on the
    exponent vectors of the standard generating set."""
    from itertools import product as iproduct

    from z2z4q8 import identity, is_abelian
    from z2z4q8.subgroup import standard_generators

    def has_abelian_index2(C):
        gens = standard_generators(C).all()
        table = {}
        for exps in iproduct((0, 1), repeat=len(gens)):
            w = identity(C.sig)
            for g, a in zip(gens, exps):
                if a:
                    w = w * g
            table[w] = exps
        d = len(gens)
        for mask in range(1, 1 << d):
            members = [
                w
                for w, exps in table.items()
                if sum(e for e, b in zip(exps, range(d)) if (mask >> b) & 1) % 2 == 0
            ]
            if is_abelian(generate(members)):
                return True
        return False

    assert not has_abelian_index2(shape5_32)
    assert has_abelian_index2(hadamard16)
    assert has_abelian_index2(load_fixture("hadamard32_q8_rank7"))


def test_q8_automorphism_table():
    autos = q8_automorphisms()
    assert len(autos) == 24
    assert autos[0] == tuple(range(8))  # identity first
    from z2z4q8.groups import Q8_MUL, Q8_ORDER

    for table in autos:
        assert sorted(table) == list(range(8))
        for p in range(8):
            assert Q8_ORDER[table[p]] == Q8_ORDER[p]
            for q in range(8):
                assert table[Q8_MUL[p][q]] == Q8_MUL[table[p]][table[q]]


def test_random_kronecker_laws_small():
    rng = random.Random(99)
    sigs = [GroupSignature(2, 1, 0), GroupSignature(0, 2, 0)]
    for _ in range(15):
        C = random_subgroup(rng.choice(sigs), rng, 2, max_order=256)
        members = sorted(C.elements, key=lambda w: w.coords)
        g = rng.choice(members)
        result = generalized_kronecker(C, g)
        assert result.output.order == 2 * C.order
        assert kernel_dim(result.output) <= kernel_dim(C) + 1
        assert rank(result.output) >= rank(C) + 1


# -- the outputs are given by generators; the closure of those generators
# -- and the index-2 formulas C u xC and diag(C) u (g, gu) diag(C) are the oracles


def _closure_bits(C):
    return {w.bits for w in closure([identity(C.sig)], C.generators)}


def _extend_formula(Cq, x):
    """Gray(Cq) u {Gray(x c) : c in Cq}."""
    return gray_codewords(Cq) | {(x * c).bits for c in Cq.elements}


def _kronecker_formula(C, g):
    """{pair(c, c)} u {pair(gc, gc + 1...1)}: (g, gu) diag(c) = (gc, gc u),
    and Gray(w u) = Gray(w) + 1...1."""
    sig, ones = C.sig, (1 << C.sig.n) - 1
    pairs = {_pair_bits(sig, c.bits, c.bits) for c in C.elements}
    coset = [(g * c).bits for c in C.elements]
    return pairs | {_pair_bits(sig, b, b ^ ones) for b in coset}


def test_fixture_construction_outputs_equal_their_generator_closure(monkeypatch):
    """Each case's group against its closure, and the output of every
    construction a case builds against the index-2 formula on its input."""
    checked = Counter()

    def recording(name, formula, output):
        construction = getattr(constructions_module, name)

        def wrapper(C, g, *args):
            result = construction(C, g, *args)
            assert gray_codewords(output(result)) == formula(C, g), (name, g)
            checked[name] += 1
            return result

        return wrapper

    for name, formula, output in (
        ("extend", _extend_formula, lambda out: out),
        ("generalized_kronecker", _kronecker_formula, lambda result: result.output),
    ):
        wrapper = recording(name, formula, output)
        for module in (constructions_module, fixtures_module):
            monkeypatch.setattr(module, name, wrapper)
    for case_id, fx in sorted(fixtures().items()):
        C = fx.build()
        assert gray_codewords(C) == _closure_bits(C), case_id
    assert set(checked) == {"extend", "generalized_kronecker"}


def _search_draw(base, rng):
    """One construction output, drawn as ``search`` draws it, and the
    index-2 formula for its words."""
    if rng.random() < 0.7:
        lifted = xi_lift(base)
        x = random_doubling_element(lifted.sig, rng)
        return extend(lifted, x), _extend_formula(lifted, x)
    g = rng.choice(base.sorted_elements()) * _random_torsion_word(base.sig, rng)
    return generalized_kronecker(base, g).output, _kronecker_formula(base, g)


@pytest.mark.parametrize("length", [8, 16])
def test_search_draws_equal_their_generator_closure(length):
    rng = random.Random(length)
    drawn = 0
    while drawn < 50:
        # the abelian bases are Kronecker outputs too
        base = _random_abelian_base(length // 2, rng)
        assert gray_codewords(base) == _closure_bits(base)
        try:
            C, formula = _search_draw(base, rng)
        except ConstructionError:
            continue
        assert gray_codewords(C) == _closure_bits(C) == formula
        drawn += 1


def test_search_raises_when_a_construction_self_check_fails(monkeypatch):
    """A failing arithmetic self-check (RuntimeError) is a bug, not a
    rejected sample: search raises it, while the base pool is built as
    well as in the main loop."""

    def broken(C):
        raise RuntimeError("kernel arithmetic is broken")

    monkeypatch.setattr(constructions_module, "kernel_dim", broken)
    with pytest.raises(RuntimeError, match="kernel arithmetic is broken"):
        search(16, seed=1, budget=2500)


MIXED_SIGNATURES = [
    GroupSignature(1, 1, 1),
    GroupSignature(0, 1, 1),
    GroupSignature(1, 0, 1),
    GroupSignature(2, 1, 1),
    GroupSignature(0, 0, 2),
]


def test_random_mixed_kronecker_outputs_equal_their_generator_closure():
    rng = random.Random(2048)
    built = 0
    while built < 60:
        sig = rng.choice(MIXED_SIGNATURES)
        C = random_subgroup(sig, rng, rng.choice((1, 2, 3)), max_order=64)
        if rng.random() < 0.5:
            g = random_word(sig, rng)  # often fails a precondition
        else:
            g = rng.choice(C.sorted_elements()) * _random_torsion_word(sig, rng)
        try:
            out = generalized_kronecker(C, g).output
        except ConstructionError:
            continue
        formula = _kronecker_formula(C, g)
        assert gray_codewords(out) == _closure_bits(out) == formula, (sig, g)
        built += 1


def test_constructions_close_no_subgroup(monkeypatch):
    """extend and generalized_kronecker give their output by generators
    and close nothing: neither enumerates a group through ``generate``; the
    rank postconditions read the presentation, so neither builds the span
    group D; and the order, Gray image and invariants of the output come
    from its presentation, so neither builds the output's words."""
    stages = []
    real_generate = CodeGroup.generate.__func__
    real_span_group = invariants_module.span_group

    def counting_generate(cls, gens, max_order=DEFAULT_MAX_ORDER):
        stages.append("generate")
        return real_generate(cls, gens, max_order)

    def counting_span_group(C):
        stages.append("span group")
        return real_span_group(C)

    monkeypatch.setattr(CodeGroup, "generate", classmethod(counting_generate))
    monkeypatch.setattr(invariants_module, "span_group", counting_span_group)
    built = record_word_sets(monkeypatch)

    lifted = xi_lift(load_fixture("hadamard8_z4"))
    x = parse_element("b ab b ab", lifted.sig)
    stages.clear()
    extended = extend(lifted, x)
    assert stages == []

    C = load_fixture("hadamard16_q8")
    g = parse_element("b ab 1 1", C.sig)
    stages.clear()
    doubled = generalized_kronecker(C, g).output
    assert stages == []
    assert not any(b is extended or b is doubled for b in built)


def test_construction_max_order_names_the_stage():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    x = parse_element("b ab b ab", lifted.sig)
    limit = 2 * lifted.order
    with pytest.raises(
        EnumerationLimit, match=f"extension order exceeds max_order={limit - 1}$"
    ):
        extend(lifted, x, max_order=limit - 1)
    assert extend(lifted, x, max_order=limit).order == limit

    C = load_fixture("hadamard16_q8")
    g = parse_element("b ab 1 1", C.sig)
    limit = 2 * C.order
    with pytest.raises(
        EnumerationLimit, match=f"Kronecker output order exceeds max_order={limit - 1}$"
    ):
        generalized_kronecker(C, g, max_order=limit - 1)
    with pytest.raises(EnumerationLimit, match="Kronecker"):
        kronecker(C, max_order=C.order)
    assert generalized_kronecker(C, g, max_order=limit).output.order == limit


def test_extend_refuses_by_order_before_building_a_gray_set(monkeypatch):
    """2|Cq| is read from the presentation, so the order refusal comes
    before any enumeration: neither the order test of the preconditions nor
    the weight check has streamed Gray(Cq) or Gray(out) by then, and a
    weight-failing x is refused by order too."""
    lifted = xi_lift(load_fixture("hadamard8_z4"))  # |Cq| = 16
    calls = count_calls(monkeypatch, subgroup_module, "_gray_stream")
    for literal in ("b ab b ab", "a2 1 1 1"):
        with pytest.raises(
            EnumerationLimit, match="extension order exceeds max_order=31$"
        ):
            extend(lifted, parse_element(literal, lifted.sig), max_order=31)
    assert calls["_gray_stream"] == 0
    extend(lifted, parse_element("b ab b ab", lifted.sig))
    assert calls["_gray_stream"] > 0  # the count sees the weight check


def test_extend_raises_when_the_weight_scan_finds_no_witness(monkeypatch):
    """The weights of Gray(x Cq) are those of the output less those of Cq.
    When they put a word off the middle weight but no word x c is off it,
    the count is wrong, and extend raises rather than go on to the
    Hadamard check."""
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    x = parse_element("b ab b ab", lifted.sig)
    real = constructions_module.weight_distribution

    def miscount(C):
        counts = real(C)
        if C.order == 2 * lifted.order:
            counts[1] = counts.get(1, 0) + 1
        return counts

    monkeypatch.setattr(constructions_module, "weight_distribution", miscount)
    with pytest.raises(RuntimeError, match=r"^weights of Gray\(x Cq\) disagree with its words$"):
        extend(lifted, x)


def test_extend_weight_witness_is_first_sorted_failure():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    n = lifted.sig.n
    for literal in ("a2 1 1 1", "1 1 b b", "a a a2 1"):
        x = parse_element(literal, lifted.sig)
        weights = [(c, gray(x * c).weight()) for c in lifted.sorted_elements()]
        c, wt = next((c, wt) for c, wt in weights if wt != n // 2)
        with pytest.raises(ConstructionError) as err:
            extend(lifted, x)
        assert str(err.value) == (
            f"weight condition fails at c={c}: |Gray(x c)| = {wt} != {n // 2}"
        )


# ---------------------------------------------------------------------------
# One build per coset of the doubling element
# ---------------------------------------------------------------------------

def _copy(C):
    """A group equal to C with no construction kept on it."""
    return CodeGroup(C.sig, C.generators)


def test_kronecker_coset_hit_equals_a_fresh_build(hadamard16):
    """Every g c with c in C gets the output built for g, and it equals the
    output of g c on a fresh copy of C, with the same predicted type; the
    result names the caller's element."""
    C = _copy(hadamard16)
    rng = random.Random(16)
    members = C.sorted_elements()
    doubling = [parse_element("b ab 1 1", C.sig), identity(C.sig)]
    doubling += [rng.choice(members) * _random_torsion_word(C.sig, rng) for _ in range(4)]
    for g in doubling:
        first = generalized_kronecker(C, g)
        for c in rng.sample(members, 6):
            hit = generalized_kronecker(C, g * c)
            fresh = generalized_kronecker(_copy(C), g * c)
            assert hit.output is first.output
            assert hit.g == g * c and hit.input is C
            assert hit.output == fresh.output
            assert gray_codewords(hit.output) == gray_codewords(fresh.output)
            assert hit.predicted_type == fresh.predicted_type == code_type(fresh.output)


def test_extend_coset_hit_is_the_first_output():
    lifted = xi_lift(load_fixture("hadamard8_z4"))
    rng = random.Random(8)
    for _ in range(4):
        x = random_doubling_element(lifted.sig, rng)
        first = extend(lifted, x)
        # its last generator is the first element drawn from x's coset
        assert first.generators[-1].inverse() * x in lifted
        for c in rng.sample(lifted.sorted_elements(), 6):
            hit = extend(lifted, x * c)
            assert hit is first
            fresh = extend(_copy(lifted), x * c)
            assert hit == fresh and gray_codewords(hit) == gray_codewords(fresh)


def test_a_failing_coset_names_the_callers_element_on_every_call(hadamard16):
    """Failures are not kept: each element of a failing coset gets the
    message a fresh copy of the group gives it, naming that element."""
    C = _copy(hadamard16)
    bad = parse_element("a 1 1 1", C.sig)
    for c in C.sorted_elements()[:8]:
        g = bad * c
        with pytest.raises(ConstructionError) as err:
            generalized_kronecker(C, g)
        with pytest.raises(ConstructionError) as fresh:
            generalized_kronecker(_copy(C), g)
        assert str(err.value) == str(fresh.value)
        assert str(g) in str(err.value)

    lifted = xi_lift(load_fixture("hadamard8_z4"))
    for literal in ("1 1 a2 a2", "a2 1 1 1"):  # inside the group; off the middle weight
        x = parse_element(literal, lifted.sig)
        for c in lifted.sorted_elements()[:8]:
            with pytest.raises(ConstructionError) as err:
                extend(lifted, x * c)
            with pytest.raises(ConstructionError) as fresh:
                extend(_copy(lifted), x * c)
            assert str(err.value) == str(fresh.value)
    inside = parse_element("1 1 a2 a2", lifted.sig)
    with pytest.raises(ConstructionError, match=r"already lies in the group"):
        extend(lifted, inside * lifted.sorted_elements()[5])


def test_a_coset_hit_still_checks_max_order(hadamard16):
    C = _copy(hadamard16)
    g = parse_element("b ab 1 1", C.sig)
    c = C.sorted_elements()[7]
    generalized_kronecker(C, g)
    with pytest.raises(EnumerationLimit, match="Kronecker output order exceeds"):
        generalized_kronecker(C, g * c, max_order=C.order)
    assert generalized_kronecker(C, g * c, max_order=2 * C.order).output.order == 2 * C.order

    lifted = xi_lift(load_fixture("hadamard8_z4"))
    x = parse_element("b ab b ab", lifted.sig)
    extend(lifted, x)
    with pytest.raises(EnumerationLimit, match="extension order exceeds"):
        extend(lifted, x * lifted.sorted_elements()[3], max_order=lifted.order)


def test_search_checks_each_passing_coset_once(monkeypatch):
    """In search(16, seed=1, budget=2500) the Kronecker type prediction and
    extend's weight check run once per distinct (input, coset) that passes,
    though most draws repeat one.  An output is the union of its input and
    the coset (for Kronecker, its pairs with their first halves in g C), so
    its Gray image tells the cosets of one input apart."""
    search_module = sys.modules["z2z4q8.search"]  # the package's ``search`` is the function
    passing = {"extend": [], "generalized_kronecker": []}
    inputs = []  # keeps every input alive, so its id stays its own

    def recording(name, construction, output):
        def wrapper(C, g, *args):
            result = construction(C, g, *args)
            inputs.append(C)
            passing[name].append((id(C), gray_codewords(output(result))))
            return result

        return wrapper

    monkeypatch.setattr(
        search_module, "extend", recording("extend", extend, lambda out: out)
    )
    monkeypatch.setattr(
        search_module,
        "generalized_kronecker",
        recording("generalized_kronecker", generalized_kronecker, lambda r: r.output),
    )
    predictions = count_calls(monkeypatch, constructions_module, "_predict_kronecker_type")
    weighed = Counter()
    real_weights = constructions_module.weight_distribution

    def weighing(C):
        weighed[id(C)] += 1
        return real_weights(C)

    monkeypatch.setattr(constructions_module, "weight_distribution", weighing)
    search(16, seed=1, budget=2500)

    kron = passing["generalized_kronecker"]
    assert predictions["_predict_kronecker_type"] == len(set(kron)) < len(kron)
    ext = passing["extend"]
    assert len(set(ext)) < len(ext)
    # each extend input is weighed once with each of its distinct outputs
    lifted = {key for key, _ in ext}
    assert sum(weighed[key] for key in lifted) == len(set(ext))
