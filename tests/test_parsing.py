"""Generator-file grammar, element literals and round-trips."""

from __future__ import annotations

import pytest

from z2z4q8 import GroupSignature, format_generators, parse_element, parse_generators
from z2z4q8.parsing import ParseError


def test_parse_pure_code_file():
    sig, gens = parse_generators("sig 0 0 2\ngen a a\ngen ab b\n")
    assert sig == GroupSignature(0, 0, 2)
    assert [g.tokens() for g in gens] == [("a", "a"), ("ab", "b")]


def test_parse_singleton():
    sig, gens = parse_generators("sig 1 0 0\ngen 1\n")
    assert sig.l == 1
    assert gens[0].coords == (1,)


def test_parse_comments_and_blank_lines():
    text = "# header\n\nsig 1 1 1   # trailing\ngen 1 3 a3b\n# done\n"
    sig, gens = parse_generators(text)
    assert sig == GroupSignature(1, 1, 1)
    assert gens[0].tokens() == ("1", "3", "a3b")


def test_parse_b3_normalizes():
    _, gens = parse_generators("sig 0 0 1\ngen b3\n")
    assert gens[0].tokens() == ("a2b",)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_generators("sig 0 0 1\ngen q\n")
    assert err.value.line == 2
    assert err.value.column == 5

    with pytest.raises(ParseError) as err:
        parse_generators("sig 0 0\ngen 1\n")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_generators("gen 1\nsig 1 0 0\n")
    assert "before sig" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_generators("sig 1 0 0\ngen 1 1\n")
    assert "expected 1" in str(err.value)

    with pytest.raises(ParseError):
        parse_generators("sig 1 0 0\n")  # no generators

    with pytest.raises(ParseError):
        parse_generators("sig 1 0 0\nsig 1 0 0\ngen 1\n")

    with pytest.raises(ParseError) as err:
        parse_generators("sig 0 1 0\ngen 4\n")
    assert "out of range" in str(err.value)


def test_format_parse_round_trip():
    text = "sig 2 1 2\ngen 1 0 3 ab a2\ngen 0 1 2 b a3b\n"
    sig, gens = parse_generators(text)
    rendered = format_generators(sig, gens)
    sig2, gens2 = parse_generators(rendered)
    assert sig2 == sig and gens2 == gens
    assert rendered == format_generators(sig2, gens2)


def test_format_with_comment_round_trips():
    sig, gens = parse_generators("sig 0 0 1\ngen a\n")
    rendered = format_generators(sig, gens, comment="two lines\nof comments")
    assert rendered.startswith("# two lines\n# of comments\n")
    assert parse_generators(rendered) == (sig, gens)


def test_format_refuses_an_empty_word_list():
    """A file of no gen lines would not parse back ("no gen lines"), so
    ``format_generators`` does not write one."""
    with pytest.raises(ValueError, match="at least one gen line"):
        format_generators(GroupSignature(1, 0, 0), [])


def test_parse_element_literal():
    sig = GroupSignature(1, 1, 1)
    w = parse_element("1 2 b3", sig)
    assert w.tokens() == ("1", "2", "a2b")
    with pytest.raises(ParseError):
        parse_element("1 2", sig)
    with pytest.raises(ParseError) as err:
        parse_element("1 7 b", sig)
    assert err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse_element("  1 2 zz", sig)
    assert err.value.column == 7


@pytest.mark.parametrize("bad", [0, 2, 5, 1203, 1399, 1402])
def test_bad_token_late_in_a_long_line_gives_its_column(bad):
    """Tokens are split without their positions; a bad token is still
    located, however late in the line and whatever the spacing."""
    sig = GroupSignature(3, 600, 800)
    tokens = ["1"] * 3 + ["3"] * 600 + ["a3b"] * 800
    tokens[bad] = "q" if bad >= 603 else "7"
    seps = [" ", "  ", "\t", " \t "]
    body = "".join(t + seps[i % 4] for i, t in enumerate(tokens))
    column = len("gen ") + len("".join(t + seps[i % 4] for i, t in enumerate(tokens[:bad]))) + 1
    with pytest.raises(ParseError) as err:
        parse_generators(f"sig 3 600 800\ngen {body}# comment\n")
    assert (err.value.line, err.value.column) == (2, column)
    with pytest.raises(ParseError) as err:
        parse_element(body, sig)
    assert (err.value.line, err.value.column) == (1, column - len("gen "))
