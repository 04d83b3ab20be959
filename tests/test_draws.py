"""Search draws its random words straight into their Gray images.

Each draw makes the rng calls of the coordinate draw it replaced, in the
same order; those coordinate draws stay in ``conftest`` as the oracles
(``random_word``, ``coordinate_torsion_word``,
``coordinate_doubling_element``).  So the words, the rng stream and every
search output are unchanged, and no sample goes through the text encoder.
"""

from __future__ import annotations

import random
import sys

import pytest

import z2z4q8.groups as groups_module
from z2z4q8 import (
    ConstructionError,
    GroupSignature,
    random_doubling_element,
    search,
    word,
    xi_lift,
)
from z2z4q8.constructions import lift_word
from z2z4q8.search import _random_ambient_word, _random_torsion_word

from conftest import (
    coordinate_doubling_element,
    coordinate_torsion_word,
    count_calls,
    random_word,
    watch_search_pool,
)

SINGLE_KIND = (GroupSignature(3, 0, 0), GroupSignature(0, 4, 0), GroupSignature(0, 0, 3))
MIXED = (GroupSignature(2, 3, 1), GroupSignature(1, 0, 2), GroupSignature(0, 2, 2), GroupSignature(9, 5, 7))
NO_Z2 = tuple(sig for sig in SINGLE_KIND + MIXED if not sig.k1)

DRAWS = [
    (_random_ambient_word, random_word, SINGLE_KIND + MIXED),
    (_random_torsion_word, coordinate_torsion_word, SINGLE_KIND + MIXED),
    (random_doubling_element, coordinate_doubling_element, NO_Z2),
]


def assert_draws_agree(draw, oracle, sig: GroupSignature, seed: int) -> None:
    """The draw and its oracle, on twin rngs, give one word and leave the
    rngs in one state."""
    rng, twin = random.Random(seed), random.Random(seed)
    w = draw(sig, rng)
    assert w == oracle(sig, twin) and w.sig is sig
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize(
    "draw, oracle, sig",
    [(draw, oracle, sig) for draw, oracle, sigs in DRAWS for sig in sigs],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_block_draws_equal_the_coordinate_draws(draw, oracle, sig):
    for seed in range(200):
        assert_draws_agree(draw, oracle, sig, seed)


@pytest.mark.parametrize("sig", [GroupSignature(1, 0, 0), GroupSignature(2, 3, 1)], ids=str)
def test_random_doubling_element_refuses_before_drawing(sig):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ConstructionError, match="^doubling elements live in Z4/Q8 signatures$"):
        random_doubling_element(sig, rng)
    assert rng.getstate() == state


def test_the_lift_from_gray_bits_equals_the_coordinate_lift():
    """Z2 v lifts to Z4 2v and Z4 i to a^i, coded i in Q8."""
    rng = random.Random(0)
    for sig in (GroupSignature(3, 0, 0), GroupSignature(0, 4, 0), GroupSignature(2, 3, 0), GroupSignature(9, 11, 0)):
        out = GroupSignature(0, sig.k1, sig.k2)
        for _ in range(50):
            w = random_word(sig, rng)
            coords = tuple(2 * v for v in w.coords[: sig.k1]) + w.coords[sig.k1 :]
            assert lift_word(w) == word(out, coords)


def test_search_builds_no_word_through_the_text_encoder(monkeypatch):
    """Every word of ``search`` is made from Gray bits: its draws, its seed
    groups and the lifts of its pool.  The counter is live: one ``word``
    call after the search is one encode."""
    calls = count_calls(monkeypatch, groups_module, "_encode")
    assert len(search(16, seed=1, budget=2500)) == 8
    assert calls["_encode"] == 0
    word(GroupSignature(0, 1, 0), (1,))
    assert calls["_encode"] == 1


def test_search_ties_each_pool_entry_and_lift_to_its_table_once(monkeypatch):
    search_module = sys.modules["z2z4q8.search"]  # the package's ``search`` is the function
    share, tied = search_module._share_doublings, []

    def sharing(C, tables):
        tied.append(C)
        share(C, tables)

    monkeypatch.setattr(search_module, "_share_doublings", sharing)
    _, pool = watch_search_pool(monkeypatch)
    search(16, seed=1, budget=2500)
    ids = [id(C) for C in tied]
    assert len(ids) == len(set(ids))
    assert set(ids) <= {id(C) for C in pool} | {id(xi_lift(C)) for C in pool}
