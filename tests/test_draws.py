"""Search draws its random words straight into their Gray images.

``groups._random_word`` reads ``rng.getrandbits`` by ``Random.choice``'s
own rule: per coordinate, ``getrandbits(n.bit_length())`` until the result
is below the n blocks on offer.  Its oracle is ``rng.choice`` per
coordinate, and the coordinate draws it replaced stay in ``conftest``
(``choice_word``, ``random_word``, ``coordinate_torsion_word``,
``coordinate_doubling_element``).  Twin rngs give one word and one state
after, so the rng stream and every search output are unchanged, and no
sample goes through the text encoder.  A canary checks the stdlib rule
itself, which search's goldens were written under.
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
    choice_word,
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


def test_random_choice_reads_getrandbits_by_the_rule():
    """The stdlib rule ``_random_word`` inlines: ``Random.choice(range(n))``
    is the first ``getrandbits(n.bit_length())`` below n."""
    for n in range(1, 65):
        k = n.bit_length()
        for seed in range(20):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(5):
                r = twin.getrandbits(k)
                while r >= n:
                    r = twin.getrandbits(k)
                assert rng.choice(range(n)) == r and rng.getstate() == twin.getstate(), (
                    f"Random.choice(range({n})) at seed {seed} no longer reads getrandbits by "
                    "the rule of random.Random._randbelow_with_getrandbits; search's goldens "
                    "were written under that rule, and groups._random_word inlines it"
                )


def test_a_one_block_choice_redraws_until_a_zero_bit():
    """With one block on offer ``choice`` still draws ``getrandbits(1)``
    until it gives 0, and so does ``_random_word``: at some seeds one bit a
    coordinate is not enough."""
    sig, choices = GroupSignature(0, 3, 0), {"z4": (0b10,)}
    short = 0
    for seed in range(50):
        rng, twin, once = random.Random(seed), random.Random(seed), random.Random(seed)
        assert groups_module._random_word(choices, sig, rng) == choice_word(choices, sig, twin)
        assert rng.getstate() == twin.getstate()
        for _ in range(sig.l):
            once.getrandbits(1)
        short += once.getstate() != rng.getstate()
    assert short


class RandomOnly(random.Random):
    """Overrides only ``random()``, so its own ``choice`` goes through
    ``_randbelow_without_getrandbits``; counts each ``random()`` call."""

    calls = 0

    def random(self):
        RandomOnly.calls += 1
        return super().random()


@pytest.mark.parametrize(
    "make", [random.SystemRandom, lambda: RandomOnly(3)], ids=["system", "random-only"]
)
def test_draws_read_only_getrandbits(make, monkeypatch):
    """200 draws a signature from rngs whose ``choice`` would not read
    ``getrandbits``; a Z2 signature is refused before any draw.  The
    ``random()`` counter is live: one ``RandomOnly.choice`` after is one call."""
    monkeypatch.setattr(RandomOnly, "calls", 0)
    rng = make()
    for sig in (GroupSignature(0, 5, 0), GroupSignature(0, 0, 4), GroupSignature(0, 3, 2)):
        for _ in range(200):
            x = random_doubling_element(sig, rng)
            assert all(v in (1, 3) for v in x.coords[: sig.k2])
            assert all(v >= 4 for v in x.coords[sig.k2 :])  # a^i b, outside <a>
    for sig in SINGLE_KIND + MIXED:
        for _ in range(200):
            assert _random_torsion_word(sig, rng).order() <= 2
    assert RandomOnly.calls == 0
    RandomOnly(3).choice(range(5))
    assert RandomOnly.calls == 1

    def no_draw(k):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(rng, "getrandbits", no_draw)
    with pytest.raises(ConstructionError, match="^doubling elements live in Z4/Q8 signatures$"):
        random_doubling_element(GroupSignature(2, 3, 1), rng)


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
