"""Seeded random search for Hadamard code groups of a given length.

Samples are produced by the constructions themselves: abelian Hadamard
bases are grown from the length-2 seeds by repeated Kronecker steps
(mixing order-2 and order-4 doubling elements so both sigma and delta
grow), then the target length is reached either by doubling a lifted base
with a random element whose coordinates all avoid <a>, or by a
generalized Kronecker step.  Fixed seed => fixed output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from .constructions import (
    ConstructionError,
    _share_doublings,
    extend,
    generalized_kronecker,
    random_doubling_element,
    xi_lift,
)
from .groups import GroupSignature, GroupWord, _gray_choices, _random_word
from .hadamard import classify_shape, is_hadamard
from .invariants import kernel_dim, rank
from .subgroup import CodeGroup, CodeType, code_type

MAX_RESULTS = 32


@dataclass(frozen=True)
class FoundCode:
    signature: GroupSignature
    generators: Tuple[GroupWord, ...]
    type: CodeType
    rank: int
    kernel_dim: int
    shape: int


def _seed_groups() -> List[CodeGroup]:
    """Z2^2 by (1, 0) and (0, 1), and Z4 by 1, given by their Gray images."""
    z2 = GroupSignature(2, 0, 0)
    return [
        CodeGroup.generate([GroupWord._from_bits(z2, 0b01), GroupWord._from_bits(z2, 0b10)]),
        CodeGroup.generate([GroupWord._from_bits(GroupSignature(0, 1, 0), 0b10)]),
    ]


# f(sig, rng): a uniform word, and a word of order <= 2
_random_ambient_word = partial(_random_word, _gray_choices(z2=range(2), z4=range(4), q8=range(8)))
_random_torsion_word = partial(_random_word, _gray_choices(z2=(0, 1), z4=(0, 2), q8=(0, 2)))


def _random_abelian_base(length: int, rng: random.Random) -> CodeGroup:
    """Abelian (Z2/Z4) Hadamard group of the requested binary length."""
    base = rng.choice(_seed_groups())
    while base.sig.n < length:
        if rng.random() < 0.5:
            g = rng.choice(base.sorted_elements())
            g = g * _random_torsion_word(base.sig, rng)
        else:
            # an order-4 doubling element grows delta instead of sigma
            g = None
            for _ in range(24):
                trial = _random_ambient_word(base.sig, rng)
                if trial.order() == 4 and (trial * trial) in base:
                    g = trial
                    break
            if g is None:
                g = rng.choice(base.sorted_elements())
        base = generalized_kronecker(base, g).output
    return base


def search(
    length: int, shape: Optional[int] = None, seed: int = 0, budget: int = 1000
) -> List[FoundCode]:
    """Sample Hadamard code groups of the given binary length.

    Returns results deduplicated by (signature, type, rank, kernel, shape),
    at most ``MAX_RESULTS``, deterministic for a fixed seed.  ``shape``,
    if given, keeps only results of that shape tag, 1..5.

    Equal pool entries, and equal lifts of them, share one table of kept
    doublings for this call (``_share_doublings``), each bound once, at
    its first use: each (group, coset) is built and checked once, not once
    per equal entry.  The output is the one each entry would give with its
    own table.  A pair kept by an equal entry was built by an earlier
    sample of this call, and that sample put its output into
    ``seen_groups``: the sample that gets the pair is a duplicate group,
    as it would be after a fresh build of an equal group.  So every group
    that reaches a ``FoundCode`` is built on the drawing entry with the
    drawing element.  Failures are never kept, so they raise with the
    caller's element; no rng draw reads a table; and the tables are this
    call's own, so what other groups are alive outside it does not matter.
    """
    if length < 4 or length & (length - 1):
        raise ValueError(f"length must be a power of two >= 4, got {length}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if shape is not None and not 1 <= shape <= 5:
        raise ValueError(f"shape must be in 1..5, got {shape}")
    rng = random.Random(seed)
    # Equal entries stay separate objects: each keeps its own generators,
    # which the groups built on it carry into the results.  Only their
    # tables of kept doublings are shared, below.
    pool: List[CodeGroup] = []
    for _ in range(min(24, max(4, budget // 16))):
        try:
            pool.append(_random_abelian_base(length // 2, rng))
        except (ConstructionError, ValueError):
            continue
    if not pool:
        return []
    found: List[FoundCode] = []
    seen_groups: Set[CodeGroup] = set()
    seen_keys: set = set()
    tables: Dict[CodeGroup, dict] = {}
    bound: Set[int] = set()  # ids of the pool entries and lifts tied to ``tables``
    for _ in range(budget):
        if len(found) >= MAX_RESULTS:
            break
        index = rng.randrange(len(pool))
        base = pool[index]
        try:
            if rng.random() < 0.7:
                source = xi_lift(base)
                x = random_doubling_element(source.sig, rng)
            else:
                source = base
                x = rng.choice(base.sorted_elements()) * _random_torsion_word(base.sig, rng)
            if id(source) not in bound:
                bound.add(id(source))
                _share_doublings(source, tables)
            C = generalized_kronecker(base, x).output if source is base else extend(source, x)
        except (ConstructionError, ValueError):
            continue
        if C in seen_groups:
            continue
        seen_groups.add(C)
        if not is_hadamard(C):
            continue
        shape_obj = classify_shape(C)
        if shape is not None and shape_obj.tag != shape:
            continue
        record = FoundCode(
            C.sig,
            C.generators,
            code_type(C),
            rank(C),
            kernel_dim(C),
            shape_obj.tag,
        )
        key = (
            record.signature,
            record.type,
            record.rank,
            record.kernel_dim,
            record.shape,
        )
        if key not in seen_keys:
            seen_keys.add(key)
            found.append(record)
    return found
