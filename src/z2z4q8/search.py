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
from typing import Dict, List, Optional, Set, Tuple

from .constructions import (
    ConstructionError,
    extend,
    generalized_kronecker,
    random_doubling_element,
    xi_lift,
)
from .groups import GroupSignature, GroupWord, word
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
    z2 = GroupSignature(2, 0, 0)
    z4 = GroupSignature(0, 1, 0)
    return [
        CodeGroup.generate([word(z2, (1, 0)), word(z2, (0, 1))]),
        CodeGroup.generate([word(z4, (1,))]),
    ]


def _random_ambient_word(sig: GroupSignature, rng: random.Random) -> GroupWord:
    coords = [rng.randrange(2) for _ in range(sig.k1)]
    coords += [rng.randrange(4) for _ in range(sig.k2)]
    coords += [rng.randrange(8) for _ in range(sig.k3)]
    return word(sig, coords)


def _random_torsion_word(sig: GroupSignature, rng: random.Random) -> GroupWord:
    coords = [rng.choice((0, 1)) for _ in range(sig.k1)]
    coords += [rng.choice((0, 2)) for _ in range(sig.k2)]
    coords += [rng.choice((0, 2)) for _ in range(sig.k3)]
    return word(sig, coords)


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
    at most ``MAX_RESULTS``, deterministic for a fixed seed.
    """
    if length < 4 or length & (length - 1):
        raise ValueError(f"length must be a power of two >= 4, got {length}")
    rng = random.Random(seed)
    pool: List[CodeGroup] = []
    for _ in range(min(24, max(4, budget // 16))):
        try:
            pool.append(_random_abelian_base(length // 2, rng))
        except (ConstructionError, ValueError):
            continue
    if not pool:
        return []
    lifted_cache: Dict[int, CodeGroup] = {}

    found: List[FoundCode] = []
    seen_groups: Set[CodeGroup] = set()
    seen_keys: set = set()
    for _ in range(budget):
        if len(found) >= MAX_RESULTS:
            break
        index = rng.randrange(len(pool))
        base = pool[index]
        try:
            if rng.random() < 0.7:
                if index not in lifted_cache:
                    lifted_cache[index] = xi_lift(base)
                lifted = lifted_cache[index]
                x = random_doubling_element(lifted.sig, rng)
                C = extend(lifted, x)
            else:
                g = rng.choice(base.sorted_elements())
                g = g * _random_torsion_word(base.sig, rng)
                C = generalized_kronecker(base, g).output
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
