"""Reference fixtures and the reproduce runner.

Every fixture group ships as a generator file under ``fixtures/``; derived
cases rebuild codes through the construction operations and compare the
computed invariants against frozen expected values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Tuple

from .constructions import (
    extend,
    generalized_kronecker,
    kronecker,
    structural_converse_check,
    xi_lift,
)
from .hadamard import is_hadamard
from .invariants import is_extended_perfect, is_perfect, span_group, swapper
from .parsing import parse_element, parse_generators
from .report import analyze
from .subgroup import CodeGroup, group_kernel, torsion


@lru_cache(maxsize=None)
def fixture_text(name: str) -> str:
    """The text of a shipped ``.gens`` file, read once per process; each
    ``load_fixture`` still parses it and builds a new group."""
    return (
        resources.files("z2z4q8").joinpath("fixtures", f"{name}.gens").read_text()
    )


def load_fixture(name: str) -> CodeGroup:
    _, gens = parse_generators(fixture_text(name))
    return CodeGroup.generate(gens)


@dataclass(frozen=True)
class Fixture:
    case_id: str
    description: str
    build: Callable[[], CodeGroup]
    expected: Mapping[str, object]
    extra: Tuple[Callable[[CodeGroup], Optional[str]], ...] = field(default=())

    def __post_init__(self) -> None:
        # the registry is shared, so its expected values are read-only
        object.__setattr__(self, "expected", MappingProxyType(dict(self.expected)))


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    ok: bool
    details: Tuple[str, ...]


def _check_perfect(C: CodeGroup) -> Optional[str]:
    return None if is_perfect(C) else "code is not perfect"


def _check_extended_perfect(C: CodeGroup) -> Optional[str]:
    return None if is_extended_perfect(C) else "code is not extended perfect"


def _check_kernel_is_torsion(C: CodeGroup) -> Optional[str]:
    if group_kernel(C) == torsion(C):
        return None
    return "swapper kernel differs from the torsion subgroup"


def _check_equals_fixture(name: str) -> Callable[[CodeGroup], Optional[str]]:
    def check(C: CodeGroup) -> Optional[str]:
        other = load_fixture(name)
        return None if C == other else f"group differs from fixture {name}"

    return check


def _check_extra_swapper(C: CodeGroup) -> Optional[str]:
    """The displayed swapper of the rank-6 shape-4 code: in span, not in code."""
    sig = C.sig
    target = parse_element("0 0 0 0 0 0 0 0 a2 1", sig)
    produced = {swapper(a, b) for a in C.generators for b in C.generators}
    if target not in produced:
        return "displayed swapper not produced by any generator pair"
    if target in C:
        return "displayed swapper unexpectedly lies in the code group"
    if target not in span_group(C):
        return "displayed swapper missing from the span group"
    return None


def _check_converse_roundtrip(C: CodeGroup) -> Optional[str]:
    result = structural_converse_check(C)
    if not is_hadamard(result.base):
        return "recovered base is not Hadamard"
    return None


def _registry() -> List[Fixture]:
    def from_file(name: str) -> Callable[[], CodeGroup]:
        return lambda: load_fixture(name)

    def lift_extend(base_name: str, literal: str) -> Callable[[], CodeGroup]:
        def build() -> CodeGroup:
            lifted = xi_lift(load_fixture(base_name))
            return extend(lifted, parse_element(literal, lifted.sig))

        return build

    def kron(base_name: str, literal: Optional[str]) -> Callable[[], CodeGroup]:
        def build() -> CodeGroup:
            base = load_fixture(base_name)
            if literal is None:
                return kronecker(base).output
            g = parse_element(literal, base.sig)
            return generalized_kronecker(base, g).output

        return build

    return [
        Fixture(
            "pure-q8-n8",
            "pure quaternionic code: 8 codewords of length 8, (r,k)=(4,1)",
            from_file("pure_q8_n8"),
            {
                "order": 8,
                "type": [1, 0, 2],
                "rank": 4,
                "kernel_dim": 1,
                "is_linear": False,
                "is_abelian": False,
                "is_hadamard": False,
            },
        ),
        Fixture(
            "hadamard16-q8",
            "quaternionic Hadamard code of length 16, shape 2, (r,k)=(7,2)",
            from_file("hadamard16_q8"),
            {
                "order": 32,
                "type": [2, 0, 3],
                "rank": 7,
                "kernel_dim": 2,
                "is_linear": False,
                "is_abelian": False,
                "is_hadamard": True,
                "shape": 2,
            },
            (_check_kernel_is_torsion,),
        ),
        Fixture(
            "hamming7",
            "perfect code of length 7 over Z2^3 x Q8",
            from_file("hamming7_z2q8"),
            {"order": 16, "is_linear": True},
            (_check_perfect,),
        ),
        Fixture(
            "ext-hamming8-z2q8",
            "extended perfect, length 8, over Z2^4 x Q8",
            from_file("ext_hamming8_z2q8"),
            {"order": 16, "is_linear": True, "is_hadamard": True},
            (_check_extended_perfect,),
        ),
        Fixture(
            "ext-hamming8-z4q8",
            "extended perfect, length 8, over Z4^2 x Q8",
            from_file("ext_hamming8_z4q8"),
            {"order": 16, "is_linear": True, "is_hadamard": True},
            (_check_extended_perfect,),
        ),
        Fixture(
            "ext-hamming8-q8q8",
            "extended perfect, length 8, over Q8^2",
            from_file("ext_hamming8_q8q8"),
            {"order": 16, "is_linear": True, "is_hadamard": True},
            (_check_extended_perfect,),
        ),
        Fixture(
            "rep4-q8",
            "the two-word code {0000, 1111} inside Q8",
            from_file("rep4_q8"),
            {"order": 2, "is_linear": True, "is_hadamard": False},
            (_check_extended_perfect,),
        ),
        Fixture(
            "hadamard32-q8-shape5",
            "length 32, shape 5, (r,k)=(8,2); exceptional parameter set",
            from_file("hadamard32_q8_shape5"),
            {
                "order": 64,
                "type": [2, 0, 4],
                "rank": 8,
                "kernel_dim": 2,
                "is_hadamard": True,
                "shape": 5,
            },
        ),
        Fixture(
            "hadamard8-z4",
            "quaternary presentation of the linear Hadamard code of length 8",
            from_file("hadamard8_z4"),
            {
                "order": 16,
                "type": [2, 2, 0],
                "rank": 4,
                "kernel_dim": 4,
                "is_linear": True,
                "is_hadamard": True,
                "shape": 1,
            },
        ),
        Fixture(
            "hadamard16-z2z4-delta2",
            "mixed Z2/Z4 Hadamard code of length 16, (r,k)=(6,3)",
            from_file("hadamard16_z2z4_delta2"),
            {
                "order": 32,
                "type": [3, 2, 0],
                "rank": 6,
                "kernel_dim": 3,
                "is_linear": False,
                "is_hadamard": True,
                "shape": 1,
            },
        ),
        Fixture(
            "hadamard32-q8-rank7",
            "quaternionic Hadamard code of length 32, shape 2, (r,k)=(7,4)",
            from_file("hadamard32_q8_rank7"),
            {
                "order": 64,
                "type": [3, 0, 3],
                "rank": 7,
                "kernel_dim": 4,
                "is_hadamard": True,
                "shape": 2,
            },
        ),
        Fixture(
            "hadamard32-z2z4-rank7",
            "mixed Z2/Z4 Hadamard code of length 32, (r,k)=(7,4)",
            from_file("hadamard32_z2z4_rank7"),
            {
                "order": 64,
                "type": [4, 2, 0],
                "rank": 7,
                "kernel_dim": 4,
                "is_hadamard": True,
                "shape": 1,
            },
        ),
        Fixture(
            "hadamard8-z2q8-shape4",
            "shape-4 group over Z2^4 x Q8; binary image is linear of length 8",
            from_file("hadamard8_z2q8_shape4"),
            {
                "order": 16,
                "type": [2, 0, 2],
                "rank": 4,
                "kernel_dim": 4,
                "is_linear": True,
                "is_hadamard": True,
                "shape": 4,
            },
        ),
        Fixture(
            "hadamard16-z2q8-shape4-rank6",
            "shape-4 Hadamard code of length 16 with rank 6",
            from_file("hadamard16_z2q8_shape4_rank6"),
            {
                "order": 32,
                "type": [3, 0, 2],
                "rank": 6,
                "kernel_dim": 3,
                "is_linear": False,
                "is_hadamard": True,
                "shape": 4,
            },
            (_check_extra_swapper,),
        ),
        Fixture(
            "lift-extend-linear16",
            "doubling the quaternary length-8 base with an all-b element",
            lift_extend("hadamard8_z4", "b b b b"),
            {
                "order": 32,
                "rank": 5,
                "kernel_dim": 5,
                "is_linear": True,
                "is_hadamard": True,
            },
            (_check_equals_fixture("lift_extend_linear16"),),
        ),
        Fixture(
            "lift-extend-quaternionic16",
            "doubling that lands exactly on the rank-7 quaternionic group",
            lift_extend("hadamard8_z4", "b ab b ab"),
            {
                "order": 32,
                "rank": 7,
                "kernel_dim": 2,
                "is_hadamard": True,
                "shape": 2,
            },
            (_check_equals_fixture("hadamard16_q8"),),
        ),
        Fixture(
            "lift-extend-hadamard16-k3",
            "doubling with a mixed element: rank 6, kernel dimension 3",
            lift_extend("hadamard8_z4", "b b b a3b"),
            {
                "order": 32,
                "rank": 6,
                "kernel_dim": 3,
                "is_hadamard": True,
            },
            (_check_equals_fixture("lift_extend_hadamard16_k3"),),
        ),
        Fixture(
            "lift-extend-hadamard32-shape3",
            "length-32 shape-3 code meeting the odd-length rank maximum",
            lift_extend(
                "hadamard16_z2z4_delta2", "1 1 1 1 b ab b ab ab a3b"
            ),
            {
                "order": 64,
                "type": [3, 0, 3],
                "rank": 9,
                "kernel_dim": 3,
                "is_hadamard": True,
                "shape": 3,
            },
            (_check_equals_fixture("lift_extend_hadamard32_shape3"),),
        ),
        Fixture(
            "kronecker-hadamard32-shape5",
            "generalized Kronecker of the rank-7 length-16 code",
            kron("hadamard16_q8", "b ab 1 1"),
            {
                "order": 64,
                "type": [2, 0, 4],
                "rank": 8,
                "kernel_dim": 2,
                "is_hadamard": True,
                "shape": 5,
            },
            (_check_equals_fixture("kronecker32_shape5"),),
        ),
        Fixture(
            "kronecker-hadamard64",
            "generalized Kronecker with a strict kernel drop",
            kron("hadamard32_q8_rank7", "a2 a2 1 1 b ab b ab"),
            {
                "order": 128,
                "type": [3, 0, 4],
                "rank": 8,
                "kernel_dim": 3,
                "is_hadamard": True,
                "shape": 5,
            },
            (_check_equals_fixture("kronecker64_shape5"),),
        ),
        Fixture(
            "kronecker-plain-32",
            "plain Kronecker of the rank-7 length-16 code: both invariants +1",
            kron("hadamard16_q8", None),
            {
                "order": 64,
                "type": [3, 0, 3],
                "rank": 8,
                "kernel_dim": 3,
                "is_hadamard": True,
            },
            (_check_equals_fixture("kronecker32_plain"),),
        ),
        Fixture(
            "kronecker-linear16",
            "plain Kronecker of the shape-4 length-8 group: linear, dimension 5",
            kron("hadamard8_z2q8_shape4", None),
            {
                "order": 32,
                "type": [3, 0, 2],
                "rank": 5,
                "kernel_dim": 5,
                "is_linear": True,
                "is_hadamard": True,
                "shape": 4,
            },
            (_check_equals_fixture("kronecker16_linear"),),
        ),
        Fixture(
            "converse-shape2",
            "shape-2 code recovered as a doubled quaternary lift",
            from_file("hadamard16_q8"),
            {"is_hadamard": True, "shape": 2},
            (_check_converse_roundtrip,),
        ),
        Fixture(
            "converse-shape3",
            "shape-3 code recovered as a doubled mixed lift",
            lift_extend(
                "hadamard16_z2z4_delta2", "1 1 1 1 b ab b ab ab a3b"
            ),
            {"is_hadamard": True, "shape": 3},
            (_check_converse_roundtrip,),
        ),
    ]


@lru_cache(maxsize=1)
def fixtures() -> Mapping[str, Fixture]:
    """The 24 reproduce cases by id: one read-only table, built once."""
    return MappingProxyType({f.case_id: f for f in _registry()})


def reproduce(case_ids: Optional[List[str]] = None) -> List[CaseResult]:
    """Run fixture cases and compare invariants against expected values."""
    table = fixtures()
    if case_ids is None:
        selected = list(table.values())
    else:
        unknown = [c for c in case_ids if c not in table]
        if unknown:
            raise ValueError(f"unknown case ids: {', '.join(unknown)}")
        selected = [table[c] for c in case_ids]
    results = []
    for fixture in selected:
        details: List[str] = []
        try:
            C = fixture.build()
            payload = analyze(C)
            for key, want in fixture.expected.items():
                got = payload[key]
                if got != want:
                    details.append(f"{key}: got {got!r}, want {want!r}")
            bad_bounds = [b["name"] for b in payload["bounds"] if not b["ok"]]
            if bad_bounds:
                details.append(f"failed bounds: {', '.join(bad_bounds)}")
            for check in fixture.extra:
                message = check(C)
                if message:
                    details.append(message)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            details.append(f"{type(exc).__name__}: {exc}")
        results.append(CaseResult(fixture.case_id, not details, tuple(details)))
    return results
