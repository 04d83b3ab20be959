"""Spans and counts around the library's layers, installed from outside.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces, in every
``z2z4q8`` module, each binding of a layer function with a wrapper that
records a span, and swaps class-level wrappers in for the hot methods that
only need counting.  ``SearchProbe`` wraps the names ``z2z4q8.search``
imports, to find where each search sample starts and why it was rejected.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) pairs that get a span.  A span's self time is its
# duration minus the time covered by the spans nested in it.
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("parsing", "parse_generators"),
    ("subgroup", "torsion"),
    ("subgroup", "center"),
    ("subgroup", "standard_generators"),
    ("subgroup", "group_kernel"),
    ("invariants", "span_group"),
    ("invariants", "binary_kernel"),
    ("invariants", "weight_distribution"),
    ("invariants", "check_bounds"),
    ("hadamard", "is_hadamard"),
    ("hadamard", "classify_shape"),
    ("hadamard", "hadamard_bounds"),
    ("constructions", "xi_lift"),
    ("constructions", "extend"),
    ("constructions", "generalized_kronecker"),
    ("report", "analyze"),
    ("report", "render_json"),
)
GENERATE = "subgroup.generate"  # CodeGroup.generate, a classmethod
CONSTRUCTIONS = tuple(f"constructions.{f}" for m, f in SPANNED if m == "constructions")
MUL_CALLS = "groups.GroupWord.mul.calls"
GF2_ADD_CALLS = "gf2.Gf2Basis.add.calls"
REJECT_REASONS = (
    "construction_error",
    "duplicate_group",
    "not_hadamard",
    "shape_filter",
    "duplicate_key",
)


def _library_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "z2z4q8" or name.startswith("z2z4q8."))
    ]


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_class_attr(self, cls: type, attr: str, value: object) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        # (span id, parent id, pass, op, name, start, end); written out at the end
        self.spans: List[Tuple[int, int, int, object, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self.pass_no = 0  # set by the caller; spans of one op share (pass_no, op)
        self.op: object = None
        self._stack: List[List] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches: Optional[_Patches] = None
        self._mul_calls: Callable[[], int] = lambda: 0
        self._add_calls: Callable[[], int] = lambda: 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, on_result=None, rejected=()) -> Callable:
        tracer = self
        self.self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except rejected:
                tracer.counts[f"{name}.rejected"] += 1
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append((span_id, parent, tracer.pass_no, tracer.op, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @staticmethod
    def _counting(fn: Callable) -> Tuple[Callable, Callable[[], int]]:
        calls = 0

        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        def read() -> int:
            return calls

        return wrapper, read

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        import z2z4q8.constructions as constructions
        from z2z4q8.gf2 import Gf2Basis
        from z2z4q8.groups import GroupWord
        from z2z4q8.subgroup import CodeGroup

        patches = _Patches()
        modules = _library_modules()
        for module_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"z2z4q8.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            rejected = (constructions.ConstructionError, ValueError) if name in CONSTRUCTIONS else ()
            wrapper = self._span(name, original, rejected=rejected)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.set(module, attr, wrapper)

        def count_elements(group) -> None:
            self.counts[f"{GENERATE}.elements"] += group.order

        generate = CodeGroup.__dict__["generate"].__func__
        patches.set_class_attr(
            CodeGroup, "generate", classmethod(self._span(GENERATE, generate, count_elements))
        )
        mul, self._mul_calls = self._counting(GroupWord.__mul__)
        patches.set_class_attr(GroupWord, "__mul__", mul)
        add, self._add_calls = self._counting(Gf2Basis.add)
        patches.set_class_attr(Gf2Basis, "add", add)
        self._patches = patches

    def remove(self) -> None:
        self.counts[MUL_CALLS] += self._mul_calls()
        self.counts[GF2_ADD_CALLS] += self._add_calls()
        self._mul_calls = self._add_calls = lambda: 0
        if self._patches is not None:
            self._patches.undo()
            self._patches = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass means of every span's calls and self time, and counts."""
        out: Dict[str, float] = {}
        for name in [f"{m}.{f}" for m, f in SPANNED] + [GENERATE]:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / passes
        for name in CONSTRUCTIONS:
            out[f"{name}.rejected"] = self.counts[f"{name}.rejected"] / passes
        for name in (f"{GENERATE}.elements", MUL_CALLS, GF2_ADD_CALLS):
            out[name] = self.counts[name] / passes
        return out


class SearchProbe:
    """Marks where each sample of ``search`` starts and how it ends.

    A sample starts at its first call to ``xi_lift``,
    ``random_doubling_element`` or (outside the base pool)
    ``generalized_kronecker`` after the previous sample's construction.
    Its outcome follows from the calls that come next: a construction error,
    no ``is_hadamard`` call (duplicate group), ``is_hadamard`` false, or
    true, after which the sample is classified and either accepted or a
    duplicate key; ``close`` tells those two apart by the returned list.
    """

    def __init__(self, calibrator, tracer: Optional[Tracer] = None) -> None:
        self.calibrator = calibrator  # calibrates between samples when due
        self.tracer = tracer  # if given, its op id follows the sample number
        self.start = perf_counter()  # the first sample also carries the pool's build
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.marks: List[int] = [calibrator.index]
        self.outcomes: List[str] = []
        self._state: Optional[str] = None  # None, "open", then an outcome
        self._in_pool = False
        self._patches: Optional[_Patches] = None

    def _begin(self) -> None:
        if self._state != "open":
            now = perf_counter()
            if self._state is not None:
                self.ends.append(now)
                self._finish()
                self.calibrator.due()
                self.marks.append(self.calibrator.index)
            if self.tracer is not None:
                self.tracer.op = len(self.starts)
            self.starts.append(perf_counter() if self.starts else self.start)
            self._state = "open"

    def _finish(self) -> None:
        self.outcomes.append("built" if self._state == "open" else self._state)
        self._state = None

    def _marker(self, fn: Callable, constructs: bool) -> Callable:
        import z2z4q8.constructions as constructions

        probe = self

        def wrapper(*args, **kwargs):
            if probe._in_pool:
                return fn(*args, **kwargs)
            probe._begin()
            try:
                result = fn(*args, **kwargs)
            except (constructions.ConstructionError, ValueError):
                probe._state = "construction_error"
                raise
            if constructs:
                probe._state = "built"
            return result

        return wrapper

    def install(self) -> None:
        # the package re-exports the function search(), which hides the module
        search = importlib.import_module("z2z4q8.search")
        probe = self
        patches = _Patches()
        base = search._random_abelian_base

        def pool(*args, **kwargs):
            probe._in_pool = True
            try:
                return base(*args, **kwargs)
            finally:
                probe._in_pool = False

        is_hadamard = search.is_hadamard

        def hadamard(C):
            result = is_hadamard(C)
            probe._state = "classify" if result else "not_hadamard"
            return result

        patches.set(search, "_random_abelian_base", pool)
        patches.set(search, "xi_lift", self._marker(search.xi_lift, False))
        patches.set(search, "random_doubling_element", self._marker(search.random_doubling_element, False))
        patches.set(search, "extend", self._marker(search.extend, True))
        patches.set(search, "generalized_kronecker", self._marker(search.generalized_kronecker, True))
        patches.set(search, "is_hadamard", hadamard)
        self._patches = patches

    def remove(self) -> None:
        if self._patches is not None:
            self._patches.undo()
            self._patches = None

    def close(self, end: float, accepted: int) -> Tuple[List[float], List[int], Counter]:
        """Latency of every sample, its calibration index, and the outcomes.

        ``end`` is when ``search`` returned; ``accepted`` the length of its
        result list.  Samples that reached ``classify_shape`` and are not in
        the list were duplicates of an earlier key (``shape=None`` here, so
        the shape filter rejects nothing).
        """
        if self._state is not None:
            self.ends.append(end)
            self._finish()
        latencies = [b - a for a, b in zip(self.starts, self.ends)] or [end - self.start]
        outcomes = Counter(self.outcomes)
        classified = outcomes.pop("classify", 0)
        outcomes["accepted"] = accepted
        outcomes["duplicate_key"] = classified - accepted
        outcomes["duplicate_group"] = outcomes.pop("built", 0)
        return latencies, self.marks[: len(latencies)], outcomes
