"""The four workloads: seeded inputs, one timed pass, and output checks.

Every pass starts from generator words, never from a ``CodeGroup`` built
earlier, since a group caches what it has computed and a repeated analysis
would cost almost nothing.  Library functions are looked up on their module
at call time, so a traced run sees the wrappers ``tracer.Tracer`` installs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import z2z4q8
import z2z4q8.fixtures as fixture_cases
from z2z4q8 import GroupSignature, GroupWord, identity, word

from timing import Calibrator
from tracer import SearchProbe

DEFAULT_SEED = 1  # the seed the goldens were written with
GOLDENS = Path(__file__).resolve().parent / "goldens"
MAX_PROBLEMS = 10  # failure messages kept per run


@dataclass
class Pass:
    """One timed repetition: per-op latencies, their calibrations, outputs."""

    op_seconds: List[float]
    op_calib: List[float]  # the calibration time around each op
    outputs: List[object]  # one per op; an exception if the op raised
    outcomes: Dict[str, int] = field(default_factory=dict)  # search only
    variant: int = 0  # which seeded draw of inputs the pass ran, if they vary

    @property
    def seconds(self) -> float:
        """Wall time of the pass, calibrations left out."""
        return sum(self.op_seconds)

    @property
    def norm(self) -> float:
        """Pass time in units of the calibration time."""
        return sum(t / c for t, c in zip(self.op_seconds, self.op_calib))


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(message)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: MAX_PROBLEMS - len(self.problems)]


def run_ops(ops: Sequence[Callable[[], object]], calibrator: Optional[Calibrator] = None, tracer=None) -> Pass:
    """Run ops back to back (one caller, closed loop) and time each."""
    calibrator = calibrator or Calibrator()
    outputs: List[object] = []
    times: List[float] = []
    marks: List[int] = []
    for index, op in enumerate(ops):
        calibrator.due()
        marks.append(calibrator.index)
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        try:
            out = op()
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    calibrator.take()
    return Pass(times, [calibrator.around(k) for k in marks], outputs)


def analyze_words(gens: Sequence[GroupWord]) -> str:
    return z2z4q8.render_json(z2z4q8.analyze(z2z4q8.generate(gens)))


def report_problems(text: str) -> List[str]:
    """Checks that hold for every report, whatever the seed."""
    payload = json.loads(text)
    problems = []
    bad = [b["name"] for b in payload["bounds"] if not b["ok"]]
    if bad:
        problems.append(f"failed bounds: {bad}")
    if payload["order"] != 2 ** sum(payload["type"]):
        problems.append(f"|C|={payload['order']} != 2^(sigma+delta+rho), type {payload['type']}")
    if payload["is_hadamard"]:
        n = payload["signature"]["n"]
        want = {"0": 1, str(n // 2): 2 * n - 2, str(n): 1}
        if payload["weight_distribution"] != want:
            problems.append(f"Hadamard weights {payload['weight_distribution']} != {want}")
    return problems


def load_goldens(name: str, directory: Optional[Path], applies: bool = True) -> Optional[dict]:
    """The workload's goldens, or None where they do not apply (or directory is None)."""
    if directory is None or not applies:
        return None
    return json.loads((directory / f"{name}.json").read_text())


def _check_text(verdict: Verdict, label: str, out: object, golden: Optional[str], extra=()) -> None:
    if isinstance(out, Exception):
        verdict.record(False, f"{label}: {type(out).__name__}: {out}")
        return
    problems = report_problems(out) + list(extra)
    if golden is not None and out != golden:
        problems.append("differs from the golden report")
    verdict.record(not problems, f"{label}: {'; '.join(problems)}")


class Workload:
    name = ""
    why = ""
    # --seconds / nominal_pass_s passes make a run; the nominal times are a
    # little above a pass on a slow phase of the 2-core VM this was written on
    nominal_pass_s = 1.0

    def make_inputs(self, seed: int, tiny: bool = False, goldens_dir: Optional[Path] = GOLDENS):
        raise NotImplementedError

    def run_pass(self, inputs, calibrator: Optional[Calibrator] = None, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, inputs, result: Pass) -> Verdict:
        raise NotImplementedError

    def signatures(self) -> List[GroupSignature]:
        """Signatures whose lookup tables set-up warms."""
        return []


# ---------------------------------------------------------------------------
# fixtures: every shipped .gens file, then reproduce() case by case
# ---------------------------------------------------------------------------


def fixture_names() -> List[str]:
    folder = resources.files("z2z4q8").joinpath("fixtures")
    return sorted(p.name[: -len(".gens")] for p in folder.iterdir() if p.name.endswith(".gens"))


def _fixture_text_or_empty(name: str) -> str:
    try:
        return fixture_cases.fixture_text(name)
    except FileNotFoundError:
        return ""


@dataclass
class FixtureInputs:
    files: List[Tuple[str, str]]  # (fixture name, generator-file text)
    cases: List[str]
    goldens: Optional[dict]


class Fixtures(Workload):
    name = "fixtures"
    why = "the 21 shipped codes and the 24 reproduce cases (|C| <= 128): per-call overhead, shapes, bound checklists"
    nominal_pass_s = 1.4

    def make_inputs(self, seed, tiny=False, goldens_dir=GOLDENS):
        rng = random.Random(seed)
        goldens = load_goldens(self.name, goldens_dir)
        names = set(fixture_names())
        cases = list(fixture_cases.fixtures())
        if goldens is not None:
            # a fixture or case that has gone missing still runs, and fails
            names |= set(goldens["reports"])
            cases += [c for c in goldens["cases"] if c not in cases]
        files = [(n, _fixture_text_or_empty(n)) for n in sorted(names)]
        rng.shuffle(files)
        rng.shuffle(cases)
        if tiny:
            files, cases = files[:3], cases[:2]
        return FixtureInputs(files, cases, goldens)

    def run_pass(self, inputs, calibrator=None, tracer=None):
        def parse_and_analyze(text):
            return lambda: analyze_words(z2z4q8.parse_generators(text)[1])

        def case(case_id):
            return lambda: fixture_cases.reproduce([case_id])[0]

        ops = [parse_and_analyze(t) for _, t in inputs.files]
        ops += [case(c) for c in inputs.cases]
        return run_ops(ops, calibrator, tracer)

    def check(self, inputs, result):
        verdict = Verdict()
        # reports do not depend on the seed, so the goldens hold for every seed
        goldens = inputs.goldens or {"reports": {}, "cases": inputs.cases}
        for (name, _), out in zip(inputs.files, result.outputs):
            golden = None if inputs.goldens is None else goldens["reports"].get(name, "")
            _check_text(verdict, name, out, golden)
        for case_id, out in zip(inputs.cases, result.outputs[len(inputs.files):]):
            ok = not isinstance(out, Exception) and out.ok and case_id in goldens["cases"]
            verdict.record(ok, f"reproduce {case_id}: {out if isinstance(out, Exception) else out.details}")
        return verdict

    def signatures(self):
        return [z2z4q8.parse_generators(fixture_cases.fixture_text(n))[0] for n in fixture_names()]


# ---------------------------------------------------------------------------
# kronecker-chain: generalized Kronecker doubling from two length-16 codes
# ---------------------------------------------------------------------------

CHAIN_STARTS = ("hadamard16_q8", "hadamard16_z2z4_delta2")
CHAIN_MAX_N = 256


@dataclass
class Chain:
    start: str
    gens: List[GroupWord]
    start_type: Tuple[int, int, int]
    start_rank: int
    steps: int


@dataclass
class ChainInputs:
    chains: List[Chain]
    seed: int
    goldens: Optional[dict]  # for pass 0 of the default seed
    passes_run: int = 0

    def exponents(self, p: int) -> List[List[Tuple[int, ...]]]:
        """Per chain and step, the exponent of each generator of the step's
        input group; g is their ordered product, so it lies in the group.

        Each pass draws afresh, so that a run's medians average over
        several g rather than hang on one draw.
        """
        rng = random.Random(self.seed if p == 0 else f"{self.seed}/{p}")
        return [
            [tuple(rng.randrange(4) for _ in range(len(c.gens) + i)) for i in range(c.steps)]
            for c in self.chains
        ]


def _product(gens: Sequence[GroupWord], exponents: Sequence[int]) -> GroupWord:
    g = identity(gens[0].sig)
    for w, e in zip(gens, exponents):
        g = g * w**e
    return g


class KroneckerChain(Workload):
    name = "kronecker-chain"
    why = "Kronecker doubling n=16..256 of a Q8 and a Z2/Z4 code, analysing every member: enumeration, span and kernel at scale"
    nominal_pass_s = 5.0

    def make_inputs(self, seed, tiny=False, goldens_dir=GOLDENS):
        max_n = 32 if tiny else CHAIN_MAX_N
        chains = []
        for start in CHAIN_STARTS:
            sig, gens = z2z4q8.parse_generators(fixture_cases.fixture_text(start))
            payload = z2z4q8.analyze(z2z4q8.generate(gens))
            steps = (max_n // sig.n).bit_length() - 1
            chains.append(Chain(start, gens, tuple(payload["type"]), payload["rank"], steps))
        goldens = load_goldens(self.name, goldens_dir, seed == DEFAULT_SEED and not tiny)
        return ChainInputs(chains, seed, goldens)

    def run_pass(self, inputs, calibrator=None, tracer=None):
        variant = inputs.passes_run
        inputs.passes_run += 1
        ops = []
        for chain, draws in zip(inputs.chains, inputs.exponents(variant)):
            state = {}

            def start(chain=chain, state=state):
                state["C"] = C = z2z4q8.generate(chain.gens)
                return z2z4q8.render_json(z2z4q8.analyze(C))

            def step(exponents, state=state):
                # a failed op leaves no group behind, so the rest of its chain fails too
                C = state.pop("C")
                D = z2z4q8.generalized_kronecker(C, _product(C.generators, exponents)).output
                state["C"] = D
                return z2z4q8.render_json(z2z4q8.analyze(D))

            ops.append(start)
            ops += [lambda e=e, step=step: step(e) for e in draws]
        result = run_ops(ops, calibrator, tracer)
        result.variant = variant
        return result

    def check(self, inputs, result):
        verdict = Verdict()
        outputs = iter(result.outputs)
        for chain in inputs.chains:
            want = (list(chain.start_type), chain.start_rank)
            n = chain.gens[0].sig.n
            for _ in range(chain.steps + 1):
                out = next(outputs)
                extra = []
                if not isinstance(out, Exception):
                    payload = json.loads(out)
                    if (payload["type"], payload["rank"]) != want:
                        extra.append(f"(type, rank) {payload['type'], payload['rank']} != {want}")
                    if not payload["is_hadamard"] or payload["signature"]["n"] != n:
                        extra.append(f"not a Hadamard code of length {n}")
                    (sigma, delta, rho), r = payload["type"], payload["rank"]
                    want = ([sigma + 1, delta, rho], r + 1)
                golden = None
                if inputs.goldens is not None and result.variant == 0:
                    golden = inputs.goldens[f"{chain.start}/n{n}"]
                _check_text(verdict, f"{chain.start} n={n}", out, golden, extra)
                n *= 2
        return verdict

    def signatures(self):
        out = []
        for start in CHAIN_STARTS:
            sig = z2z4q8.parse_generators(fixture_cases.fixture_text(start))[0]
            while sig.n <= CHAIN_MAX_N:
                out.append(sig)
                sig = sig.doubled()
        return out


# ---------------------------------------------------------------------------
# dense-subgroups: random non-Hadamard subgroups at n=16, 2^8 <= |C| <= 2^10
# ---------------------------------------------------------------------------

DENSE_SIGNATURES = (
    GroupSignature(2, 3, 2),
    GroupSignature(0, 2, 3),
    GroupSignature(4, 2, 2),
    GroupSignature(0, 0, 4),
    GroupSignature(8, 4, 0),
)
DENSE_LOG2_ORDERS = (8, 9, 10)
DENSE_MAX_TRIES = 20000


@dataclass
class DenseInputs:
    groups: List[Tuple[str, List[GroupWord], int]]  # (label, generators, order)
    goldens: Optional[dict]


def _random_word(sig: GroupSignature, rng: random.Random) -> GroupWord:
    mods = [2] * sig.k1 + [4] * sig.k2 + [8] * sig.k3
    return word(sig, [rng.randrange(m) for m in mods])


class DenseSubgroups(Workload):
    name = "dense-subgroups"
    why = "random non-Hadamard subgroups at n=16 with 2^8..2^10 words, mostly linear: the |C|^2 kernel worst case, no Hadamard layer"
    nominal_pass_s = 6.0

    def make_inputs(self, seed, tiny=False, goldens_dir=GOLDENS):
        """One group per (signature, order), drawn by rejection on the order."""
        rng = random.Random(seed)
        signatures = DENSE_SIGNATURES[:2] if tiny else DENSE_SIGNATURES
        orders = (5,) if tiny else DENSE_LOG2_ORDERS
        groups = []
        for sig in signatures:
            wanted = {1 << k for k in orders}
            found = {}
            for _ in range(DENSE_MAX_TRIES):
                gens = [_random_word(sig, rng) for _ in range(rng.randint(3, 6))]
                try:
                    order = z2z4q8.generate(gens, max_order=max(wanted)).order
                except z2z4q8.EnumerationLimit:
                    continue
                if order in wanted and order not in found:
                    found[order] = gens
                    if len(found) == len(wanted):
                        break
            if len(found) != len(wanted):
                raise RuntimeError(f"no subgroup of {sig} with order in {sorted(wanted)} after {DENSE_MAX_TRIES} draws")
            for order in sorted(found):
                label = f"{sig.k1}-{sig.k2}-{sig.k3}/2^{order.bit_length() - 1}"
                groups.append((label, found[order], order))
        return DenseInputs(groups, load_goldens(self.name, goldens_dir, seed == DEFAULT_SEED and not tiny))

    def run_pass(self, inputs, calibrator=None, tracer=None):
        return run_ops([lambda gens=gens: analyze_words(gens) for _, gens, _ in inputs.groups], calibrator, tracer)

    def check(self, inputs, result):
        verdict = Verdict()
        for (label, _, order), out in zip(inputs.groups, result.outputs):
            extra = []
            if not isinstance(out, Exception):
                payload = json.loads(out)
                if payload["order"] != order or payload["is_hadamard"]:
                    extra.append(f"order {payload['order']} (want {order}), is_hadamard {payload['is_hadamard']}")
            golden = None if inputs.goldens is None else inputs.goldens[label]
            _check_text(verdict, label, out, golden, extra)
        return verdict

    def signatures(self):
        return list(DENSE_SIGNATURES)


# ---------------------------------------------------------------------------
# search-16: the seeded construction search of the CLI
# ---------------------------------------------------------------------------

SEARCH_LENGTH = 16
SEARCH_BUDGET = 2500
SEARCH_RANK_KERNEL = {(5, 5), (6, 3), (7, 2)}  # every Z2Z4Q8 Hadamard code of length 16


@dataclass
class SearchInputs:
    seed: int
    budget: int
    golden: Optional[List[str]]


def format_found(found) -> List[str]:
    return [
        f"sig {f.signature.k1} {f.signature.k2} {f.signature.k3} | type {f.type} | rank {f.rank}"
        f" | kernel {f.kernel_dim} | shape {f.shape} | " + "; ".join(" ".join(w.tokens()) for w in f.generators)
        for f in found
    ]


class Search16(Workload):
    name = "search-16"
    why = "search(16, seed, budget=2500) builds thousands of small codes, where the other workloads read existing ones"
    nominal_pass_s = 12.0

    def make_inputs(self, seed, tiny=False, goldens_dir=GOLDENS):
        goldens = load_goldens(self.name, goldens_dir, seed == DEFAULT_SEED and not tiny)
        return SearchInputs(seed, 30 if tiny else SEARCH_BUDGET, None if goldens is None else goldens["results"])

    def run_pass(self, inputs, calibrator=None, tracer=None):
        calibrator = calibrator or Calibrator()
        calibrator.due()
        probe = SearchProbe(calibrator, tracer)
        probe.install()
        try:
            try:
                out: object = z2z4q8.search(SEARCH_LENGTH, seed=inputs.seed, budget=inputs.budget)
            except Exception as exc:  # noqa: BLE001 - reported as failed samples
                out = exc
            end = perf_counter()
        finally:
            probe.remove()
        calibrator.take()
        latencies, marks, outcomes = probe.close(end, 0 if isinstance(out, Exception) else len(out))
        return Pass(latencies, [calibrator.around(k) for k in marks], [out], dict(outcomes))

    def check(self, inputs, result):
        verdict = Verdict()
        out = result.outputs[0]
        samples = len(result.op_seconds)
        if isinstance(out, Exception):
            verdict.attempted, verdict.failed = samples, samples
            verdict.problems.append(f"search raised {type(out).__name__}: {out}")
            return verdict
        accepted = len(out)
        for line, found in zip(format_found(out), out):
            C = z2z4q8.generate(found.generators)
            ok = (
                (found.rank, found.kernel_dim) in SEARCH_RANK_KERNEL
                and z2z4q8.is_hadamard(C)
                and (z2z4q8.code_type(C), z2z4q8.rank(C), z2z4q8.kernel_dim(C))
                == (found.type, found.rank, found.kernel_dim)
            )
            verdict.record(ok, f"search result does not check out: {line}")
        if inputs.golden is not None and format_found(out) != inputs.golden:
            verdict.failed += 1
            verdict.problems.append("search results differ from the golden list")
        verdict.attempted += samples - accepted  # rejected samples have no output to check
        return verdict

    def signatures(self):
        return [
            GroupSignature(n - 4 * k3 - 2 * k2, k2, k3)
            for n in (2, 4, 8, 16)
            for k3 in range(n // 4 + 1)
            for k2 in range((n - 4 * k3) // 2 + 1)
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fixtures(), KroneckerChain(), DenseSubgroups(), Search16())
}
