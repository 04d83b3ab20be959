"""Calibration loop and the summary statistics the benchmark reports."""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import List, Sequence, Tuple

TAIL_MIN_BEYOND = 10
CALIBRATE_EVERY_S = 0.25
# About what calibrate() takes on the 2-core VM the benchmark was written
# on; set-up time is reported as setup / calibration * this.
CALIB_REFERENCE_S = 0.03

_Z4_ADD = tuple(tuple((x + y) % 4 for y in range(4)) for x in range(4))


def calibrate() -> float:
    """Seconds taken by a fixed piece of stdlib work.

    The work is the library's kind: a worklist closure of 512 tuples under
    a coordinatewise product, then sorting and set lookups over a few
    thousand tuples.  A loop over a small dict tracked the core's speed
    worse, since the slow phases of a shared core slow cache-hungry work
    most.  The garbage collector is off while it runs, so that its time
    does not depend on how many objects the process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        gens = [tuple(2 * (j % 9 == i) for j in range(32)) for i in range(9)]
        e = (0,) * 32
        seen = {e}
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple(_Z4_ADD[a][b] for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        rows = [tuple((i * 7 + j) & 7 for j in range(16)) + (i,) for i in range(3000)]
        table = set(rows)
        sum(1 for r in sorted(rows, key=lambda r: r[::-1]) if r in table)
        sorted(seen)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Calibrations interleaved with the work, about every quarter second.

    ``due()`` is called between operations (and search samples); it
    calibrates when ``every_s`` has passed since the last calibration.  An operation that started
    after calibration ``k`` is divided by the mean of calibrations ``k``
    and ``k + 1``, the two around it.
    """

    def __init__(self, every_s: float = CALIBRATE_EVERY_S) -> None:
        self.every_s = every_s
        self.values = [calibrate()]
        self._next = perf_counter() + every_s

    @property
    def index(self) -> int:
        return len(self.values) - 1

    def due(self) -> None:
        if perf_counter() >= self._next:
            self.take()

    def take(self) -> None:
        self.values.append(calibrate())
        self._next = perf_counter() + self.every_s

    def around(self, k: int) -> float:
        return (self.values[k] + self.values[k + 1]) / 2


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """(label, value) of the highest percentile with ten samples beyond it.

    Nearest rank: the value with exactly ten larger samples, labelled with
    its percentile.  Below twenty samples that percentile would not be
    above the median, and the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_MIN_BEYOND:
        return "max", ordered[-1]
    index = n - 1 - TAIL_MIN_BEYOND
    return f"p{100 * (index + 1) / n:.3g}", ordered[index]


def per_op_medians(runs: Sequence[Sequence[float]]) -> List[float]:
    """Median over repetitions of each operation's value.

    Every repetition runs the same operations in the same order (the chain
    with fresh draws of g), so the median across repetitions is each
    operation's latency with bursts of interference on a shared core voted
    out.
    """
    return [statistics.median(values) for values in zip(*runs)]
