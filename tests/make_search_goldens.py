"""Write ``tests/goldens/search.json`` from its pinned search runs.

    python3 tests/make_search_goldens.py

Run it only when a change to search's output is intended; the golden is
what makes such a change visible, and ``test_goldens`` reads it.  Each run
is search(length, shape=shape, seed=seed, budget=budget), and its result
lines are written in the format of ``perfbench/goldens/search-16.json``
(``perfbench/workloads.py`` ``format_found``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "goldens" / "search.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import format_found  # noqa: E402

from z2z4q8 import search  # noqa: E402

ABOUT = (
    "search(length, shape=shape, seed=seed, budget=budget) result lines, one per"
    " FoundCode, in the format of perfbench/goldens/search-16.json; shape is"
    " optional and absent means None"
)

# (length, seed, budget, shape); shape None is left out of the file
RUNS = [
    (32, 2, 300, None),
    (64, 1, 200, None),
    (8, 3, 60, None),
    (16, 7, 2500, None),
    (16, 0, 2500, None),
    (32, 5, 1500, None),
    (16, 0, 2500, 2),
    (128, 1, 200, None),
    (256, 1, 60, None),
]


def main() -> int:
    runs = []
    for length, seed, budget, shape in RUNS:
        run = {"length": length, "seed": seed, "budget": budget}
        if shape is not None:
            run["shape"] = shape
        run["results"] = format_found(search(length, shape=shape, seed=seed, budget=budget))
        runs.append(run)
    GOLDEN.write_text(json.dumps({"about": ABOUT, "runs": runs}, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
