"""Write the goldens the benchmark compares against, from the current code.

    python3 perfbench/make_goldens.py

Run it only when a change to the reports or to the search output is
intended; the goldens are what makes such a change visible.  Fixture
reports do not depend on the seed; the other goldens hold for the default
seed only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, GOLDENS, WORKLOADS, format_found  # noqa: E402


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        inputs = workload.make_inputs(DEFAULT_SEED, goldens_dir=None)
        result = workload.run_pass(inputs)
        verdict = workload.check(inputs, result)
        if verdict.failed:
            print(f"{workload.name}: checks fail, no golden written: {verdict.problems}", file=sys.stderr)
            return 1
        outputs = result.outputs
        if workload.name == "fixtures":
            golden = {
                "reports": {name: out for (name, _), out in zip(inputs.files, outputs)},
                "cases": sorted(inputs.cases),
            }
        elif workload.name == "kronecker-chain":
            golden, outs = {}, iter(outputs)
            for chain in inputs.chains:
                n = chain.gens[0].sig.n
                for _ in range(chain.steps + 1):
                    golden[f"{chain.start}/n{n}"] = next(outs)
                    n *= 2
        elif workload.name == "dense-subgroups":
            golden = {label: out for (label, _, _), out in zip(inputs.groups, outputs)}
        else:
            golden = {"results": format_found(outputs[0])}
        path = GOLDENS / f"{workload.name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
