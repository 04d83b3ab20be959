"""Benchmark of the z2z4q8 library: seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a child process of its own (worker.py), one after the
other, so that no more than two processes share the cores and peak memory is
per workload.  Set-up is timed in several fresh processes and reported as
the median.  The last line printed is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a table.
With --trace 1 the metrics are the per-layer ones of a traced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from timing import CALIB_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("fixtures", "kronecker-chain", "dense-subgroups", "search-16")
SETUP_PROBES = 5  # extra processes that only set up
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "pass_norm": "calib",
    "ops_per_calib": "1/calib",
    "op_p50_norm": "calib",
    "op_tail_norm": "calib",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {"pass_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


def run_child(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    probes = [run_child(["--setup-only"]) for _ in range(SETUP_PROBES)]
    out = run_child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    probes.append({"setup_s": out["setup_s"], "calib_s": out["setup_calib_s"]})
    meta = out["meta"]
    meta["setup_samples"] = len(probes)
    meta["setup_raw_s"] = median(p["setup_s"] for p in probes)
    if trace:
        out["units"] = {k: layer_unit(k) for k in out["metrics"]}
    else:
        # drift-corrected like the timings, but kept in (reference) seconds
        out["metrics"]["setup_s"] = CALIB_REFERENCE_S * median(p["setup_s"] / p["calib_s"] for p in probes)
        out["metrics"]["peak_rss_mb"] = out["peak_rss_mb"]
        out["units"] = END_TO_END_UNITS
    return out


def print_table(out: dict, trace: int) -> None:
    meta = out["meta"]
    print(f"== {out['workload']} (seed {out['seed']}, {'traced' if trace else 'untraced'})")
    notes = {
        "pass_norm": f"median of {meta['passes']} passes, each / its calibration",
        "op_p50_norm": f"median of {meta.get('op_samples')} ops, each its median over the passes",
        "op_tail_norm": f"{meta.get('op_tail_percentile')} of the same {meta.get('op_samples')} ops",
        "ops_per_calib": "ops per pass / pass_norm",
        "setup_s": f"median of {meta['setup_samples']} processes, / calibration * {CALIB_REFERENCE_S} s",
    }
    rows = [(k, v, out["units"][k], notes.get(k, "")) for k, v in out["metrics"].items()]
    if not trace:
        rows += [(k, v, RAW_UNITS[k], "raw") for k, v in meta["raw"].items()]
        rows.append(("setup_raw_s", meta["setup_raw_s"], "s", "raw"))
        rows.append(("calib_s", meta["calib_s"], "s", "run metadata: median calibration time"))
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    rows.append(("failed_ratio", ratio, "ratio", f"{out['failed']} of {out['attempted']} ops"))
    for key, value, unit, note in rows:
        print(f"  {key:<48} {value:>14.6g} {unit:<7} {note}")
    for problem in out["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "z2z4q8" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(out, args.trace)
            attempted += out["attempted"]
            failed += out["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in out["metrics"].items():
                metrics[prefix + key] = {"value": value, "unit": out["units"][key]}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
