"""One workload in a process of its own: set-up, seeded inputs, timed passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-only

run.py starts it; the last line it prints is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from timing import Calibrator, calibrate, per_op_medians, tail  # noqa: E402

START_NO_PASS_AFTER_S = 100  # keeps a run inside its 180 s limit on a slow core
TRACE_DIR = ROOT / ".perfbench"


def setup() -> float:
    """Import, fixture registry and lru-cache warm-up; returns seconds."""
    t0 = perf_counter()
    import z2z4q8.fixtures
    from z2z4q8.constructions import q8_automorphisms
    from z2z4q8.gray import _offsets
    from z2z4q8.groups import _tables

    from workloads import WORKLOADS

    z2z4q8.fixtures.fixtures()
    for workload in WORKLOADS.values():
        for sig in workload.signatures():
            _tables(sig)
            _offsets(sig)
    q8_automorphisms()
    return perf_counter() - t0


def run_passes(workload, inputs, passes, tracer=None, t_start=0.0):
    """Time ``passes`` repetitions, calibrating about once a second.

    Output checks run between repetitions, outside the timed region and
    outside the tracer.
    """
    from workloads import Verdict

    calibrator = Calibrator()
    results, verdict = [], Verdict()
    for p in range(passes):
        if results and perf_counter() - t_start > START_NO_PASS_AFTER_S:
            break
        if tracer is None:
            result = workload.run_pass(inputs, calibrator)
        else:
            tracer.pass_no = p
            with tracer:
                result = workload.run_pass(inputs, calibrator, tracer)
        verdict.merge(workload.check(inputs, result))
        results.append(result)
    return calibrator.values, results, verdict


def end_to_end(results, calib) -> tuple[dict, dict]:
    """Drift-corrected metrics, and the raw timings for the table.

    Every op is divided by the calibration time around it, so the corrected
    figures are in units of that time ("calib").  An op's latency is its
    median over the passes, which all run the same ops.
    """
    ops = per_op_medians([[t / c for t, c in zip(r.op_seconds, r.op_calib)] for r in results])
    raw_ops = per_op_medians([r.op_seconds for r in results])
    pass_norm = median([r.norm for r in results])
    pass_s = median([r.seconds for r in results])
    tail_label, tail_norm = tail(ops)
    metrics = {
        "pass_norm": pass_norm,
        "ops_per_calib": len(ops) / pass_norm,
        "op_p50_norm": median(ops),
        "op_tail_norm": tail_norm,
    }
    meta = {
        "calib_s": median(calib),
        "calibrations": len(calib),
        "passes": len(results),
        "op_samples": len(ops),
        "op_tail_percentile": tail_label,
        "raw": {
            "pass_s": pass_s,
            "ops_per_s": len(raw_ops) / pass_s,
            "op_p50_ms": 1000 * median(raw_ops),
            "op_tail_ms": 1000 * tail(raw_ops)[1],
        },
    }
    return metrics, meta


def search_metrics(results) -> dict:
    from tracer import REJECT_REASONS

    totals = Counter()
    attempts = 0
    for r in results:
        totals.update(r.outcomes)
        attempts += len(r.op_seconds) if r.outcomes else 0
    passes = len(results)
    out = {"search.attempts": attempts / passes}
    for reason in REJECT_REASONS:
        out[f"search.rejected.{reason}"] = totals[reason] / passes
    out["search.accepted_ratio"] = totals["accepted"] / attempts if attempts else 0.0
    return out


def per_layer(tracer, traced, base) -> dict:
    """Per-pass layer metrics, and the tracer's cost against the untraced passes."""
    metrics = tracer.layer_metrics(len(traced))
    metrics.update(search_metrics(traced))
    metrics["trace.overhead_ratio"] = median([r.norm for r in traced]) / median([r.norm for r in base])
    return metrics


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_s = setup()
    setup_calib_s = calibrate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calib_s": setup_calib_s}))
        return 0

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    passes = max(1, int(args.seconds // workload.nominal_pass_s))
    out = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s, "setup_calib_s": setup_calib_s}
    if args.trace:
        # an untraced baseline, then the traced passes; half the passes each
        half = max(1, passes // 2)
        _, base, verdict = run_passes(workload, inputs, half, t_start=t_start)
        tracer = Tracer()
        # fresh inputs, so that the traced passes run what the baseline ran
        inputs = workload.make_inputs(args.seed)
        _, traced, traced_verdict = run_passes(workload, inputs, half, tracer, t_start)
        verdict.merge(traced_verdict)
        metrics = per_layer(tracer, traced, base)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "fields": ["id", "parent", "pass", "op", "name", "start", "end"],
            "spans": tracer.spans,
        }))
        out["meta"] = {"passes": len(traced), "baseline_passes": len(base), "spans": str(trace_file.relative_to(ROOT))}
    else:
        calib, results, verdict = run_passes(workload, inputs, passes, t_start=t_start)
        metrics, out["meta"] = end_to_end(results, calib)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=verdict.attempted, failed=verdict.failed, problems=verdict.problems, metrics=metrics)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
