"""Schema-stable JSON reports for analyzed code groups."""

from __future__ import annotations

import json
from typing import Optional

from . import oracles
from .hadamard import classify_shape, hadamard_bounds
from .invariants import structure_report
from .subgroup import CodeGroup


def analyze(C: CodeGroup, verify: bool = False) -> dict:
    """Full analysis pipeline as a plain dict with a fixed field set.

    Fields are always present; shape, epsilon and normalized_generators
    are null for non-Hadamard inputs.  With ``verify`` every pair of routes
    runs first (``oracles.verify``), so a disagreement raises before any
    report is built; the report itself does not depend on it.
    """
    if verify:
        oracles.verify(C)
    report = structure_report(C)
    shape = None
    epsilon: Optional[int] = None
    normalized = None
    bounds = report.bounds
    if report.is_hadamard:
        shape_obj = classify_shape(C)
        shape = shape_obj.tag
        epsilon = shape_obj.witness.epsilon
        normalized = {
            "xs": [" ".join(w.tokens()) for w in shape_obj.witness.xs],
            "ys": [" ".join(w.tokens()) for w in shape_obj.witness.ys],
            "zs": [" ".join(w.tokens()) for w in shape_obj.witness.zs],
            "structure": shape_obj.structure,
        }
        bounds = bounds + hadamard_bounds(C, shape_obj)
    return {
        "signature": {
            "k1": C.sig.k1,
            "k2": C.sig.k2,
            "k3": C.sig.k3,
            "n": C.sig.n,
            "l": C.sig.l,
        },
        "order": C.order,
        "type": list(report.type.as_tuple()),
        "rank": report.rank,
        "kernel_dim": report.kernel_dim,
        "is_linear": report.is_linear,
        "is_abelian": report.is_abelian,
        "is_hadamard": report.is_hadamard,
        "shape": shape,
        "epsilon": epsilon,
        "weight_distribution": {
            str(w): c for w, c in sorted(report.weight_distribution.items())
        },
        "bounds": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok}
            for c in bounds.checks
        ],
        "normalized_generators": normalized,
    }


def render_json(payload: dict) -> str:
    """Deterministic JSON text (sorted keys, fixed separators)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_summary(payload: dict) -> str:
    """Short human-readable summary of an analysis payload."""
    sig = payload["signature"]
    lines = [
        f"signature      Z2^{sig['k1']} x Z4^{sig['k2']} x Q8^{sig['k3']}"
        f"  (binary length {sig['n']})",
        f"order          {payload['order']}",
        f"type           {tuple(payload['type'])}",
        f"rank           {payload['rank']}",
        f"kernel_dim     {payload['kernel_dim']}",
        f"linear         {payload['is_linear']}",
        f"abelian        {payload['is_abelian']}",
        f"hadamard       {payload['is_hadamard']}",
    ]
    if payload["shape"] is not None:
        lines.append(f"shape          {payload['shape']}")
        lines.append(f"epsilon        {payload['epsilon']}")
        lines.append(
            f"structure      {payload['normalized_generators']['structure']}"
        )
    dist = ", ".join(
        f"{w}:{c}" for w, c in sorted(
            payload["weight_distribution"].items(), key=lambda kv: int(kv[0])
        )
    )
    lines.append(f"weights        {dist}")
    bad = [b for b in payload["bounds"] if not b["ok"]]
    lines.append(f"bounds         {len(payload['bounds']) - len(bad)} ok, {len(bad)} failed")
    for b in bad:
        lines.append(f"  FAILED: {b['name']} (lhs={b['lhs']}, rhs={b['rhs']})")
    return "\n".join(lines) + "\n"
