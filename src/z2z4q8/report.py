"""The report of a code group (``analyze``) and its schema-stable JSON text."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from typing import List, Optional

from .hadamard import classify_shape, hadamard_bounds, is_hadamard
from .invariants import (
    BoundCheck,
    check_bounds,
    is_abelian,
    is_linear,
    kernel_dim,
    rank,
    weight_distribution,
)
from .subgroup import CodeGroup, code_type


def analyze(C: CodeGroup) -> dict:
    """The report of C: a plain dict with a fixed field set, each invariant
    read into it in turn, so the first stage that raises raises first.

    Fields are always present; shape, epsilon and normalized_generators
    are null for non-Hadamard inputs, and the bounds of a Hadamard input
    are the rows of ``check_bounds`` and then those of ``hadamard_bounds``.
    Each fact is read by its one route; the second routes are run by
    ``oracles.verify(C)``, which ``analyze --verify`` calls first.
    """
    payload = {
        "signature": {
            "k1": C.sig.k1,
            "k2": C.sig.k2,
            "k3": C.sig.k3,
            "n": C.sig.n,
            "l": C.sig.l,
        },
        "order": C.order,
        "type": list(code_type(C).as_tuple()),
        "rank": rank(C),
        "kernel_dim": kernel_dim(C),
        "is_linear": is_linear(C),
        "is_abelian": is_abelian(C),
        "is_hadamard": is_hadamard(C),
        "shape": None,
        "epsilon": None,
        "weight_distribution": {
            str(w): c for w, c in sorted(weight_distribution(C).items())
        },
        "bounds": list(map(_row, check_bounds(C).checks)),
        "normalized_generators": None,
    }
    if payload["is_hadamard"]:
        shape = classify_shape(C)
        payload["shape"] = shape.tag
        payload["epsilon"] = shape.epsilon
        payload["normalized_generators"] = {
            "xs": [" ".join(w.tokens()) for w in shape.witness.xs],
            "ys": [" ".join(w.tokens()) for w in shape.witness.ys],
            "zs": [" ".join(w.tokens()) for w in shape.witness.zs],
            "structure": shape.structure,
        }
        payload["bounds"] += map(_row, hadamard_bounds(C).checks)
    return payload


def _row(c: BoundCheck) -> dict:
    return {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok}


_FIELDS = frozenset({
    "bounds", "epsilon", "is_abelian", "is_hadamard", "is_linear",
    "kernel_dim", "normalized_generators", "order", "rank", "shape",
    "signature", "type", "weight_distribution",
})

# The layout of json.dumps(indent=2, sort_keys=True): keys in string order,
# two spaces per level.
_REPORT = """{
  "bounds": %s,
  "epsilon": %s,
  "is_abelian": %s,
  "is_hadamard": %s,
  "is_linear": %s,
  "kernel_dim": %d,
  "normalized_generators": %s,
  "order": %d,
  "rank": %d,
  "shape": %s,
  "signature": {
    "k1": %d,
    "k2": %d,
    "k3": %d,
    "l": %d,
    "n": %d
  },
  "type": %s,
  "weight_distribution": %s
}
"""
_BOUND = """{
      "lhs": %d,
      "name": %s,
      "ok": %s,
      "rhs": %d
    }"""
_GENERATORS = """{
    "structure": %s,
    "xs": %s,
    "ys": %s,
    "zs": %s
  }"""


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _optional_int(value: Optional[int]) -> str:
    return "null" if value is None else "%d" % value


def _block(items: List[str], depth: int, brackets: str = "[]") -> str:
    """JSON texts ``items`` as one member a line between ``brackets``, the
    closing one at ``depth`` spaces."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def render_json(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
    for a payload that ``analyze`` returns, written from fixed templates.

    The payload must have exactly the field set of ``analyze`` with its
    value types: ints, bools, None where ``analyze`` allows it, and str
    names and generators, escaped to ASCII as ``json.dumps`` does.  A
    payload with other top-level fields raises ``ValueError``.
    """
    if payload.keys() != _FIELDS:
        raise ValueError(
            "render_json takes an analyze() payload; fields differ by "
            f"{sorted(payload.keys() ^ _FIELDS)}"
        )
    normalized = payload["normalized_generators"]
    if normalized is not None:
        normalized = _GENERATORS % (
            _string(normalized["structure"]),
            _block([_string(w) for w in normalized["xs"]], 4),
            _block([_string(w) for w in normalized["ys"]], 4),
            _block([_string(w) for w in normalized["zs"]], 4),
        )
    else:
        normalized = "null"
    sig = payload["signature"]
    return _REPORT % (
        _block([
            _BOUND % (b["lhs"], _string(b["name"]), _bool(b["ok"]), b["rhs"])
            for b in payload["bounds"]
        ], 2),
        _optional_int(payload["epsilon"]),
        _bool(payload["is_abelian"]),
        _bool(payload["is_hadamard"]),
        _bool(payload["is_linear"]),
        payload["kernel_dim"],
        normalized,
        payload["order"],
        payload["rank"],
        _optional_int(payload["shape"]),
        sig["k1"], sig["k2"], sig["k3"], sig["l"], sig["n"],
        _block(["%d" % t for t in payload["type"]], 2),
        _block([
            "%s: %d" % (_string(w), c)
            for w, c in sorted(payload["weight_distribution"].items())
        ], 2, "{}"),
    )


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
