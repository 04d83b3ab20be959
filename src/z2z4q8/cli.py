"""Command-line interface: analyze, construct, reproduce, search.

Exit codes: 0 success, 1 analysis/construction error, 2 parse error,
3 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import oracles
from .constructions import (
    ConstructionError,
    extend,
    generalized_kronecker,
    kronecker,
    xi_lift,
)
from .fixtures import fixtures, reproduce
from .parsing import ParseError, format_generators, parse_element, parse_generators
from .report import analyze, render_json, render_summary
from .search import search
from .subgroup import DEFAULT_MAX_ORDER, CodeGroup


def _load_group(path: str, max_order: int) -> CodeGroup:
    _, gens = parse_generators(Path(path).read_text(encoding="utf-8"))
    return CodeGroup.generate(gens, max_order)


def _cmd_analyze(args: argparse.Namespace) -> int:
    C = _load_group(args.file, args.max_order)
    if args.verify:
        oracles.verify(C)
    render = render_json if args.json else render_summary
    sys.stdout.write(render(analyze(C)))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.operation == "lift" and args.element is not None:
        raise ValueError("construct lift takes no --element")
    if args.operation != "extend" and args.lift_first:
        raise ValueError(f"--lift-first applies to extend only, not {args.operation}")
    C = _load_group(args.file, args.max_order)
    if args.operation == "lift":
        out = xi_lift(C)
    elif args.operation == "extend":
        if args.element is None:
            raise ConstructionError("extend requires --element")
        lifted = xi_lift(C) if args.lift_first else C
        out = extend(lifted, parse_element(args.element, lifted.sig), args.max_order)
    elif args.operation == "kronecker":
        if args.element is None:
            out = kronecker(C, args.max_order).output
        else:
            g = parse_element(args.element, C.sig)
            out = generalized_kronecker(C, g, args.max_order).output
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown operation {args.operation}")
    if args.json:
        sys.stdout.write(render_json(analyze(out)))
    else:
        sys.stdout.write(
            format_generators(
                out.sig, list(out.generators), comment=f"{args.operation} output"
            )
        )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.case == ["all"] or not args.case:
        case_ids = None
    else:
        case_ids = args.case
    results = reproduce(case_ids)
    failures = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        sys.stdout.write(f"{status} {result.case_id}\n")
        for line in result.details:
            sys.stdout.write(f"    {line}\n")
        failures += 0 if result.ok else 1
    sys.stdout.write(f"{len(results) - failures}/{len(results)} cases passed\n")
    return 3 if failures else 0


def _cmd_cases(_: argparse.Namespace) -> int:
    for case_id, fixture in fixtures().items():
        sys.stdout.write(f"{case_id}: {fixture.description}\n")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    found = search(
        length=args.length, shape=args.shape, seed=args.seed, budget=args.budget
    )
    for record in found:
        sys.stdout.write(
            f"type={record.type} rank={record.rank} kernel_dim={record.kernel_dim} "
            f"shape={record.shape} signature={record.signature}\n"
        )
        for g in record.generators:
            sys.stdout.write(f"    gen {' '.join(g.tokens())}\n")
    sys.stdout.write(f"{len(found)} distinct codes found\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2z4q8",
        description="Structure analysis and constructions for codes over "
        "Z2 x Z4 x Q8",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-order",
        type=int,
        default=DEFAULT_MAX_ORDER,
        help="enumeration size guard (default 2^20)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="analyze a generator file", parents=[common]
    )
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true", help="emit JSON")
    p_analyze.add_argument(
        "--verify",
        action="store_true",
        help="first run every second route to the reported facts "
        "(|C| <= 2^10)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_construct = sub.add_parser(
        "construct", help="run a construction", parents=[common]
    )
    p_construct.add_argument(
        "operation", choices=("lift", "extend", "kronecker")
    )
    p_construct.add_argument("file")
    p_construct.add_argument(
        "--element", help="element literal in the target signature"
    )
    p_construct.add_argument(
        "--lift-first",
        action="store_true",
        help="apply the doubling lift before extending",
    )
    p_construct.add_argument(
        "--json", action="store_true", help="emit the analysis of the result"
    )
    p_construct.set_defaults(func=_cmd_construct)

    p_repro = sub.add_parser("reproduce", help="run the reference fixtures")
    p_repro.add_argument("case", nargs="*", help="case ids (default: all)")
    p_repro.set_defaults(func=_cmd_reproduce)

    p_cases = sub.add_parser("cases", help="list fixture case ids")
    p_cases.set_defaults(func=_cmd_cases)

    p_search = sub.add_parser("search", help="seeded random construction search")
    p_search.add_argument("--length", type=int, required=True)
    p_search.add_argument("--shape", type=int, choices=range(1, 6))
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--budget", type=int, default=1000)
    p_search.set_defaults(func=_cmd_search)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (ConstructionError, ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
