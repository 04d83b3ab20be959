"""Line-oriented generator files: `sig k1 k2 k3` then `gen t1 .. tl` lines."""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .groups import GroupSignature, GroupWord, parse_value


class ParseError(ValueError):
    """Parse failure with 1-based line and column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize(line: str) -> List[Tuple[str, int]]:
    """Whitespace-separated tokens with their 1-based column."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_word(
    sig: GroupSignature, tokens: List[Tuple[str, int]], line: int, column: int
) -> GroupWord:
    """One word from (token, column) pairs; ``column`` locates a count error."""
    if len(tokens) != sig.l:
        raise ParseError(
            f"expected {sig.l} coordinate tokens, got {len(tokens)}", line, column
        )
    coords = []
    start = 0
    for kind, count in (("z2", sig.k1), ("z4", sig.k2), ("q8", sig.k3)):
        for token, col in tokens[start : start + count]:
            try:
                coords.append(parse_value(kind, token))
            except ValueError as exc:
                raise ParseError(str(exc), line, col) from exc
        start += count
    return GroupWord(sig, tuple(coords))


def parse_generators(text: str) -> Tuple[GroupSignature, List[GroupWord]]:
    """Parse a generator file into its signature and generator words."""
    sig: Optional[GroupSignature] = None
    gens: List[GroupWord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line.split("#", 1)[0])
        if not tokens:
            continue
        keyword, col0 = tokens[0]
        args = tokens[1:]
        if keyword == "sig":
            if sig is not None:
                raise ParseError("duplicate sig line", lineno, col0)
            if len(args) != 3:
                raise ParseError(
                    f"sig needs 3 counts, got {len(args)}", lineno, col0
                )
            counts = []
            for token, col in args:
                if not token.isdigit():
                    raise ParseError(f"invalid count {token!r}", lineno, col)
                counts.append(int(token))
            try:
                sig = GroupSignature(*counts)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col0) from exc
        elif keyword == "gen":
            if sig is None:
                raise ParseError("gen line before sig line", lineno, col0)
            gens.append(_parse_word(sig, args, lineno, col0))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, col0)
    if sig is None:
        raise ParseError("missing sig line", 1, 1)
    if not gens:
        raise ParseError("no gen lines", 1, 1)
    return sig, gens


def format_generators(
    sig: GroupSignature,
    words: List[GroupWord],
    comment: Optional[str] = None,
) -> str:
    """Render a generator file; parse(format(...)) round-trips."""
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"sig {sig.k1} {sig.k2} {sig.k3}")
    for w in words:
        if w.sig != sig:
            raise ValueError(f"word signature {w.sig} does not match {sig}")
        lines.append("gen " + " ".join(w.tokens()))
    return "\n".join(lines) + "\n"


def parse_element(text: str, sig: GroupSignature) -> GroupWord:
    """Parse one element literal: whitespace-separated coordinate tokens."""
    return _parse_word(sig, _tokenize(text), 1, 1)
