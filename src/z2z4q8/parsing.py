"""Line-oriented generator files: `sig k1 k2 k3` then `gen t1 .. tl` lines."""

from __future__ import annotations

import re
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from .groups import GroupSignature, GroupWord, TokenError, word_from_tokens


class ParseError(ValueError):
    """Parse failure with 1-based line and column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _column(text: str, index: int) -> int:
    """1-based column of the whitespace-separated token ``index`` of text.

    Tokens are read with ``str.split``; a column is found only for an error.
    """
    return next(islice(re.finditer(r"\S+", text), index, None)).start() + 1


def _parse_word(
    sig: GroupSignature, tokens: Sequence[str], text: str, start: int, line: int
) -> GroupWord:
    """One word from ``tokens``, the tokens of ``text`` from index ``start``
    on.  A count error points at the token before them (a line's keyword),
    or at column 1 if there is none."""
    if len(tokens) != sig.l:
        message = f"expected {sig.l} coordinate tokens, got {len(tokens)}"
        raise ParseError(message, line, _column(text, start - 1) if start else 1)
    try:
        return word_from_tokens(sig, tokens)
    except TokenError as exc:
        raise ParseError(str(exc), line, _column(text, start + exc.index)) from exc


def parse_generators(text: str) -> Tuple[GroupSignature, List[GroupWord]]:
    """Parse a generator file into its signature and generator words."""
    sig: Optional[GroupSignature] = None
    gens: List[GroupWord] = []

    def error(message: str, index: int = 0) -> ParseError:
        return ParseError(message, lineno, _column(line, index))

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "sig":
            if sig is not None:
                raise error("duplicate sig line")
            if len(args) != 3:
                raise error(f"sig needs 3 counts, got {len(args)}")
            for index, token in enumerate(args, 1):
                if not token.isdigit():
                    raise error(f"invalid count {token!r}", index)
            try:
                sig = GroupSignature(*map(int, args))
            except ValueError as exc:
                raise error(str(exc)) from exc
        elif keyword == "gen":
            if sig is None:
                raise error("gen line before sig line")
            gens.append(_parse_word(sig, args, line, 1, lineno))
        else:
            raise error(f"unknown keyword {keyword!r}")
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
    """Render a generator file; parse(format(...)) round-trips, so an empty
    ``words``, which no generator file holds, raises ``ValueError``."""
    if not words:
        raise ValueError("a generator file needs at least one gen line")
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
    return _parse_word(sig, text.split(), text, 0, 1)
