"""Line-oriented text format for algebras and their structures.

Layout, in order: one ``algebra NAME`` line, one ``dim M`` line, zero or
more ``bracket ei ej = c1*ek + c2*el ...`` lines with i < j, then zero or
more blocks of ``structure NAME`` followed by ``J ei = c*ej + ...`` lines.
Coefficients are integers or fractions ``p/q``; ``#`` starts a comment;
spacing within a line is free. Redundant image lines of J must agree with
the rest or parsing fails, so a file written by ``catalog.render``, which
emits every column of J, is self-checking on re-parse.

Syntax problems raise :class:`~nilcx.errors.ParseError` at the first
character of the token that broke the rule, or one past the line's end
when a token is missing; well-formed files with bad mathematics (Jacobi
failure, inconsistent J) raise :class:`~nilcx.errors.ValidationError`.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .cxs import AlmostComplexStructure
from .errors import ParseError, ValidationError
from .lie import LieAlgebra, validate_lie
from .scalars import ZERO, GaussianRational

_WORD_RE = re.compile(r"\s*(\S+)")
_NAME_RE = re.compile(r"\s*(\S+)\s*$")
_DIM_RE = re.compile(r"\s*(\d+)\s*$")
_BRACKET_HEAD_RE = re.compile(r"\s*e(\d+)\s+e(\d+)\s*=")
_J_HEAD_RE = re.compile(r"\s*e(\d+)\s*=")
_TERM_RE = re.compile(r"(-?\d+(?:/\d+)?)\s*\*\s*e(\d+)")


class AlgebraFile(namedtuple("AlgebraFile", "name algebra structures report")):
    """A parsed file; ``report`` is the parser's passing validation."""

    __slots__ = ()


def _stop(rest: str, base: int, word: str, most: int = 1) -> int:
    """Column of the token after up to ``most`` leading ``word`` tokens of ``rest``."""
    m = _WORD_RE.match(rest, re.match(rf"(?:\s*{word}(?!\S)){{0,{most}}}", rest).end())
    return base + (m.start(1) if m else len(rest)) + 1


def _parse_terms(text: str, lineno: int, base: int, dim: int) -> dict:
    """``c1*ek + c2*el ...`` into {k: GaussianRational}, 1-based targets."""
    out: dict = {}
    pos = 0
    expect_term = True
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if expect_term:
            m = _TERM_RE.match(text, pos)
            if not m:
                raise ParseError("expected a term like c*ek", lineno, base + pos + 1)
            k = int(m.group(2))
            if not 1 <= k <= dim:
                raise ParseError(
                    "vector index out of range", lineno, base + m.start(2)
                )
            if k in out:
                raise ParseError("repeated target index", lineno, base + m.start(2))
            try:
                out[k] = GaussianRational(m.group(1))
            except ZeroDivisionError:
                raise ParseError("zero denominator", lineno, base + m.start(1) + 1) from None
            pos = m.end()
            expect_term = False
        elif text[pos] == "+":
            pos += 1
            expect_term = True
        else:
            raise ParseError("expected '+'", lineno, base + pos + 1)
    if expect_term:
        raise ParseError("expected a term like c*ek", lineno, base + pos + 1)
    return out


def parse_text(text: str) -> AlgebraFile:
    name = None
    dim = None
    brackets: dict = {}
    blocks: list = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        head = _WORD_RE.match(line)
        keyword = head.group(1)
        col = head.start(1) + 1
        rest = line[head.end() :]
        base = head.end()
        if keyword == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra line", lineno, col)
            m = _NAME_RE.match(rest)
            if not m:
                raise ParseError("algebra needs a single name", lineno, _stop(rest, base, r"\S+"))
            name = m.group(1)
        elif keyword == "dim":
            if name is None:
                raise ParseError("dim before algebra line", lineno, col)
            if dim is not None:
                raise ParseError("duplicate dim line", lineno, col)
            m = _DIM_RE.match(rest)
            if not m or int(m.group(1)) < 1:
                at = _stop(rest, base, r"0*[1-9]\d*")
                raise ParseError("dim needs a positive integer", lineno, at)
            dim = int(m.group(1))
        elif keyword == "bracket":
            if dim is None:
                raise ParseError("bracket before dim line", lineno, col)
            if blocks:
                raise ParseError("bracket after a structure block", lineno, col)
            m = _BRACKET_HEAD_RE.match(rest)
            if not m:
                at = _stop(rest, base, r"e\d+", 2)
                raise ParseError("expected: bracket ei ej = terms", lineno, at)
            i, j = int(m.group(1)), int(m.group(2))
            if not 1 <= i <= dim or not 1 <= j <= dim:
                at = base + m.start(1 if not 1 <= i <= dim else 2)
                raise ParseError("vector index out of range", lineno, at)
            if i >= j:
                raise ParseError("bracket needs i < j", lineno, base + m.start(1))
            if (i, j) in brackets:
                raise ParseError("duplicate bracket", lineno, base + m.start(1))
            brackets[(i, j)] = _parse_terms(
                rest[m.end() :], lineno, base + m.end(), dim
            )
        elif keyword == "structure":
            if dim is None:
                raise ParseError("structure before dim line", lineno, col)
            m = _NAME_RE.match(rest)
            if not m:
                raise ParseError("structure needs a single name", lineno, _stop(rest, base, r"\S+"))
            if any(b[0] == m.group(1) for b in blocks):
                raise ParseError("duplicate structure name", lineno, base + m.start(1) + 1)
            blocks.append((m.group(1), lineno, {}))
        elif keyword == "J":
            if not blocks:
                raise ParseError("J line outside a structure block", lineno, col)
            m = _J_HEAD_RE.match(rest)
            if not m:
                raise ParseError("expected: J ei = terms", lineno, _stop(rest, base, r"e\d+"))
            i = int(m.group(1))
            if not 1 <= i <= dim:
                raise ParseError("vector index out of range", lineno, base + m.start(1))
            images = blocks[-1][2]
            if i in images:
                raise ParseError("repeated J image", lineno, base + m.start(1))
            images[i] = _parse_terms(rest[m.end() :], lineno, base + m.end(), dim)
        else:
            raise ParseError(f"unknown keyword '{keyword}'", lineno, col)
    tail = max(1, len(lines))
    if name is None:
        raise ParseError("missing algebra line", tail, 1)
    if dim is None:
        raise ParseError("missing dim line", tail, 1)
    algebra = LieAlgebra(dim, brackets, name=name)
    report = validate_lie(algebra)
    if not report.ok:
        raise ValidationError(f"algebra fails validation: {report.errors[0]}")
    structures = []
    for sname, sline, images in blocks:
        if not images:
            raise ValidationError(f"structure {sname} has no J lines")
        cols = {
            i - 1: tuple(terms.get(k, ZERO) for k in range(1, dim + 1))
            for i, terms in images.items()
        }
        try:
            structures.append((sname, AlmostComplexStructure.from_images(dim, cols)))
        except ValidationError as exc:
            raise ValidationError(f"structure {sname} (line {sline}): {exc}") from None
    return AlgebraFile(
        name=name, algebra=algebra, structures=tuple(structures), report=report
    )


def parse(path) -> AlgebraFile:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read())
