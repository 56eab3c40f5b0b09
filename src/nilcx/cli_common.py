"""Helpers that the CLI handler modules share.

The JSON schema version and writer, the choice of a structure block, and
the reading of rational arguments. They sit apart from ``cli`` so that no
handler imports ``cli``, which under ``python -m nilcx.cli`` would compile
and run it a second time. The helpers of the commands on a Dolbeault
complex are in ``cli_complex``.
"""

from __future__ import annotations

from .errors import ValidationError
from .scalars import GaussianRational, scalar

SCHEMA = 1


def parse_rational(tok: str) -> GaussianRational:
    try:
        return scalar(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational number: {tok.strip()!r}") from None


def pick_structure(af, wanted: str | None):
    """(name, structure) of the block named ``wanted`` of a parsed file, or its first."""
    if not af.structures:
        raise ValidationError("file has no structure block")
    if wanted is None:
        return af.structures[0]
    for name, acs in af.structures:
        if name == wanted:
            return name, acs
    raise ValidationError(f"no structure named {wanted}")


# json.dumps's ensure_ascii escapes; other controls, U+007F and non-ASCII
# characters are written as \uXXXX (astral ones as a surrogate pair)
_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"
}


def _quote(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    out = []
    for ch in s:
        n = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= n < 0x7F:
            out.append(ch)
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:
            n -= 0x10000
            out.append(f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _encode(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_encode, value)) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_quote(k)}:{_encode(v)}" for k, v in sorted(value.items())) + "}"
    # the handlers write only these types, str keys and ints; int.__repr__
    # raises TypeError on anything else
    return int.__repr__(value)


def emit_json(payload: dict) -> None:
    """Print payload as json.dumps(payload, sort_keys=True,
    separators=(",", ":")) would, without importing json."""
    print(_encode(payload))
