"""Helpers that every CLI handler shares.

The JSON schema version and writer, the choice of a structure block, and
the reading of rational arguments. They sit apart from ``cli`` so that
``complex_cli`` can use them without importing ``cli``, which under
``python -m nilcx.cli`` would compile and run it a second time.
"""

from __future__ import annotations

from .algfile import AlgebraFile
from .errors import ValidationError
from .scalars import GaussianRational

SCHEMA = 1


def parse_rational(tok: str) -> GaussianRational:
    try:
        return GaussianRational(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational number: {tok.strip()!r}") from None


def pick_structure(af: AlgebraFile, wanted: str | None):
    if not af.structures:
        raise ValidationError("file has no structure block")
    if wanted is None:
        return af.structures[0]
    for name, acs in af.structures:
        if name == wanted:
            return name, acs
    raise ValidationError(f"no structure named {wanted}")


def emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
