"""Helpers that only the commands on a Dolbeault complex share:
``cohomology``, ``kuranishi`` and ``abelian-locus``.

The choice of a structure block's complex and the printing of matrices.
They sit apart from ``cli_common`` so that ``validate``, ``series`` and
``catalog`` do not compile them.
"""

from __future__ import annotations

from .dolbeault import DolbeaultComplex
from .errors import PreconditionError


def open_complex(algebra, name: str, acs) -> DolbeaultComplex:
    """The Dolbeault complex of structure block ``name``; a refusal names the block."""
    try:
        return DolbeaultComplex(algebra, acs)
    except PreconditionError as exc:
        raise PreconditionError(f"structure {name}: {exc}") from None


def matrix_rows(m) -> list[list[str]]:
    return [[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def print_rows(rows: list[list[str]]) -> None:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        cells = " ".join(c.rjust(w) for c, w in zip(r, widths))
        print(f"  [{cells}]")
