"""Shared test builders: small nilpotent algebras and complex structures.

Plain functions, not fixtures, because most tests want them with varying
parameters. Brackets are entered raw on purpose; the catalog module has its
own construction path and its own tests.
"""

import ast
from fractions import Fraction
from pathlib import Path

from nilcx.cxs import AlmostComplexStructure
from nilcx.lie import LieAlgebra
from nilcx.linalg import Matrix
from nilcx.scalars import gr


def unit(m, i):
    return tuple(gr(1) if c == i else gr(0) for c in range(m))


def h9():
    return LieAlgebra(6, {(1, 2): {3: 1}, (1, 3): {6: 1}, (2, 4): {6: 1}}, name="h9")


def h15():
    return LieAlgebra(
        6,
        {
            (1, 2): {4: -1},
            (1, 3): {5: 1},
            (2, 4): {5: 1},
            (1, 4): {6: -1},
            (2, 3): {6: 1},
        },
        name="h15",
    )


def n10():
    return LieAlgebra(
        10,
        {
            (1, 2): {4: 1, 5: 1, 9: -2},
            (1, 3): {4: -1, 8: 1, 9: 1},
            (2, 7): {4: -1, 8: 1, 9: 1},
            (1, 7): {5: 1, 8: 1, 9: -1},
            (2, 3): {5: -1, 8: -1, 9: 1},
            (1, 4): {6: 1},
            (1, 5): {6: 1},
            (2, 5): {6: 1},
            (2, 4): {6: -1},
            (1, 9): {6: 1},
            (2, 8): {6: -1},
            (4, 5): {6: 2},
            (4, 8): {6: -1},
            (5, 9): {6: -1},
            (4, 9): {6: 1},
            (5, 8): {6: -1},
            (8, 9): {6: 1},
        },
        name="n10",
    )


def filiform4():
    # smallest nilpotent algebra carrying a non-integrable J
    return LieAlgebra(4, {(1, 2): {3: 1}, (1, 3): {4: 1}})


def abelian(m):
    return LieAlgebra(m, {})


def pair_j(m, pairs):
    """J sending e_a -> e_b and e_b -> -e_a for each 0-based pair."""
    cols = [None] * m
    for a, b in pairs:
        cols[a] = unit(m, b)
        cols[b] = tuple(-x for x in unit(m, a))
    return AlmostComplexStructure(Matrix.from_columns(cols))


def j_std6():
    return pair_j(6, [(0, 1), (2, 3), (4, 5)])


def jst(s, t):
    """The two-parameter family on n10, built from partial images."""
    s, t = Fraction(s), Fraction(t)
    m = 10
    images = {
        0: unit(m, 1),
        3: unit(m, 4),
        7: unit(m, 8),
        2: tuple(gr(t) if c == 5 else (gr(s) if c == 6 else gr(0)) for c in range(m)),
        9: tuple(gr(-s) if c == 5 else (gr(-t) if c == 6 else gr(0)) for c in range(m)),
    }
    return AlmostComplexStructure.from_images(m, images)


def error_of(call):
    """(type, message) of the exception that call() raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def main_block_calls(path) -> set:
    """Names of the functions that the ``if __name__ == "__main__":`` block
    of the module at ``path`` calls."""
    tree = ast.parse(Path(path).read_text())
    test = "__name__ == '__main__'"
    blocks = [n for n in tree.body if isinstance(n, ast.If) and ast.unparse(n.test) == test]
    calls = [n for block in blocks for n in ast.walk(block) if isinstance(n, ast.Call)]
    return {n.func.id for n in calls if isinstance(n.func, ast.Name)}
