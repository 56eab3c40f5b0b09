"""Built-in algebras and complex structures, exposed by name.

Four families: the two six-dimensional three-step algebras carrying
abelian structures, a ten-dimensional algebra with a two-parameter
structure family, and even-dimensional abelian algebras with the standard
pairing structure. The ten-dimensional entry is entered through its
coframe differentials, exactly as the source tables display them, and
turned into brackets by a change of sign. Turning the brackets back into
differentials only undoes that sign, so such a round trip cannot catch a
transcription slip. The check that can is the Jacobi identity: flipping
the sign of any one coefficient of the n10 table, or deleting or doubling
it, breaks Jacobi. The test suite runs it on every entry
(``tests/reference.py::verify_entry``) and recomputes each fact of the
entry's expected-facts record from the live objects. Nothing in the
package reads those records back or checks a table at run time; perfbench
checks its jobs against the records too.

The ``.alg`` writer (:func:`render`) is here too: ``catalog`` is the only
command that writes a file, so the other commands do not compile it.
"""

from __future__ import annotations

from .cxs import AlmostComplexStructure
from .errors import Frozen, ValidationError
from .lie import LieAlgebra
from .linalg import Matrix
from .scalars import ONE, ZERO, GaussianRational, scalar

# the six-dimensional entries: bracket table and dim H^1
_SIX = {
    "h9": ({(1, 2): {3: 1}, (1, 3): {6: 1}, (2, 4): {6: 1}}, 3),
    "h15": (
        {(1, 2): {4: -1}, (1, 3): {5: 1}, (2, 4): {5: 1}, (1, 4): {6: -1}, (2, 3): {6: 1}},
        5,
    ),
}

# d e^m = sum over i < j of coeff * e^i ^ e^j, exactly as displayed in the
# source tables; keys absent from this dict have vanishing differential.
_N10_DIFFERENTIALS = {
    4: {(1, 2): -1, (1, 3): 1, (2, 7): 1},
    5: {(1, 2): -1, (1, 7): -1, (2, 3): 1},
    6: {
        (1, 4): -1, (1, 5): -1, (2, 5): -1, (2, 4): 1, (1, 9): -1, (2, 8): 1,
        (4, 5): -2, (4, 8): 1, (5, 9): 1, (4, 9): -1, (5, 8): 1, (8, 9): -1,
    },
    8: {(1, 7): -1, (2, 3): 1, (1, 3): -1, (2, 7): -1},
    9: {(1, 2): 2, (1, 7): 1, (2, 3): -1, (1, 3): -1, (2, 7): -1},
}

_N10_DIM = 10


class CatalogEntry(Frozen):
    """A named algebra with its structures and an expected-facts record.

    ``structures`` is an ordered tuple of (name, structure) pairs;
    ``structure_facts`` maps each name to the classifications it is
    expected to satisfy. ``params`` records constructor parameters for the
    parameterized families and is None otherwise.
    """

    __slots__ = ("name", "algebra", "structures", "facts", "structure_facts", "params")

    def __init__(
        self,
        name: str,
        algebra: LieAlgebra,
        structures: tuple,
        facts: dict,
        structure_facts: dict,
        params: tuple | None = None,
    ):
        self._set(
            name=name,
            algebra=algebra,
            structures=structures,
            facts=facts,
            structure_facts=structure_facts,
            params=params,
        )


def _rational(x, what: str) -> GaussianRational:
    """A real exact scalar, or ValidationError naming ``what``."""
    try:
        z = scalar(x)
        if z.is_real:
            return z
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"{what} must be rational")


def brackets_from_differentials(diffs: dict) -> dict:
    """Invert d e^m = -sum c^m_ij e^i ^ e^j into bracket coefficients."""
    out: dict = {}
    for m, table in diffs.items():
        for (i, j), c in table.items():
            out.setdefault((i, j), {})[m] = -c
    return out


def standard_pairing(dim: int) -> AlmostComplexStructure:
    """J pairing consecutive basis vectors of an even-dimensional space:
    e_odd -> e_even -> -e_odd."""
    cols = []
    for k in range(0, dim, 2):
        cols.append(tuple(ONE if c == k + 1 else ZERO for c in range(dim)))
        cols.append(tuple(-ONE if c == k else ZERO for c in range(dim)))
    return AlmostComplexStructure(Matrix.from_columns(cols))


def _n10_structure(s: GaussianRational, t: GaussianRational) -> AlmostComplexStructure:
    m = _N10_DIM
    images = {
        0: tuple(ONE if c == 1 else ZERO for c in range(m)),
        3: tuple(ONE if c == 4 else ZERO for c in range(m)),
        7: tuple(ONE if c == 8 else ZERO for c in range(m)),
        2: tuple(t if c == 5 else (s if c == 6 else ZERO) for c in range(m)),
        9: tuple(-s if c == 5 else (-t if c == 6 else ZERO) for c in range(m)),
    }
    return AlmostComplexStructure.from_images(m, images)


def get(name: str, s=None, t=None, n=None) -> CatalogEntry:
    """Fetch a catalog entry by name.

    n10 needs rational s and t with t^2 != s^2; torus needs a positive
    half-dimension n. The other entries take no parameters.
    """
    if name in _SIX:
        brackets, h1 = _SIX[name]
        return CatalogEntry(
            name=name,
            algebra=LieAlgebra(6, brackets, name=name),
            structures=(("J", standard_pairing(6)),),
            facts={"dim": 6, "step": 3, "center_dim": 2, "h1_dim": h1, "locus_dim": 3},
            structure_facts={"J": {"integrable": True, "abelian": True, "nilpotent": True}},
        )
    if name == "n10":
        if s is None or t is None:
            raise ValidationError("n10 requires rational parameters s and t")
        s = _rational(s, "s")
        t = _rational(t, "t")
        if t * t == s * s:
            raise ValidationError("t^2 = s^2 is rejected")
        brackets = brackets_from_differentials(_N10_DIFFERENTIALS)
        return CatalogEntry(
            name="n10",
            algebra=LieAlgebra(_N10_DIM, brackets, name="n10"),
            structures=(("J", _n10_structure(s, t)),),
            facts={"dim": 10, "step": 2, "center_dim": 4},
            structure_facts={
                "J": {
                    "integrable": True,
                    "abelian": s == 1 and t == 0,
                    "nilpotent": True,
                }
            },
            params=(s, t),
        )
    if name == "torus":
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError("torus requires a positive half-dimension n")
        return CatalogEntry(
            name="torus",
            algebra=LieAlgebra(2 * n, {}, name=f"torus{n}"),
            structures=(("J", standard_pairing(2 * n)),),
            facts={
                "dim": 2 * n,
                "step": 1,
                "center_dim": 2 * n,
                "h1_dim": n * n,
                "locus_dim": n * n,
            },
            structure_facts={
                "J": {"integrable": True, "abelian": True, "nilpotent": True}
            },
            params=(n,),
        )
    raise ValidationError(f"unknown catalog name: {name}")


def _terms_text(pairs) -> str:
    return " + ".join(f"{c}*e{k}" for k, c in pairs)


def render(name: str, algebra: LieAlgebra, structures=()) -> str:
    """Deterministic text for an algebra and named structures.

    Renders the full bracket table sorted by index pair and every J column
    in order; parsing the output reproduces the inputs exactly. A name the
    parser would not read back (empty, with whitespace or ``#``, or a
    repeated structure name) raises :class:`ValidationError`.
    """
    labels = [("algebra", name), *(("structure", sname) for sname, _ in structures)]
    for k, (what, label) in enumerate(labels):
        unreadable = not label or "#" in label or any(c.isspace() for c in label)
        if unreadable or (what, label) in labels[:k]:
            raise ValidationError(
                f"{what} name {label!r} would not parse back (empty, repeated, or with "
                "whitespace or '#')"
            )
    lines = [f"algebra {name}", f"dim {algebra.dim}"]
    for (i, j), targets in algebra.bracket_table().items():
        lines.append(f"bracket e{i} e{j} = {_terms_text(targets.items())}")
    for sname, j in structures:
        lines.append(f"structure {sname}")
        for col in range(algebra.dim):
            vec = j.matrix.column(col)
            # J is real, and a real scalar prints as its Fraction does
            pairs = [(k + 1, x) for k, x in enumerate(vec) if x]
            lines.append(f"J e{col + 1} = {_terms_text(pairs)}")
    return "\n".join(lines) + "\n"


def render_entry(entry) -> str:
    """Catalog entry as file text."""
    return render(entry.name, entry.algebra, entry.structures)
