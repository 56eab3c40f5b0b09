"""Built-in algebras and complex structures, exposed by name.

Four families: the two six-dimensional three-step algebras carrying
abelian structures, a ten-dimensional algebra with a two-parameter
structure family, and even-dimensional abelian algebras with the standard
pairing structure. The ten-dimensional entry is entered through its
coframe differentials and normalized to brackets internally; construction
re-derives the differentials from the brackets and insists on coefficient
equality, so a transcription slip cannot survive silently.

Every entry carries an expected-facts record. Nothing in the package
reads those numbers back: the test suite recomputes each fact of every
entry from the live objects (``tests/reference.py::verify_entry``), and
perfbench checks its jobs against them.

The ``.alg`` writer (:func:`render`) is here too: ``catalog`` is the only
command that writes a file, so the other commands do not compile it.
"""

from __future__ import annotations

from .cxs import AlmostComplexStructure
from .errors import Frozen, SelfCheckError, ValidationError
from .lie import LieAlgebra, validate_lie
from .linalg import Matrix
from .scalars import ONE, ZERO, GaussianRational, scalar, terms_text

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


def brackets_from_differentials(dim: int, diffs: dict) -> dict:
    """Invert d e^m = -sum c^m_ij e^i ^ e^j into bracket coefficients."""
    out: dict = {}
    for m, table in diffs.items():
        for (i, j), c in table.items():
            if not 1 <= i < j <= dim or not 1 <= m <= dim:
                raise ValidationError("differential index out of range")
            out.setdefault((i, j), {})[m] = -c
    return out


def differentials_from_brackets(algebra: LieAlgebra) -> dict:
    """Coframe differentials of an algebra, coefficient tables by index."""
    out: dict = {}
    for (i, j), targets in algebra._scalar_table().items():
        for m, c in targets.items():
            if c:
                out.setdefault(m, {})[(i, j)] = -c
    return out


def _differential_text(table: dict) -> str:
    """d e^m from its table {(i, j): c}, as ``(c)*e1^e2 + ...``, or ``0``."""
    return terms_text((f"e{i}^e{j}", c) for (i, j), c in sorted(table.items()))


def standard_pairing(dim: int) -> AlmostComplexStructure:
    """J pairing consecutive basis vectors: e_odd -> e_even -> -e_odd."""
    if dim % 2:
        raise ValidationError("J needs an even-dimensional space")
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


def _validated(algebra: LieAlgebra) -> LieAlgebra:
    report = validate_lie(algebra)
    if not report.ok:
        raise SelfCheckError(f"catalog algebra invalid: {report.errors[0]}")
    return algebra


def get(name: str, s=None, t=None, n=None) -> CatalogEntry:
    """Fetch a catalog entry by name.

    n10 needs rational s and t with t^2 != s^2; torus needs a positive
    half-dimension n. The other entries take no parameters.
    """
    if name in _SIX:
        brackets, h1 = _SIX[name]
        return CatalogEntry(
            name=name,
            algebra=_validated(LieAlgebra(6, brackets, name=name)),
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
        brackets = brackets_from_differentials(_N10_DIM, _N10_DIFFERENTIALS)
        algebra = _validated(LieAlgebra(_N10_DIM, brackets, name="n10"))
        back = differentials_from_brackets(algebra)
        if back != _N10_DIFFERENTIALS:
            keys = back.keys() | _N10_DIFFERENTIALS.keys()
            m = min(k for k in keys if back.get(k) != _N10_DIFFERENTIALS.get(k))
            raise SelfCheckError(
                f"differential round trip failed for n10 at de{m}: the table gives "
                f"{_differential_text(_N10_DIFFERENTIALS.get(m, {}))}, the brackets give "
                f"{_differential_text(back.get(m, {}))}"
            )
        return CatalogEntry(
            name="n10",
            algebra=algebra,
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
        if n is None:
            raise ValidationError("torus requires a positive half-dimension n")
        if not isinstance(n, int) or n < 1:
            raise ValidationError("torus requires a positive half-dimension n")
        algebra = _validated(LieAlgebra(2 * n, {}, name=f"torus{n}"))
        return CatalogEntry(
            name="torus",
            algebra=algebra,
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
    in order; parsing the output reproduces the inputs exactly.
    """
    lines = [f"algebra {name}", f"dim {algebra.dim}"]
    for (i, j), targets in algebra._scalar_table().items():
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
