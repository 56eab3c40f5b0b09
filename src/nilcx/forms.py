"""Invariant (p,q)-forms on a complex frame and their differentials.

The coframe forms w^i of a (1,0)-frame and the differential of an
invariant 1-form split by (p,q) type, read off the frame brackets. In the
package only the integrability witness loads this module; the structure
tests, the adapted frame, the Dolbeault complex and the Kuranishi layer
do not.

Sign convention, pinned once for the whole package: for an invariant 1-form,
d a(X, Y) = -a([X, Y]). tests/test_cxs.py::test_realified_structure_equations_roundtrip
checks it against the algebra's brackets, so a global flip fails there.
"""

from __future__ import annotations

from itertools import combinations

from .cxs import AlmostComplexStructure, ComplexFrame
from .errors import PreconditionError, SelfCheckError, ValidationError
from .lie import LieAlgebra
from .linalg import Matrix, kernel_basis
from .scalars import I as IMAG
from .scalars import ONE, ZERO, GaussianRational


class InvariantForm:
    """Invariant (p,q)-form in a frame's coframe coordinates.

    Coefficients are stored on strictly increasing index tuples (I, K),
    meaning sum c_IK w^I ^ wb^K with the determinant convention for wedge
    evaluation. Indices are 0-based.
    """

    __slots__ = ("p", "q", "n", "coeffs")

    def __init__(self, p: int, q: int, n: int, coeffs: dict):
        clean = {}
        for (hol, anti), c in coeffs.items():
            hol, anti = tuple(hol), tuple(anti)
            if len(hol) != p or len(anti) != q:
                raise ValidationError("key arity does not match bidegree")
            if any(not (0 <= x < n) for x in hol + anti):
                raise ValidationError("frame index out of range")
            if any(hol[t] >= hol[t + 1] for t in range(len(hol) - 1)) or any(
                anti[t] >= anti[t + 1] for t in range(len(anti) - 1)
            ):
                raise ValidationError("indices must be strictly increasing")
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            if c:
                clean[(hol, anti)] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantForm is immutable")

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return (
            (self.p, self.q, self.n) == (other.p, other.q, other.n)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.q, self.n, frozenset(self.coeffs.items())))

    def items(self):
        return sorted(self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (hol, anti), c in self.items():
            legs = [f"w{i + 1}" for i in hol] + [f"wb{k + 1}" for k in anti]
            parts.append(f"({c})*" + "^".join(legs))
        return " + ".join(parts)

    def __repr__(self):
        return f"InvariantForm({self.p},{self.q}): {self}"


def omega_form(n: int, i: int) -> InvariantForm:
    """The coframe (1,0)-form w^i, 0-based."""
    return InvariantForm(1, 0, n, {((i,), ()): ONE})


def eigen_frame(algebra: LieAlgebra, j: AlmostComplexStructure) -> ComplexFrame:
    """Deterministic (1,0)-frame from the +i eigenspace of J.

    No ordering along the ascending series; use adapted_frame for that.
    """
    m = algebra.dim
    mat = Matrix(
        [
            [j.matrix[r, c] - (IMAG if r == c else ZERO) for c in range(m)]
            for r in range(m)
        ]
    )
    vecs = kernel_basis(mat)
    if len(vecs) != m // 2:
        raise SelfCheckError("J eigenspace has wrong dimension")
    return ComplexFrame(algebra, vecs)


def exterior_derivative(
    algebra: LieAlgebra, frame: ComplexFrame, form: InvariantForm
) -> dict[tuple[int, int], InvariantForm]:
    """Differential of an invariant 1-form, decomposed by bidegree.

    d a(Z_s, Z_t) = -a([Z_s, Z_t]) on frame labels s < t, with labels
    0..n-1 for X and n..2n-1 for conj X. Only nonzero components are
    returned.
    """
    if form.p + form.q != 1:
        raise PreconditionError(
            f"exterior derivative needs a 1-form, got a ({form.p},{form.q})-form"
        )
    n = frame.n
    # a(Z_c) by frame label
    values = [(hol[0] if hol else n + anti[0], c) for (hol, anti), c in form.coeffs.items()]
    parts: dict = {}
    for s, t in combinations(range(2 * n), 2):
        w = frame.to_frame(algebra.bracket(frame.frame_vector(s), frame.frame_vector(t)))
        val = ZERO
        for c, x in values:
            if w[c]:
                val = val + w[c] * x
        if val:
            hol = tuple(u for u in (s, t) if u < n)
            anti = tuple(u - n for u in (s, t) if u >= n)
            parts.setdefault((len(hol), len(anti)), {})[(hol, anti)] = -val
    return {pq: InvariantForm(*pq, n, comp) for pq, comp in sorted(parts.items())}
