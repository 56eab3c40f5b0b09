"""The dbar complex of vector-valued antiholomorphic forms.

Chains in degree k are sums of wb^I (x) X_a with |I| = k, over the adapted
(1,0)-frame of an abelian complex structure; the chain basis is declared
orthonormal. On a (1,0)-vector, dbar V = sum_j wb^j (x) [conj X_j, V]^{1,0};
the degree-k extension is dbar(wb^I (x) V) = (-1)^k wb^I ^ dbar V. The
adjoint is the conjugate transpose in the orthonormal coordinates. The
harmonic space ker dbar_k ∩ (im dbar_{k-1})^⊥ is read off the differentials
alone; the Laplacian dbar dbar* + dbar* dbar and its Moore-Penrose inverse,
the Green's operator, serve only ``green``. The orthogonal complement and
Gram-Schmidt routines that build the harmonic bases are here too, since
nothing else uses them. A chain is a coefficient dict {(anti, a): c} with
no zero entries, which ``chain_text`` prints; a :class:`VectorForm` wraps
one with its frame and degree.

Everything is exact and deterministic; the differential, its adjoint,
Laplacian, harmonic-space, cohomology and Green-matrix caches are written
once per degree and never mutated after.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations
from math import comb

from .cxs import AlmostComplexStructure, ComplexFrame, abelian_defect, adapted_frame
from .errors import Frozen, PreconditionError, ValidationError
from .lie import LieAlgebra
from .linalg import (
    EchelonBasis,
    Matrix,
    Vector,
    kernel_basis,
    nonzero_entries,
    pinv,
    row_space_basis,
)
from .scalars import ONE, ZERO, GaussianRational, scalar, terms_text


def hdot_support(v: Sequence, support: Sequence[tuple[int, GaussianRational]]) -> GaussianRational:
    """The Hermitian form <v, u> for the u with ``support = nonzero_entries(u)``."""
    acc = ZERO
    for k, x in support:
        a = v[k]
        if a:
            acc = acc + a * x.conjugate()
    return acc


def orthogonal_complement(
    s: Sequence[Vector], inside: Sequence[Vector]
) -> list[Vector]:
    """Basis of {v in span(inside) : <v, s> = 0 for all s in S}.

    Precondition: span(S) is contained in span(inside); violations raise
    :class:`PreconditionError`. The output together with a basis of span(S)
    spans span(inside), and the mutual Gram matrix is exactly zero.
    """
    inside_basis = row_space_basis(inside)
    inside_span = EchelonBasis(inside_basis)
    for sv in s:
        if sv not in inside_span:
            raise PreconditionError("span(S) not contained in span(inside)")
    if not inside_basis:
        return []
    if not s:
        return list(inside_basis)
    # coefficients x with v = sum x_j b_j, constrained by <v, s_i> = 0
    cons = Matrix._of(
        tuple(tuple(hdot_support(bj, nonzero_entries(si)) for bj in inside_basis) for si in s)
    )
    supports = [nonzero_entries(bj) for bj in inside_basis]
    out = []
    for cv in kernel_basis(cons):
        v = [ZERO] * len(inside_basis[0])
        for c, support in zip(cv, supports, strict=True):
            if c:
                for k, x in support:
                    v[k] = v[k] + c * x
        out.append(tuple(v))
    return out


def gram_schmidt(vectors: Sequence[Vector]) -> list[Vector]:
    """Orthogonalize without normalizing; input must be independent (a
    dependent vector comes out zero).

    Each output keeps its support and squared norm, so a projection runs
    over that support only and is skipped when its coefficient is zero.
    """
    out: list[Vector] = []
    done: list[tuple[list, GaussianRational]] = []
    for v in vectors:
        w = list(v)
        for support, norm_sq in done:
            c = hdot_support(v, support)
            if c:
                f = c / norm_sq
                for k, x in support:
                    w[k] = w[k] - f * x
        w = tuple(w)
        support = nonzero_entries(w)
        out.append(w)
        done.append((support, hdot_support(w, support)))
    return out


def chain_text(coeffs: dict) -> str:
    """A chain {(anti, a): c} with no zero entries, as ``(c)*wb1^wb3 ox X2``
    terms joined by `` + `` in key order; ``0`` when it is empty."""
    return terms_text(
        ("^".join(f"wb{i + 1}" for i in anti) + (" ox " if anti else "") + f"X{a + 1}", c)
        for (anti, a), c in sorted(coeffs.items())
    )


class VectorForm(Frozen):
    """(0,k)-form with values in the (1,0)-space, in frame coordinates.

    Coefficients live on keys ``(anti, a)`` where ``anti`` is a strictly
    increasing 0-based index tuple of length ``degree`` and ``a`` indexes
    the frame vector. Zero coefficients are dropped on construction.
    """

    __slots__ = ("frame", "degree", "coeffs")

    def __init__(self, frame: ComplexFrame, degree: int, coeffs: dict):
        n = frame.n
        clean = {}
        for (anti, a), c in coeffs.items():
            anti = tuple(anti)
            if len(anti) != degree:
                raise ValidationError("key arity does not match degree")
            if any(not (0 <= x < n) for x in anti):
                raise ValidationError("frame index out of range")
            if any(anti[t] >= anti[t + 1] for t in range(len(anti) - 1)):
                raise ValidationError("indices must be strictly increasing")
            if not (0 <= a < n):
                raise ValidationError("vector index out of range")
            c = scalar(c)
            if c:
                clean[(anti, a)] = c
        self._set(frame=frame, degree=degree, coeffs=clean)

    def __eq__(self, other):
        if not isinstance(other, VectorForm):
            return NotImplemented
        return (
            self.degree == other.degree
            and _same_frame(self.frame, other.frame)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def __str__(self):
        return chain_text(self.coeffs)

    def __repr__(self):
        return f"VectorForm(deg {self.degree}): {self}"


def _same_frame(f: ComplexFrame, g: ComplexFrame) -> bool:
    if f is g:
        return True
    # distinct algebras can share frame vectors, so compare brackets too
    return f.vectors == g.vectors and (
        f.algebra is g.algebra
        or f.algebra.bracket_table() == g.algebra.bracket_table()
    )


class CohomologySpace(
    namedtuple("CohomologySpace", "degree dimension harmonic_basis gram")
):
    """Harmonic representatives of one degree, unnormalized, with their Gram matrix."""

    __slots__ = ()


class DolbeaultComplex:
    """Differentials, metric, harmonic spaces and Laplacian for one (g, J).

    Construction insists on an abelian J (the degree-k extension rule is
    only a complex in that case). Per-degree matrices and harmonic bases
    are cached on first use; caches are never mutated afterwards, so
    concurrent reads are safe once built.
    """

    def __init__(self, algebra: LieAlgebra, j: AlmostComplexStructure):
        pair = abelian_defect(algebra, j)
        if pair is not None:
            a, b = pair
            raise PreconditionError(f"J is not abelian: [Je{a}, Je{b}] != [e{a}, e{b}]")
        self.algebra = algebra
        self.j = j
        self.frame = frame = adapted_frame(algebra, j)
        self.n = n = frame.n
        # _dv[a][jj] = (1,0)-part of [conj X_jj, X_a] in frame coordinates
        bracket = algebra.bracket
        self._dv = tuple(
            tuple(
                frame.to_frame(bracket(frame.frame_vector(n + jj), frame.vectors[a]))[:n]
                for jj in range(n)
            )
            for a in range(n)
        )
        self._chain: dict[int, tuple] = {}
        self._pos: dict[int, dict] = {}
        self._dbar: dict[int, Matrix] = {}
        self._dbar_h: dict[int, Matrix] = {}
        self._lap: dict[int, Matrix] = {}
        self._harm: dict[int, list[Vector]] = {}
        self._coh: dict[int, CohomologySpace] = {}
        self._green: dict[int, Matrix] = {}

    # ------------------------------------------------------------ chains

    def chain_dim(self, k: int) -> int:
        return comb(self.n, k) * self.n if 0 <= k <= self.n else 0

    def chain_basis(self, k: int) -> tuple:
        """Keys (anti, a), antiholomorphic block major, lexicographic."""
        got = self._chain.get(k)
        if got is None:
            got = tuple(
                (idx, a)
                for idx in combinations(range(self.n), k)
                for a in range(self.n)
            )
            self._chain[k] = got
            self._pos[k] = {key: r for r, key in enumerate(got)}
        return got

    def form(self, degree: int, coeffs: dict) -> VectorForm:
        return VectorForm(self.frame, degree, coeffs)

    def _to_vec(self, mu: VectorForm) -> Vector:
        return tuple(mu.coeffs.get(key, ZERO) for key in self.chain_basis(mu.degree))

    def _from_vec(self, k: int, vec) -> VectorForm:
        keys = self.chain_basis(k)
        return VectorForm(
            self.frame, k, {keys[r]: c for r, c in enumerate(vec) if c}
        )

    # ------------------------------------------------------ differentials

    def dbar_matrix(self, k: int) -> Matrix:
        if not 0 <= k < self.n:
            raise PreconditionError(
                f"no differential at this degree: dbar_{k} (differentials are "
                f"dbar_0..dbar_{self.n - 1})"
            )
        got = self._dbar.get(k)
        if got is not None:
            return got
        src = self.chain_basis(k)
        self.chain_basis(k + 1)
        posd = self._pos[k + 1]
        data = [[ZERO] * len(src) for _ in range(self.chain_dim(k + 1))]
        for c, (idx, a) in enumerate(src):
            for jj in range(self.n):
                if jj in idx:
                    continue
                # (-1)^k extension sign, then slot wb^jj into wb^idx
                flips = k + sum(1 for t in idx if t > jj)
                sgn = -ONE if flips % 2 else ONE
                merged = tuple(sorted(idx + (jj,)))
                for b, comp in enumerate(self._dv[a][jj]):
                    if comp:
                        r = posd[(merged, b)]
                        data[r][c] = data[r][c] + sgn * comp
        got = Matrix._of(tuple(map(tuple, data)))
        self._dbar[k] = got
        return got

    def _dbar_adjoint_matrix(self, k: int) -> Matrix:
        """Conjugate transpose of dbar_k, from degree k+1 to degree k."""
        got = self._dbar_h.get(k)
        if got is None:
            got = self.dbar_matrix(k).conj_transpose()
            self._dbar_h[k] = got
        return got

    def dbar_adjoint(self, mu: VectorForm) -> VectorForm:
        if not _same_frame(mu.frame, self.frame):
            raise ValidationError("frame mismatch")
        k = mu.degree
        if k < 1:
            raise PreconditionError("adjoint needs degree at least 1")
        if k > self.n:
            return self.form(k - 1, {})
        m = self._dbar_adjoint_matrix(k - 1)
        return self._from_vec(k - 1, m.matvec(self._to_vec(mu)))

    # ------------------------------------------- Laplacian, Green, Hodge

    def _check_degree(self, k: int) -> None:
        if not 0 <= k <= self.n:
            raise PreconditionError(f"degree out of range: {k} (degrees are 0..{self.n})")

    def laplacian_matrix(self, k: int) -> Matrix:
        """L_k = M M^H with M = [dbar_{k-1} | dbar*_k], the maps into degree k."""
        self._check_degree(k)
        got = self._lap.get(k)
        if got is None:
            parts = [self.dbar_matrix(k - 1).rows] if k >= 1 else []
            if k < self.n:
                parts.append(self._dbar_adjoint_matrix(k).rows)
            m = Matrix._of(tuple(sum(row, ()) for row in zip(*parts)))
            got = self._lap[k] = m * m.conj_transpose()
        return got

    def _harmonic_vectors(self, k: int) -> list[Vector]:
        got = self._harm.get(k)
        if got is not None:
            return got
        if k == self.n:
            ker = list(Matrix.identity(self.chain_dim(k)).rows)
        else:
            ker = kernel_basis(self.dbar_matrix(k))
        image = [] if k == 0 else row_space_basis(self.dbar_matrix(k - 1).columns())
        try:
            harm = orthogonal_complement(image, ker)
        except PreconditionError as exc:
            raise PreconditionError(
                f"dbar_{k} dbar_{k - 1} != 0 in degree {k}: im dbar_{k - 1} (dimension "
                f"{len(image)}) is not contained in ker dbar_{k} (dimension {len(ker)})"
            ) from exc
        got = self._harm[k] = gram_schmidt(harm)
        return got

    def cohomology(self, k: int) -> CohomologySpace:
        """Harmonic representatives of degree k, unnormalized, with Gram."""
        got = self._coh.get(k)
        if got is not None:
            return got
        self._check_degree(k)
        vecs = self._harmonic_vectors(k)
        basis = tuple(self._from_vec(k, v) for v in vecs)
        # Gram-Schmidt output is orthogonal, so its Gram is the squared norms
        norms = [hdot_support(v, nonzero_entries(v)) for v in vecs]
        gram = Matrix._of(
            tuple(tuple(x if i == j else ZERO for j in range(len(vecs))) for i, x in enumerate(norms))
        )
        got = self._coh[k] = CohomologySpace(k, len(basis), basis, gram)
        return got

    def green_matrix(self, k: int) -> Matrix:
        """G_k = L_k^+, the Moore-Penrose inverse of the Laplacian.

        Zero on harmonics, and G_k b is the x orthogonal to them with
        L_k x = b - H b. Built once per degree, from degree k alone.
        """
        got = self._green.get(k)
        if got is None:
            got = self._green[k] = pinv(self.laplacian_matrix(k))
        return got

    def green(self, mu: VectorForm) -> VectorForm:
        """Green's operator: zero on harmonics, inverts the Laplacian off them."""
        if not _same_frame(mu.frame, self.frame):
            raise ValidationError("frame mismatch")
        k = mu.degree
        return self._from_vec(k, self.green_matrix(k).matvec(self._to_vec(mu)))
