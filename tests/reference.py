"""Reference routines the tests compare the library against.

Textbook versions of what the package computes another way: a solve
orthogonal to the kernel, span membership by rank, and the chain-level
differential, inner product and Laplacian of a Dolbeault complex, and the
hand-written argparse parser that ``cli.COMMANDS`` replaced. Nothing in
the package calls them.
"""

import argparse
from collections.abc import Sequence

from nilcx.dolbeault import VectorForm, hdot
from nilcx.errors import NotSolvableError, PreconditionError, ValidationError
from nilcx.linalg import Matrix, Vector, is_zero_vector, kernel_basis, rank, rref
from nilcx.scalars import ZERO, GaussianRational


def _scalar(x) -> GaussianRational:
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, v: Vector) -> Vector:
    c = _scalar(c)
    return tuple(c * x for x in v)


def _particular_solution(m: Matrix, b: Vector) -> Vector:
    aug = Matrix._of(tuple(row + (bb,) for row, bb in zip(m.rows, b, strict=True)))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == m.ncols:
        raise NotSolvableError("not solvable")
    x = [ZERO] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][m.ncols]
    return tuple(x)


def solve_in_image(m: Matrix, b: Sequence) -> Vector:
    """Solve M x = b exactly, with x orthogonal to ker M.

    Raises :class:`NotSolvableError` ("not solvable") when b is outside the
    image. The orthogonality normalization makes the solution unique, which
    is what a Green's operator needs to be well defined.
    """
    b = tuple(_scalar(x) for x in b)
    x0 = _particular_solution(m, b)
    ker = kernel_basis(m)
    if not ker:
        return x0
    # project x0 onto span(ker) and subtract
    d = len(ker)
    gram = Matrix._of(tuple(tuple(hdot(ker[q], ker[p]) for q in range(d)) for p in range(d)))
    rhs = tuple(hdot(x0, ker[p]) for p in range(d))
    coeffs = _particular_solution(gram, rhs)
    x = x0
    for q in range(d):
        x = vsub(x, vscale(coeffs[q], ker[q]))
    return x


def in_span(v: Vector, basis: Sequence[Vector]) -> bool:
    if is_zero_vector(v):
        return True
    if not basis:
        return False
    return rank(Matrix(list(basis) + [v])) == rank(Matrix(list(basis)))


def dbar_vector(dc, v) -> VectorForm:
    """dbar of a (1,0)-vector given in real-basis coordinates."""
    cf = dc.frame.to_frame(tuple(v))
    if any(cf[dc.n :]):
        raise PreconditionError("vector is not type (1,0)")
    out: dict = {}
    for jj in range(dc.n):
        for a in range(dc.n):
            if not cf[a]:
                continue
            for b, comp in enumerate(dc._dv[a][jj]):
                if comp:
                    key = ((jj,), b)
                    out[key] = out.get(key, ZERO) + cf[a] * comp
    return VectorForm(dc.frame, 1, out)


def inner_product(dc, mu: VectorForm, nu: VectorForm) -> GaussianRational:
    """The chain inner product, with the chain basis orthonormal."""
    dc._own(mu)
    dc._own(nu)
    if mu.degree != nu.degree:
        raise ValidationError("degree mismatch")
    total = ZERO
    for key, c in mu.coeffs.items():
        d = nu.coeffs.get(key)
        if d is not None:
            total = total + c * d.conjugate()
    return total


def laplacian(dc, mu: VectorForm) -> VectorForm:
    """The Laplacian applied to one chain, through the cached matrix."""
    dc._own(mu)
    k = mu.degree
    return dc._from_vec(k, dc.laplacian_matrix(k).matvec(dc._to_vec(mu)))


def reference_parser() -> argparse.ArgumentParser:
    """The command line as one add_argument call per argument."""
    from nilcx.cli import _complex_command, cmd_catalog, cmd_series, cmd_validate

    parser = argparse.ArgumentParser(
        prog="nilcx",
        description="exact invariant complex structures on nilpotent Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p, structure=True):
        p.add_argument("file", help="path to an .alg file")
        if structure:
            p.add_argument(
                "--structure",
                default=None,
                help="structure block to use (default: first)",
            )

    p = sub.add_parser("validate", help="Jacobi, step, and structure checks")
    with_file(p, structure=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("series", help="ascending series and adapted frame")
    with_file(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cohomology", help="harmonic basis in one degree")
    with_file(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_complex_command)

    p = sub.add_parser("kuranishi", help="deformation series and obstructions")
    with_file(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--at",
        default=None,
        help="comma-separated rational coordinates in the printed basis order",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_complex_command)

    p = sub.add_parser("abelian-locus", help="infinitesimal abelian subspace")
    with_file(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_complex_command)

    p = sub.add_parser("catalog", help="list built-ins or emit one as .alg")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--s", default="1", help="n10 parameter s (rational)")
    p.add_argument("--t", default="0", help="n10 parameter t (rational)")
    p.add_argument("--n", type=int, default=3, help="torus half-dimension")
    p.set_defaults(func=cmd_catalog)
    return parser
