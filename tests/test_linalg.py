"""Exact kernels, solves, and Hermitian complements.

Random-matrix properties run on a fixed seed so failures are reproducible.
"""

import random
from fractions import Fraction

import pytest

from conftest import error_of
from reference import hdot, in_span, parts, solve_in_image, vscale, vsub
from nilcx.dolbeault import gram_schmidt, orthogonal_complement
from nilcx.errors import NotSolvableError, PreconditionError
from nilcx.linalg import (
    EchelonBasis,
    Matrix,
    inverse,
    is_zero_vector,
    kernel_basis,
    pinv,
    rank,
    row_space_basis,
    rref,
)
from nilcx.scalars import I, ONE, ZERO, GaussianRational, gr


def random_matrix(rng, nr, nc, span=3):
    return Matrix(
        [
            [
                gr(Fraction(rng.randint(-span, span)), Fraction(rng.randint(-span, span)))
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
    )


# ---------------------------------------------------------------------------
# kernel_basis


def test_kernel_of_zero_matrix_is_standard_basis():
    k = kernel_basis(Matrix.zero(2, 2))
    assert k == [(ONE, ZERO), (ZERO, ONE)]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_rank_nullity_exact_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nr, nc)
        ker = kernel_basis(m)
        assert len(ker) + rank(m) == nc
        for v in ker:
            assert is_zero_vector(m.matvec(v))
        if ker:
            assert rank(Matrix(ker)) == len(ker)


def test_kernel_is_deterministic():
    rng = random.Random(11)
    m = random_matrix(rng, 4, 6)
    assert kernel_basis(m) == kernel_basis(Matrix(m.rows))


def test_rref_pivots_leftmost():
    m = Matrix([[0, 2, 1], [0, 4, 3]])
    red, pivots = rref(m)
    assert pivots == (1, 2)
    assert red.rows[0][1] == ONE


# ---------------------------------------------------------------------------
# solve_in_image


def test_solve_with_identity_returns_rhs():
    b = (gr(3), gr(0, 2), gr("1/5"))
    assert solve_in_image(Matrix.identity(3), b) == b


def test_solve_zero_matrix_nonzero_rhs_not_solvable():
    with pytest.raises(NotSolvableError, match="not solvable"):
        solve_in_image(Matrix.zero(2, 2), (ONE, ZERO))


def test_solution_is_orthogonal_to_kernel():
    rng = random.Random(23)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, nr, nc)
        x_true = tuple(gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(nc))
        b = m.matvec(x_true)
        x = solve_in_image(m, b)
        assert m.matvec(x) == b
        for v in kernel_basis(m):
            assert hdot(x, v) == ZERO


def test_solve_is_deterministic():
    m = Matrix([[1, 1, 0], [0, 0, 1]])
    b = (gr(2), gr(5))
    assert solve_in_image(m, b) == solve_in_image(m, b)


# ---------------------------------------------------------------------------
# orthogonal_complement


def test_complement_of_nothing_is_everything():
    inside = [(ONE, ZERO), (ZERO, ONE)]
    assert orthogonal_complement([], inside) == inside


def test_complement_of_whole_space_is_empty():
    inside = [(ONE, ZERO), (ZERO, ONE)]
    assert orthogonal_complement(inside, inside) == []


def test_complement_respects_hermitian_form():
    # span{(1, i)} inside C^2; complement must be span{(1, -i)} up to scale
    s = [(ONE, I)]
    inside = [(ONE, ZERO), (ZERO, ONE)]
    comp = orthogonal_complement(s, inside)
    assert len(comp) == 1
    v = comp[0]
    assert hdot(v, s[0]) == ZERO


def test_complement_precondition_violation():
    with pytest.raises(PreconditionError):
        orthogonal_complement([(ONE, ZERO)], [(ZERO, ONE)])


def test_complement_plus_s_spans_inside_with_zero_gram():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        inside = [
            tuple(gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n))
            for _ in range(n)
        ]
        if rank(Matrix(inside)) < 2:
            continue
        s = [inside[i] for i in range(min(k, len(inside)))]
        comp = orthogonal_complement(s, inside)
        dim_inside = rank(Matrix(inside))
        dim_s = rank(Matrix(s)) if s else 0
        assert len(comp) == dim_inside - dim_s
        for v in comp:
            for sv in s:
                assert hdot(v, sv) == ZERO
        joint = list(comp) + list(s)
        assert rank(Matrix(joint)) == dim_inside


# ---------------------------------------------------------------------------
# helpers


def test_inverse_roundtrip():
    m = Matrix([[1, 2], [3, 5]])
    assert m * inverse(m) == Matrix.identity(2)
    with pytest.raises(NotSolvableError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_pinv_satisfies_the_four_penrose_equations():
    rng = random.Random(20261019)
    cases = [Matrix.zero(3, 2), Matrix([[1, 2], [2, 4]]), Matrix([[1, I, 0]])]
    for _ in range(12):
        nr, nc, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        # a product of nr x r and r x nc factors has rank at most r
        cases.append(random_matrix(rng, nr, r) * random_matrix(rng, r, nc))
    for a in cases:
        p = pinv(a)
        assert (p.nrows, p.ncols) == (a.ncols, a.nrows)
        assert a * p * a == a
        assert p * a * p == p
        assert (a * p).conj_transpose() == a * p
        assert (p * a).conj_transpose() == p * a
    assert pinv(Matrix.zero(3, 2)) == Matrix.zero(2, 3)


def test_row_space_basis_canonical():
    b = row_space_basis([(gr(2), gr(4)), (gr(1), gr(2)), (gr(0), gr(0))])
    assert b == [(ONE, gr(2))]


def test_in_span_and_coords():
    basis = [(ONE, ZERO, ZERO), (ZERO, ONE, ONE)]
    v = tuple(gr(2) * a + I * b for a, b in zip(*basis))
    assert in_span(v, basis)
    assert solve_in_image(Matrix.from_columns(basis), v) == (gr(2), I)
    assert not in_span((ZERO, ONE, ZERO), basis)


def test_gram_schmidt_orthogonal_unnormalized():
    vs = [(ONE, ONE, ZERO), (ONE, ZERO, ONE)]
    u = gram_schmidt(vs)
    assert u[0] == vs[0]
    assert hdot(u[1], u[0]) == ZERO
    # same span
    assert in_span(vs[1], u)
    # a dependent vector comes out zero; the caller passes independent ones
    assert gram_schmidt([(ONE, ZERO), (ONE, ZERO)]) == [(ONE, ZERO), (ZERO, ZERO)]


def test_matrix_ops():
    m = Matrix([[1, I], [0, 2]])
    assert m.conj_transpose() == Matrix([[1, 0], [-I, 2]])
    assert m.column(1) == (I, gr(2))
    assert (m * Matrix.identity(2)) == m
    assert m.matvec((ONE, ONE)) == (ONE + I, gr(2))


# ---------------------------------------------------------------------------
# the zero-skipping kernel against a dense reference
#
# The reference works on (re, im) pairs of Fractions, visits every entry,
# and shares no code with nilcx.linalg or nilcx.scalars.

F0 = Fraction(0)


def _padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _psub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _pmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pconj(x):
    return (x[0], -x[1])


def _pinv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _psum(terms):
    acc = (F0, F0)
    for t in terms:
        acc = _padd(acc, t)
    return acc


def dense_mul(a, b):
    return [
        [_psum(_pmul(a[i][k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_matvec(a, v):
    return [_psum(_pmul(row[k], v[k]) for k in range(len(v))) for row in a]


def dense_hdot(u, v):
    return _psum(_pmul(x, _pconj(y)) for x, y in zip(u, v))


def dense_rref(a):
    rows = [list(r) for r in a]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != (F0, F0)), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _pinv(rows[r][c])
        rows[r] = [_pmul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r:
                f = rows[i][c]
                rows[i] = [_psub(x, _pmul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, tuple(pivots)


def dense_kernel(a):
    red, pivots = dense_rref(a)
    nc = len(a[0])
    out = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [(F0, F0)] * nc
        v[f] = (Fraction(1), F0)
        for r, p in enumerate(pivots):
            v[p] = (-red[r][f][0], -red[r][f][1])
        out.append(v)
    return out


def sparse_pairs(rng, nr, nc, blank=True):
    """Sparse entries, real-only and complex; with ``blank``, one all-zero
    row and one all-zero column."""
    density = rng.choice([0, 0.1, 0.25, 0.5])
    zero_row, zero_col = (rng.randrange(nr), rng.randrange(nc)) if blank else (-1, -1)

    def part():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))

    out = []
    for i in range(nr):
        row = []
        for j in range(nc):
            if i == zero_row or j == zero_col or rng.random() >= density:
                row.append((F0, F0))
            elif rng.random() < 0.5:
                row.append((part(), F0))
            else:
                row.append((part(), part()))
        out.append(row)
    return out


def as_matrix(pairs):
    return Matrix([[gr(re, im) for re, im in row] for row in pairs])


def as_pairs(m):
    return [[parts(x) for x in row] for row in m.rows]


def test_kernel_matches_dense_reference_on_sparse_matrices():
    rng = random.Random(20261018)
    for _ in range(60):
        nr, nk, nc = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        pa, pb = sparse_pairs(rng, nr, nk), sparse_pairs(rng, nk, nc)
        a, b = as_matrix(pa), as_matrix(pb)
        assert as_pairs(a * b) == dense_mul(pa, pb)
        v = sparse_pairs(rng, 1, nk, blank=False)[0]
        got = a.matvec(tuple(gr(re, im) for re, im in v))
        assert [parts(x) for x in got] == dense_matvec(pa, v)
        u, w = sparse_pairs(rng, 2, nk, blank=False)
        got = hdot(tuple(gr(*x) for x in u), tuple(gr(*x) for x in w))
        assert parts(got) == dense_hdot(u, w)
        red, pivots = rref(a)
        want_rows, want_pivots = dense_rref(pa)
        assert pivots == want_pivots
        assert as_pairs(red) == want_rows
        assert [[parts(x) for x in k] for k in kernel_basis(a)] == dense_kernel(pa)
        for row in red.rows + tuple(kernel_basis(a)):
            assert all(isinstance(x, GaussianRational) for x in row)


def test_zero_short_cuts_match_dense_and_stay_scalars():
    values = [gr(3), gr("-1/2"), gr(0, 2), gr(1, -1), gr("2/3", "5/7")]
    for x in values:
        px = parts(x)
        for z in (ZERO, gr(0, 0), 0, Fraction(0)):
            cases = [
                (z * x, (F0, F0)),
                (x * z, (F0, F0)),
                (x + z, px),
                (z + x, px),
                (x - z, px),
                (z - x, (-px[0], -px[1])),
            ]
            for got, want in cases:
                assert isinstance(got, GaussianRational)
                assert parts(got) == want
    for x in (gr(3), gr("-1/2"), ZERO):
        got = x.conjugate()
        assert isinstance(got, GaussianRational)
        assert parts(got) == _pconj(parts(x))
    assert parts(gr(1, 2).conjugate()) == (Fraction(1), Fraction(-2))


def textbook_gram_schmidt(vectors):
    out = []
    for v in vectors:
        w = v
        for u in out:
            w = vsub(w, vscale(hdot(v, u) / hdot(u, u), u))
        if is_zero_vector(w):
            raise PreconditionError("gram_schmidt input not independent")
        out.append(w)
    return out


def test_gram_schmidt_matches_the_textbook_routine():
    rng = random.Random(20261018)
    for _ in range(80):
        nv, n = rng.randint(1, 6), rng.randint(1, 7)
        vs = [tuple(gr(*x) for x in row) for row in sparse_pairs(rng, nv, n, blank=False)]
        # unit vectors and repeated supports, as the harmonic bases have them
        if rng.random() < 0.3:
            vs = [tuple(ONE if c == r else ZERO for c in range(n)) for r in rng.sample(range(n), min(n, nv))]
        got = gram_schmidt(vs)
        try:
            want = textbook_gram_schmidt(vs)
        except PreconditionError:
            # dependent input: the first dependent vector comes out zero
            k = next(i for i, w in enumerate(got) if not any(w))
            assert got[:k] == textbook_gram_schmidt(vs[:k])
            with pytest.raises(PreconditionError):
                textbook_gram_schmidt(vs[: k + 1])
            continue
        assert got == want
        assert all(type(w) is tuple for w in got)


def dense_in_span(v, kept):
    """Span membership by the dense reference's rank, which shares no code
    with EchelonBasis, as rank and in_span do not."""

    def dense_rank(vs):
        return len(dense_rref([[parts(x) for x in u] for u in vs])[1]) if vs else 0

    return dense_rank(kept + [v]) == dense_rank(kept)


def test_echelon_basis_membership_matches_in_span():
    rng = random.Random(20261019)
    for _ in range(80):
        n = rng.randint(1, 7)
        vs = [tuple(gr(*x) for x in row) for row in sparse_pairs(rng, rng.randint(1, 8), n, blank=False)]
        span, kept = EchelonBasis(), []
        for v in vs:
            inside = dense_in_span(v, kept)
            assert (v in span) == inside
            assert span.add(v) == (not inside)
            if not inside:
                kept.append(v)
            assert v in span
        assert not kept or rank(Matrix(kept)) == len(kept)
        probe = tuple(gr(*x) for x in sparse_pairs(rng, 1, n, blank=False)[0])
        assert (probe in span) == dense_in_span(probe, kept)
        assert (probe in EchelonBasis(row_space_basis(vs))) == dense_in_span(probe, vs)


def test_api_error_messages():
    row = Matrix([[1, 2]])
    assert error_of(lambda: Matrix([[1, 2], [3]])) == (ValueError, "ragged rows")
    assert error_of(lambda: Matrix.from_columns([[1, 2], [3]])) == (ValueError, "ragged columns")
    assert error_of(lambda: row * row) == (ValueError, "shape mismatch")
    assert error_of(lambda: row.matvec((1,))) == (ValueError, "shape mismatch")
    assert error_of(lambda: inverse(row)) == (PreconditionError, "matrix not square")
    assert error_of(lambda: inverse(Matrix([[1, 2], [2, 4]]))) == (
        NotSolvableError, "matrix not invertible"
    )
