"""Validation, ascending series and center of nilpotent algebras."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import error_of
from reference import center, in_span
from nilcx.errors import ValidationError
from nilcx.lie import LieAlgebra, ascending_series, validate_lie
from nilcx.linalg import Matrix, rank
from nilcx.scalars import I, ONE, ZERO


def h9():
    return LieAlgebra(
        6, {(1, 2): {3: 1}, (1, 3): {6: 1}, (2, 4): {6: 1}}, name="h9"
    )


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


def abelian(m):
    return LieAlgebra(m, {}, name=f"abelian{m}")


def so3():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    return LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})


def unit(m, i):
    return tuple(ONE if j == i else ZERO for j in range(m))


def test_h9_is_valid_three_step():
    rep = validate_lie(h9())
    assert rep.ok
    assert rep.step == 3
    assert rep.errors == ()


def test_h15_is_valid_three_step():
    rep = validate_lie(h15())
    assert rep.ok and rep.step == 3


def test_abelian_is_one_step():
    rep = validate_lie(abelian(6))
    assert rep.ok and rep.step == 1


def test_so3_not_nilpotent():
    rep = validate_lie(so3())
    assert not rep.ok
    assert rep.errors == ("not nilpotent: the ascending central series stops at level 0, dim 0 of 3",)
    assert rep.step is None


def test_jacobi_violation_located():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    rep = validate_lie(bad)
    assert not rep.ok
    assert "jacobi violated at (1,2,3)" in rep.errors


def test_bracket_antisymmetric_closure():
    a = h9()
    assert a.bracket(unit(6, 0), unit(6, 1)) == unit(6, 2)
    assert a.bracket(unit(6, 1), unit(6, 0)) == tuple(-x for x in unit(6, 2))
    # the constants are kept for both index orders, the second negated
    assert a._c[(0, 1)] == {2: 1} and a._c[(1, 0)] == {2: -1}


def test_bracket_bilinear_extension():
    a = h9()
    u = tuple(ONE for _ in range(6))
    v = unit(6, 0)
    # [u, e1] = -[e1, u] = -(e3 + e6) from [e1,e2] and [e1,e3]
    w = a.bracket(u, v)
    assert w == tuple(-x - y for x, y in zip(unit(6, 2), unit(6, 5)))


def test_bad_bracket_keys_rejected():
    with pytest.raises(ValidationError):
        LieAlgebra(3, {(2, 1): {3: 1}})
    with pytest.raises(ValidationError):
        LieAlgebra(3, {(1, 2): {4: 1}})
    with pytest.raises(ValidationError, match="c\\^3_12 is not real"):
        LieAlgebra(3, {(1, 2): {3: I}})
    # int, Fraction, text and real scalars give one table
    tables = [
        LieAlgebra(3, {(1, 2): {3: c}}).bracket_table() for c in (-1, Fraction(-2, 2), "-1", -ONE)
    ]
    assert tables == [{(1, 2): {3: -1}}] * 4


def test_ascending_series_h9_dims():
    flag = ascending_series(h9())
    assert flag.dims == (2, 4, 6)
    # g_1 = span{e5, e6}
    assert list(flag.level(1)) == [unit(6, 4), unit(6, 5)]


def test_ascending_series_h15_dims():
    flag = ascending_series(h15())
    assert flag.dims == (2, 4, 6)
    assert list(flag.level(2)) == [unit(6, 2), unit(6, 3), unit(6, 4), unit(6, 5)]


def test_ascending_series_abelian():
    assert ascending_series(abelian(5)).dims == (5,)


def test_series_brackets_drop_a_level():
    a = h15()
    flag = ascending_series(a)
    for ell in range(1, flag.depth + 1):
        below = list(flag.level(ell - 1))
        for v in flag.level(ell):
            for j in range(a.dim):
                w = a.bracket(v, unit(a.dim, j))
                assert in_span(w, below) or all(not x for x in w)


def test_center_h9():
    assert center(h9()) == [unit(6, 4), unit(6, 5)]


def test_center_matches_first_series_level():
    for a in (h9(), h15(), abelian(4)):
        assert list(ascending_series(a).level(1)) == center(a)


def test_center_abelian_is_everything():
    assert len(center(abelian(7))) == 7


def test_flag_level_zero_is_empty():
    flag = ascending_series(h9())
    assert flag.level(0) == ()
    assert flag.depth == 3


def test_ad_rows_shape_and_action():
    a = h9()
    ad1 = a.ad_rows()[0]
    dense = Matrix([[row.get(c, 0) for c in range(6)] for row in ad1])
    assert dense.matvec(unit(6, 1)) == a.bracket(unit(6, 0), unit(6, 1))
    assert rank(dense) == 2


# ------------------------------------------- validation: memo and sparse Jacobi


def test_validation_is_kept_and_the_algebra_stays_immutable():
    a = h15()
    first = validate_lie(a)
    assert validate_lie(a) == first
    assert ascending_series(a).dims == (2, 4, 6)
    for name in ("_checked", "dim", "fresh"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, None)
    assert validate_lie(a) == first


def _dense_constants(dim, table):
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in table.items():
        for k, x in comps.items():
            c[i - 1][j - 1][k - 1] += Fraction(x)
            c[j - 1][i - 1][k - 1] -= Fraction(x)
    return c


def _dense_bracket(c, u, v):
    n = len(u)
    return [
        sum(u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n) if u[i] and v[j])
        for k in range(n)
    ]


def _echelon(rows):
    """Independent rows spanning the same space, by Fraction elimination."""
    rows = [list(r) for r in rows if any(r)]
    out = []
    while rows:
        piv = rows.pop()
        col = next(k for k, x in enumerate(piv) if x)
        out.append(piv)
        rows = [
            r2
            for r in rows
            if any(r2 := [x - r[col] / piv[col] * y for x, y in zip(r, piv)])
        ]
    return out


def _dense_kernel(rows, dim):
    """Basis of {x : r . x = 0 for every row r}, by Fraction elimination."""
    pivots = {}  # pivot column -> reduced row
    for r in rows:
        r = list(r)
        for col, p in pivots.items():
            if r[col]:
                r = [x - r[col] * y for x, y in zip(r, p)]
        col = next((k for k, x in enumerate(r) if x), None)
        if col is None:
            continue
        r = [x / r[col] for x in r]
        pivots = {c: [x - p[col] * y for x, y in zip(p, r)] for c, p in pivots.items()}
        pivots[col] = r
    basis = []
    for free in (k for k in range(dim) if k not in pivots):
        x = [Fraction(int(k == free)) for k in range(dim)]
        for col, p in pivots.items():
            x[col] = -p[free]
        basis.append(x)
    return basis


def _dense_stop(c, dim):
    """(level, dim) where the ascending central series Z_k stops:
    Z_{k+1} = {x : n . [x, e_i] = 0 for every i and every n that annihilates Z_k}."""
    level, depth = [], 0
    while True:
        ann = _dense_kernel(level, dim)
        conds = [
            [sum(x * y for x, y in zip(n, c[a][i])) for a in range(dim)]
            for n in ann
            for i in range(dim)
        ]
        nxt = _dense_kernel(conds, dim)
        if len(nxt) == len(level):
            return depth, len(level)
        level, depth = nxt, depth + 1


def _dense_errors(dim, table):
    """validate_lie's errors by brackets of dense brackets over Fraction."""
    c = _dense_constants(dim, table)
    e = [[Fraction(int(a == b)) for b in range(dim)] for a in range(dim)]

    def br(u, v):
        return _dense_bracket(c, u, v)

    errors = []
    for i, j, k in combinations(range(dim), 3):
        terms = (
            br(br(e[i], e[j]), e[k]),
            br(br(e[j], e[k]), e[i]),
            br(br(e[k], e[i]), e[j]),
        )
        if any(sum(col) for col in zip(*terms)):
            errors.append(f"jacobi violated at ({i + 1},{j + 1},{k + 1})")
    if errors:
        return tuple(errors)
    # lower central series g > [g, g] > ... reaches 0 iff nilpotent
    level = e
    while level:
        nxt = _echelon([br(x, w) for x in e for w in level])
        if len(nxt) == len(level):
            depth, top = _dense_stop(c, dim)
            assert top < dim
            series = f"the ascending central series stops at level {depth}, dim {top} of {dim}"
            return (f"not nilpotent: {series}",)
        level = nxt
    assert _dense_stop(c, dim)[1] == dim
    return ()


def _to_table(c):
    n = len(c)
    return {
        (i + 1, j + 1): {k + 1: c[i][j][k] for k in range(n) if c[i][j][k]}
        for i, j in combinations(range(n), 2)
        if any(c[i][j])
    }


def _sheared(rng, dim, table):
    """The same algebra on a basis f_a = e_a + t e_b, a few shears deep."""
    for _ in range(3):
        a, b = rng.sample(range(dim), 2)
        t = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        c = _dense_constants(dim, table)
        f = [[Fraction(int(x == y)) for y in range(dim)] for x in range(dim)]
        f[a][b] = t
        new = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for x in range(dim):
            for y in range(dim):
                w = _dense_bracket(c, f[x], f[y])
                # e_a = f_a - t f_b, so coordinates in f differ only at b
                w[b] -= t * w[a]
                new[x][y] = w
        table = _to_table(new)
    return table


def _random_table(rng, dim, upper):
    table = {}
    for i, j in combinations(range(1, dim + 1), 2):
        targets = range(j + 1, dim + 1) if upper else range(1, dim + 1)
        if targets and rng.random() < 0.35:
            ks = rng.sample(list(targets), min(len(targets), rng.choice([1, 2])))
            table[(i, j)] = {k: Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])) for k in ks}
    return table


# valid algebras of dimension 3 or 4, padded with an abelian factor
_SEEDS = [
    (3, {(1, 2): {3: 1}}),  # Heisenberg: nilpotent
    (4, {(1, 2): {3: 1}, (1, 3): {4: 1}}),  # filiform: nilpotent
    (2, {(1, 2): {2: 1}}),  # affine line: solvable, not nilpotent
    (3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}),  # so(3)
]


def test_sparse_jacobi_matches_dense_reference():
    rng = random.Random(20261019)
    outcomes, stops = set(), set()
    for case in range(90):
        dim = rng.randint(3, 7)
        kind = case % 3
        if kind == 0:
            table = _random_table(rng, dim, upper=False)
        elif kind == 1:
            table = _random_table(rng, dim, upper=True)
        else:
            _, base = rng.choice([s for s in _SEEDS if s[0] <= dim])
            table = _sheared(rng, dim, base)
            if rng.random() < 0.3 and table:
                key = rng.choice(sorted(table))
                k = rng.choice(sorted(table[key]))
                table[key] = {**table[key], k: table[key][k] + 1}
        want = _dense_errors(dim, table)
        got = validate_lie(LieAlgebra(dim, table)).errors
        assert got == want, (dim, table)
        outcomes.add(want[0].split(":")[0].split(" at ")[0] if want else want)
        if want and want[0].startswith("not nilpotent"):
            stops.add(want[0].rsplit(" at ", 1)[1])
    assert outcomes == {"jacobi violated", "not nilpotent", ()}
    # the series stops at a zero center, and at a nonzero one
    assert "level 0, dim 0 of 3" in stops
    assert any(stop.startswith("level 1") for stop in stops)


def test_api_error_messages():
    assert error_of(lambda: LieAlgebra(-1, {})) == (ValidationError, "dimension must be nonnegative")
    assert error_of(lambda: LieAlgebra(3, {(1, 4): {2: 1}})) == (
        ValidationError, "bracket key (1,4) must satisfy 1 <= i < j <= dim"
    )
    assert error_of(lambda: LieAlgebra(3, {(1, 2): {4: 1}})) == (
        ValidationError, "bracket target e4 out of range"
    )
    assert error_of(lambda: LieAlgebra(3, {(1, 2): {3: I}})) == (
        ValidationError, "bracket constant c^3_12 is not real"
    )
    solvable = LieAlgebra(2, {(1, 2): {2: 1}})
    assert error_of(lambda: ascending_series(solvable)) == (
        ValidationError, "not nilpotent: the ascending central series stops at level 0, dim 0 of 2"
    )
