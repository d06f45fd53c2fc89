import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylg import snf
from weylg.cells import BarCell, boundary, join
from weylg.groups import parse_group
from weylg.homology import CellComplex
from weylg.snf import (
    ColumnSolver, Elimination, _axpy, _combine, _xgcd, smith_diagonal,
)


def columns(matrix):
    """Dense rows -> sparse {row: coeff} columns."""
    n = len(matrix[0]) if matrix else 0
    return [
        {i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(n)
    ]


def smith(matrix):
    return smith_diagonal(columns(matrix))


def solve(matrix, b):
    """Dense solution of matrix y = b through the sparse solver, or None."""
    n = len(matrix[0]) if matrix else 0
    y = ColumnSolver(columns(matrix)).solve(dict(enumerate(b)))
    return None if y is None else [y.get(j, 0) for j in range(n)]


def apply(matrix, y):
    return [sum(a * x for a, x in zip(row, y)) for row in matrix]


def minor_gcd_divisors(matrix):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    divisors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, _det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        divisors.append(g // previous)
        previous = g
    return divisors


def _det(mat):
    k = len(mat)
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


# Test-only reference: the dense Smith loop that finished the non-unit
# remainder before the gcd fold took over.
def _dense_smith(A) -> list:
    """Nonzero Smith diagonal of a dense matrix, destroyed in place."""
    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    t = 0
    while t < m and t < n:
        pivot = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    a = abs(v)
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        while True:
            p = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                v = A[i][t]
                if v == 0:
                    continue
                if v % p == 0:
                    q = v // p
                    Ai, At = A[i], A[t]
                    for j in range(t, n):
                        Ai[j] -= q * At[j]
                else:
                    g, x, y = _xgcd(p, v)
                    mp, vp = p // g, v // g
                    Ai, At = A[i], A[t]
                    for j in range(t, n):
                        a, b = At[j], Ai[j]
                        At[j] = x * a + y * b
                        Ai[j] = -vp * a + mp * b
                    p = g
                dirty = True
            cleaned = True
            p = A[t][t]
            for j in range(t + 1, n):
                v = A[t][j]
                if v == 0:
                    continue
                if v % p == 0:
                    q = v // p
                    for row in A:
                        row[j] -= q * row[t]
                else:
                    g, x, y = _xgcd(p, v)
                    mp, vp = p // g, v // g
                    for row in A:
                        a, b = row[t], row[j]
                        row[t] = x * a + y * b
                        row[j] = -vp * a + mp * b
                    p = g
                    cleaned = False
                dirty = True
            if not dirty or cleaned:
                # column ops may have re-dirtied the pivot column
                if all(A[i][t] == 0 for i in range(t + 1, m)):
                    break
        diag.append(abs(A[t][t]))
        t += 1
    # enforce d_i | d_{i+1} by gcd/lcm folding, which preserves the
    # multiset of elementary divisor prime powers
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g, _, _ = _xgcd(a, b)
            diag[i] = g
            diag[j] = a * b // g
    return diag


def mostly_units(rng, m, n):
    """Sparse matrix of mostly +-1 entries with a few non-units."""
    def entry():
        x = rng.random()
        if x < 0.5:
            return 0
        if x < 0.85:
            return rng.choice((1, -1))
        return rng.choice((2, -2, 3, -3, 4, 6))

    return [[entry() for _ in range(n)] for _ in range(m)]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_divisors_match_minor_gcd_oracle(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    matrix = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    assert smith(matrix) == minor_gcd_divisors(matrix)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_mostly_unit_matrices_match_oracle(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    matrix = mostly_units(rng, m, n)
    assert smith(matrix) == minor_gcd_divisors(matrix)
    y = [rng.randint(-3, 3) for _ in range(n)]
    b = apply(matrix, y)
    sol = solve(matrix, b)
    assert sol is not None
    assert apply(matrix, sol) == b


def test_both_phases_agree_with_dense_smith():
    rng = random.Random(11)
    both = 0
    for _ in range(150):
        m, n = rng.randint(3, 9), rng.randint(3, 11)
        matrix = mostly_units(rng, m, n)
        elim = Elimination(columns(matrix))
        both += 0 < elim.units < len(elim.pivots)
        assert smith(matrix) == _dense_smith([list(row) for row in matrix])
        y = [rng.randint(-3, 3) for _ in range(n)]
        b = apply(matrix, y)
        assert apply(matrix, solve(matrix, b)) == b
    # the unit phase and the non-unit remainder both run on many cases
    assert both >= 30


def test_fold_that_is_not_diagonal():
    # the unit pivots leave [[2, 0], [2, 4]], whose first column fold is
    # not diagonal, so the invariants need a transposed second round
    matrix = [[1, 1, 0, 0], [1, 3, 0, 1], [0, 2, 4, 0], [0, 0, 0, 1]]
    elim = Elimination(columns(matrix))
    assert elim.units == 2
    assert any(len(elim.H[j]) > 1 for _, j in elim.pivots[elim.units:])
    assert smith(matrix) == minor_gcd_divisors(matrix) == [1, 1, 2, 4]


def test_divisibility_chain():
    rng = random.Random(4)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith(matrix)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert all(d > 0 for d in diag)


def test_rank_of_known_matrices():
    assert len(smith([[1, 2], [2, 4]])) == 1
    assert len(smith([[0, 0], [0, 0]])) == 0
    assert len(smith([[2, 0], [0, 3]])) == 2


def test_axpy_with_zero_factor_leaves_the_target():
    target = {}
    _axpy(target, {2: 5}, 0)
    assert target == {}
    target, rows = {1: 3}, {1: {0}}
    indexed_axpy(target, {1: 4, 2: 5}, 0, rows, 0)
    assert target == {1: 3} and rows == {1: {0}}


def test_eliminating_handed_out_columns_leaves_the_complex_intact():
    """boundary_columns hands out fresh columns: eliminating them in
    place changes neither the complex's later columns nor its
    membership witnesses."""
    z3 = parse_group("Z/3")
    g1, g2 = z3.element((1,)), z3.element((2,))
    complex_ = CellComplex(z3, 1)
    smith_diagonal(complex_.boundary_columns(2))
    assert complex_.boundary_columns(3) == (
        CellComplex(z3, 1).boundary_columns(3)
    )
    chain = boundary(join(1, (BarCell((g1,)), BarCell((g1, g2)))))
    ok, witness = complex_.boundary_membership(chain)
    assert ok and boundary(witness) == chain


def test_elimination_works_in_place_on_the_columns_handed_over():
    """Elimination, ColumnSolver and smith_diagonal eliminate the very
    columns they are handed, with the results of the reference on a
    copy; columns without an entry are not eliminated at all."""
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        matrix = mostly_units(rng, m, n)
        ref = eager_solver(columns(matrix))
        cols = columns(matrix)
        elim = Elimination(cols)
        assert elim.H is cols
        assert (elim.pivots, elim.units, elim.H) == (ref.pivots, ref.units, ref.H)
        cols = columns(matrix)
        assert ColumnSolver(cols).H is cols
        # the first round of smith_diagonal eliminates the input
        cols = columns(matrix)
        assert smith_diagonal(cols) == smith(matrix)
        assert cols == ref.H
    for empty in ([], [{}], [{}, {}, {}]):
        solver = ColumnSolver(empty)
        assert (solver.pivots, solver.units) == ([], 0)
        assert solver.V == [None] * len(empty)
        assert solver.solve({}) == {} and solver.solve({0: 1}) is None
        assert smith_diagonal(empty) == []


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_solver_roundtrip(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    y = [rng.randint(-4, 4) for _ in range(n)]
    b = [sum(matrix[i][j] * y[j] for j in range(n)) for i in range(m)]
    sol = solve(matrix, b)
    assert sol is not None
    assert [sum(matrix[i][j] * sol[j] for j in range(n)) for i in range(m)] == b


def test_unsolvable_cases():
    assert solve([[2]], [1]) is None
    assert solve([[2, 4], [0, 0]], [2, 1]) is None
    assert solve([[0]], [0]) == [0]


def test_solver_reuse():
    solver = ColumnSolver(columns([[1, 2], [3, 4]]))
    assert solver.solve({0: 1, 1: 3}) == {0: 1}
    assert solver.solve({0: 2, 1: 4}) == {1: 1}
    assert solver.solve({0: 3, 1: 7}) == {0: 1, 1: 1}


@pytest.mark.parametrize("group", ["Z/4", "Z/2xZ/2"])
def test_boundary_matrices_match_sympy(group):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    complex_ = CellComplex(parse_group(group), 1)
    for n in range(1, 5):
        dense = complex_.boundary_matrix(n)
        normal = smith_normal_form(sympy.Matrix(dense), domain=ZZ)
        expected = [
            abs(normal[i, i]) for i in range(min(normal.shape)) if normal[i, i]
        ]
        assert smith_diagonal(complex_.boundary_columns(n)) == expected


# Test-only reference: the column update that kept the row index
# current, one call per updated column.
def indexed_axpy(target, source, factor, rows=None, col=None):
    """target += factor * source on sparse columns; keeps the row ->
    columns index of column `col` current when one is given.

    Both columns store nonzero entries only; a zero factor leaves the
    target as it is."""
    if not factor:
        return
    for i, v in source.items():
        new = target.get(i, 0) + factor * v
        if new:
            if rows is not None and i not in target:
                rows.setdefault(i, set()).add(col)
            target[i] = new
        else:
            del target[i]
            if rows is not None:
                rows[i].discard(col)


# Test-only reference: the eager transform, which updated V[k] with
# every column operation on k, for all columns.
def eager_solver(cols):
    """A ColumnSolver whose V was tracked eagerly on every column."""
    H = [dict(col) for col in cols]
    V = [{j: 1} for j in range(len(H))]
    pivots = []
    rows = {}
    for j, col in enumerate(H):
        for i in col:
            rows.setdefault(i, set()).add(j)
    order = sorted(range(len(H)), key=lambda j: (len(H[j]), j))
    while order:
        waiting = []
        for j in order:
            col = H[j]
            units = [i for i, v in col.items() if v == 1 or v == -1]
            if not units:
                waiting.append(j)
                continue
            r = min(units, key=lambda i: (len(rows[i]), i))
            p = col[r]
            for i in col:
                rows[i].discard(j)
            for k in sorted(rows[r]):
                factor = -H[k][r] * p
                indexed_axpy(H[k], col, factor, rows, k)
                _axpy(V[k], V[j], factor)
            del rows[r]
            pivots.append((r, j))
        if len(waiting) == len(order):
            break
        order = waiting
    units = len(pivots)
    active = sorted(j for j in order if H[j])
    for row in sorted({i for j in active for i in H[j]}):
        cols_ = [j for j in active if row in H[j]]
        if not cols_:
            continue
        lead = min(cols_, key=lambda j: (abs(H[j][row]), j))
        for j in cols_:
            if j == lead:
                continue
            a, b = H[lead][row], H[j][row]
            if b % a == 0:
                for M in (H, V):
                    _axpy(M[j], M[lead], -(b // a))
            else:
                g, x, y = _xgcd(a, b)
                for M in (H, V):
                    M[lead], M[j] = _combine(M[lead], M[j], x, y, -b // g, a // g)
        if H[lead][row] < 0:
            for M in (H, V):
                M[lead] = {i: -v for i, v in M[lead].items()}
        pivots.append((row, lead))
        active.remove(lead)
    ref = ColumnSolver.__new__(ColumnSolver)
    ref.H, ref.V, ref.pivots, ref.units = H, V, pivots, units
    return ref


def times(cols, y):
    """The sparse product A y of columns and a {column: coeff} vector."""
    out = {}
    for j, c in y.items():
        if c:
            _axpy(out, cols[j], c)
    return out


def assert_deferred_matches_eager(cols, rng):
    # the solver eliminates its columns in place
    solver = ColumnSolver([dict(col) for col in cols])
    ref = eager_solver(cols)
    assert solver.pivots == ref.pivots
    assert solver.units == ref.units
    assert solver.H == ref.H
    pivot_cols = {c for _, c in solver.pivots}
    for c in pivot_cols:
        assert solver.V[c] == ref.V[c]
        assert times(cols, solver.V[c]) == solver.H[c]
    assert all(
        solver.V[j] is None for j in range(len(cols)) if j not in pivot_cols
    )
    for _ in range(3):
        y = {j: rng.randint(-3, 3) for j in range(len(cols))}
        b = times(cols, y)
        assert solver.solve(b) == ref.solve(b)
    # a target off the column space, where one exists
    for i in range(max((i + 1 for col in cols for i in col), default=0)):
        assert solver.solve({i: 1}) == ref.solve({i: 1})


def assert_untracked_matches_eager(cols):
    elim = Elimination([dict(col) for col in cols])
    ref = eager_solver(cols)
    assert elim.pivots == ref.pivots
    assert elim.units == ref.units
    assert elim.H == ref.H
    assert elim.V is None


def non_units(rng, m, n):
    """Sparse matrix whose entries are mostly not +-1."""
    return [[rng.choice((0, 0, 2, -3, 4, 5, -6, 9, 1)) for _ in range(n)]
            for _ in range(m)]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_untracked_elimination_matches_eager(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 9), rng.randint(1, 11)
    assert_untracked_matches_eager(columns(mostly_units(rng, m, n)))
    m, n = rng.randint(1, 6), rng.randint(1, 7)
    assert_untracked_matches_eager(columns(non_units(rng, m, n)))


@pytest.mark.parametrize("group", ["Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/2xZ/2"])
def test_untracked_elimination_matches_eager_on_identity_free_boundaries(group):
    for level in range(3):
        complex_ = CellComplex(parse_group(group), level)._normalized()
        for n in range(1, 5):
            assert_untracked_matches_eager(complex_.boundary_columns(n))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_deferred_transform_matches_eager_on_mostly_units(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 9), rng.randint(1, 11)
    assert_deferred_matches_eager(columns(mostly_units(rng, m, n)), rng)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_deferred_transform_matches_eager_on_non_units(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 6), rng.randint(1, 7)
    assert_deferred_matches_eager(columns(non_units(rng, m, n)), rng)


def test_deferred_transform_reaches_the_xgcd_fold(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _combine(*args)

    monkeypatch.setattr(snf, "_combine", counted)
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 7)
        matrix = [[rng.choice((0, 2, -3, 4, 1)) for _ in range(n)]
                  for _ in range(m)]
        assert_deferred_matches_eager(columns(matrix), rng)
    assert len(calls) >= 30


@pytest.mark.parametrize("group, top", [
    ("Z/2", 6), ("Z/3", 4), ("Z/4", 4), ("Z/2xZ/2", 4), ("Z/5", 4),
])
def test_deferred_transform_matches_eager_on_boundaries(group, top):
    complex_ = CellComplex(parse_group(group), 1)
    rng = random.Random(7)
    for n in range(1, top + 1):
        assert_deferred_matches_eager(complex_.boundary_columns(n), rng)


@pytest.mark.parametrize("group", ["Z/5", "Z/2xZ/2"])
def test_solver_roundtrip_on_boundaries(group):
    cols = CellComplex(parse_group(group), 1).boundary_columns(4)
    solver = ColumnSolver([dict(col) for col in cols])
    rng = random.Random(13)
    for _ in range(20):
        y = {j: rng.randint(-4, 4) for j in rng.sample(range(len(cols)), 40)}
        b = times(cols, y)
        assert times(cols, solver.solve(b)) == b
