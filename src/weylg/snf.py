"""Exact integer linear algebra on sparse columns: Smith invariants and
integer solving from one elimination engine.

A matrix is a list of columns, one ``{row: coeff}`` dict per column with
no zero entries stored.  The engine first eliminates +-1 pivots by
column operations on the Schur complement (Dumas, Heckenbach, Saunders
and Welker, "Computing simplicial homology based on efficient Smith
normal form algorithms", 2003): a unit pivot at (r, j) contributes the
invariant factor 1 and removes row r and column j.  Columns are visited
in order of increasing length, and within a column the +-1 entry whose
row is shortest is taken, a cheap Markowitz rule that keeps fill-in low
on the incidence-like boundary matrices.  Only the small non-unit
remainder is finished densely: by the Smith loop for invariants, and by
a gcd column fold for solving.  Everything is fraction-free
arbitrary-precision integer arithmetic, and all work is ordered by
integer row and column positions only.
"""

from __future__ import annotations


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _axpy(target, source, factor, rows=None, col=None):
    """target += factor * source on sparse columns; keeps the row ->
    columns index of column `col` current when one is given."""
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


class Elimination:
    """Unit-pivot column elimination of a sparse integer matrix.

    After construction, ``pivots`` lists the (row, column) unit pivots
    in elimination order and ``rest`` the columns left over, in column
    order.  ``H`` holds the reduced columns; a pivot column is zero in
    the rows of all earlier pivots, and every column in ``rest`` is zero
    in all pivot rows.  With ``track``, ``V`` holds the transform
    columns, so that H = A V with V unimodular.  The input columns are
    not modified.
    """

    def __init__(self, columns, track=False):
        self.H = [dict(col) for col in columns]
        self.V = [{j: 1} for j in range(len(self.H))] if track else None
        self.pivots = []
        self.rest = []
        self._eliminate_units()

    def _eliminate_units(self):
        H, V = self.H, self.V
        rows = {}  # row -> active columns with an entry there
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
                    _axpy(H[k], col, factor, rows, k)
                    if V is not None:
                        _axpy(V[k], V[j], factor)
                del rows[r]
                self.pivots.append((r, j))
            if len(waiting) == len(order):
                break
            # fill-in may have created units in columns passed over
            order = waiting
        self.rest = sorted(j for j in order if H[j])

    def remainder(self) -> list:
        """Dense rows of the non-unit remainder: the nonzero rest
        columns restricted to the rows they touch."""
        cols = [self.H[j] for j in self.rest]
        used = sorted({i for col in cols for i in col})
        return [[col.get(i, 0) for col in cols] for i in used]


def smith_diagonal(columns) -> list:
    """Invariant factors d_1 | d_2 | .. | d_r of the sparse matrix, all
    positive; their number is the rank."""
    elim = Elimination(columns)
    return [1] * len(elim.pivots) + _dense_smith(elim.remainder())


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


class ColumnSolver(Elimination):
    """Solves A y = b over the integers for many right-hand sides.

    The unit elimination with tracked transform is completed by a gcd
    column fold of the remainder, row by row, into column echelon form:
    H = A V with every pivot column zero in the rows of all earlier
    pivots.  Forward substitution along the pivots gives z with H z = b,
    and y = V z.
    """

    def __init__(self, columns):
        super().__init__(columns, track=True)
        self._fold()

    def _fold(self):
        H, V = self.H, self.V
        active = list(self.rest)
        for row in sorted({i for j in active for i in H[j]}):
            cols = [j for j in active if row in H[j]]
            if not cols:
                continue
            # fold all nonzero entries in this row into one gcd column
            lead = min(cols, key=lambda j: (abs(H[j][row]), j))
            for j in cols:
                if j == lead:
                    continue
                a, b = H[lead][row], H[j][row]
                if b % a == 0:
                    _axpy(H[j], H[lead], -(b // a))
                    _axpy(V[j], V[lead], -(b // a))
                else:
                    g, x, y = _xgcd(a, b)
                    H[lead], H[j] = _combine(H[lead], H[j], x, y, -b // g, a // g)
                    V[lead], V[j] = _combine(V[lead], V[j], x, y, -b // g, a // g)
            if H[lead][row] < 0:
                H[lead] = {i: -v for i, v in H[lead].items()}
                V[lead] = {i: -v for i, v in V[lead].items()}
            self.pivots.append((row, lead))
            active.remove(lead)

    def solve(self, target):
        """Integer solution {column: coeff} of A y = target, given as
        {row: coeff}, or None."""
        residual = {i: c for i, c in target.items() if c}
        z = {}
        for row, col in self.pivots:
            v = residual.get(row)
            if not v:
                continue
            p = self.H[col][row]
            if v % p != 0:
                return None
            z[col] = v // p
            _axpy(residual, self.H[col], -(v // p))
        if residual:
            return None
        y = {}
        for col in sorted(z):
            _axpy(y, self.V[col], z[col])
        return y


def _combine(c1, c2, x, y, u, v):
    """The columns (x c1 + y c2, u c1 + v c2)."""
    out1, out2 = {}, {}
    for i in sorted(c1.keys() | c2.keys()):
        a, b = c1.get(i, 0), c2.get(i, 0)
        s, t = x * a + y * b, u * a + v * b
        if s:
            out1[i] = s
        if t:
            out2[i] = t
    return out1, out2
