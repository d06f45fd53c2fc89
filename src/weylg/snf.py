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
on the incidence-like boundary matrices.  The pivot's row is cleared
in one loop: each column k with an entry in row r gets factor
-H[k][r] p times the pivot column, and since p = +-1 its entry in row
r becomes H[k][r] (1 - p^2) = 0, so it is dropped rather than summed.
An update reads only the pivot column, which is already out of the
row index, and its own target, so the targets can be taken in any
order with the same result.  The small non-unit remainder
is then folded, row by row, into gcd columns, which leaves the whole
matrix in column echelon form; solving substitutes along its pivots
and maps the result back through the transform V with H = A V.  Only
the pivot columns of V are read, so only they are built, in the product
form of Markowitz ("The elimination form of the inverse", 1957): each
unit-phase column operation is recorded, and a column's transform is
expanded when the column becomes a unit pivot, after which nothing
touches it, so every earlier pivot's transform it reads is final.  The
fold runs its operations on a transform W over the columns it starts
from, and a fold pivot's V is its W column applied to their unit-phase
transforms.
The Smith invariants of the folded remainder come from the same engine
run on its transpose, alternating until the pivots are diagonal, as in
Kannan and Bachem's alternating echelon forms (SIAM J. Comput., 1979).
Everything is fraction-free arbitrary-precision integer arithmetic, and
all work is ordered by integer row and column positions only.
Every elimination works in place on the column dicts it is handed,
which the caller reads no more; a caller that needs them hands copies.
"""

from __future__ import annotations

import functools
import heapq


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


def _axpy(target, source, factor):
    """target += factor * source on sparse columns.

    Both columns store nonzero entries only; a zero factor leaves the
    target as it is."""
    if not factor:
        return
    for i, v in source.items():
        new = target.get(i, 0) + factor * v
        if new:
            target[i] = new
        else:
            del target[i]


class Elimination:
    """Column echelon form H = A V of a sparse integer matrix.

    After construction, ``pivots`` lists the (row, column) pivots: the
    first ``units`` are the +-1 pivots in elimination order, the rest
    the positive pivots of the gcd fold.  A pivot column of ``H`` is
    zero in the rows of all earlier pivots, and every other column of
    ``H`` is zero, so the rank is ``len(pivots)``.  With ``track``,
    ``V[c]`` is the transform column with ``H[c] = A V[c]`` for each
    pivot column c, and ``V[j]`` is None for every other column.  A unit
    pivot's column is expanded from its recorded operations once it is
    a pivot, when no later operation can change it; a fold pivot's is
    its fold transform W over the leftover columns, each expanded the
    same way.
    """

    def __init__(self, columns, track=False):
        self.H = columns
        self.V = [None] * len(self.H) if track else None
        self.pivots = []
        if not any(self.H):
            # nothing to index, order or fold
            self.units = 0
            return
        # with track, ops[k] lists the (pivot column, factor) operations
        # applied to column k, until V is built from them
        ops = [[] for _ in self.H] if track else None
        self._fold(self._eliminate_units(ops), ops)

    def _expand(self, j, ops):
        """e_j plus factor * V[src] for each recorded operation on j."""
        out = {j: 1}
        for src, factor in ops[j]:
            _axpy(out, self.V[src], factor)
        return out

    def _eliminate_units(self, ops):
        """Unit pivots; returns the nonzero columns left over."""
        H = self.H
        rows = {}  # row -> active columns with an entry there
        for j, col in enumerate(H):
            for i in col:
                rows.setdefault(i, set()).add(j)
        order = sorted(range(len(H)), key=lambda j: (len(H[j]), j))
        while order:
            waiting = []
            for j in order:
                col = H[j]
                r = None
                for i, v in col.items():
                    if v == 1 or v == -1:
                        n = len(rows[i])
                        if r is None or n < least or (n == least and i < r):
                            r, least = i, n
                if r is None:
                    waiting.append(j)
                    continue
                p = col[r]
                for i in col:
                    rows[i].discard(j)
                rest = [(i, v) for i, v in col.items() if i != r]
                for k in rows.pop(r):
                    target = H[k]
                    factor = -target.pop(r) * p
                    for i, v in rest:
                        old = target.get(i)
                        if old is None:
                            target[i] = factor * v
                            rows[i].add(k)
                        elif new := old + factor * v:
                            target[i] = new
                        else:
                            del target[i]
                            rows[i].discard(k)
                    if ops is not None:
                        ops[k].append((j, factor))
                self.pivots.append((r, j))
                if ops is not None:
                    self.V[j] = self._expand(j, ops)
            if len(waiting) == len(order):
                break
            # fill-in may have created units in columns passed over
            order = waiting
        self.units = len(self.pivots)
        return sorted(j for j in order if H[j])

    def _fold(self, active, ops):
        """Folds the entries of each row, in row order, into one gcd
        column among the active ones, which becomes that row's pivot.
        With ``ops``, W[j] holds column j as a combination of the active
        columns, and a pivot's V is that combination of their transforms
        from the unit phase."""
        H = self.H
        if ops is None:
            mats = (H,)
        else:
            W = {a: {a: 1} for a in active}
            base = {}
            mats = (H, W)
        for row in sorted({i for j in active for i in H[j]}):
            cols = [j for j in active if row in H[j]]
            if not cols:
                continue
            lead = min(cols, key=lambda j: (abs(H[j][row]), j))
            for j in cols:
                if j == lead:
                    continue
                a, b = H[lead][row], H[j][row]
                if b % a == 0:
                    for M in mats:
                        _axpy(M[j], M[lead], -(b // a))
                else:
                    g, x, y = _xgcd(a, b)
                    for M in mats:
                        M[lead], M[j] = _combine(M[lead], M[j], x, y, -b // g, a // g)
            if H[lead][row] < 0:
                for M in mats:
                    M[lead] = {i: -v for i, v in M[lead].items()}
            self.pivots.append((row, lead))
            active.remove(lead)
            if ops is not None:
                out = {}
                for a, c in sorted(W.pop(lead).items()):
                    if a not in base:
                        base[a] = self._expand(a, ops)
                    _axpy(out, base[a], c)
                self.V[lead] = out


def smith_diagonal(columns) -> list:
    """Invariant factors d_1 | d_2 | .. | d_r of the sparse matrix, all
    positive; their number is the rank."""
    ones = 0
    while True:
        elim = Elimination(columns)
        ones += elim.units
        folded = elim.pivots[elim.units:]
        cols = [elim.H[j] for _, j in folded]
        if all(len(col) == 1 for col in cols):
            break
        # Transpose the folded columns, relabelled so that pivot k's row
        # becomes row k and is folded first in the next round.  A pivot
        # alone in its row and column stays so.  The first pivot p that
        # is not becomes alone in its new column, so the next fold of
        # its row yields gcd(p, its old column): that is p only when p
        # divides its whole row and column, and then p splits off;
        # otherwise |p| strictly falls.  Unit pivots only lower the
        # rank, so the loop ends.
        label = {row: k for k, (row, _) in enumerate(folded)}
        for i in sorted({i for col in cols for i in col} - label.keys()):
            label[i] = len(label)
        columns = [{} for _ in label]
        for k, col in enumerate(cols):
            for i, v in col.items():
                columns[label[i]][k] = v
    diag = [v for col in cols for v in col.values()]
    # enforce d_i | d_{i+1} by gcd/lcm folding, which preserves the
    # multiset of elementary divisor prime powers
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g, _, _ = _xgcd(a, b)
            diag[i] = g
            diag[j] = a * b // g
    return [1] * ones + diag


class ColumnSolver(Elimination):
    """Solves A y = b over the integers for many right-hand sides.

    The elimination with tracked transform gives H = A V in column
    echelon form; forward substitution along the pivots gives z with
    H z = b, and y = V z.  A pivot column of H is zero in the rows of
    the pivots before it, so substituting along pivot k changes the
    residual only in the rows of later pivots: a heap of the pivots
    whose rows the residual reaches visits the same pivots, in the same
    order, as a walk over all of them, and skips the rest.
    """

    def __init__(self, columns):
        super().__init__(columns, track=True)

    @functools.cached_property
    def _pivot_of(self) -> dict:
        """row -> index of its pivot in ``pivots``."""
        return {row: k for k, (row, _) in enumerate(self.pivots)}

    def solve(self, target):
        """Integer solution {column: coeff} of A y = target, given as
        {row: coeff}, or None."""
        residual = {i: c for i, c in target.items() if c}
        pivot_of = self._pivot_of
        heap = [pivot_of[i] for i in residual if i in pivot_of]
        heapq.heapify(heap)
        z = {}
        while heap:
            row, col = self.pivots[heapq.heappop(heap)]
            v = residual.get(row)
            if not v:
                # queued again after its row was emptied and refilled
                continue
            p = self.H[col][row]
            if v % p != 0:
                return None
            z[col] = factor = v // p
            # residual -= factor * H[col], queueing the rows it fills
            for i, c in self.H[col].items():
                old = residual.get(i)
                if old is None:
                    residual[i] = -factor * c
                    if i in pivot_of:
                        heapq.heappush(heap, pivot_of[i])
                elif new := old - factor * c:
                    residual[i] = new
                else:
                    del residual[i]
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
