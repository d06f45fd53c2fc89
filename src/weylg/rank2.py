"""Rank-2 combinatorics: quiddity cycles, friezes, triangulations.

A finite rank-2 groupoid walks through its objects by reflecting
alternately at the two indices; the negated Cartan entries recorded
along the walk form a periodic sequence whose cycle is the quiddity
cycle of a triangulated polygon.  Friezes are the integer patterns
generated from a quiddity cycle by the continuant recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidArguments,
    NonPeriodic,
    NotAQuiddityCycle,
)
from .groupoid import CartanGraph

_ROW_CAP = 10000  # frieze_row's longest row before it gives up


@dataclass(frozen=True)
class QuiddityCycle:
    entries: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.entries):
            raise InvalidArguments("quiddity entries must be non-negative")

    def __len__(self):
        return len(self.entries)

    def total(self):
        return sum(self.entries)


def _minimal_period(seq):
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[:p] * (n // p):
            return p
    return n


def quiddity_cycle(graph: CartanGraph, start: int = 0) -> QuiddityCycle:
    """Cycle of negated Cartan entries along the alternating walk.

    Reflect at 1, 2, 1, 2, .. from the object at position start, recording
    -c_{i, other} before each step, until the (object, next index) state
    recurs.  The recorded sequence is reduced to its minimal period p;
    the cycle length N then solves the triangle count identity
    sum = 3N - 6 on the periodic extension, N = 6p / (3p - sum(period)).
    A constant recorded sequence therefore still yields the full cycle
    (e.g. all entries 1 gives the triangle (1, 1, 1)).  The length
    alone does not make a quiddity cycle: the product of
    [[c, -1], [1, 0]] over the cycle (its eta-product) must be -I, or
    NotAQuiddityCycle is raised.  The affine walk with period (2,), for
    one, fits the length N = 6 but has eta-product [[7, -6], [6, -5]].
    """
    if graph.rank != 2:
        raise InvalidArguments("quiddity cycles are defined for rank 2")
    if not 0 <= start < len(graph):
        raise InvalidArguments(
            f"start {start} out of range 0..{len(graph) - 1}"
        )
    state = (start, 1)
    seen = {state}
    recorded = []
    cap = 2 * len(graph.objects) + 2
    for _ in range(cap):
        pos, i = state
        other = 2 if i == 1 else 1
        recorded.append(-graph.objects[pos].cartan.entry(i, other))
        state = (graph.edges[pos][i - 1], other)
        if state in seen:
            break
        seen.add(state)
    else:
        raise NonPeriodic(f"walk did not recur within {cap} steps")
    p = _minimal_period(tuple(recorded))
    period = tuple(recorded[:p])
    denom = 3 * p - sum(period)
    if denom <= 0 or (6 * p) % denom != 0:
        raise NotAQuiddityCycle(
            f"period {period} has no triangulation length"
        )
    length = 6 * p // denom
    if length % p != 0 or length < 3:
        raise NotAQuiddityCycle(
            f"period {period} has no triangulation length"
        )
    cycle = QuiddityCycle(period * (length // p))
    _check_eta_product(cycle, f"period {period}")
    return cycle


def checked_quiddity_cycle(entries) -> QuiddityCycle:
    """The cycle of typed entries, checked as quiddity_cycle checks a
    walked one: at least three entries, a sum of 3N - 6, and the
    eta-product -I."""
    cycle = QuiddityCycle(tuple(entries))
    name, n = f"cycle {cycle.entries}", len(cycle)
    if n < 3:
        raise NotAQuiddityCycle(f"{name} has {n} entries, fewer than 3")
    if cycle.total() != 3 * n - 6:
        raise NotAQuiddityCycle(
            f"{name} sums to {cycle.total()}, not 3N - 6 = {3 * n - 6}"
        )
    _check_eta_product(cycle, name)
    return cycle


def _check_eta_product(cycle: QuiddityCycle, name: str):
    """NotAQuiddityCycle unless the eta-product of the cycle is -I."""
    product = continuant_product(cycle)
    if product != ((-1, 0), (0, -1)):
        raise NotAQuiddityCycle(
            f"{name} gives eta-product {[list(r) for r in product]}, not -I"
        )


def frieze_row(cycle: QuiddityCycle, start: int) -> tuple:
    """One continuant row: 0, 1, then c_j * F_j - F_{j-1} until the next 0."""
    c = cycle.entries
    n = len(c)
    if n == 0:
        raise InvalidArguments("empty quiddity cycle")
    row = [0, 1]
    j = start + 1
    while row[-1] != 0 or len(row) == 2:
        row.append(c[j % n] * row[-1] - row[-2])
        j += 1
        if len(row) > _ROW_CAP:
            raise InvalidArguments("row did not close; not a quiddity cycle")
    return tuple(row)


def frieze_rows(cycle: QuiddityCycle) -> list:
    """All N rows in the staggered display order.

    Row r (indent r) starts at position r - 1 mod N, which reproduces the
    standard staggered layout with 0/1 borders.
    """
    n = len(cycle.entries)
    return [frieze_row(cycle, (r - 1) % n) for r in range(n)]


def render_frieze(cycle: QuiddityCycle) -> str:
    rows = frieze_rows(cycle)
    width = max(len(str(e)) for row in rows for e in row)
    out = []
    for r, row in enumerate(rows):
        indent = " " * (r * (width + 1))
        out.append(indent + " ".join(str(e).rjust(width) for e in row))
    return "\n".join(out)


def continuant_product(cycle: QuiddityCycle):
    """Product of [[c, -1], [1, 0]] over one full period (2x2 rows)."""
    a, b, c_, d = 1, 0, 0, 1
    for c in cycle.entries:
        a, b, c_, d = c * a + b, -a, c * c_ + d, -c_
    return ((a, b), (c_, d))


@dataclass(frozen=True)
class Triangulation:
    n: int
    diagonals: tuple  # ((i, j), ...) 0-based vertex pairs, i < j
    triangles: tuple  # ((i, j, k), ...) sorted triples

    def quiddity(self) -> QuiddityCycle:
        counts = [0] * self.n
        for tri in self.triangles:
            for v in tri:
                counts[v] += 1
        return QuiddityCycle(tuple(counts))


def triangulate(cycle: QuiddityCycle) -> Triangulation:
    """Ear-cutting: the cycle entries are triangle counts at the vertices.

    Repeatedly removes the lowest-index vertex with count 1 (an ear),
    recording its triangle and decrementing the neighbors.  Succeeds iff
    the sequence is a genuine quiddity cycle; the recomputed vertex
    counts always equal the input again.
    """
    n = len(cycle.entries)
    if n < 3:
        raise NotAQuiddityCycle(f"need at least 3 vertices, got {n}")
    counts = list(cycle.entries)
    alive = list(range(n))
    diagonals = []
    triangles = []
    while len(alive) > 3:
        ear = None
        for pos, v in enumerate(alive):
            if counts[v] == 1:
                ear = pos
                break
        if ear is None:
            raise NotAQuiddityCycle("no ear available; not a quiddity cycle")
        prev = alive[(ear - 1) % len(alive)]
        v = alive[ear]
        nxt = alive[(ear + 1) % len(alive)]
        triangles.append(tuple(sorted((prev, v, nxt))))
        diagonals.append((min(prev, nxt), max(prev, nxt)))
        counts[prev] -= 1
        counts[nxt] -= 1
        alive.pop(ear)
    if any(counts[v] != 1 for v in alive):
        raise NotAQuiddityCycle(
            "leftover counts do not form the final triangle"
        )
    triangles.append(tuple(sorted(alive)))
    tri = Triangulation(n, tuple(sorted(diagonals)), tuple(sorted(triangles)))
    if tri.quiddity().entries != cycle.entries:
        raise NotAQuiddityCycle("triangle counts do not reproduce the cycle")
    return tri
