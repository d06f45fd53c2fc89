"""Real roots of a Cartan graph and the root-system axioms.

Roots at an object are the images of simple roots under compositions of
reflections along the graph's morphisms; the closure is computed as a
least fixed point, propagating each object's set through every edge
until nothing changes.  Objects are numbered in discovery order, as in
`weylg.groupoid`; that number is the CLI's "object N" and the key of the
dict `real_roots` returns.

The propagation is semi-naive: each object keeps its roots in insertion
order beside the set, and each edge (object p, index i) remembers how
many of p's roots it has already mapped, so a visit maps only the roots
added since the last one.  The objects and indices are still visited in
the same order within a round, and a later round sees the earlier
additions, so every target set grows exactly as when the whole source
set is mapped on each visit: the same rounds add roots, the closure
stabilizes in the same round, and DepthExceeded fires at the same
depth_max.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import mul, neg

from .errors import DepthExceeded, InvalidArguments, Report
from .groupoid import CartanGraph

DEFAULT_DEPTH_MAX = 64


def _sigma_apply(c_row, i, vec):
    """sigma_i on coordinates: only coordinate i changes, by the pairing."""
    return vec[:i - 1] + (vec[i - 1] - sum(map(mul, c_row, vec)),) + vec[i:]


@dataclass
class RootSet:
    roots: set = field(default_factory=set)

    def positive(self):
        return {r for r in self.roots if min(r) >= 0}


def real_roots(graph: CartanGraph, depth_max: int = DEFAULT_DEPTH_MAX) -> dict:
    """Closure of the simple roots under composed reflections.

    Returns {object position: RootSet}.  Raises DepthExceeded if the
    closure fails to stabilize within depth_max propagation rounds (each
    round applies one more reflection to everything reachable), and
    InvalidArguments if depth_max is negative.
    """
    if depth_max < 0:
        raise InvalidArguments(f"depth_max must be >= 0, got {depth_max}")
    n = graph.rank
    simple = []
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        simple.append(tuple(vec))
    sets = [set(simple) for _ in graph.objects]
    ordered = [list(simple) for _ in graph.objects]
    mapped = [[0] * n for _ in graph.objects]
    for _ in range(depth_max):
        changed = False
        for pos, obj in enumerate(graph.objects):
            source, done = ordered[pos], mapped[pos]
            for i, target in enumerate(graph.edges[pos], start=1):
                fresh = source[done[i - 1]:]
                done[i - 1] = len(source)
                seen, order = sets[target], ordered[target]
                row = obj.cartan.row(i)
                for v in fresh:
                    image = _sigma_apply(row, i, v)
                    if image not in seen:
                        seen.add(image)
                        order.append(image)
                        changed = True
        if not changed:
            return {pos: RootSet(s) for pos, s in enumerate(sets)}
    raise DepthExceeded(
        f"root closure did not stabilize within {depth_max} rounds"
    )


def validate_root_axioms(graph: CartanGraph, roots: dict) -> Report:
    """Check R1-R4 on a computed root assignment.

    R1: every set splits as positives union negated positives.  R2: the
    only multiples of a simple root are that root and its negative.
    R3: each reflection maps the source set onto the target set.  R4:
    with m = #(roots in the i,j quadrant), alternating i/j reflections
    applied 2m times return to the starting object; a failing R4 check
    notes the power that moved it.

    Each object's positive set is computed once and read by R1 and R4.
    R3 maps every root of the given sets itself, so it checks them
    without trusting how `real_roots` built them.
    """
    report = Report()
    n = graph.rank
    positives = {}
    for pos, rs in roots.items():
        positive = positives[pos] = rs.positive()
        r1 = rs.roots == positive | {tuple(map(neg, r)) for r in positive}
        report.record(f"R1 object {pos}", r1)
        # a root with one nonzero coordinate has that coordinate as its sum
        r2 = all(
            abs(sum(r)) == 1 for r in rs.roots if r.count(0) == len(r) - 1
        )
        report.record(f"R2 object {pos}", r2)
    for pos, obj in enumerate(graph.objects):
        source = roots[pos].roots
        for i, target in enumerate(graph.edges[pos], start=1):
            row = obj.cartan.row(i)
            image = {_sigma_apply(row, i, v) for v in source}
            report.record(
                f"R3 object {pos} index {i}",
                image == roots[target].roots,
            )
    for pos in range(len(graph)):
        # the (i, j) quadrant holds the nonnegative roots supported in {i, j}
        supports = Counter(
            frozenset(p for p, x in enumerate(r) if x != 0)
            for r in positives[pos]
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                pair = {i - 1, j - 1}
                m = sum(c for s, c in supports.items() if s <= pair)
                current = pos
                for _ in range(m):
                    current = graph.edges[graph.edges[current][j - 1]][i - 1]
                r4 = current == pos
                report.record(
                    f"R4 object {pos} pair ({i},{j})",
                    r4,
                    "" if r4 else f"(rho_{i} rho_{j})^{m} moved the object",
                )
    return report
