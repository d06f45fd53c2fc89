"""Cell enumeration, boundary matrices, membership, and homology.

For a finite group the complexes have finitely many cells per degree;
enumerating them in a fixed deterministic order turns the boundary
operator into sparse integer columns, and the elimination engine answers
"is this chain a boundary" (with an explicit witness) and computes the
elementary divisors of the homology in a given degree.

The order is a layout of integer positions, and the boundary columns
are assembled on positions alone: cell objects are built only for the
cells a caller hands in or asks for.

* Level 0, degree n: the n-tuples of group elements, as one block of
  shape (1, .., 1) at offset 0 whose n digits are element indices in
  the lexicographic order of ``AbGroup.elements()``, first element most
  significant.
* Level k >= 1, degree n: first the cells of level < k, in their own
  order, so a cell has the same position at every level >= its own.
  Then one block per p = 2, 3, .. and per composition ``shape`` of
  n - (p-1)k into p parts, in lexicographic order: the level-k joins
  whose components have the degrees ``shape``.  Within a block a join
  is an offset plus a mixed-radix number whose digits are its
  components' positions among the level-(k-1) cells of their degrees,
  first component most significant.

So N(0, n) = |A|^n and N(k, n) = N(k-1, n) + the sum over the blocks of
the product of N(k-1, part); the counts are known, and checked against
the bounds, before anything is built.

The columns are written block by block, from tables built once per
block, not re-derived per cell:

* Bars, by the face recurrence.  Write a bar cell as (x1 | r), r the
  rest.  Its column is r, minus the merge (x1 + x2 | ..) of x1 with r's
  first entry, minus the column of r with x1 prepended (a shift by
  x1 |A|^(n-2)) and r's first face left out.  That face, r and the
  merge all end in r's tail, and no other term does, so only they can
  meet; their sums by leading entry depend on (x1, x2) alone and are
  tabled once per complex, with x1 + x2 summed on coordinate vectors.
* Join faces.  Face i of a block applies the boundary to component i.
  Its table is the memoised columns of the level-(k-1) cells of that
  degree, each shifted once to the width of digit i in the target
  block and signed; a cell reads the entry at its digit i and adds the
  digit sum of its other components.
* Join contractions.  Contraction i applies the level-(k-1) shuffle to
  components i and i+1.  Their cells fall into runs (the cells of lower
  level, taken whole, then each level-(k-1) block) whose members a
  shuffle splits into components alike, so for a pair of runs the
  interleavings, their signs and their target blocks depend only on
  the run shapes; they are cached per shape pair.  A term's position
  is then offset + X[x] + Y[y], with X and Y digit sums over the cells
  of each run.  Two interleavings give one cell only when x and y share
  a component, and such terms are summed.

A join column is the plain union of its sources' terms: they land in
pairwise distinct blocks of degree n-1.  Face i goes to the block whose
shape is ``shape`` with part i lowered by one (a degree-1 component
has no face), with p parts.  Contraction i goes to the block with parts
i and i+1 merged into one of degree n_i + n_(i+1) + k - 1, with p - 1
parts, or, when p = 2, to the level-(k-1) cells, whose positions come
before every level-k block.  Faces and contractions differ in their
number of parts.  Faces i < j differ in part i (n_i - 1 against n_i),
and contractions i < j too (the merged n_i + n_(i+1) + k - 1 > n_i,
since n_(i+1) >= 1 and k >= 1).  Within one face the rows are distinct
shifts of one column's distinct rows.  ``cells.boundary`` and
``cells.shuffle_cells`` are the same operator on cell objects over any
group; the tests check the columns against them.

Homology is computed on the normalized complex.  Call a cell degenerate
if the identity occurs anywhere in it.  The degenerate cells span an
acyclic subcomplex (Eilenberg and Mac Lane, On the groups H(Pi, n),
I-III, Ann. of Math. 1953-54), so the quotient by them, spanned by the
identity-free cells, has the same H_n.  Its layout is the one above
with every level-0 digit running over the |A|-1 non-identity elements,
so a bar cell is identity-free, a join is built from identity-free
components, and a shuffle only permutes elements: the one change to
the columns is that a bar face merging two entries into the identity
is dropped (so is the merge term of the bar recurrence, and prepending
a non-identity x1 keeps every other term identity-free).  ``homology`` sizes and builds only the identity-free
slices, on such a twin.  ``cells``, ``chain_entries`` and
``boundary_membership`` stay on the full complex, whose witnesses may
use degenerate cells; membership clears the boundary there (see the
end of this docstring).

H_n is computed on cycle coordinates, the "compress" step of Bauer,
Kerber and Reininghaus (Clear and compress, 2014) done over Z.  The
elimination of the boundary from degree n gives its rank as the number
of pivots, and more: after its unit phase every non-pivot column of
the transform V is e_k plus a vector on the unit-pivot columns.  So
projecting off the coordinates of the n-cells that are unit-pivot
columns maps ker d_n isomorphically onto ker S, where S is the Schur
complement left over, and ker S is saturated.  Since im d_{n+1} lies
in ker d_n, deleting those rows from d_{n+1} keeps its rank and the
torsion of H_n.  Only unit pivots qualify: the gcd fold mixes columns
pairwise, so a fold pivot's transform column is not of that form and
its row must stay.

H_n reads d_{n+1} only through the lattice its columns span, and most
bar columns lie in the lattice of the others, so ``homology`` builds
only some of them: the "clear" half of the same paper, done here by an
explicit acyclic matching in the sense of Skoldberg (Morse theory from
an algebraic viewpoint, Trans. AMS 2006), so nothing reduces d_{n+2}
and no gradient path is summed.  Let K be the unit vectors e_1, ..,
e_s of A = Z/m_1 x .. x Z/m_s, none of them the identity.

Lemma.  On the normalized complex, the column of every bar cell
(x | r) lies in the lattice spanned by the columns of the bar cells of
its degree that are led by an element of K.

Proof.  Order the non-identity elements by the pair (i, x_i), i the
first nonzero coordinate of x, and go down that order; for x in K there
is nothing to prove.  Otherwise let g = e_i, so g != x.  The faces of
(g | x | r) are (x | r) with coefficient +1, the merge (g + x | r) with
-1, and cells led by g.  As g + x != x, (x | r) is the only face led by
x, so d d (g | x | r) = 0 writes the column of (x | r) as the column of
(g + x | r) minus columns of cells led by g.  Now g + x is the
identity, and (g + x | r) is zero in the normalized complex; or it is
in K; or its first nonzero coordinate is i with the value x_i + 1, or,
where x_i + 1 = m_i, a later one.  Then g + x comes later in the order,
and its column is in the lattice already.

A bar cell's boundary is made of bar cells, at every level, so the
columns that ``homology`` builds from degree n+1, those of the bar
cells led by an element of K (positions g N^n to (g+1) N^n - 1 for the
index g of an element of K, N = |A| - 1) and every join column, span
the lattice of all of them: the rank and the invariant factors are
those of the whole d_{n+1}.  Z/6 at level 0 passes 125 of its 625
columns from degree 4.  Only d_{n+1} is cleared; d_n stays whole.

The lemma holds on the full complex too, identity-led cells included.
The proof runs as above, save that g + x = 0 leaves the identity-led
cell (0 | r) in place of a zero.  The faces of (g | 0 | r) are (0 | r)
with +1, the merge (g | r) with -1, and cells led by g, so
d d (g | 0 | r) = 0 writes the column of (0 | r) as the column of
(g | r) minus columns of cells led by g: all of them led by g in K.
So the bar columns led by an element of K, with every join column,
span the lattice of the whole boundary on the full complex, and so
does any larger set of columns, such as the bar columns led by any
lead set that contains K.  The trivial group is the exception: K is
empty, and (0 | 0) has the boundary (0) != 0, so there its one
element has to lead.

``boundary_membership`` solves on such a set: the bar cells led by
e_i or -e_i (positions g |A|^(n-1) to (g+1) |A|^(n-1) - 1 from degree
n, for those element indices g) and every join (positions N(0, n) to
N(k, n) - 1).  A solution over these columns is a witness on the
cells at those positions, so a chain is a boundary exactly when the
cleared solver finds one.  K alone would span the lattice with fewer
columns, but the choice of -K as well is measured, not proved: with K
alone the transform the solver tracks grows.  On Z/3 x Z/3 at level
1, degree 4, its largest entry is 464,628 with K, 51 with K and -K,
and 52 on every column; solving every boundary column gives witness
coefficients up to about 2.4e15 with K, 895 with K and -K, and 1,416
on every column.  That case passes 4,374 of its 8,019 columns from
degree 4, and Z/5 at level 1 passes 500 of 875.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass

# boundary (the operator on chains) stays a name of this module:
# perfbench/spans.py traces it here
from .cells import BarCell, Chain, JoinCell, boundary  # noqa: F401
from .cycles import _add_symmetrized, symmetrized_cycle
from .errors import BoundExceeded, InvalidArguments
from .groups import AbGroup
from .snf import ColumnSolver, Elimination, smith_diagonal

# The degree bound prices what the cell bound does not: the level-(k-1)
# contractions enumerate C(dx + dy, dx) interleavings per pair of
# component shapes, even where the blocks hold no cell.
DEFAULT_DEGREE_BOUND = 7
DEFAULT_LEVEL_BOUND = 4
DEFAULT_CELL_BOUND = 50000

_ENV_CELL_BOUND = "WEYL_MAX_CELLS"


def cell_bound() -> int:
    raw = os.environ.get(_ENV_CELL_BOUND)
    if raw is None:
        return DEFAULT_CELL_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = -1
    if bound >= 0:
        return bound
    raise InvalidArguments(
        f"{_ENV_CELL_BOUND}={raw!r} is not a nonnegative integer"
    )


def _compositions(total, parts):
    """All compositions of `total` into `parts` parts >= 1, lex order."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _digit_sums(radices, weights, start=0) -> list:
    """start + the sum of digit * weight over the digit tuples of the
    radices, in product order (last digit fastest)."""
    sums = [start]
    for radix, weight in zip(radices, weights):
        if radix != 1:
            sums = [s + d * weight for s in sums for d in range(radix)]
    return sums


def _weave_sums(radices, slots, blocks, width, start) -> list:
    """Per cell of a run, in product order: the tuple over interleavings
    t of start[t] plus width times the sum of digit i * the weight in
    blocks[t] of slot slots[t][i]."""
    sums = [start]
    for i, radix in enumerate(radices):
        if radix != 1:
            w = [
                weights[s[i]] * width for (_, weights), s in zip(blocks, slots)
            ]
            steps = [tuple([d * x for x in w]) for d in range(radix)]
            sums = [tuple(map(operator.add, a, b)) for a in sums for b in steps]
    return sums


@functools.lru_cache(maxsize=4096)
def _interleavings(k: int, sx: tuple, sy: tuple) -> tuple:
    """The order-preserving interleavings of components of degrees sx
    and sy in a level-k shuffle, in the order of cells.shuffle_cells, as
    four tuples over them: the merged degrees, the slots of sx's
    components, the slots of sy's, and the sign."""
    p, q = len(sx), len(sy)
    prefix = [0]
    for degree in sy:
        prefix.append(prefix[-1] + degree + k)
    merged, xslots, yslots, signs = [], [], [], []
    for xs in itertools.combinations(range(p + q), p):
        ys = tuple(s for s in range(p + q) if s not in xs)
        degrees = [0] * (p + q)
        for degree, s in zip(sx, xs):
            degrees[s] = degree
        for degree, s in zip(sy, ys):
            degrees[s] = degree
        eps = sum((sx[i] + k) * prefix[s - i] for i, s in enumerate(xs))
        merged.append(tuple(degrees))
        xslots.append(xs)
        yslots.append(ys)
        signs.append(-1 if eps % 2 else 1)
    return tuple(merged), tuple(xslots), tuple(yslots), tuple(signs)


class CellComplex:
    """Enumerated slices of the level-<=k complex of a finite group.

    Its bounds are fixed when it is made: the degree bound, and the cell
    bound, read from WEYL_MAX_CELLS by cell_bound()."""

    def __init__(self, group: AbGroup, level: int, degree_bound: int = None):
        if not group.is_finite():
            raise InvalidArguments("enumeration needs a finite group")
        if level < 0:
            raise InvalidArguments(f"level must be >= 0, got {level}")
        if level > DEFAULT_LEVEL_BOUND:
            raise BoundExceeded(
                f"level {level} exceeds the bound {DEFAULT_LEVEL_BOUND}"
            )
        if degree_bound is None:
            degree_bound = DEFAULT_DEGREE_BOUND
        elif degree_bound < 0:
            raise InvalidArguments(
                f"degree_bound must be >= 0, got {degree_bound}"
            )
        self.group = group
        self.level = level
        self.degree_bound = degree_bound
        self._bound = cell_bound()
        self._start(list(group.elements()))

    def _start(self, elements: list):
        """Empty memos, with `elements` the values of a level-0 digit."""
        self._elements = elements
        self._element_index = {e.vec: i for i, e in enumerate(elements)}
        self._ends = None  # see _end_table, once needed
        self._layout = {}  # (k, n) -> (count, {shape: (offset, weights)})
        self._columns = {}  # (k, n) -> boundary columns of the level-k cells
        # the cells callers hand in or ask for, each way
        self._positions = {}  # cell -> position
        self._decoded = {}  # (degree, position) -> cell
        self._solvers = {}  # n -> ColumnSolver for boundary from degree n

    def _size(self, n: int, k: int = None) -> int:
        """N(k, n), the number of cells of degree n and level <= k.

        Lays out the slice and the slices below it, in the order a
        recursive enumeration visits them, and checks each against the
        degree bound and the cell bound before anything is built."""
        k = self.level if k is None else k
        if n < 0:
            return 0
        if (k, n) in self._layout:
            return self._layout[(k, n)][0]
        if n > self.degree_bound:
            raise BoundExceeded(
                f"degree {n} exceeds the degree bound {self.degree_bound}; "
                f"H_n and the membership of a degree-n chain read cells of "
                f"degrees n and n+1, so raise degree_bound (--degree-bound)"
            )
        blocks = {}
        if k == 0:
            base = len(self._elements)
            blocks[(1,) * n] = (0, tuple([base ** i for i in range(n)][::-1]))
            total = base ** n
        else:
            total = self._size(n, k - 1)
            for p in range(2, n + 1):
                # no composition when n - (p-1)k < p
                for shape in _compositions(n - (p - 1) * k, p):
                    radices = [self._size(part, k - 1) for part in shape]
                    weights = tuple(
                        math.prod(radices[i + 1:]) for i in range(p)
                    )
                    blocks[shape] = (total, weights)
                    total += math.prod(radices)
        if total > self._bound:
            raise BoundExceeded(
                f"{total} cells at degree {n} exceed "
                f"{_ENV_CELL_BOUND}={self._bound}"
            )
        self._layout[(k, n)] = (total, blocks)
        return total

    def _components(self, k: int, n: int, pos: int) -> list:
        """[(position, degree)] of the items a level-k shuffle splits a
        cell of level k into: the digits of its level-k block (the
        element indices of a bar cell, the components of a join)."""
        for shape, (offset, weights) in reversed(self._layout[(k, n)][1].items()):
            if pos >= offset:
                break
        pos -= offset
        out = []
        for part, width in zip(shape, weights):
            digit, pos = divmod(pos, width)
            out.append((digit, part))
        return out

    def _position(self, k: int, items) -> int:
        """Inverse of _components on the cells of a level-k block."""
        shape = tuple(degree for _, degree in items)
        n = sum(shape) + (len(shape) - 1) * k
        offset, weights = self._layout[(k, n)][1][shape]
        return offset + sum(d * w for (d, _), w in zip(items, weights))

    def _encode(self, cell) -> int:
        """Position of a cell; KeyError if it is none of this complex's."""
        pos = self._positions.get(cell)
        if pos is None:
            if isinstance(cell, BarCell):
                items = [(self._element_index[e.vec], 1) for e in cell.elements]
                pos = self._position(0, items)
            elif cell.level > self.level:
                raise KeyError(cell)
            else:
                pos = self._position(
                    cell.level, [(self._encode(c), c.degree) for c in cell.comps]
                )
            self._positions[cell] = pos
        return pos

    def _decode(self, n: int, pos: int, k: int):
        """The cell at a position below N(k, n); positions are stable
        across levels, so one memo entry serves every level."""
        memo = self._decoded
        cell = memo.get((n, pos))
        if cell is None:
            while k and pos < self._layout[(k - 1, n)][0]:
                k -= 1
            items = self._components(k, n, pos)
            if k == 0:
                cell = BarCell([self._elements[d] for d, _ in items])
            else:
                cell = JoinCell(k, [
                    memo.get((m, d)) or self._decode(m, d, k - 1)
                    for d, m in items
                ])
            memo[(n, pos)] = cell
        return cell

    def cells(self, n: int, level: int = None) -> list:
        k = self.level if level is None else level
        if not 0 <= k <= self.level:
            raise InvalidArguments(
                f"level must be in 0..{self.level}, got {level}"
            )
        return [self._decode(n, pos, k) for pos in range(self._size(n, k))]

    def chain_entries(self, chain: Chain, n: int) -> dict:
        """The chain as a sparse vector {cell position: coeff}."""
        self._size(n)
        out = {}
        for cell, coeff in chain.terms.items():
            if cell.degree != n:
                raise InvalidArguments("chain is not homogeneous of the degree")
            try:
                out[self._encode(cell)] = coeff
            except KeyError:
                raise InvalidArguments(
                    f"cell {cell!r} not in the enumeration"
                ) from None
        return out

    def _runs(self, j: int, d: int) -> list:
        """[(shape, radices)]: the level-j cells of degree d, in order,
        cut into runs whose cells a level-j shuffle splits into
        components alike.  Within a run a cell is the mixed-radix number
        of its components' positions (see _components)."""
        if j == 0:
            return [((1,) * d, (len(self._elements),) * d)]
        layout = self._layout
        runs = [((d,), (layout[(j - 1, d)][0],))]
        for shape in layout[(j, d)][1]:
            runs.append((shape, tuple(layout[(j - 1, m)][0] for m in shape)))
        return runs

    def _contractions(self, j: int, dx: int, dy: int, width: int, sign: int):
        """The level-j shuffle of every pair (x, y) of level-j cells of
        degrees dx and dy, in product order, as {width * position:
        sign * coeff}.  For each pair of runs the interleavings are
        fixed, so a term's position is X[x] + Y[y], with X and Y digit
        sums over the cells of each run."""
        blocks = self._layout[(j, dx + dy + j)][1]
        runs_y = self._runs(j, dy)
        out = []
        for sx, rx in self._runs(j, dx):
            tables = []
            for sy, ry in runs_y:
                merged, xslots, yslots, signs = _interleavings(j, sx, sy)
                targets = [blocks[shape] for shape in merged]
                tables.append((
                    _weave_sums(
                        rx, xslots, targets, width,
                        tuple([offset * width for offset, _ in targets]),
                    ),
                    _weave_sums(ry, yslots, targets, width, (0,) * len(signs)),
                    signs if sign == 1 else [-s for s in signs],
                ))
            for lx in range(math.prod(rx)):
                for X, Y, signs in tables:
                    xs = X[lx]
                    for ys in Y:
                        terms = dict(zip(map(operator.add, xs, ys), signs))
                        if len(terms) < len(signs):
                            # interleavings that give one cell: x and y
                            # share a component
                            terms = {}
                            for r, c in zip(map(operator.add, xs, ys), signs):
                                terms[r] = terms.get(r, 0) + c
                            terms = {r: c for r, c in terms.items() if c}
                        out.append(terms)
        return out

    def _bar_columns(self, n: int, leads=None) -> list:
        """Bar boundaries by the face recurrence: the column of (x1 | r)
        is r, minus the merge of x1 with r's first entry, minus the
        column of r with x1 prepended and r's first face left out.  With
        `leads`, only the columns of the cells whose x1 is one of those
        element indices, in their order."""
        base = len(self._elements)
        if leads is None:
            leads = range(base)
        if n < 2:
            # the empty cell, and the [x] whose two faces cancel
            return [{} for _ in range(len(leads) if n else 1)]
        if self._ends is None:
            self._ends = self._end_table()
        faces = self._level_columns(0, n - 1)
        width = base ** (n - 2)
        out = []
        for x1 in leads:
            ends = self._ends[x1]
            shift = x1 * width
            for x2, (own, others) in enumerate(ends):
                for tail in range(width):
                    face = faces[x2 * width + tail]
                    col = {shift + r: -c for r, c in face.items() if r != tail}
                    c = own - face.get(tail, 0)
                    if c:
                        col[shift + tail] = c
                    for lead, c in others:
                        col[lead * width + tail] = c
                    out.append(col)
        return out

    def _end_table(self) -> list:
        """ends[x1][x2]: for the column of (x1 | r), r led by x2, the
        terms that end in r's tail, summed by leading entry: r (+1, led
        by x2), the merge (-1, led by x1 + x2, and none where that is
        the identity of the normalized complex) and the +1 that leaves
        r's first face out of the prepended column (led by x1).  As (the
        sum led by x1, ((other leading entry, nonzero sum), ..)); the
        columns still take r's own first-face coefficient off the first.

        An element's index is its mixed-radix position among all the
        elements, less one on the normalized complex, where -1 is the
        left-out identity.  So the indices of x1 + x2 over all x2 are a
        sum over the coordinates of a row read at x1's digit: the
        digit sums mod m_i of x2's digits, times the weight of the
        coordinate."""
        torsion = self.group.torsion
        vecs = [e.vec for e in self._elements]
        start = [len(vecs) - self.group.order()] * len(vecs)
        rows = []  # (coordinate, row at each digit of x1)
        weight = 1
        for i in reversed(range(len(torsion))):
            m = torsion[i]
            digits = [v[i] for v in vecs]
            rows.append((i, [
                [(a + b) % m * weight for b in digits] for a in range(m)
            ]))
            weight *= m
        table = []
        for x1, a in enumerate(vecs):
            merged = start
            for i, row in rows:
                merged = list(map(operator.add, merged, row[a[i]]))
            ends = []
            for x2, x12 in enumerate(merged):
                if x12 >= 0 and x1 != x2 and x12 != x1 and x12 != x2:
                    ends.append((1, ((x2, 1), (x12, -1))))
                    continue
                # x2 = x1 or x1 + x2 = 0; x12 = x1 only where x2 is the
                # identity, and x12 = x2 only where x1 is
                others = ()
                if x2 != x1 and x2 != x12:
                    others = ((x2, 1),)
                if x12 >= 0 and x12 != x1 and x12 != x2:
                    others += ((x12, -1),)
                ends.append((1 + (x2 == x1) - (x12 == x1), others))
            table.append(ends)
        return table

    def _join_columns(self, k: int, n: int, shape: tuple) -> list:
        """Columns of the block of level-k joins with component degrees
        `shape`: each component's boundary, then each adjacent pair
        contracted by the level-(k-1) shuffle, signed as in
        cells.boundary_cell.  Each source is a table of pre-shifted
        columns, read at a per-cell index and added at a per-cell base.
        The sources land in pairwise distinct blocks of degree n-1 (see
        the module docstring), so a column is their plain union."""
        p = len(shape)
        layout = self._layout
        lower = layout[(k, n - 1)][1]
        radices = [layout[(k - 1, part)][0] for part in shape]
        zero = (0,) * p
        out = None
        sources = []  # (table, index of each cell's entry, base of each cell)
        a = 0
        for i, part in enumerate(shape):
            sign = -1 if a % 2 else 1
            a += part + k
            # a degree-1 component has zero boundary
            if part > 1:
                offset, weights = lower[shape[:i] + (part - 1,) + shape[i + 1:]]
                width = weights[i]
                inner = self._level_columns(k - 1, part)
                if width != 1 or sign != 1:
                    inner = [
                        {r * width: sign * c for r, c in col.items()}
                        for col in inner
                    ]
                sources.append((
                    inner,
                    _digit_sums(radices, zero[:i] + (1,) + zero[i + 1:]),
                    _digit_sums(
                        radices, weights[:i] + (0,) + weights[i + 1:], offset
                    ),
                ))
            if i == p - 1:
                continue
            sign = -1 if a % 2 else 1
            if p == 2:
                # the contraction of (x, y) is one level-(k-1) cell, at
                # its own position, and the block's cells are the pairs
                # in product order: the table is where the columns start
                out = self._contractions(k - 1, part, shape[1], 1, sign)
                continue
            merged = part + shape[i + 1] + k - 1
            offset, weights = lower[shape[:i] + (merged,) + shape[i + 2:]]
            sources.append((
                self._contractions(k - 1, part, shape[i + 1], weights[i], sign),
                _digit_sums(
                    radices, zero[:i] + (radices[i + 1], 1) + zero[i + 2:]
                ),
                _digit_sums(
                    radices, weights[:i] + (0, 0) + weights[i + 1:], offset
                ),
            ))
        if out is None:
            out = [{} for _ in range(math.prod(radices))]
        for table, index, bases in sources:
            for col, t, b in zip(out, index, bases):
                terms = table[t]
                col.update(zip(map(b.__add__, terms), terms.values()))
        return out

    def _level_columns(self, k: int, n: int) -> list:
        if (k, n) not in self._columns:
            if k == 0:
                cols = self._bar_columns(n)
            else:
                cols = list(self._level_columns(k - 1, n))
                for shape in self._layout[(k, n)][1]:
                    cols.extend(self._join_columns(k, n, shape))
            self._columns[(k, n)] = cols
        return self._columns[(k, n)]

    def _cleared_columns(self, n: int, leads: list) -> list:
        """Columns of boundary_columns(n) that span the same lattice when
        `leads` contains the indices of the unit vectors (see the module
        docstring): those of the bar cells led by an element of `leads`,
        in their order, then every join column.  Nothing is memoised
        for degree n, and every column is built by this call."""
        cols = self._bar_columns(n, leads)
        for k in range(1, self.level + 1):
            for shape in self._layout[(k, n)][1]:
                cols.extend(self._join_columns(k, n, shape))
        return cols

    def boundary_columns(self, n: int) -> list:
        """Sparse boundary from degree n to degree n-1: one column
        {lower cell position: coeff} per upper cell, in cell order.  The
        columns are fresh dicts, the caller's to eliminate in place."""
        self._size(n)
        self._size(n - 1)
        cols = self._level_columns(self.level, n) if n >= 0 else []
        return [dict(col) for col in cols]

    def boundary_matrix(self, n: int) -> list:
        """Dense export of boundary_columns (rows are the lower cells,
        columns the upper, entries exact integers)."""
        rows = [[0] * self._size(n) for _ in range(self._size(n - 1))]
        for col, entries in enumerate(self.boundary_columns(n)):
            for row, coeff in entries.items():
                rows[row][col] = coeff
        return rows

    def _solver(self, n: int):
        """(ColumnSolver, position of each of its columns) for the
        boundary from degree n, cleared: the bar cells led by a unit
        vector e_i or by -e_i (by the identity in the trivial group), at
        positions g |A|^(n-1) + t for each such element index g, then
        every join, at positions N(0, n) to N(k, n) - 1.  Their columns
        span the lattice of the whole boundary (see the module
        docstring), so a chain is a boundary exactly when the solver
        finds a combination of them."""
        if n not in self._solvers:
            self._size(n)
            self._size(n - 1)
            index = self._element_index
            # the trivial group has no unit vector: its one element, the
            # identity, leads every bar cell
            leads = sorted({
                index[e.vec] for g in self.group.basis() for e in (g, -g)
            }) or [0]
            width = len(self._elements) ** (n - 1)
            positions = [
                p for g in leads for p in range(g * width, (g + 1) * width)
            ]
            positions.extend(range(width * len(self._elements), self._size(n)))
            solver = ColumnSolver(self._cleared_columns(n, leads))
            self._solvers[n] = solver, positions
        return self._solvers[n]

    def boundary_membership(self, chain: Chain):
        """Decide chain = boundary(y) for an integer chain y of one degree
        higher; returns (True, witness chain) or (False, None).  The
        witness uses only the cells whose columns the cleared solver
        holds (see _solver)."""
        if chain.is_zero():
            return True, Chain.zero()
        n = chain.degree()
        target = self.chain_entries(chain, n)
        solver, positions = self._solver(n + 1)
        y = solver.solve(target)
        if y is None:
            return False, None
        memo = self._decoded
        witness = {}
        for j in sorted(y):
            pos = positions[j]
            cell = memo.get((n + 1, pos)) or self._decode(n + 1, pos, self.level)
            witness[cell] = y[j]
        return True, Chain(witness)

    def homology(self, n: int):
        """Free rank and elementary divisors (> 1) of H_n at this level,
        computed on the identity-free cells (see the module docstring)."""
        if n < 0:
            raise InvalidArguments(f"degree must be >= 0, got {n}")
        twin = self._normalized()
        # every bound is checked on the twin's slices before any column
        # is built, in the order the two boundaries read their degrees
        size = twin._size(n)
        twin._size(n - 1)
        twin._size(n + 1)
        units = [twin._element_index[e.vec] for e in self.group.basis()]
        upper = twin._cleared_columns(n + 1, units)
        # d_n is the twin's memo, which goes with the twin: free it
        # before the eliminations, which work on both lists in place
        # (upper is this call's own: _cleared_columns memoises nothing)
        lower = twin._level_columns(self.level, n)
        del twin
        lower_rank, upper = _cycle_coordinates(lower, upper)
        del lower
        upper_divisors = smith_diagonal(upper)
        free = size - lower_rank - len(upper_divisors)
        torsion = tuple(d for d in upper_divisors if d > 1)
        return HomologyResult(self.group, self.level, n, free, torsion)

    def _normalized(self) -> CellComplex:
        """A twin on the identity-free cells of this complex."""
        twin = object.__new__(type(self))
        twin.group = self.group
        twin.level = self.level
        twin.degree_bound = self.degree_bound
        twin._bound = self._bound
        # the identity is first in the lexicographic order
        twin._start(self._elements[1:])
        return twin


def _cycle_coordinates(lower: list, upper: list):
    """(rank of the boundary `lower` from degree n, `upper`), where the
    rows of lower's unit-pivot columns are deleted from each column of
    the boundary `upper` into degree n; it keeps its rank and invariant
    factors (see the module docstring).  Both lists are the caller's to
    give up: `lower` is eliminated in place, and `upper`'s columns lose
    those rows in place."""
    elim = Elimination(lower)
    dropped = {j for _, j in elim.pivots[:elim.units]}
    for col in upper:
        for r in dropped.intersection(col):
            del col[r]
    return len(elim.pivots), upper


@dataclass(frozen=True)
class HomologyResult:
    group: AbGroup
    level: int
    degree: int
    free_rank: int
    torsion: tuple

    def order(self):
        if self.free_rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"


def boundary_membership(chain: Chain, group: AbGroup, level: int,
                        degree_bound: int = None):
    return CellComplex(group, level, degree_bound).boundary_membership(chain)


def homology(group: AbGroup, level: int, n: int, degree_bound: int = None):
    return CellComplex(group, level, degree_bound).homology(n)


@dataclass
class ConjectureInstance:
    group: AbGroup
    d: int
    lam: tuple
    slot: int
    args: tuple
    betas: tuple
    status: str = ""  # holds | fails | out-of-bounds
    inverse_status: str = ""
    detail: str = ""


def inclusion_exclusion_chain(args, lam, slot, betas) -> Chain:
    """Alternating sum over nonempty subproducts in one argument slot.

    With r = lam[slot] + 1 factors, the subset S contributes the cycle
    with the product of S in that slot, signed by (-1)^(r - |S|); the
    full-product term carries +1 and the single-factor terms (-1)^lam.
    """
    if not 0 <= slot < len(lam):
        raise InvalidArguments(f"slot {slot} out of range 0..{len(lam) - 1}")
    r = len(betas)
    if r != lam[slot] + 1:
        raise InvalidArguments(
            f"slot {slot} with part {lam[slot]} needs {lam[slot] + 1} factors"
        )
    # each subset's product is the product of its prefix and its last
    # factor; combinations() lists every prefix one size earlier
    sums = {(): betas[0].group.identity()}
    full = list(args)
    terms = {}
    for size in range(1, r + 1):
        sign = (-1) ** (r - size)
        for subset in itertools.combinations(range(r), size):
            sums[subset] = sums[subset[:-1]] + betas[subset[-1]]
            full[slot] = sums[subset]
            _add_symmetrized(terms, full, lam, sign)
    return Chain(terms)


def check_conjecture_instance(
    group: AbGroup, lam, slot, args, betas, degree_bound: int = None
) -> ConjectureInstance:
    """Decide the inclusion-exclusion identity and the inverse identity
    in homology by boundary membership; purely a report."""
    lam = tuple(lam)
    d = sum(lam)
    inst = ConjectureInstance(
        group, d, lam, slot, tuple(args), tuple(betas)
    )
    try:
        complex_ = CellComplex(group, 1, degree_bound)
        chain = inclusion_exclusion_chain(args, lam, slot, betas)
        ok, _ = complex_.boundary_membership(chain)
        inst.status = "holds" if ok else "fails"
        base = symmetrized_cycle(args, lam)
        flipped_args = list(args)
        flipped_args[slot] = -args[slot]
        flipped = symmetrized_cycle(tuple(flipped_args), lam)
        diff = base - flipped.scale((-1) ** lam[slot])
        ok2, _ = complex_.boundary_membership(diff)
        inst.inverse_status = "holds" if ok2 else "fails"
    except BoundExceeded as exc:
        inst.status = inst.status or "out-of-bounds"
        inst.inverse_status = inst.inverse_status or "out-of-bounds"
        inst.detail = str(exc)
    return inst
