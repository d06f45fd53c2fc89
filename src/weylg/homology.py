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
the bounds, before anything is built.  Each block is recorded as
(offset, weights, radices): the radices are the ranges of its digits,
|A| or N(k-1, part), and the weights their products to the right.

A layout depends on the group only through the number of values of a
level-0 digit, so the counts and the block records of a slice are
computed once per (that number, k, n) and shared by every complex, full
or identity-free, whose digits take as many values: the full complexes
of Z/4 and Z/2 x Z/2 read the same records, and so do their twins and
the full complex of Z/3.  The end table of the bar recurrence (below)
is shared the same way, per group torsion and digit set.  Sharing is
safe because the shared data is read-only (tuples, and a read-only view
of each slice's blocks) and holds no bound: each complex checks its own
degree bound and cell bound against the shared counts, slice by slice,
in the order a recursive sizing visits them, before it reads a layout.
So a refusal is the same whatever other complexes have filled.

The columns are written block by block, from tables built once per
block, not re-derived per cell:

* Bars, by the face recurrence.  Write a bar cell as (x1 | r), r the
  rest.  Its column is r, minus the merge (x1 + x2 | ..) of x1 with r's
  first entry, minus the column of r with x1 prepended (a shift by
  x1 |A|^(n-2)) and r's first face left out.  That face, r and the
  merge all end in r's tail, and no other term does, so only they can
  meet; their sums by leading entry depend on (x1, x2) alone and are
  tabled once, with x1 + x2 summed on coordinate vectors.
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
elimination of the boundary from degree n, on any set of its columns
that spans the lattice of all of them (the kept ones below), gives its
rank as the number of pivots, and more.  Let P be the n-cells of its
unit pivots, R their rows, and Q every other n-cell.  The unit phase
leaves H[R, P] triangular with +-1 pivots, from a transform V[P, P]
that is unit triangular, so A[R, P] = H[R, P] V[P, P]^-1 is
unimodular, A the whole of d_n.  For x in ker d_n, then, x_P = -A[R,
P]^-1 A[R, Q] x_Q is an integer vector fixed by x_Q: projecting off
the coordinates of P is injective on ker d_n.  Its image is saturated:
if x_Q = k y, then x_P = k z with z = -A[R, P]^-1 A[R, Q] y integral,
so x = k (z, y) and (z, y) is in ker d_n.  Since im d_{n+1} lies in
ker d_n, deleting the rows of P from d_{n+1} keeps its rank and the
torsion of H_n.  Only unit pivots qualify: the gcd fold mixes columns
pairwise and leaves pivots that may exceed 1, so with a fold pivot in
P, A[R, P] need not be unimodular, and its row must stay.

H_n reads d_{n+1} only through the lattice its columns span, and most
columns lie in the lattice of the others, so ``homology`` builds only
some of them: the "clear" half of the same paper, done here by an
explicit acyclic matching in the sense of Skoldberg (Morse theory from
an algebraic viewpoint, Trans. AMS 2006), so nothing reduces d_{n+2}
and no gradient path is summed.  Let K be the unit vectors e_1, ..,
e_s of A = Z/m_1 x .. x Z/m_s, none of them the identity.  Call a cell
kept if it is a bar cell led by an element of K, or a join whose first
component is either a join or a bar cell led by an element of K.

Lemma 1.  On the normalized complex, the column of every bar cell
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

Lemma 2.  On the normalized complex, the column of every cell lies in
the lattice spanned by the columns of the kept cells of its degree.

Proof.  By induction on the level of the cell, then on its number of
parts, then down the order of Lemma 1 on the first element of its first
component.  A bar cell's boundary is made of bar cells, at every level,
so bar cells are Lemma 1.  Let J = (x | r) * C_2 * .. * C_p be a
level-k join whose first component is a bar cell led by x not in K
(read (x | r) as (x) in degree 1; other joins are kept), let i be the
first nonzero coordinate of x, and g = e_i.  Then J' = (g | x | r) *
C_2 * .. * C_p is a level-k join, and the terms of d J' are:

* its face on component 1, (x | r) * .. - (g + x | r) * .. plus joins
  whose first component is led by g (for degree 1, d (g | x) =
  (x) - (g + x) + (g));
* its other faces, and its contractions of components j, j+1 for
  j >= 2: joins whose first component is (g | x | r), led by g;
* its contraction of components 1 and 2, shuffle((g | x | r), C_2) *
  C_3 * ..: level-(k-1) cells if p = 2, and joins of p - 1 parts if
  p >= 3.

J is the one term whose first component is (x | r), with coefficient
+1, so d d J' = 0 writes the column of J as an integer combination of
the columns of the other terms.  Joins led by g are kept, the
contraction is in the lattice by induction on the level or on the
number of parts, and (g + x | r) * .. is zero where g + x is the
identity, kept where g + x is in K, and otherwise later in the order.

So the columns that ``homology`` builds from degree n+1, those of the
kept cells, span the lattice of all of them: the rank and the
invariant factors are those of the whole d_{n+1}.  The first component
is the most significant digit of a block, so the kept cells of a block
are runs of first digits: for each element index g of K, g N^(m-1) to
(g+1) N^(m-1) - 1 (N = |A| - 1, m the degree of the first component;
for the bar cells, the first element g), and every first digit from
N^m on, the joins.  Z/6 at level 0 passes 125 of its 625 columns from
degree 4, and at level 1 6,000 of its 30,000 from degree 6 (17,500 when
every join was built).  d_n is cleared the same way: its kept columns
have the rank of all of them, and their unit pivots give the rows that
the compress step deletes.  ``_cleared_columns`` returns them and, per
block, its record and kept first digits (offset, weights, radices,
heads), which give their positions.

Both lemmas hold on the full complex too, identity-led cells included.
The proofs run as above, save that g + x = 0 leaves an identity-led
component (0 | r) in place of a zero.  The faces of (g | 0 | r) are
(0 | r) with +1, the merge (g | r) with -1, and cells led by g (in
degree 1, d (g | 0) = (0)), so d d (g | 0 | r) * C_2 * .. = 0 writes
the column of (0 | r) * C_2 * .. as a combination of columns of cells
led by g, kept, and of the contraction, in the lattice by induction.
The trivial group is the exception: K is empty, and (0 | 0) has the
boundary (0) != 0, so there its one element leads, and every cell is
kept.

``boundary_membership`` solves on the kept cells of the full complex,
at the positions of the same runs with |A| for N.  A solution over
their columns is a witness on those cells, so a chain is a boundary
exactly when the cleared solver finds one.  At level 1, degree 4, the
rank stays that of the whole boundary, and against the set it factored
before the joins were cleared (the bar cells led by e_i or -e_i, and
every join) the solver shrinks, as does its tracked transform V;
witness coefficients are the largest over solving every fifth column
of the whole boundary:

    group       columns            largest V entry   witness coefficient
    Z/5         500 -> 175         11 -> 4           2 -> 5
    Z/7         1,372 -> 441       45 -> 6           736 -> 42
    Z/2 x Z/4   2,560 -> 1,280     86 -> 5           148 -> 17
    Z/3 x Z/3   4,374 -> 1,782     51 -> 6           895 -> 13

The whole boundary of Z/3 x Z/3 there has 8,019 columns, and a
transform entry of 52.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

# boundary (the operator on chains) stays a name of this module:
# perfbench/spans.py traces it here
from .cells import BarCell, Chain, _trusted_join, boundary  # noqa: F401
from .cycles import _add_symmetrized, symmetrized_cycle
from .errors import BoundExceeded, InvalidArguments
from .groups import AbGroup, GroupElement
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


def _digit_sums(radices, weights, start=0, heads=None) -> list:
    """start + the sum of digit * weight over the digit tuples of the
    radices, in product order (last digit fastest); with `heads`, the
    first digit runs over those values only."""
    sums = [start]
    if heads is not None:
        sums = [start + d * weights[0] for d in heads]
        radices, weights = radices[1:], weights[1:]
    for radix, weight in zip(radices, weights):
        if radix != 1:
            sums = [s + d * weight for s in sums for d in range(radix)]
    return sums


def _cleared_positions(kept) -> list:
    """The positions of the cells whose columns _cleared_columns
    returns, in their order, from its per-block records."""
    return [
        pos for offset, weights, radices, heads in kept
        for pos in _digit_sums(radices, weights, offset, heads)
    ]


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


@functools.lru_cache(maxsize=1024)
def _sizes(base: int, k: int, n: int) -> tuple:
    """((j, d, N(j, d)), ..): the slices that sizing the level-k slice
    of degree n counts, each once and in the order it finishes them,
    this one last, for level-0 digits of `base` values.  N(k, n) is
    N(k-1, n) plus, over the blocks, the product of N(k-1, part)."""
    if k == 0:
        return ((0, n, base ** n),)
    seen = {}  # (j, d) -> N(j, d), in the order sizing finishes them
    t = n - k
    # every part of every shape is a part of a two-part shape (a, t - a):
    # sized in the order the blocks list them, the first sub-slice over
    # a bound is the one the layout meets first
    below = [(k - 1, n)]
    for a in range(1, t // 2 + 1):
        below += [(k - 1, a), (k - 1, t - a)]
    for j, d in below:
        for entry in _sizes(base, j, d):
            seen.setdefault(entry[:2], entry[2])
    counts = [0] * t  # counts[a] = N(k-1, a)
    for a in range(1, t):
        counts[a] = seen[(k - 1, a)]
    # chains[u]: over the parts a_1, .., a_p (p >= 1) with
    # a_1 + .. + a_p + (p-1)k = u, the sum of the products of N(k-1, a_i).
    # A block is such parts, p >= 2, for u = n: a first part a, then a
    # chain of t - a
    chains = counts[:]
    for u in range(k + 2, t):
        for a in range(1, u - k):
            chains[u] += counts[a] * chains[u - a - k]
    total = seen[(k - 1, n)]
    for a in range(1, t):
        total += counts[a] * chains[t - a]
    seen[(k, n)] = total
    return tuple([(j, d, size) for (j, d), size in seen.items()])


class _Slice(NamedTuple):
    """The layout of the level-k cells of degree n: their number, and
    per block {shape: (offset, weights, radices)} in position order,
    with the blocks' offsets and shapes as parallel tuples to bisect."""

    total: int
    blocks: MappingProxyType
    starts: tuple
    shapes: tuple


@functools.lru_cache(maxsize=1024)
def _slice(base: int, k: int, n: int) -> _Slice:
    """The layout of the level-k slice of degree n, for level-0 digits
    of `base` values (see the module docstring).  Built from the
    layouts of the slices below it and shared by every complex that
    reads it, so it is read-only; it holds no bound, which each complex
    checks against _sizes before it reads a layout."""
    if k == 0:
        weights = tuple([base ** i for i in range(n)][::-1])
        blocks = {(1,) * n: (0, weights, (base,) * n)}
        total = base ** n
    else:
        blocks = {}
        total = _slice(base, k - 1, n).total
        for p in range(2, n + 1):
            # no composition when n - (p-1)k < p
            for shape in _compositions(n - (p - 1) * k, p):
                radices = tuple([_slice(base, k - 1, part).total
                                 for part in shape])
                weights = tuple([math.prod(radices[i + 1:]) for i in range(p)])
                blocks[shape] = (total, weights, radices)
                total += math.prod(radices)
    return _Slice(
        total, MappingProxyType(blocks),
        tuple([block[0] for block in blocks.values()]), tuple(blocks),
    )


# a table has |A|^2 entries, about 11 MB for Z/223, the largest cyclic
# group whose degree-2 cells fit the default cell bound: keep few
@functools.lru_cache(maxsize=16)
def _end_table(torsion: tuple, identity_free: bool) -> tuple:
    """ends[x1][x2]: for the column of (x1 | r), r led by x2, the terms
    that end in r's tail, summed by leading entry: r (+1, led by x2), the
    merge (-1, led by x1 + x2, and none where that is the identity of the
    normalized complex) and the +1 that leaves r's first face out of the
    prepended column (led by x1).  As (the sum led by x1, ((other leading
    entry, nonzero sum), ..)); the columns still take r's own first-face
    coefficient off the first.  For the group Z/m_1 x .. x Z/m_s of
    `torsion`, on the identity-free elements when `identity_free`.

    An element's index is its mixed-radix position among all the
    elements, less one on the normalized complex, where -1 is the
    left-out identity.  So the indices of x1 + x2 over all x2 are a sum
    over the coordinates of a row read at x1's digit: the digit sums
    mod m_i of x2's digits, times the weight of the coordinate."""
    vecs = list(itertools.product(*map(range, torsion)))
    if identity_free:
        # the identity is first in the lexicographic order
        vecs = vecs[1:]
    start = [-1 if identity_free else 0] * len(vecs)
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
        table.append(tuple(ends))
    return tuple(table)


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
        # coordinate vectors: GroupElements only once a cell is decoded
        self._start(list(itertools.product(*map(range, group.torsion))))

    def _start(self, elements: list):
        """Empty memos, with `elements` the coordinate vectors of the
        values of a level-0 digit."""
        self._elements = elements
        self._element_index = {vec: i for i, vec in enumerate(elements)}
        self._group_elements = None  # see _decode, once needed
        self._layout = {}  # (k, n) -> _Slice, shared, see _size
        self._columns = {}  # (k, n) -> boundary columns of the level-k cells
        # the cells callers hand in or ask for, each way
        self._positions = {}  # cell -> position
        self._decoded = {}  # (degree, position) -> cell
        self._solvers = {}  # n -> ColumnSolver for boundary from degree n

    def _size(self, n: int, k: int = None) -> int:
        """N(k, n), the number of cells of degree n and level <= k.

        Checks the degree bound; then, for the slices below it and this
        one, in the order a recursive sizing finishes them (_sizes),
        checks each slice not yet laid out against the cell bound before
        it reads that slice's shared layout (_slice)."""
        k = self.level if k is None else k
        if n < 0:
            return 0
        layout = self._layout
        entry = layout.get((k, n))
        if entry is not None:
            return entry.total
        # every slice below has degree n or less
        if n > self.degree_bound:
            raise BoundExceeded(
                f"degree {n} exceeds the degree bound {self.degree_bound}; "
                f"H_n and the membership of a degree-n chain read cells of "
                f"degrees n and n+1, so raise degree_bound (--degree-bound)"
            )
        base = len(self._elements)
        # the slices already laid out were checked, with all below them
        for j, d, total in _sizes(base, k, n):
            if (j, d) not in layout:
                if total > self._bound:
                    raise BoundExceeded(
                        f"{total} cells at degree {d} exceed "
                        f"{_ENV_CELL_BOUND}={self._bound}"
                    )
                layout[(j, d)] = _slice(base, j, d)
        return total

    def _position(self, k: int, items) -> int:
        """Inverse of _decode: the position of the level-k cell whose
        block digits are [(digit, degree)]."""
        shape = tuple(degree for _, degree in items)
        n = sum(shape) + (len(shape) - 1) * k
        offset, weights, _ = self._layout[(k, n)].blocks[shape]
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
            while k and pos < self._layout[(k - 1, n)].total:
                k -= 1
            # the last level-k block that starts at or before pos
            layout = self._layout[(k, n)]
            shape = layout.shapes[bisect.bisect_right(layout.starts, pos) - 1]
            offset, weights, radices = layout.blocks[shape]
            # a bar cell's element indices, or a join's component positions
            rest = pos - offset
            digits = [rest // w % r for w, r in zip(weights, radices)]
            if k == 0:
                # built on the first decode, and not by a cached_property:
                # its write through __dict__ makes every later attribute
                # read of the complex about 3x slower on CPython 3.11
                elements = self._group_elements
                if elements is None:
                    elements = self._group_elements = [
                        GroupElement(self.group, vec) for vec in self._elements
                    ]
                cell = BarCell([elements[d] for d in digits])
            else:
                # a level-k block joins at least two cells of level
                # below k, and the cell has degree n
                cell = _trusted_join(k, tuple([
                    memo.get((m, d)) or self._decode(m, d, k - 1)
                    for d, m in zip(digits, shape)
                ]), n)
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
        of its components' positions (see _position)."""
        layout = self._layout
        runs = [((d,), (layout[(j - 1, d)].total,))] if j else []
        return runs + [(shape, b[2]) for shape, b in layout[(j, d)].blocks.items()]

    def _contractions(self, j: int, dx: int, dy: int, width: int, sign: int,
                      heads=None):
        """The level-j shuffle of every pair (x, y) of level-j cells of
        degrees dx and dy, in product order, as {width * position:
        sign * coeff}; with `heads`, ascending, only the pairs whose x is
        at one of those positions.  For each pair of runs the
        interleavings are fixed, so a term's position is X[x] + Y[y],
        with X and Y digit sums over the cells of each run."""
        blocks = self._layout[(j, dx + dy + j)].blocks
        runs_y = self._runs(j, dy)
        out = []
        start = 0  # the position of the run's first cell
        for sx, rx in self._runs(j, dx):
            size = math.prod(rx)
            cells = range(size) if heads is None else [
                h - start for h in heads if start <= h < start + size
            ]
            start += size
            if not cells:
                continue
            tables = []
            for sy, ry in runs_y:
                merged, xslots, yslots, signs = _interleavings(j, sx, sy)
                targets = [blocks[shape] for shape in merged]
                if sign != 1:
                    signs = [-s for s in signs]
                # per cell of each run, the tuple over the interleavings
                if size == 1 == math.prod(ry):
                    # two one-cell runs, as in Z/2: the block offsets
                    X = [tuple([offset * width for offset, _, _ in targets])]
                    Y = [(0,) * len(signs)]
                else:
                    X = list(zip(*[
                        _digit_sums(rx, [w[s] * width for s in xs], o * width)
                        for (o, w, _), xs in zip(targets, xslots)
                    ]))
                    Y = list(zip(*[
                        _digit_sums(ry, [w[s] * width for s in ys])
                        for (_, w, _), ys in zip(targets, yslots)
                    ]))
                tables.append((X, Y, signs))
            for lx in cells:
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
        table = _end_table(self.group.torsion, base < self.group.order())
        faces = self._level_columns(0, n - 1)
        width = base ** (n - 2)
        out = []
        for x1 in leads:
            ends = table[x1]
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

    def _join_columns(self, k: int, n: int, shape: tuple, heads=None) -> list:
        """Columns of the block of level-k joins with component degrees
        `shape`: each component's boundary, then each adjacent pair
        contracted by the level-(k-1) shuffle, signed as in
        cells.boundary_cell; with `heads`, ascending, only those of the
        joins whose first component is at one of those positions.  Each
        source is a table of pre-shifted columns, read at a per-cell
        index and added at a per-cell base.  The sources land in
        pairwise distinct blocks of degree n-1 (see the module
        docstring), so a column is their plain union."""
        p = len(shape)
        lower = self._layout[(k, n - 1)].blocks
        radices = self._layout[(k, n)].blocks[shape][2]
        # the tables read at the first component hold the heads alone,
        # so a cell's index there counts its rank among them
        ranked = radices if heads is None else (len(heads),) + radices[1:]
        zero = (0,) * p
        out = None
        sources = []  # (table, index of each cell's entry, base of each cell)
        a = 0
        for i, part in enumerate(shape):
            sign = -1 if a % 2 else 1
            a += part + k
            # a degree-1 component has zero boundary
            if part > 1:
                face = shape[:i] + (part - 1,) + shape[i + 1:]
                offset, weights, _ = lower[face]
                width = weights[i]
                inner = self._level_columns(k - 1, part)
                if i == 0 and heads is not None:
                    inner = [inner[h] for h in heads]
                if width != 1 or sign != 1:
                    inner = [
                        {r * width: sign * c for r, c in col.items()}
                        for col in inner
                    ]
                sources.append((
                    inner,
                    _digit_sums(ranked, zero[:i] + (1,) + zero[i + 1:]),
                    _digit_sums(
                        radices, weights[:i] + (0,) + weights[i + 1:], offset,
                        heads,
                    ),
                ))
            if i == p - 1:
                continue
            sign = -1 if a % 2 else 1
            firsts = heads if i == 0 else None
            if p == 2:
                # the contraction of (x, y) is one level-(k-1) cell, at
                # its own position, and the block's cells are the pairs
                # in product order: the table is where the columns start
                out = self._contractions(k - 1, part, shape[1], 1, sign, firsts)
                continue
            merged = part + shape[i + 1] + k - 1
            offset, weights, _ = lower[shape[:i] + (merged,) + shape[i + 2:]]
            sources.append((
                self._contractions(
                    k - 1, part, shape[i + 1], weights[i], sign, firsts
                ),
                _digit_sums(
                    ranked, zero[:i] + (ranked[i + 1], 1) + zero[i + 2:]
                ),
                _digit_sums(
                    radices, weights[:i] + (0, 0) + weights[i + 1:], offset,
                    heads,
                ),
            ))
        if out is None:
            out = [{} for _ in range(math.prod(ranked))]
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
                for shape in self._layout[(k, n)].blocks:
                    cols.extend(self._join_columns(k, n, shape))
            self._columns[(k, n)] = cols
        return self._columns[(k, n)]

    def _leads(self) -> list:
        """The element indices of the unit vectors e_1, .., e_s,
        ascending: the leads of the kept cells (see _first_digits).  The
        trivial group has none, and there its one element leads, where
        it is a digit."""
        s = len(self.group.torsion)
        index = self._element_index
        units = sorted(
            index[tuple([int(i == j) for j in range(s)])] for i in range(s)
        )
        # the trivial group: [0], or [] on the normalized twin
        return units or list(index.values())

    def _first_digits(self, shape: tuple, radices: tuple, leads: list) -> list:
        """The first digits, ascending, of the cells of a block that the
        clearing keeps (see the module docstring): those whose first
        component is a bar cell led by a lead, or a join.  That digit is
        a bar cell's first element (m = shape[0] = 1), or a join's first
        component's position: from g B^(m-1) to (g+1) B^(m-1) - 1 for the
        bar cells led by g, B the number of values of a level-0 digit,
        and from B^m to radices[0] - 1 for the joins."""
        base = len(self._elements)
        m = shape[0]
        width = base ** (m - 1)
        heads = []
        for g in leads:
            heads.extend(range(g * width, (g + 1) * width))
        heads.extend(range(base ** m, radices[0]))
        return heads

    def _cleared_columns(self, n: int):
        """(columns, kept): the columns of boundary_columns(n) that span
        the same lattice (see the module docstring), for n >= 1 (degree
        0 has no kept digit, and no boundary column to clear), those of
        the cells whose first digits _first_digits keeps, block by block
        in their order; and per block (offset, weights, radices, heads),
        heads its kept first digits, from which _digit_sums gives the
        kept cells' positions.  Nothing is memoised for degree n.  The
        columns are this call's own: built by it, or, for the bar cells
        when the columns from degree n+1 have memoised those of degree n
        as their faces, copies of the memo's."""
        leads = self._leads()
        bars = self._columns.get((0, n))
        cols, kept = [], []
        for k in range(self.level + 1):
            for shape, block in self._layout[(k, n)].blocks.items():
                heads = self._first_digits(shape, block[2], leads)
                if k:
                    cols.extend(self._join_columns(k, n, shape, heads))
                elif bars is None:
                    cols.extend(self._bar_columns(n, heads))
                else:
                    # a bar cell's first element is its leading digit
                    width = block[1][0]
                    cols.extend([
                        dict(col) for g in heads
                        for col in bars[g * width:(g + 1) * width]
                    ])
                kept.append(block + (heads,))
        return cols, kept

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
        boundary from degree n, cleared: the columns of
        _cleared_columns, at the positions of the first digits it keeps
        in each block.  They span the lattice of the whole boundary (see the
        module docstring), so a chain is a boundary exactly when the
        solver finds a combination of them."""
        if n not in self._solvers:
            self._size(n)
            self._size(n - 1)
            cols, kept = self._cleared_columns(n)
            self._solvers[n] = ColumnSolver(cols), _cleared_positions(kept)
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
        upper, _ = twin._cleared_columns(n + 1)
        # d_n cleared too, each column with its cell's position, so its
        # unit-pivot rows can be deleted from d_{n+1}; degree 0 has no
        # d_0 column.  Both lists are this call's own (see
        # _cleared_columns); the twin's memos of the lower degrees go
        # with the twin: free them before the eliminations
        lower, kept = twin._cleared_columns(n) if n else ([], [])
        del twin
        lower_rank = _cycle_coordinates(lower, upper, _cleared_positions(kept))
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


def _cycle_coordinates(lower: list, upper: list, positions):
    """The rank of the boundary `lower` from degree n, columns of the
    n-cells that span the lattice of the whole boundary; column j is
    the cell at row positions[j] of the boundary `upper` into degree n.
    The rows of lower's unit-pivot columns are deleted in place from
    each column of `upper`, which keeps its rank and invariant factors
    (see the module docstring).  Both lists are the caller's to give
    up: `lower` is eliminated in place, and `upper`'s columns lose
    those rows."""
    elim = Elimination(lower)
    dropped = {positions[j] for _, j in elim.pivots[:elim.units]}
    for col in upper:
        for r in dropped.intersection(col):
            del col[r]
    return len(elim.pivots)


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

    The cycle depends on S only through the element g that its product
    puts in the slot, and a symmetrized cycle enters the sum linearly in
    its coefficient.  So the chain is the sum over the values g of
    net(g) * cycle(args with g in the slot), where net(g) sums the signs
    of the subsets whose product is g: one cycle per value with
    net(g) != 0, at most |A| on a finite group, not one per subset.
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
    net = {}  # vector of a product -> [the product, net(product)]
    for size in range(1, r + 1):
        sign = (-1) ** (r - size)
        for subset in itertools.combinations(range(r), size):
            g = sums[subset] = sums[subset[:-1]] + betas[subset[-1]]
            entry = net.get(g.vec)
            if entry is None:
                net[g.vec] = [g, sign]
            else:
                entry[1] += sign
    full = list(args)
    terms = {}
    for g, coeff in net.values():
        if coeff:
            full[slot] = g
            _add_symmetrized(terms, full, lam, coeff)
    return Chain(terms)


def check_conjecture_instance(
    complex_: CellComplex, lam, slot, args, betas
) -> ConjectureInstance:
    """Decide the inclusion-exclusion identity and the inverse identity
    in homology by boundary membership on the level-1 complex `complex_`
    of their group; purely a report.  The complex keeps its membership
    solvers, so instances of one degree on it factor one boundary."""
    if complex_.level != 1:
        raise InvalidArguments(
            f"conjecture instances need a level-1 complex, got level "
            f"{complex_.level}"
        )
    lam = tuple(lam)
    d = sum(lam)
    inst = ConjectureInstance(
        complex_.group, d, lam, slot, tuple(args), tuple(betas)
    )
    try:
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
