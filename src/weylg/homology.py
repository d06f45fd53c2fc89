"""Cell enumeration, boundary matrices, membership, and homology.

For a finite group the complexes have finitely many cells per degree;
enumerating them in a fixed deterministic order turns the boundary
operator into sparse integer columns, and the elimination engine answers
"is this chain a boundary" (with an explicit witness) and computes the
elementary divisors of the homology in a given degree.

The order is a layout of integer positions, and the boundary columns
are assembled on positions alone: cell objects are built only for the
cells a caller hands in or asks for.

* Level 0, degree n: the n-tuples of group elements, each a mixed-radix
  number whose digits are element indices in the lexicographic order of
  ``AbGroup.elements()``, first element most significant.
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
the bounds, before anything is built.  A bar face is digit arithmetic
and one lookup in the addition table of element indices.  A join's
faces come from the memoised columns of its components and the
level-(k-1) shuffles of adjacent components, re-encoded in the blocks
of degree n-1.  ``cells.boundary`` and ``cells.shuffle_cells``
are the same operator on cell objects over any group; the tests check
the columns against them.

Homology is computed on the normalized complex.  Call a cell degenerate
if the identity occurs anywhere in it.  The degenerate cells span an
acyclic subcomplex (Eilenberg and Mac Lane, On the groups H(Pi, n),
I-III, Ann. of Math. 1953-54), so the quotient by them, spanned by the
identity-free cells, has the same H_n.  Its layout is the one above
with every level-0 digit running over the |A|-1 non-identity elements,
so a bar cell is identity-free, a join is built from identity-free
components, and a shuffle only permutes elements: the one change to
the columns is that a bar face merging two entries into the identity
is dropped.  ``homology`` sizes and builds only the identity-free
slices, on such a twin.  ``cells``, ``chain_entries`` and
``boundary_membership`` stay on the full complex, whose witnesses may
use degenerate cells.

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
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

# boundary (the operator on chains) stays a name of this module:
# perfbench/spans.py traces it here
from .cells import BarCell, Chain, JoinCell, boundary  # noqa: F401
from .cycles import _add_symmetrized, symmetrized_cycle
from .errors import BoundExceeded, InvalidArguments
from .groups import AbGroup
from .snf import ColumnSolver, Elimination, smith_diagonal

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


class CellComplex:
    """Enumerated slices of the level-<=k complex of a finite group."""

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
        self._elements = list(group.elements())
        self._element_index = {e.vec: i for i, e in enumerate(self._elements)}
        self._add = None  # table of element indices of sums, once needed
        self._layout = {}  # (k, n) -> (count, {shape: (offset, weights)})
        self._columns = {}  # (k, n) -> boundary columns of the level-k cells
        # the cells callers hand in or ask for, each way
        self._positions = {}  # cell -> position
        self._decoded = {}  # (degree, position) -> cell
        self._solvers = {}  # n -> ColumnSolver for boundary from degree n

    def _size(self, n: int, k: int = None) -> int:
        """N(k, n), the number of cells of degree n and level <= k.

        Sizes the slices in the order a recursive enumeration visits
        them, and checks each against the bounds before anything is
        built."""
        k = self.level if k is None else k
        if (k, n) in self._layout:
            return self._layout[(k, n)][0]
        if n < 0:
            return 0
        if n > self.degree_bound:
            raise BoundExceeded(
                f"degree {n} exceeds the degree bound {self.degree_bound}; "
                f"H_n needs cells of degree n+1, so raise degree_bound "
                f"(--degree-bound)"
            )
        blocks = {}
        if k == 0:
            total = len(self._elements) ** n
        else:
            total = self._size(n, k - 1)
            for p in range(2, n + 1):
                rest = n - (p - 1) * k
                if rest < p:
                    continue
                for shape in _compositions(rest, p):
                    radices = [self._size(part, k - 1) for part in shape]
                    weights = tuple(
                        math.prod(radices[i + 1:]) for i in range(p)
                    )
                    blocks[shape] = (total, weights)
                    total += math.prod(radices)
        if total > cell_bound():
            raise BoundExceeded(
                f"{total} cells at degree {n} exceed "
                f"{_ENV_CELL_BOUND}={cell_bound()}"
            )
        self._layout[(k, n)] = (total, blocks)
        return total

    def _components(self, k: int, n: int, pos: int) -> list:
        """[(position, degree)] of the items a level-k join is made of:
        the element indices at level 0, else the components of a level-k
        join, or the cell itself when its level is below k."""
        if k == 0:
            base = len(self._elements)
            digits = []
            for _ in range(n):
                pos, digit = divmod(pos, base)
                digits.append((digit, 1))
            return digits[::-1]
        if pos < self._layout[(k - 1, n)][0]:
            return [(pos, n)]
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
        """Inverse of _components for two or more items (any number at
        level 0)."""
        if k == 0:
            pos = 0
            for digit, _ in items:
                pos = pos * len(self._elements) + digit
            return pos
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

    def _shuffle(self, k: int, x, y) -> dict:
        """cells.shuffle_cells on (degree, position) pairs, as
        {position: coeff} among the level-k cells."""
        cx = self._components(k, *x)
        cy = self._components(k, *y)
        p, q = len(cx), len(cy)
        prefix = [0]
        for _, degree in cy:
            prefix.append(prefix[-1] + degree + k)
        terms = {}
        for slots in itertools.combinations(range(p + q), p):
            merged = [None] * (p + q)
            eps = 0
            for i, slot in enumerate(slots):
                merged[slot] = cx[i]
                eps += (cx[i][1] + k) * prefix[slot - i]
            rest = iter(cy)
            pos = self._position(k, [item or next(rest) for item in merged])
            terms[pos] = terms.get(pos, 0) + (-1 if eps % 2 else 1)
        return {r: c for r, c in terms.items() if c}

    def _bar_columns(self, n: int) -> list:
        if n < 2:
            # the empty cell, and the [x] whose two faces cancel
            return [{} for _ in range(len(self._elements) ** n)]
        if self._add is None:
            # -1 where the normalized complex has no element a + b
            self._add = [
                [self._element_index.get((a + b).vec, -1) for b in self._elements]
                for a in self._elements
            ]
        base, add = len(self._elements), self._add
        low = base ** (n - 1)
        last = -1 if n % 2 else 1
        merges = [
            (i, base ** (n - 1 - i), -1 if i % 2 else 1) for i in range(1, n)
        ]
        out = []
        for pos, digits in enumerate(itertools.product(range(base), repeat=n)):
            col = {pos % low: 1}
            for i, width, sign in merges:
                merged = add[digits[i - 1]][digits[i]]
                if merged < 0:
                    continue
                row = (
                    pos // (width * base * base) * (width * base)
                    + merged * width
                    + pos % width
                )
                col[row] = col.get(row, 0) + sign
            row = pos // base
            col[row] = col.get(row, 0) + last
            out.append({r: c for r, c in col.items() if c})
        return out

    def _join_columns(self, k: int, n: int, shape: tuple) -> list:
        """Columns of the block of level-k joins with component degrees
        `shape`: each component's boundary, then each adjacent pair
        contracted by the level-(k-1) shuffle, signed as in
        cells.boundary_cell."""
        p = len(shape)
        inner = [self._level_columns(k - 1, part) for part in shape]
        lower = self._layout[(k, n - 1)][1]
        faces, contractions = [], []
        a = 0
        for i, part in enumerate(shape):
            # None for a degree-1 component, whose boundary is zero
            face = lower.get(shape[:i] + (part - 1,) + shape[i + 1:])
            faces.append((face, -1 if a % 2 else 1))
            a += part + k
            if i < p - 1:
                merged = part + shape[i + 1] + k - 1
                # with two components the contraction is one level-(k-1)
                # cell, at its own position
                block = (
                    (0, (1,)) if p == 2
                    else lower[shape[:i] + (merged,) + shape[i + 2:]]
                )
                contractions.append((block, -1 if a % 2 else 1))
        out = []
        for digits in itertools.product(*(range(len(c)) for c in inner)):
            col = {}
            for i, (face, sign) in enumerate(faces):
                terms = inner[i][digits[i]]
                if not terms:
                    continue
                offset, weights = face
                width = weights[i]
                base = offset + sum(
                    d * w for d, w in zip(digits, weights)
                ) - digits[i] * width
                for r, c in terms.items():
                    row = base + r * width
                    col[row] = col.get(row, 0) + sign * c
            for i, ((offset, weights), sign) in enumerate(contractions):
                width = weights[i]
                base = offset + sum(
                    d * w
                    for d, w in zip(digits[:i] + digits[i + 2:],
                                    weights[:i] + weights[i + 1:])
                )
                terms = self._shuffle(
                    k - 1, (shape[i], digits[i]), (shape[i + 1], digits[i + 1])
                )
                for r, c in terms.items():
                    row = base + r * width
                    col[row] = col.get(row, 0) + sign * c
            out.append({r: c for r, c in col.items() if c})
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

    def boundary_columns(self, n: int) -> list:
        """Sparse boundary from degree n to degree n-1: one column
        {lower cell position: coeff} per upper cell, in cell order."""
        self._size(n)
        self._size(n - 1)
        return list(self._level_columns(self.level, n)) if n >= 0 else []

    def boundary_matrix(self, n: int) -> list:
        """Dense export of boundary_columns (rows are the lower cells,
        columns the upper, entries exact integers)."""
        rows = [[0] * self._size(n) for _ in range(self._size(n - 1))]
        for col, entries in enumerate(self.boundary_columns(n)):
            for row, coeff in entries.items():
                rows[row][col] = coeff
        return rows

    def _solver(self, n: int) -> ColumnSolver:
        if n not in self._solvers:
            self._solvers[n] = ColumnSolver(self.boundary_columns(n))
        return self._solvers[n]

    def boundary_membership(self, chain: Chain):
        """Decide chain = boundary(y) for an integer chain y of one degree
        higher; returns (True, witness chain) or (False, None)."""
        if chain.is_zero():
            return True, Chain.zero()
        n = chain.degree()
        target = self.chain_entries(chain, n)
        y = self._solver(n + 1).solve(target)
        if y is None:
            return False, None
        memo = self._decoded
        witness = Chain({
            memo.get((n + 1, j)) or self._decode(n + 1, j, self.level): y[j]
            for j in sorted(y)
        })
        return True, witness

    def homology(self, n: int):
        """Free rank and elementary divisors (> 1) of H_n at this level,
        computed on the identity-free cells (see the module docstring)."""
        if n < 0:
            raise InvalidArguments(f"degree must be >= 0, got {n}")
        twin = self._normalized()
        # every bound is checked on the twin's slices before any column
        # is built, in the order the two boundaries read their degrees
        for m in (n, n - 1, n + 1) if n >= 1 else (1, 0):
            twin._size(m)
        size = twin._size(n)
        upper = twin.boundary_columns(n + 1)
        lower = twin.boundary_columns(n) if n >= 1 else None
        # free the twin's column memo before the eliminations
        del twin
        if lower is not None:
            lower_rank, upper = _cycle_coordinates(lower, upper)
            del lower
        else:
            lower_rank = 0
        upper_divisors = smith_diagonal(upper)
        free = size - lower_rank - len(upper_divisors)
        torsion = tuple(d for d in upper_divisors if d > 1)
        return HomologyResult(self.group, self.level, n, free, torsion)

    def _normalized(self) -> CellComplex:
        """A twin on the identity-free cells of this complex."""
        twin = CellComplex(self.group, self.level, self.degree_bound)
        twin._elements = [e for e in self._elements if not e.is_identity()]
        twin._element_index = {e.vec: i for i, e in enumerate(twin._elements)}
        return twin


def _cycle_coordinates(lower: list, upper: list):
    """(rank of the boundary `lower` from degree n, the boundary `upper`
    into degree n with the rows of lower's unit-pivot columns deleted);
    the second has the same rank and invariant factors as `upper` (see
    the module docstring)."""
    elim = Elimination(lower)
    dropped = {j for _, j in elim.pivots[:elim.units]}
    if dropped:
        upper = [
            {r: c for r, c in col.items() if r not in dropped} for col in upper
        ]
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
