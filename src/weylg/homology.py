"""Cell enumeration, boundary matrices, membership, and homology.

For a finite group the complexes have finitely many cells per degree;
enumerating them in a fixed deterministic order turns the boundary
operator into sparse integer columns, and the elimination engine answers
"is this chain a boundary" (with an explicit witness) and computes the
elementary divisors of the homology in a given degree.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .cells import BarCell, Chain, _add_chain, boundary, join
from .cycles import symmetrized_cycle
from .errors import BoundExceeded, InvalidArguments
from .groups import AbGroup
from .snf import ColumnSolver, smith_diagonal

DEFAULT_DEGREE_BOUND = 7
DEFAULT_LEVEL_BOUND = 4
DEFAULT_CELL_BOUND = 50000

_ENV_CELL_BOUND = "WEYL_MAX_CELLS"


def cell_bound() -> int:
    raw = os.environ.get(_ENV_CELL_BOUND)
    if raw is None:
        return DEFAULT_CELL_BOUND
    try:
        return int(raw)
    except ValueError as exc:
        raise BoundExceeded(f"{_ENV_CELL_BOUND}={raw!r} is not an integer") from exc


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
        if level > DEFAULT_LEVEL_BOUND:
            raise BoundExceeded(
                f"level {level} exceeds the bound {DEFAULT_LEVEL_BOUND}"
            )
        self.group = group
        self.level = level
        self.degree_bound = (
            DEFAULT_DEGREE_BOUND if degree_bound is None else degree_bound
        )
        self._cells = {}  # (k, n) -> list
        self._index = {}  # n -> {cell: position} at this level
        self._solvers = {}  # n -> ColumnSolver for boundary from degree n

    def cells(self, n: int, level: int = None) -> list:
        k = self.level if level is None else level
        if n < 0:
            return []
        if n > self.degree_bound:
            raise BoundExceeded(
                f"degree {n} exceeds the degree bound {self.degree_bound}; "
                f"H_n needs cells of degree n+1, so raise degree_bound "
                f"(--degree-bound)"
            )
        key = (k, n)
        if key not in self._cells:
            cells = self._build(k, n)
            if len(cells) > cell_bound():
                raise BoundExceeded(
                    f"{len(cells)} cells at degree {n} exceed "
                    f"{_ENV_CELL_BOUND}={cell_bound()}"
                )
            self._cells[key] = cells
            if k == self.level:
                self._index[n] = {cell: pos for pos, cell in enumerate(cells)}
        return self._cells[key]

    def _build(self, k, n):
        if k == 0:
            return [
                BarCell(combo)
                for combo in itertools.product(list(self.group.elements()), repeat=n)
            ]
        out = list(self.cells(n, k - 1))
        for p in range(2, n + 1):
            rest = n - (p - 1) * k
            if rest < p:
                continue
            for shape in _compositions(rest, p):
                pools = [self.cells(part, k - 1) for part in shape]
                for comps in itertools.product(*pools):
                    out.append(join(k, comps))
        return out

    def chain_entries(self, chain: Chain, n: int) -> dict:
        """The chain as a sparse vector {cell position: coeff}."""
        self.cells(n)
        table = self._index[n]
        out = {}
        for cell, coeff in chain.terms.items():
            if cell.degree != n:
                raise InvalidArguments("chain is not homogeneous of the degree")
            pos = table.get(cell)
            if pos is None:
                raise InvalidArguments(f"cell {cell!r} not in the enumeration")
            out[pos] = coeff
        return out

    def boundary_columns(self, n: int) -> list:
        """Sparse boundary from degree n to degree n-1: one column
        {lower cell position: coeff} per upper cell, in cell order."""
        upper = self.cells(n)
        self.cells(n - 1)
        table = self._index.get(n - 1, {})  # degree -1 has no cells
        return [
            {table[image]: coeff for image, coeff in boundary(cell).terms.items()}
            for cell in upper
        ]

    def boundary_matrix(self, n: int) -> list:
        """Dense export of boundary_columns (rows are the lower cells,
        columns the upper, entries exact integers)."""
        rows = [[0] * len(self.cells(n)) for _ in self.cells(n - 1)]
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
        upper = self.cells(n + 1)
        witness = Chain({upper[j]: y[j] for j in sorted(y)})
        return True, witness

    def homology(self, n: int):
        """Free rank and elementary divisors (> 1) of H_n at this level."""
        lower_rank = (
            len(smith_diagonal(self.boundary_columns(n))) if n >= 1 else 0
        )
        upper_divisors = smith_diagonal(self.boundary_columns(n + 1))
        dim = len(self.cells(n))
        free = dim - lower_rank - len(upper_divisors)
        torsion = tuple(d for d in upper_divisors if d > 1)
        return HomologyResult(self.group, self.level, n, free, torsion)


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


def enumerate_cells(group: AbGroup, level: int, degree: int,
                    degree_bound: int = None) -> list:
    """All canonical cells of the degree at level <= the given level,
    deterministically ordered."""
    return CellComplex(group, level, degree_bound).cells(degree)


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
    r = len(betas)
    if r != lam[slot] + 1:
        raise InvalidArguments(
            f"slot {slot} with part {lam[slot]} needs {lam[slot] + 1} factors"
        )
    group = betas[0].group
    terms = {}
    for size in range(1, r + 1):
        sign = (-1) ** (r - size)
        for subset in itertools.combinations(range(r), size):
            product = group.identity()
            for i in subset:
                product = product + betas[i]
            full = list(args)
            full[slot] = product
            _add_chain(terms, symmetrized_cycle(tuple(full), lam), sign)
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
