import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_homology_table import invariant_factors

import weylg
import weylg.homology as homology_module
from weylg.cells import BarCell, Chain, JoinCell, boundary, join, shuffle_cells
from weylg.cycles import symmetrized_cycle
from weylg.errors import BoundExceeded, InvalidArguments
from weylg.groups import AbGroup
from weylg.homology import (
    CellComplex,
    _cycle_coordinates,
    _end_table,
    _interleavings,
    _sizes,
    _slice,
    boundary_membership,
    cell_bound,
    check_conjecture_instance,
    homology,
)
from weylg.snf import ColumnSolver, Elimination, smith_diagonal

Z2 = AbGroup(0, (2,))
Z3 = AbGroup(0, (3,))


def test_package_attribute_is_the_homology_module():
    assert weylg.homology is homology_module
    assert weylg.homology.CellComplex is CellComplex
    assert weylg.homology.homology is homology


def count_by_recursion(group, level, degree):
    """Independent count: canonical cells described recursively."""
    order = group.order()

    def count(k, n):
        if k == 0:
            return order**n
        total = count(k - 1, n)
        for p in range(2, n + 1):
            rest = n - (p - 1) * k
            if rest < p:
                continue
            total += sum(
                _product(count(k - 1, part) for part in shape)
                for shape in _compositions(rest, p)
            )
        return total

    return count(level, degree)


def _product(items):
    out = 1
    for x in items:
        out *= x
    return out


def _compositions(total, parts):
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        out.extend((first,) + rest for rest in _compositions(total - first, parts - 1))
    return out


def enumerate_by_joins(group, level, degree, memo=None):
    """Reference enumeration on cell objects: the level-(k-1) cells, then
    the level-k joins block by block, in the product order of the
    component pools."""
    memo = {} if memo is None else memo

    def build(k, n):
        if n < 0:
            return []
        if (k, n) not in memo:
            if k == 0:
                out = [
                    BarCell(combo)
                    for combo in itertools.product(list(group.elements()), repeat=n)
                ]
            else:
                out = list(build(k - 1, n))
                for p in range(2, n + 1):
                    rest = n - (p - 1) * k
                    if rest < p:
                        continue
                    for shape in _compositions(rest, p):
                        pools = [build(k - 1, part) for part in shape]
                        for comps in itertools.product(*pools):
                            out.append(join(k, comps))
            memo[(k, n)] = out
        return memo[(k, n)]

    return build(level, degree)


def boundary_columns_by_cells(upper, lower):
    """Reference assembly: cells.boundary of each cell object, each image
    looked up in a {cell: position} table of the lower degree."""
    table = {cell: pos for pos, cell in enumerate(lower)}
    return [
        {table[image]: coeff for image, coeff in boundary(cell).terms.items()}
        for cell in upper
    ]


def squares_to_zero(complex_, degree):
    """boundary(degree - 1) after boundary(degree) is zero on columns."""
    lower = complex_.boundary_columns(degree - 1)
    for col in complex_.boundary_columns(degree):
        image = {}
        for row, coeff in col.items():
            for r, c in lower[row].items():
                image[r] = image.get(r, 0) + coeff * c
        if any(image.values()):
            return False
    return True


# orders <= 4 at levels 0-3 and degrees 0-4
SMALL_SLICES = [
    (group, level, degree)
    for group in (AbGroup(0, ()), Z2, Z3, AbGroup(0, (4,)), AbGroup(0, (2, 2)))
    for level in range(4)
    for degree in range(5)
]


ASSEMBLY_GROUPS = [
    AbGroup(0, torsion)
    for torsion in ((), (2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 3))
]


def assembly_grid():
    """{group: {level: degrees}}: the ASSEMBLY_GROUPS at levels 0-3 and
    degrees 0-6, up to the first slice of more than 2,500 cells.  It
    holds joins of three components from level 1, degree 5 on."""
    return {
        group: {
            level: list(itertools.takewhile(
                lambda n: count_by_recursion(group, level, n) <= 2500,
                range(7),
            ))
            for level in range(4)
        }
        for group in ASSEMBLY_GROUPS
    }


class TestPositions:
    def test_columns_match_the_cell_object_reference(self):
        for group, levels in assembly_grid().items():
            memo = {}
            for level, degrees in levels.items():
                complex_ = CellComplex(group, level)
                for degree in degrees:
                    upper = enumerate_by_joins(group, level, degree, memo)
                    lower = enumerate_by_joins(group, level, degree - 1, memo)
                    assert complex_.boundary_columns(degree) == (
                        boundary_columns_by_cells(upper, lower)
                    ), (group, level, degree)

    def test_boundary_squares_to_zero_on_columns(self):
        for group, level, degree in SMALL_SLICES:
            if degree < 2:
                continue
            assert squares_to_zero(CellComplex(group, level), degree), (
                group, level, degree
            )

    def test_positions_follow_the_reference_order(self):
        for group, level, degree in SMALL_SLICES:
            reference = enumerate_by_joins(group, level, degree)
            complex_ = CellComplex(group, level)
            assert complex_._size(degree) == len(reference)
            # decoding every position reproduces the order
            assert complex_.cells(degree) == reference
            # encoding inverts decoding, through a fresh complex
            chain = Chain({cell: pos + 1 for pos, cell in enumerate(reference)})
            fresh = CellComplex(group, level)
            assert fresh.chain_entries(chain, degree) == {
                pos: pos + 1 for pos in range(len(reference))
            }
            # the identity-free twin, whose digits run over 0 elements
            # in the trivial group and 1 in Z/2
            cells = complex_._normalized().cells(degree)
            chain = Chain({cell: pos + 1 for pos, cell in enumerate(cells)})
            fresh = CellComplex(group, level)._normalized()
            assert fresh.chain_entries(chain, degree) == {
                pos: pos + 1 for pos in range(len(cells))
            }, (group, level, degree)

    def test_every_position_of_a_level_three_slice_round_trips(self):
        """Z/2 at level 3, degree 7: 952 cells, of which the 64 of level
        3 lie in three blocks, so _decode bisects among several start
        offsets at every level it steps down to."""
        complex_ = CellComplex(Z2, 3)
        cells = complex_.cells(7)
        layout = complex_._layout[(3, 7)]
        assert len(cells) == layout.total == 952
        assert layout.shapes == ((1, 3), (2, 2), (3, 1))
        assert layout.starts == (888, 912, 928)
        assert cells == enumerate_by_joins(Z2, 3, 7)
        # each block starts with a join of its shape, after a cell of
        # another block or of a lower level
        for start, shape in zip(layout.starts, layout.shapes):
            assert cells[start].level == 3
            assert tuple(c.degree for c in cells[start].comps) == shape
            before = cells[start - 1]
            assert before.level < 3 or before.comps[0].degree != shape[0]
        chain = Chain({cell: pos + 1 for pos, cell in enumerate(cells)})
        fresh = CellComplex(Z2, 3)
        assert fresh.chain_entries(chain, 7) == {
            pos: pos + 1 for pos in range(952)
        }

    def test_chain_entries_reject_cells_outside_the_complex(self):
        g = Z2.element((1,))
        with pytest.raises(InvalidArguments, match="not in the enumeration"):
            CellComplex(Z2, 0).chain_entries(
                Chain.of(join(1, (BarCell((g,)), BarCell((g,))))), 3
            )
        with pytest.raises(InvalidArguments, match="not in the enumeration"):
            CellComplex(Z2, 1).chain_entries(
                Chain.of(BarCell((Z3.element((2,)),))), 1
            )


def _component_cells(shape, k, elements):
    """Distinct cells of the degrees `shape` that a level-k shuffle
    takes as its components: group elements at level 0, else bar cells
    (of level < k) of consecutive fresh elements."""
    if k == 0:
        return [next(elements) for _ in shape]
    return [BarCell([next(elements) for _ in range(d)]) for d in shape]


def _shuffle_shapes(k, top):
    """The component degrees a level-k shuffle splits a cell of degree
    <= top into: a bar's entries at level 0; a cell of lower level
    whole, or a level-k join's components."""
    if k == 0:
        return [(1,) * d for d in range(1, top + 1)]
    shapes = [(d,) for d in range(1, top + 1)]
    for d in range(1, top + 1):
        for p in range(2, d + 1):
            rest = d - (p - 1) * k
            if rest >= p:
                shapes.extend(_compositions(rest, p))
    return shapes


class TestBlockAssembly:
    def test_interleavings_match_shuffle_cells(self):
        """Every interleaving of distinct components is one term of
        cells.shuffle_cells, with the cached degrees and sign."""
        free = AbGroup(1)
        for k in range(4):
            shapes = _shuffle_shapes(k, 6)
            for sx in shapes:
                for sy in shapes:
                    fresh = (free.element((i,)) for i in itertools.count(1))
                    cx = _component_cells(sx, k, fresh)
                    cy = _component_cells(sy, k, fresh)
                    if k == 0:
                        x, y = BarCell(cx), BarCell(cy)
                    else:
                        x = cx[0] if len(sx) == 1 else JoinCell(k, cx)
                        y = cy[0] if len(sy) == 1 else JoinCell(k, cy)
                    terms = shuffle_cells(x, y, k).terms
                    merged, xslots, yslots, signs = _interleavings(k, sx, sy)
                    assert len(terms) == len(signs), (k, sx, sy)
                    for degrees, xs, ys, sign in zip(
                        merged, xslots, yslots, signs
                    ):
                        items = [None] * (len(sx) + len(sy))
                        for slot, item in zip(xs + ys, cx + cy):
                            items[slot] = item
                        cell = BarCell(items) if k == 0 else JoinCell(k, items)
                        assert terms[cell] == sign, (k, sx, sy, xs)
                        assert degrees == tuple(
                            1 if k == 0 else c.degree for c in items
                        )


def _degenerate(cell):
    return any(e.is_identity() for e in _elements_of(cell))


def full_homology(complex_, n):
    """H_n from the full complex's columns: (free rank, torsion)."""
    lower = len(smith_diagonal(complex_.boundary_columns(n))) if n else 0
    upper = smith_diagonal(complex_.boundary_columns(n + 1))
    return (
        complex_._size(n) - lower - len(upper),
        tuple(d for d in upper if d > 1),
    )


# orders <= 6 at levels 0-2: degrees 0-4, and 0-3 from order 4 on
NORMALIZED_SWEEP = [
    (AbGroup(0, torsion), level, degree)
    for torsion, top in (
        ((), 4), ((2,), 4), ((3,), 4), ((4,), 4),
        ((2, 2), 3), ((5,), 3), ((6,), 3),
    )
    for level in range(3)
    for degree in range(top + 1)
]


class TestNormalized:
    def test_homology_equals_the_full_complex(self):
        for group, level, degree in NORMALIZED_SWEEP:
            complex_ = CellComplex(group, level)
            result = complex_.homology(degree)
            assert (result.free_rank, result.torsion) == (
                full_homology(complex_, degree)
            ), (group, level, degree)

    def test_columns_are_the_quotient_by_the_degenerate_cells(self):
        """The twin's cells are the identity-free cells in the full order,
        and its columns are the full columns of those cells with the
        degenerate rows dropped."""
        for group, levels in assembly_grid().items():
            for level, degrees in levels.items():
                full = CellComplex(group, level)
                twin = full._normalized()
                kept = {}
                for m in [-1] + degrees:
                    cells = [c for c in full.cells(m) if not _degenerate(c)]
                    assert twin.cells(m) == cells, (group, level, m)
                    assert [twin._encode(c) for c in cells] == list(
                        range(len(cells))
                    )
                    kept[m] = {
                        full._encode(c): pos for pos, c in enumerate(cells)
                    }
                for degree in degrees:
                    full_columns = full.boundary_columns(degree)
                    assert twin.boundary_columns(degree) == [
                        {
                            kept[degree - 1][r]: c
                            for r, c in full_columns[j].items()
                            if r in kept[degree - 1]
                        }
                        for j in kept[degree]
                    ], (group, level, degree)

    def test_degenerate_cells_span_a_subcomplex(self):
        for group, level, degree in SMALL_SLICES:
            if degree < 1:
                continue
            complex_ = CellComplex(group, level)
            lower = [_degenerate(c) for c in complex_.cells(degree - 1)]
            for cell, col in zip(
                complex_.cells(degree), complex_.boundary_columns(degree)
            ):
                if _degenerate(cell):
                    assert all(lower[r] for r in col), (group, level, cell)

    def test_boundary_squares_to_zero_on_normalized_columns(self):
        for torsion in ((2,), (3,), (4,), (2, 2), (6,)):
            for level in range(4):
                twin = CellComplex(AbGroup(0, torsion), level)._normalized()
                for degree in range(2, 6):
                    assert squares_to_zero(twin, degree), (torsion, level, degree)

    def test_bounds_trip_before_the_twin_is_built(self, monkeypatch):
        """No column is assembled when a bound trips, whichever of the
        degrees n + 1, n or n - 1 it trips at."""
        built = []
        level_columns = CellComplex._level_columns

        def counting(self, k, n):
            built.append((k, n))
            return level_columns(self, k, n)

        monkeypatch.setattr(CellComplex, "_level_columns", counting)
        trivial = AbGroup(0, ())
        for bound, group, level, n, message in [
            # degree n + 1: 12 identity-free cells of level 1
            ("10", Z3, 1, 2, "12 cells at degree 3"),
            # degree n: 3**4 identity-free bar cells
            ("80", AbGroup(0, (4,)), 0, 4, "81 cells at degree 4"),
            # degree n - 1: the trivial group's one empty cell, the only
            # identity-free cell in any degree
            ("0", trivial, 0, 1, "1 cells at degree 0"),
            ("0", trivial, 2, 1, "1 cells at degree 0"),
        ]:
            monkeypatch.setenv("WEYL_MAX_CELLS", bound)
            with pytest.raises(BoundExceeded, match=f"^{message} exceed"):
                CellComplex(group, level).homology(n)
            assert built == [], (group, level, n)

    def test_homology_leaves_the_twin_memos_empty(self, monkeypatch):
        """The twin, and with it its column memo, is gone before the
        eliminations run; repeated calls on one complex agree with fresh
        complexes."""
        twins = []
        normalized = CellComplex._normalized
        compress = homology_module._cycle_coordinates
        smith = homology_module.smith_diagonal

        def recording(self):
            twin = normalized(self)
            twins.append(weakref.ref(twin))
            return twin

        def freed(eliminate):
            def run(*args):
                assert twins and twins[-1]() is None
                return eliminate(*args)
            return run

        monkeypatch.setattr(CellComplex, "_normalized", recording)
        monkeypatch.setattr(homology_module, "_cycle_coordinates", freed(compress))
        monkeypatch.setattr(homology_module, "smith_diagonal", freed(smith))
        groups = (Z2, Z3, AbGroup(0, (4,)), AbGroup(0, (2, 2)))
        for group in groups:
            for level in range(3):
                complex_ = CellComplex(group, level)
                for degree in (3, 0, 4, 2, 2):
                    twins.clear()
                    result = complex_.homology(degree)
                    assert len(twins) == 1 and twins[0]() is None
                    fresh = CellComplex(group, level).homology(degree)
                    assert result == fresh, (group, level, degree)

    def test_homology_builds_nothing_on_the_full_complex(self):
        for group, level, degree in NORMALIZED_SWEEP:
            complex_ = CellComplex(group, level)
            complex_.homology(degree)
            assert complex_._layout == {} and complex_._columns == {}, (
                group, level, degree
            )

    def test_bound_counts_the_identity_free_cells(self, monkeypatch):
        """Z/3 at level 0 has 27 cells of degree 3 but 8 identity-free
        ones, so H_2 fits a bound of 10."""
        monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
        expected = CellComplex(Z3, 0).homology(2)
        assert expected.describe() == "0"
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        assert CellComplex(Z3, 0).homology(2) == expected


def _clear_shared_tables():
    for table in (_sizes, _slice, _end_table):
        table.cache_clear()


def _layout_contents(complex_):
    return {
        key: (s.total, dict(s.blocks), s.starts, s.shapes)
        for key, s in complex_._layout.items()
    }


class TestSharedTables:
    """Layouts are shared by every complex whose level-0 digits take as
    many values, and end tables by the complexes of one group and
    digit set; each complex checks its own bounds against them."""

    def test_a_warm_complex_matches_a_cold_one(self):
        # both twins have 3 digit values, so they share layouts but not
        # end tables, and their homology differs
        Z4, Z2xZ2 = AbGroup(0, (4,)), AbGroup(0, (2, 2))
        cases = [
            (group, level, n)
            for group in (Z4, Z2xZ2) for level in range(3) for n in range(5)
        ]
        cold = {}
        for group, level, n in cases:
            _clear_shared_tables()
            twin = CellComplex(group, level)._normalized()
            twin._size(n + 1)
            _clear_shared_tables()
            cold[group, level, n] = (
                _layout_contents(twin), CellComplex(group, level).homology(n)
            )
        assert cold[Z4, 0, 1][1].describe() == "Z/4"
        assert cold[Z2xZ2, 0, 1][1].describe() == "Z/2 x Z/2"
        # Z/4 fills the tables, Z/2xZ/2 then reads its layouts warm
        _clear_shared_tables()
        twins = {}
        for group, level, n in cases + cases:
            twin = CellComplex(group, level)._normalized()
            twin._size(n + 1)
            warm = (_layout_contents(twin), CellComplex(group, level).homology(n))
            assert warm == cold[group, level, n], (group, level, n)
            twins[group, level, n] = twin
        for level in range(3):
            for key, record in twins[Z2xZ2, level, 4]._layout.items():
                assert twins[Z4, level, 4]._layout[key] is record

    def test_bounds_hold_on_warm_tables(self, monkeypatch):
        monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
        expected = homology(Z3, 1, 2)
        misses = _sizes.cache_info().misses, _slice.cache_info().misses
        # the level-0 slice of degree 3 (8 identity-free cells) fits 10,
        # and is the first slice over 7
        for bound, total in (("10", 12), ("7", 8)):
            monkeypatch.setenv("WEYL_MAX_CELLS", bound)
            with pytest.raises(
                BoundExceeded,
                match=f"^{total} cells at degree 3 exceed WEYL_MAX_CELLS={bound}$",
            ):
                homology(Z3, 1, 2)
        monkeypatch.delenv("WEYL_MAX_CELLS")
        with pytest.raises(
            BoundExceeded, match=r"^degree 3 exceeds the degree bound 2; "
        ):
            homology(Z3, 1, 2, degree_bound=2)
        # both refusals read warm tables, and left them as they were
        assert (_sizes.cache_info().misses, _slice.cache_info().misses) == misses
        assert homology(Z3, 1, 2) == expected

    def test_shared_records_are_read_only(self):
        complex_ = CellComplex(Z3, 1)
        complex_._size(4)
        record = complex_._layout[(1, 4)]
        assert record is _slice(3, 1, 4)
        assert _sizes(3, 1, 4)[-1] == (1, 4, record.total)
        with pytest.raises(TypeError):
            record.blocks[(9, 9)] = (0, (1, 1), (1, 1))
        with pytest.raises(AttributeError):
            record.total = 0
        offset, weights, radices = record.blocks[(1, 2)]
        assert (weights, radices) == ((9, 1), (3, 9))
        with pytest.raises(TypeError):
            radices[0] = 0
        table = _end_table((3,), False)
        with pytest.raises(TypeError):
            table[0] = ()
        with pytest.raises(TypeError):
            table[0][0] = ()


def _kept_positions(cx, n):
    """Positions of the columns from degree n that the clearing keeps,
    read off the cells: a bar cell's first element, or a join's first
    component, is a bar cell led by a unit vector (the identity in the
    trivial group) or is a join."""
    leads = {g.vec for g in cx.group.basis()} or {cx.group.identity().vec}

    def led(cell):
        return isinstance(cell, JoinCell) or cell.elements[0].vec in leads

    return [
        pos for pos, cell in enumerate(cx.cells(n))
        if led(cell if isinstance(cell, BarCell) else cell.comps[0])
    ]


def _combination(columns, y):
    """The sum of y[j] times column j, without zero entries."""
    out = {}
    for j, coeff in y.items():
        for r, c in columns[j].items():
            out[r] = out.get(r, 0) + coeff * c
    return {r: c for r, c in out.items() if c}


def _homology_from_all_columns(twin, n):
    """(free rank, torsion) of H_n from the twin's whole boundary from
    degree n + 1, on cycle coordinates."""
    size = twin._size(n)
    upper = twin.boundary_columns(n + 1)
    rank = 0
    if n:
        rank = _cycle_coordinates(
            twin.boundary_columns(n), upper, range(size)
        )
    divisors = smith_diagonal(upper)
    return size - rank - len(divisors), tuple(d for d in divisors if d > 1)


CLEARING_GRID = ((2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 3), (3, 3))


def _random_chains(rng, cx, columns, n):
    """Chains of degree n over the complex: sparse random ones (rarely
    cycles), integer combinations of the boundary columns into degree n
    (boundaries), their sums, and multiples of a cycle that are
    boundaries or not by the order of its homology class."""
    cells = cx.cells(n)

    def chain(entries):
        return Chain({cells[p]: c for p, c in entries.items() if c})

    def sparse():
        return {
            rng.randrange(len(cells)): rng.choice((-3, -2, -1, 1, 2, 3))
            for _ in range(rng.randint(1, 3))
        }

    def combination():
        picks = {
            rng.randrange(len(columns)): rng.choice((-4, -2, -1, 1, 3))
            for _ in range(rng.randint(1, 3))
        }
        return _combination(columns, picks)

    out = []
    for _ in range(6):
        out.append(chain(sparse()))
        out.append(chain(combination()))
        both = combination()
        for p, c in sparse().items():
            both[p] = both.get(p, 0) + c
        out.append(chain(both))
    # the symmetrized cycles of d arguments have degree 2d - 1, and
    # they are level-1 cells, save the bar cell [g] of d = 1
    g = cx.group.basis()[0]
    d = (n + 1) // 2
    cycles = []
    if n % 2 and (cx.level or d == 1):
        cycles.append(symmetrized_cycle((g,), (d,)))
        if d >= 2:
            cycles.append(symmetrized_cycle((g, -g), (1, d - 1)))
    for cycle in cycles:
        out.extend(cycle.scale(c) for c in range(1, 5))
    return [c for c in out if not c.is_zero()]


def _largest_transform_entry(solver):
    return max(
        (max(map(abs, col.values())) for col in solver.V if col), default=0
    )


def _left_out_columns_lie_in_the_kept_lattice(cx, degree, context):
    """The cleared columns are the whole boundary's at _kept_positions,
    and every other column solves over them to an exact combination."""
    full = cx.boundary_columns(degree)
    kept = _kept_positions(cx, degree)
    columns, _ = cx._cleared_columns(degree)
    assert columns == [full[j] for j in kept], context
    # the solver eliminates its columns in place
    solver = ColumnSolver([dict(col) for col in columns])
    for j in sorted(set(range(len(full))) - set(kept)):
        y = solver.solve(full[j])
        assert y is not None, context + (j,)
        assert _combination(columns, y) == full[j]


def _full_walk_solve(solver, target):
    """ColumnSolver.solve as a plain walk over every pivot in order."""
    residual = {i: c for i, c in target.items() if c}
    z = {}
    for row, col in solver.pivots:
        v = residual.get(row)
        if not v:
            continue
        p = solver.H[col][row]
        if v % p != 0:
            return None
        z[col] = v // p
        for i, c in solver.H[col].items():
            new = residual.get(i, 0) - (v // p) * c
            if new:
                residual[i] = new
            else:
                del residual[i]
    if residual:
        return None
    y = {}
    for col in sorted(z):
        for i, c in solver.V[col].items():
            y[i] = y.get(i, 0) + z[col] * c
    return {i: c for i, c in y.items() if c}


class TestClearing:
    """homology and membership build the column of a cell from degree
    n + 1 only where its first component is a bar cell led by a unit
    vector, or a join (see the module docstring)."""

    def test_left_out_bar_columns_lie_in_the_kept_lattice(self):
        # every left-out column, bar or join, on the normalized complex
        for torsion in CLEARING_GRID:
            for level in range(4):
                twin = CellComplex(AbGroup(0, torsion), level)._normalized()
                for degree in range(2, 5):
                    _left_out_columns_lie_in_the_kept_lattice(
                        twin, degree, (torsion, level, degree)
                    )

    def test_homology_equals_the_whole_boundary(self):
        # the trivial group, whose kept cells are all of them, and the
        # largest groups of CLEARING_GRID that stay within seconds here
        for torsion in (
            (), (2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 3), (2, 4)
        ):
            group = AbGroup(0, torsion)
            for level in range(4):
                for degree in range(5):
                    result = CellComplex(group, level).homology(degree)
                    twin = CellComplex(group, level)._normalized()
                    assert (result.free_rank, result.torsion) == (
                        _homology_from_all_columns(twin, degree)
                    ), (torsion, level, degree)

    @pytest.mark.parametrize("torsion", CLEARING_GRID, ids=str)
    def test_full_complex_left_out_bar_columns_lie_in_the_kept_lattice(
        self, torsion
    ):
        # on the full complex, with the identity-led cells, the unit
        # vectors alone already span the lattice
        for level in range(4):
            cx = CellComplex(AbGroup(0, torsion), level)
            for degree in range(2, 5):
                _left_out_columns_lie_in_the_kept_lattice(
                    cx, degree, (level, degree)
                )

    def test_joins_led_by_joins_lie_in_the_kept_lattice(self):
        # a join whose first component is a join is kept; there are such
        # joins from degree 6 at level 2 and from degree 8 at level 3
        for torsion, level, degree in (
            ((2,), 2, 6), ((2,), 2, 7), ((3,), 2, 6), ((2,), 3, 8),
        ):
            cx = CellComplex(AbGroup(0, torsion), level, degree_bound=8)
            for complex_ in (cx, cx._normalized()):
                kept = set(_kept_positions(complex_, degree))
                assert any(
                    isinstance(cell, JoinCell) and cell.level == level
                    and isinstance(cell.comps[0], JoinCell)
                    and pos in kept
                    for pos, cell in enumerate(complex_.cells(degree))
                ), (torsion, level, degree)
                _left_out_columns_lie_in_the_kept_lattice(
                    complex_, degree, (torsion, level, degree)
                )

    def test_identity_led_joins_lie_in_the_kept_lattice(self):
        # a join whose first component is led by the identity, (0) or
        # (0 | r), is left out; d d (g | 0 | r) = 0 puts it in the lattice
        for torsion in ((2,), (3,), (2, 2)):
            group = AbGroup(0, torsion)
            e = group.identity()
            for level in (1, 2):
                cx = CellComplex(group, level)
                for degree in (3, 4):
                    full = cx.boundary_columns(degree)
                    solver = ColumnSolver(cx._cleared_columns(degree)[0])
                    cells = cx.cells(degree)
                    left_out = [
                        j for j, cell in enumerate(cells)
                        if isinstance(cell, JoinCell)
                        and isinstance(cell.comps[0], BarCell)
                        and cell.comps[0].elements[0] == e
                    ]
                    assert left_out, (torsion, level, degree)
                    assert not set(left_out) & set(_kept_positions(cx, degree))
                    for j in left_out:
                        assert solver.solve(full[j]) is not None, (
                            torsion, level, degree, cells[j]
                        )

    def test_cleared_columns_are_the_callers_own(self):
        """The solver from degree 4 memoises the bar columns of degree 3
        as its faces, and the cleared columns from degree 3 are copied
        from that memo: the solver built on them eliminates its copies,
        and the memo, and the columns built from it, stay as they were."""
        for group in (Z3, AbGroup(0, (2, 2))):
            for level in (0, 1):
                complex_ = CellComplex(group, level)
                complex_._solver(4)
                before = [dict(col) for col in complex_._columns[(0, 3)]]
                complex_._solver(3)
                assert complex_._columns[(0, 3)] == before
                assert complex_.boundary_columns(3) == CellComplex(
                    group, level
                ).boundary_columns(3), (group, level)

    def test_trivial_group_keeps_every_column(self):
        # the identity leads every bar cell and every bar component
        trivial = AbGroup(0, ())
        for level in (1, 2, 3):
            cx = CellComplex(trivial, level)
            for degree in range(1, 7):
                solver, positions = cx._solver(degree)
                assert positions == list(range(cx._size(degree)))
                assert cx._cleared_columns(degree)[0] == cx.boundary_columns(
                    degree
                ), (level, degree)
            twin = cx._normalized()
            assert twin._size(3) == twin._size(2) == 0
            assert twin._cleared_columns(3)[0] == []

    @pytest.mark.parametrize("torsion", CLEARING_GRID, ids=str)
    def test_membership_agrees_with_the_whole_boundary(self, torsion):
        group = AbGroup(0, torsion)
        rng = random.Random(f"clearing {torsion}")
        for level in range(3):
            for degree in range(2, 5):
                cx = CellComplex(group, level)
                full = cx.boundary_columns(degree)
                solver, positions = cx._solver(degree)
                assert positions == _kept_positions(cx, degree), (
                    level, degree
                )
                # every column is a boundary, so the whole-column solver
                # answers yes; the cleared one must too, with a witness
                # checked on positions (TestPositions checks the columns
                # against cells.boundary)
                for j, col in enumerate(full):
                    y = solver.solve(col)
                    assert y is not None, (level, degree, j)
                    y = {positions[i]: c for i, c in y.items()}
                    assert _combination(full, y) == col
                whole = ColumnSolver([dict(col) for col in full])
                for chain in _random_chains(rng, cx, full, degree - 1):
                    target = cx.chain_entries(chain, degree - 1)
                    ok, witness = cx.boundary_membership(chain)
                    assert ok == (whole.solve(target) is not None), (
                        level, degree, chain
                    )
                    assert not ok or boundary(witness) == chain

    def test_trivial_group_keeps_its_identity_led_bars(self):
        # no unit vector leads, and d[1|1] = [1]
        trivial = AbGroup(0, ())
        e = trivial.identity()
        for level in range(3):
            cx = CellComplex(trivial, level)
            for degree in range(1, 5):
                chain = Chain.of(BarCell((e,) * degree))
                ok, witness = cx.boundary_membership(chain)
                assert ok == (degree % 2 == 1), (level, degree)
                assert not ok or boundary(witness) == chain

    def test_transform_stays_near_the_whole_column_solver(self):
        # Z/3xZ/3, level 1, degree 4: the largest entry of the tracked
        # transform is 52 on the whole boundary and 6 with the joins
        # cleared too.  The bar columns led by a unit vector, e_1's
        # block first as the basis lists them, and every join column
        # grow it to 464,628 (ascending leads give 52 on that set)
        cx = CellComplex(AbGroup(0, (3, 3)), 1)
        full = cx.boundary_columns(4)
        whole = ColumnSolver([dict(col) for col in full])
        bound = 10 * _largest_transform_entry(whole)
        solver, _ = cx._solver(4)
        assert _largest_transform_entry(solver) <= bound
        width = len(cx._elements) ** 3
        units = [cx._element_index[g.vec] for g in cx.group.basis()]
        bars_and_joins = [
            full[g * width + t] for g in units for t in range(width)
        ] + full[width * len(cx._elements):]
        units_only = ColumnSolver(bars_and_joins)
        assert _largest_transform_entry(units_only) > bound

    @pytest.mark.parametrize("torsion", CLEARING_GRID, ids=str)
    def test_solve_matches_the_full_pivot_walk(self, torsion):
        # solve visits only the pivots its residual reaches, in pivot
        # order, so it returns what a walk over every pivot returns
        rng = random.Random(f"solve {torsion}")
        cx = CellComplex(AbGroup(0, torsion), 1)
        for degree in (3, 4):
            full = cx.boundary_columns(degree)
            solver, _ = cx._solver(degree)
            rows = cx._size(degree - 1)
            for _ in range(40):
                picks = {
                    rng.randrange(len(full)): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 3))
                }
                target = _combination(full, picks)
                for _ in range(rng.randint(0, 2)):
                    r = rng.randrange(rows)
                    target[r] = target.get(r, 0) + rng.choice((-2, -1, 1, 2))
                expected = _full_walk_solve(solver, target)
                assert solver.solve(dict(target)) == expected, (degree, target)


class TestEnumeration:
    def test_z2_level1_degree6_count(self):
        assert len(CellComplex(Z2, 1).cells(6)) == 240

    def test_trivial_group_cells(self):
        trivial = AbGroup(0, ())
        cells = CellComplex(trivial, 1).cells(3)
        for cell in cells:
            assert all(
                e.is_identity()
                for e in _elements_of(cell)
            )

    def test_counts_match_recursive_oracle(self):
        for group in (Z2, Z3):
            for level in (0, 1, 2):
                for degree in range(0, 6):
                    assert len(CellComplex(group, level).cells(degree)) == (
                        count_by_recursion(group, level, degree)
                    )

    def test_degree_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            CellComplex(Z2, 1).cells(8)

    def test_cell_bound_env(self, monkeypatch):
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        with pytest.raises(BoundExceeded):
            CellComplex(Z3, 1).cells(4)

    def test_cell_bound_holds_on_repeated_calls(self, monkeypatch):
        # the bound is checked before the slice is cached
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        complex_ = CellComplex(Z3, 0)
        for _ in range(2):
            with pytest.raises(BoundExceeded):
                complex_.cells(3)
            # H_3 reads 16 identity-free cells of degree 4
            with pytest.raises(BoundExceeded, match="^16 cells at degree 4"):
                complex_.homology(3)

    def test_a_complex_keeps_the_bound_it_was_made_under(self, monkeypatch):
        # H_2 reads 12 identity-free cells of degree 3
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        complex_ = CellComplex(Z3, 1)
        monkeypatch.delenv("WEYL_MAX_CELLS")
        with pytest.raises(
            BoundExceeded, match=r"^12 cells at degree 3 exceed WEYL_MAX_CELLS=10$"
        ):
            complex_.homology(2)

    def test_a_cell_bound_set_later_leaves_a_complex_alone(self, monkeypatch):
        monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
        complex_ = CellComplex(Z3, 1)
        expected = CellComplex(Z3, 1).homology(2)
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        assert complex_.homology(2) == expected

    def test_bounds_trip_before_anything_is_built(self, monkeypatch):
        monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
        big = CellComplex(AbGroup(0, (10,)), 0)
        with pytest.raises(
            BoundExceeded,
            match=r"^59049 cells at degree 5 exceed WEYL_MAX_CELLS=50000$",
        ):
            big.homology(4)
        # a bound hit on the level-1 slice of degree 3, whose level-0
        # part (8 identity-free cells) fits
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        deep = CellComplex(Z3, 1)
        with pytest.raises(
            BoundExceeded, match=r"^12 cells at degree 3 exceed WEYL_MAX_CELLS=10$"
        ):
            deep.homology(2)
        for complex_ in (big, deep):
            assert complex_._columns == {}
            assert complex_._decoded == {} and complex_._solvers == {}

    def test_an_over_bound_slice_is_refused_before_its_blocks(self, monkeypatch):
        # the trivial group's level-1 cells of degree n: the bar cell and
        # one join per composition of n - (p-1) into p >= 2 parts, so
        # 832,040 at degree 30, with the degree bound lifted; the slice
        # is counted, not laid out, before it is refused
        monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
        calls = []
        compositions = homology_module._compositions

        def counted(total, parts):
            calls.append((total, parts))
            return compositions(total, parts)

        monkeypatch.setattr(homology_module, "_compositions", counted)
        count = sum(math.comb(30 - p, p - 1) for p in range(1, 16))
        assert count == 832040
        cx = CellComplex(AbGroup(0, ()), 1, degree_bound=30)
        with pytest.raises(
            BoundExceeded,
            match=f"^{count} cells at degree 30 exceed WEYL_MAX_CELLS=50000$",
        ):
            cx.cells(30)
        assert calls == []
        assert cx._size(20) == sum(math.comb(20 - p, p - 1) for p in range(1, 11))

    def test_cells_reject_levels_outside_the_complex(self):
        complex_ = CellComplex(Z2, 1)
        for level in (-1, 2, 6):
            with pytest.raises(
                InvalidArguments, match=f"level must be in 0..1, got {level}"
            ):
                complex_.cells(2, level=level)
        # level 6 would enumerate cells no level-0 complex holds, past
        # the level bound
        with pytest.raises(InvalidArguments, match="level must be in 0..0"):
            CellComplex(Z2, 0).cells(6, level=6)
        assert complex_.cells(3, level=0) == CellComplex(Z2, 0).cells(3)
        assert complex_.cells(3, level=1) == complex_.cells(3)

    def test_negative_level_and_degree_are_rejected(self):
        with pytest.raises(InvalidArguments, match="level must be >= 0, got -1"):
            CellComplex(Z2, -1)
        with pytest.raises(InvalidArguments, match="degree must be >= 0, got -1"):
            homology(Z2, 0, -1)
        with pytest.raises(
            InvalidArguments, match="degree_bound must be >= 0, got -1"
        ):
            CellComplex(Z2, 1, degree_bound=-1)

    def test_malformed_cell_bound_is_invalid(self, monkeypatch):
        for raw in ("-5", "ten", ""):
            monkeypatch.setenv("WEYL_MAX_CELLS", raw)
            with pytest.raises(InvalidArguments, match="WEYL_MAX_CELLS="):
                cell_bound()
        monkeypatch.setenv("WEYL_MAX_CELLS", "0")
        assert cell_bound() == 0

    def test_boundary_from_degree_zero_is_empty(self):
        for level in (0, 1, 2):
            complex_ = CellComplex(Z2, level)
            assert complex_.boundary_columns(0) == [{}]
            assert complex_.boundary_matrix(0) == []

    def test_enumeration_is_deterministic(self):
        first = CellComplex(Z3, 2).cells(5)
        second = CellComplex(Z3, 2).cells(5)
        assert first == second


def _elements_of(cell):
    if isinstance(cell, BarCell):
        return list(cell.elements)
    out = []
    for comp in cell.comps:
        out.extend(_elements_of(comp))
    return out


class TestHomology:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bar_h1_is_the_group(self, m):
        result = homology(AbGroup(0, (m,)), 0, 1)
        assert result.free_rank == 0
        assert result.torsion == (m,)

    def test_level1_degree3_z2_has_order_four(self):
        result = homology(Z2, 1, 3)
        assert result.free_rank == 0
        assert result.order() == 4
        assert result.torsion == (4,)

    def test_trivial_group_has_no_positive_homology(self):
        trivial = AbGroup(0, ())
        for n in (1, 2, 3):
            result = homology(trivial, 1, n)
            assert result.free_rank == 0 and result.torsion == ()


def _unimodular(rng, size):
    """A random unimodular matrix and its inverse, as dense rows: row
    additions with small factors and row swaps."""
    U = [[int(i == j) for j in range(size)] for i in range(size)]
    inverse = [row[:] for row in U]
    for _ in range(3 * size if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        if rng.random() < 0.25:
            # E swaps rows i and j, and is its own inverse
            U[i], U[j] = U[j], U[i]
            for row in inverse:
                row[i], row[j] = row[j], row[i]
        else:
            # E adds c times row j to row i; its inverse subtracts it
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            for row in inverse:
                row[j] -= c * row[i]
    return U, inverse


def _product_columns(left, columns, right):
    """The sparse columns of left * A * right, A given by its columns."""
    mid = [
        [sum(left[i][r] * c for r, c in col.items()) for i in range(len(left))]
        for col in columns
    ]
    out = []
    for j in range(len(right[0]) if right else 0):
        col = {}
        for k, vec in enumerate(mid):
            if right[k][j]:
                for i, v in enumerate(vec):
                    col[i] = col.get(i, 0) + right[k][j] * v
        out.append({i: v for i, v in col.items() if v})
    return out


# Summands C_{n+1} -> C_n -> C_{n-1} with known H_n, as
# (lower columns, upper columns, cells of degree n-1, free rank, torsion):
def _free():
    return [{}], [], 0, 1, []


def _cyclic(m):
    # Z --m--> Z --0--> 0: Z/m, Z when m = 0, acyclic when m = 1
    return [{}], [{0: m} if m else {}], 0, int(m == 0), [m] if m > 1 else []


def _lower(d):
    # 0 --> Z --d--> Z: no H_n, and a non-unit pivot when d > 1
    return [{0: d}], [], 1, 0, []


def _relation(a, b, m):
    # Z --m(b', -a')--> Z^2 --(a b)--> Z with (a', b') = (a, b) / gcd:
    # the kernel is spanned by (b', -a'), so H_n = Z/m
    g = math.gcd(a, b)
    upper = {0: m * b // g, 1: -m * a // g} if m else {}
    return [{0: a}, {0: b}], [upper], 1, int(m == 0), [m] if m > 1 else []


SUMMAND = st.one_of(
    st.just(_free()),
    st.builds(_cyclic, st.integers(0, 6)),
    st.builds(_lower, st.integers(1, 6)),
    st.builds(_relation, st.integers(1, 6), st.integers(1, 6),
              st.integers(0, 4)),
)


def _direct_sum(summands):
    lower, upper, free, torsion = [], [], 0, []
    rows = cols = 0  # cells of degree n-1 and n so far
    for low, up, low_rows, f, t in summands:
        lower.extend({rows + r: c for r, c in col.items()} for col in low)
        upper.extend({cols + r: c for r, c in col.items()} for col in up)
        rows += low_rows
        cols += len(low)
        free += f
        torsion += t
    return lower, upper, rows, free, torsion


class TestCycleCoordinates:
    """_cycle_coordinates on chain complexes whose lower boundary has
    non-unit pivots, so the gcd fold runs and its pivot rows are kept."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(SUMMAND, min_size=1, max_size=7),
        st.integers(2, 6),
        st.integers(0, 10 ** 9),
    )
    def test_compression_keeps_the_homology(self, summands, d, seed):
        lower, upper, rows, free, torsion = _direct_sum(
            summands + [_lower(d)]
        )
        rng = random.Random(seed)
        size = len(lower)
        # d_n -> P d_n U^-1 and d_{n+1} -> U d_{n+1} Q keep d_n d_{n+1} = 0
        # and the homology
        U, U_inverse = _unimodular(rng, size)
        P, _ = _unimodular(rng, rows)
        Q, _ = _unimodular(rng, len(upper))
        lower = _product_columns(P, lower, U_inverse)
        upper = _product_columns(U, upper, Q)
        elim = Elimination([dict(col) for col in lower])
        assert elim.units < len(elim.pivots)  # the fold ran
        # the rows are deleted from upper's own columns
        whole = [dict(col) for col in upper]
        rank = _cycle_coordinates(lower, upper, range(size))
        units = {j for _, j in elim.pivots[:elim.units]}
        assert all(units.isdisjoint(col) for col in upper)
        divisors = smith_diagonal(upper)
        assert divisors == smith_diagonal(whole)
        assert rank == len(elim.pivots)
        result = (size - rank - len(divisors), tuple(d for d in divisors if d > 1))
        assert result == invariant_factors([0] * free + torsion)

    def test_gcd_fold_pivot_rows_are_kept(self):
        # (2 3) has no unit pivot; its fold pivot is column 0, and
        # dropping that row would turn Z/5 into Z/10
        upper = [{0: 15, 1: -10}]
        assert _cycle_coordinates([{0: 2}, {0: 3}], upper, range(2)) == 1
        assert smith_diagonal(upper) == [5]

    def test_rows_are_deleted_in_place(self):
        """On the identity-free Z/3 level-1 complex at n = 2, each column
        of upper loses exactly the rows of lower's unit-pivot columns."""
        twin = CellComplex(Z3, 1)._normalized()
        lower, upper = twin.boundary_columns(2), twin.boundary_columns(3)
        elim = Elimination([dict(col) for col in lower])
        dropped = {j for _, j in elim.pivots[:elim.units]}
        expected = [
            {r: c for r, c in col.items() if r not in dropped} for col in upper
        ]
        assert expected != upper  # rows do drop
        assert _cycle_coordinates(lower, upper, range(len(lower))) == len(
            elim.pivots
        )
        assert upper == expected

    def test_rows_are_deleted_at_the_cells_positions(self):
        # the boundary from degree n on cells 2 and 0 of three (cell 1's
        # column is zero): the unit pivot is column 0, cell 2, so row 2
        # goes and the cycle 3 (1, 0, -2) keeps its order 3; deleting
        # row 0 would leave -6 in row 2
        upper = [{0: 3, 2: -6}]
        assert _cycle_coordinates([{0: 1}, {0: 2}], upper, [2, 0]) == 1
        assert upper == [{0: 3}]
        assert smith_diagonal(upper) == [3]

    def test_unit_pivot_rows_are_dropped(self):
        # (1 2): the unit pivot is column 0, and the cycle (2, -1) times 3
        # leaves the entry -3 in row 1
        upper = [{0: 6, 1: -3}]
        assert _cycle_coordinates([{0: 1}, {0: 2}], upper, range(2)) == 1
        assert upper == [{1: -3}]


class TestMembership:
    def test_zero_chain(self):
        ok, witness = boundary_membership(Chain.zero(), Z2, 1)
        assert ok and witness.is_zero()

    def test_boundary_of_something_is_member(self):
        complex_ = CellComplex(Z3, 1)
        cells = complex_.cells(4)
        target = boundary(cells[7]) + boundary(cells[40]).scale(-2)
        ok, witness = complex_.boundary_membership(target)
        assert ok
        assert boundary(witness) == target

    def test_nontrivial_cycle_is_not_boundary(self):
        # H^0_1(Z/2) = Z/2, so the generator bar cell is no boundary
        g = Z2.element((1,))
        ok, witness = boundary_membership(Chain.of(BarCell((g,))), Z2, 0)
        assert not ok and witness is None

    def test_quadratic_product_rule_over_z3(self):
        from weylg.cycles import symmetrized_cycle

        g = Z3.element((1,))
        h = Z3.element((2,))
        combo = (
            -symmetrized_cycle((g + h,), (2,))
            + symmetrized_cycle((g,), (2,))
            + symmetrized_cycle((h,), (2,))
            + symmetrized_cycle((g, h), (1, 1))
        )
        ok, witness = boundary_membership(combo, Z3, 1)
        assert ok
        assert boundary(witness) == combo


class TestConjectureInstances:
    def test_quadratic_case_holds_over_z2(self):
        g = Z2.element((1,))
        inst = check_conjecture_instance(
            CellComplex(Z2, 1), (2,), 0, (g,), (g, g, g)
        )
        assert inst.group == Z2
        assert inst.status == "holds"
        assert inst.inverse_status == "holds"

    def test_two_one_case_holds_over_z2(self):
        g = Z2.element((1,))
        inst = check_conjecture_instance(
            CellComplex(Z2, 1), (2, 1), 1, (g, g), (g, g)
        )
        assert inst.status == "holds"
        assert inst.inverse_status == "holds"

    def test_large_degree_reports_out_of_bounds(self):
        g = Z2.element((1,))
        inst = check_conjecture_instance(
            CellComplex(Z2, 1), (4,), 0, (g,), (g, g, g, g, g)
        )
        assert inst.status == "out-of-bounds"

    def test_the_complex_must_be_of_level_one(self):
        g = Z2.element((1,))
        for level in (0, 2):
            with pytest.raises(InvalidArguments, match=f"got level {level}"):
                check_conjecture_instance(
                    CellComplex(Z2, level), (1,), 0, (g,), (g, g)
                )

    def test_instances_of_one_degree_share_one_solver(self, monkeypatch):
        built = []

        class Counting(ColumnSolver):
            def __init__(self, columns):
                built.append(len(columns))
                super().__init__(columns)

        monkeypatch.setattr(homology_module, "ColumnSolver", Counting)
        g, h = Z3.element((1,)), Z3.element((2,))
        # both chains have degree 3, so both read the solver from degree 4
        cases = [((2,), 0, (g,), (g, h, g)), ((1, 1), 1, (g, h), (h, h))]
        complex_ = CellComplex(Z3, 1)
        shared = [check_conjecture_instance(complex_, *case) for case in cases]
        assert len(built) == 1
        for inst, case in zip(shared, cases):
            fresh = check_conjecture_instance(CellComplex(Z3, 1), *case)
            assert (inst.status, inst.inverse_status) == (
                fresh.status, fresh.inverse_status
            ) == ("holds", "holds")

    def test_a_refusal_leaves_the_complex_usable(self, monkeypatch):
        # Z/3 at level 1 has 513 cells of degree 5 and 1,944 of degree 6:
        # a chain of degree 5 is encoded before its solver is refused
        monkeypatch.setenv("WEYL_MAX_CELLS", "600")
        g, h = Z3.element((1,)), Z3.element((2,))
        cases = [
            ((2,), 0, (g,), (g, h, g)),
            ((3,), 0, (h,), (g, g, h, h)),
            ((1, 1), 0, (h, g), (g, g)),
            ((2, 1), 1, (g, h), (h, g)),
            ((2,), 0, (h,), (h, h, g)),
        ]
        shared = CellComplex(Z3, 1)
        answers = []
        for lam, slot, args, betas in cases:
            inst = check_conjecture_instance(shared, lam, slot, args, betas)
            fresh = check_conjecture_instance(
                CellComplex(Z3, 1), lam, slot, args, betas
            )
            assert (inst.status, inst.inverse_status, inst.detail) == (
                fresh.status, fresh.inverse_status, fresh.detail
            ), lam
            answers.append(inst.status)
        assert answers == [
            "holds", "out-of-bounds", "holds", "out-of-bounds", "holds"
        ]
