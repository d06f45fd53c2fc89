import itertools

import pytest

from weylg.cells import BarCell, Chain, boundary, join
from weylg.errors import BoundExceeded, InvalidArguments
from weylg.groups import AbGroup
from weylg.homology import (
    CellComplex,
    boundary_membership,
    check_conjecture_instance,
    homology,
)

Z2 = AbGroup(0, (2,))
Z3 = AbGroup(0, (3,))


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


# orders <= 4 at levels 0-3 and degrees 0-4
SMALL_SLICES = [
    (group, level, degree)
    for group in (AbGroup(0, ()), Z2, Z3, AbGroup(0, (4,)), AbGroup(0, (2, 2)))
    for level in range(4)
    for degree in range(5)
]


class TestPositions:
    def test_columns_match_the_cell_object_reference(self):
        for group, level, degree in SMALL_SLICES:
            memo = {}
            upper = enumerate_by_joins(group, level, degree, memo)
            lower = enumerate_by_joins(group, level, degree - 1, memo)
            assert CellComplex(group, level).boundary_columns(degree) == (
                boundary_columns_by_cells(upper, lower)
            ), (group, level, degree)

    def test_boundary_squares_to_zero_on_columns(self):
        for group, level, degree in SMALL_SLICES:
            if degree < 2:
                continue
            complex_ = CellComplex(group, level)
            lower = complex_.boundary_columns(degree - 1)
            for col in complex_.boundary_columns(degree):
                image = {}
                for row, coeff in col.items():
                    for r, c in lower[row].items():
                        image[r] = image.get(r, 0) + coeff * c
                assert not any(image.values()), (group, level, degree)

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
        with pytest.raises(BoundExceeded):
            complex_.homology(2)

    def test_bounds_trip_before_anything_is_built(self, monkeypatch):
        monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
        big = CellComplex(AbGroup(0, (10,)), 0)
        with pytest.raises(
            BoundExceeded,
            match=r"^100000 cells at degree 5 exceed WEYL_MAX_CELLS=50000$",
        ):
            big.homology(4)
        # a bound hit deep in the recursion: the level-0 slice of degree 3
        monkeypatch.setenv("WEYL_MAX_CELLS", "10")
        deep = CellComplex(Z3, 1)
        with pytest.raises(
            BoundExceeded, match=r"^27 cells at degree 3 exceed WEYL_MAX_CELLS=10$"
        ):
            deep.homology(2)
        for complex_ in (big, deep):
            assert complex_._columns == {} and complex_._shuffles == {}
            assert complex_._decoded == {} and complex_._solvers == {}

    def test_negative_level_and_degree_are_rejected(self):
        with pytest.raises(InvalidArguments, match="level must be >= 0, got -1"):
            CellComplex(Z2, -1)
        with pytest.raises(InvalidArguments, match="degree must be >= 0, got -1"):
            homology(Z2, 0, -1)

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
            Z2, (2,), 0, (g,), (g, g, g)
        )
        assert inst.status == "holds"
        assert inst.inverse_status == "holds"

    def test_two_one_case_holds_over_z2(self):
        g = Z2.element((1,))
        inst = check_conjecture_instance(
            Z2, (2, 1), 1, (g, g), (g, g)
        )
        assert inst.status == "holds"
        assert inst.inverse_status == "holds"

    def test_large_degree_reports_out_of_bounds(self):
        g = Z2.element((1,))
        inst = check_conjecture_instance(
            Z2, (4,), 0, (g,), (g, g, g, g, g)
        )
        assert inst.status == "out-of-bounds"
