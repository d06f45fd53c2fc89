import pytest

from weylg.cells import BarCell, Chain, boundary
from weylg.errors import BoundExceeded
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
