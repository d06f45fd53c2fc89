import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cell
from weylg.cells import (
    BarCell,
    Chain,
    JoinCell,
    _trusted_join,
    boundary,
    join,
    shuffle,
)
from weylg.errors import InvalidArguments
from weylg.groups import AbGroup
from weylg.homology import CellComplex
from weylg.lattice import SqrtBraidingTensor, _trusted_tensor

FREE3 = AbGroup(3)
A, B, C = FREE3.basis()
GROUPS = [AbGroup(0, (2,)), AbGroup(0, (3,)), AbGroup(0, (2, 2)), AbGroup(4)]


def bars(*elements):
    return BarCell(tuple(elements))


class TestDegrees:
    def test_bar_degree(self):
        assert bars(A, B, C).degree == 3
        assert bars().degree == 0

    def test_mixed_join_degree(self):
        cell = join(1, (bars(A, B), bars(C)))
        assert cell.degree == 4

    def test_level_two_degree(self):
        cell = join(2, (bars(A), bars(B)))
        assert cell.degree == 4

    def test_singleton_join_collapses(self):
        assert join(1, (bars(A, B),)) == bars(A, B)
        assert join(3, (join(1, (bars(A), bars(B))),)) == join(
            1, (bars(A), bars(B))
        )

    def test_join_validates_levels(self):
        level1 = join(1, (bars(A), bars(B)))
        with pytest.raises(InvalidArguments):
            JoinCell(1, (level1, bars(C)))


def assert_same_cell(trusted, public):
    assert type(trusted) is type(public)
    assert trusted == public and public == trusted
    assert hash(trusted) == hash(public)
    assert trusted._key == public._key
    assert trusted.degree == public.degree
    assert trusted.level == public.level
    assert repr(trusted) == repr(public)


class TestTrustedConstructors:
    """The trusted constructors skip the checks, not the key: a cell
    they build is the cell the public constructor builds."""

    def test_level_one_joins_of_degree_one_cells(self):
        comps = (bars(A), bars(B), bars(A))
        assert_same_cell(_trusted_join(1, comps, 5), JoinCell(1, comps))

    def test_mixed_joins(self):
        level1 = join(1, (bars(A), bars(B, C)))
        comps = (bars(C), level1, bars(A, A))
        assert_same_cell(_trusted_join(2, comps, 11), JoinCell(2, comps))

    @pytest.mark.parametrize("group", GROUPS[:3], ids=str)
    def test_decoded_cells_match_the_public_constructors(self, group):
        # CellComplex builds every cell it decodes by the trusted path
        cx = CellComplex(group, 2)
        for n in range(5):
            for cell in cx.cells(n):
                if isinstance(cell, BarCell):
                    public = BarCell(list(cell.elements))
                else:
                    public = JoinCell(cell.level, list(cell.comps))
                assert_same_cell(cell, public)

    def test_tensors(self):
        flat = tuple(range(16))
        trusted = _trusted_tensor(2, 4, 17, flat)
        public = SqrtBraidingTensor(2, 4, 17, flat)
        assert trusted == public and hash(trusted) == hash(public)
        assert trusted.key() == public.key()
        assert repr(trusted) == repr(public)

    def test_public_join_still_checks(self):
        with pytest.raises(InvalidArguments, match="join level must be >= 1"):
            JoinCell(0, (bars(A), bars(B)))
        with pytest.raises(InvalidArguments, match="at least two components"):
            JoinCell(1, (bars(A),))
        with pytest.raises(InvalidArguments, match="at least two components"):
            join(1, ())
        with pytest.raises(InvalidArguments, match="degree >= 1"):
            JoinCell(1, (bars(A), bars()))

    def test_public_tensor_still_checks(self):
        with pytest.raises(InvalidArguments, match="need 16 entries, got 15"):
            SqrtBraidingTensor(2, 4, 17, range(15))
        with pytest.raises(InvalidArguments, match="degree must be >= 2"):
            SqrtBraidingTensor(2, 1, 17, (0, 0))
        # the public constructor reduces; the trusted one is handed
        # reduced entries
        reduced = SqrtBraidingTensor(2, 2, 5, (5, 6, -1, 9))
        assert reduced.flat() == (0, 1, 4, 4)


class TestGroupElements:
    def test_sums_across_equal_groups(self):
        first, second = AbGroup(0, (2, 3)), AbGroup(0, (2, 3))
        assert first is not second and first == second
        x = first.element((1, 2))
        y = second.element((1, 2))
        assert x + y == first.element((0, 1))
        assert y + x == second.element((0, 1))

    def test_sums_with_free_coordinates(self):
        group = AbGroup(1, (4,))
        x, y = group.element((-3, 3)), AbGroup(1, (4,)).element((5, 2))
        assert x + y == group.element((2, 1))

    def test_sums_across_different_groups_raise(self):
        for other in [AbGroup(0, (3, 2)), AbGroup(0, (2,)), AbGroup(1, (3,))]:
            x = AbGroup(0, (2, 3)).element((1, 1))
            y = other.element((1,) * other.ncoords)
            with pytest.raises(InvalidArguments, match="different groups"):
                x + y
            with pytest.raises(InvalidArguments, match="different groups"):
                y + x


class TestShuffle:
    def test_level_zero_pair(self):
        assert shuffle(bars(A), bars(B), 0) == Chain(
            {bars(A, B): 1, bars(B, A): -1}
        )

    def test_level_one_pair(self):
        assert shuffle(bars(A), bars(B), 1) == Chain(
            {join(1, (bars(A), bars(B))): 1, join(1, (bars(B), bars(A))): 1}
        )

    def test_two_one_shuffle(self):
        assert shuffle(bars(A, B), bars(C), 0) == Chain(
            {bars(A, B, C): 1, bars(A, C, B): -1, bars(C, A, B): 1}
        )

    def test_empty_cell_is_unit(self):
        x = bars(A, B)
        assert shuffle(bars(), x, 0) == Chain.of(x)

    def test_equal_components_accumulate(self):
        assert shuffle(bars(A), bars(A), 1) == Chain(
            {join(1, (bars(A), bars(A))): 2}
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(0, 3))
    def test_graded_commutativity(self, seed, k):
        rng = random.Random(seed)
        group = rng.choice(GROUPS)
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        x = random_cell(rng, group, min(k, 3), n)
        y = random_cell(rng, group, min(k, 3), m)
        if k == 0 and not (
            isinstance(x, BarCell) and isinstance(y, BarCell)
        ):
            return
        sign = (-1) ** ((n + k) * (m + k))
        assert shuffle(x, y, k) == shuffle(y, x, k).scale(sign)


class TestBoundary:
    def test_degree_one_vanishes(self):
        assert boundary(bars(A)).is_zero()

    def test_bar_boundary(self):
        assert boundary(bars(A, B)) == Chain(
            {bars(B): 1, bars(A + B): -1, bars(A): 1}
        )

    def test_level_one_pair(self):
        assert boundary(join(1, (bars(A), bars(B)))) == Chain(
            {bars(A, B): 1, bars(B, A): -1}
        )

    def test_level_two_with_bar_component(self):
        cell = join(2, (bars(A, B), bars(C)))
        expected = Chain(
            {
                join(2, (bars(B), bars(C))): 1,
                join(2, (bars(A + B), bars(C))): -1,
                join(2, (bars(A), bars(C))): 1,
                join(1, (bars(A, B), bars(C))): 1,
                join(1, (bars(C), bars(A, B))): 1,
            }
        )
        assert boundary(cell) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_boundary_squares_to_zero(self, seed):
        rng = random.Random(seed)
        group = rng.choice(GROUPS)
        cell = random_cell(rng, group, rng.randint(0, 3), rng.randint(1, 7))
        assert boundary(boundary(cell)).is_zero()


class TestChain:
    def test_zero_coefficients_dropped(self):
        chain = Chain.of(bars(A)) - Chain.of(bars(A))
        assert chain.is_zero()

    def test_homogeneity_guard(self):
        chain = Chain({bars(A): 1, bars(A, B): 1})
        with pytest.raises(InvalidArguments):
            chain.degree()

    def test_scale_and_neg(self):
        chain = Chain.of(bars(A), 2)
        assert (-chain).terms == {bars(A): -2}
        assert chain.scale(3).terms == {bars(A): 6}
