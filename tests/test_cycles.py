import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cell, random_tensor
import weylg.homology as homology_module
from weylg.cells import (
    BarCell, Chain, JoinCell, _add_term, boundary, join,
)
from weylg.cellexpr import SymbolTable, format_chain
from weylg.cycles import (
    DiagonalCochain,
    dcharacter_eval,
    multiset_permutations,
    symmetrized_cycle,
    theta_lambda,
)
from weylg.errors import CellShapeError, InvalidArguments
from weylg.groups import AbGroup
from weylg.homology import inclusion_exclusion_chain
from weylg.lattice import gamma_aggregate


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


class TestMultisetPermutations:
    def test_counts(self):
        for lam in [(2, 2), (3, 1), (1, 1, 1), (2, 1, 1)]:
            items = []
            for pos, mult in enumerate(lam):
                items.extend([pos] * mult)
            perms = multiset_permutations(tuple(items))
            expected = math.factorial(len(items))
            for mult in lam:
                expected //= math.factorial(mult)
            assert len(perms) == expected
            assert len(set(perms)) == len(perms)


# ---------------------------------------------------------------------
# Reference chain builders: the recursive multiset_permutations, a
# symmetrized cycle that builds every degree-1 cell afresh, and the
# inclusion-exclusion chain from its definition, one cycle per subset.
# They are the oracles for the cached permutation table, the shared
# singleton cells, and the prefix sums summed per slot value.


def ref_multiset_permutations(items):
    order = []
    counts = {}
    for it in items:
        if it not in counts:
            order.append(it)
            counts[it] = 0
        counts[it] += 1
    n = len(items)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for value in order:
            if counts[value]:
                counts[value] -= 1
                prefix.append(value)
                rec(prefix)
                prefix.pop()
                counts[value] += 1

    rec([])
    return out


def ref_symmetrized_cycle(args, lam):
    labels = []
    for pos, l in enumerate(lam):
        labels.extend([pos] * l)
    terms = {}
    for perm in ref_multiset_permutations(tuple(labels)):
        cell = join(1, tuple(BarCell((args[p],)) for p in perm))
        _add_term(terms, cell, 1)
    return Chain(terms)


def ref_inclusion_exclusion_chain(args, lam, slot, betas):
    """The chain from its definition: every nonempty subset's signed
    reference cycle, with the subset's product from the identity in the
    slot, added one at a time with Chain.__add__."""
    r = len(betas)
    out = Chain.zero()
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(r), size):
            product = betas[0].group.identity()
            for i in subset:
                product = product + betas[i]
            full = list(args)
            full[slot] = product
            cycle = ref_symmetrized_cycle(tuple(full), lam)
            out = out + cycle.scale((-1) ** (r - size))
    return out


CHAIN_GROUPS = [AbGroup(0, (m,)) for m in range(2, 7)] + [
    AbGroup(0, (2, 2)),
    AbGroup(2),
]


@st.composite
def _elements(draw, group, count):
    """`count` elements, drawn from a pool of at most three so that
    repeated arguments are common."""
    def coord(m):
        return st.integers(0, m - 1) if m else st.integers(-2, 2)

    moduli = [0] * group.free_rank + list(group.torsion)
    pool = draw(st.lists(
        st.tuples(*map(coord, moduli)).map(group.element),
        min_size=1, max_size=3,
    ))
    return tuple(draw(st.sampled_from(pool)) for _ in range(count))


@st.composite
def _chain_cases(draw):
    """(args, lam, slot, betas): a composition of d <= 5, an argument
    per part and lam[slot] + 1 factors, all in one drawn group."""
    group = draw(st.sampled_from(CHAIN_GROUPS))
    lam = draw(st.sampled_from([
        lam for d in range(1, 6) for lam in compositions(d)
    ]))
    slot = draw(st.integers(0, len(lam) - 1))
    args = draw(_elements(group, len(lam)))
    betas = draw(_elements(group, lam[slot] + 1))
    return args, lam, slot, betas


class TestAgainstReferenceBuilders:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 2, "x", (3,)]), max_size=7))
    def test_permutation_lists_are_identical(self, items):
        items = tuple(items)
        expected = ref_multiset_permutations(items)
        assert multiset_permutations(items) == expected
        # a second call reads the cached table
        assert multiset_permutations(items) == expected

    @settings(max_examples=150, deadline=None)
    @given(_chain_cases())
    def test_chains_are_identical(self, case):
        args, lam, slot, betas = case
        assert symmetrized_cycle(args, lam) == ref_symmetrized_cycle(args, lam)
        assert inclusion_exclusion_chain(
            args, lam, slot, betas
        ) == ref_inclusion_exclusion_chain(args, lam, slot, betas)

    def test_every_composition_up_to_five_matches(self):
        rng = random.Random(17)
        for d in range(1, 6):
            for lam in compositions(d):
                group = rng.choice(CHAIN_GROUPS)
                pool = [group.basis()[0], group.basis()[-1]]
                args = tuple(rng.choice(pool) for _ in lam)
                labels = tuple(p for p, l in enumerate(lam) for _ in range(l))
                assert multiset_permutations(labels) == (
                    ref_multiset_permutations(labels)
                )
                assert symmetrized_cycle(args, lam) == ref_symmetrized_cycle(
                    args, lam
                )
                slot = rng.randrange(len(lam))
                betas = tuple(rng.choice(pool) for _ in range(lam[slot] + 1))
                assert inclusion_exclusion_chain(
                    args, lam, slot, betas
                ) == ref_inclusion_exclusion_chain(args, lam, slot, betas)

    def test_mutating_a_returned_list_leaves_the_table(self):
        items = (0, 0, 1, 2)
        first = multiset_permutations(items)
        expected = list(first)
        first[0] = None
        first.append("extra")
        first.reverse()
        assert multiset_permutations(items) == expected
        first.clear()
        again = multiset_permutations(items)
        assert again == expected
        assert again is not multiset_permutations(items)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CHAIN_GROUPS).flatmap(lambda g: _elements(g, 2)))
    def test_sums_are_reduced_like_elements(self, pair):
        x, y = pair
        group = x.group
        expected = group.element([a + b for a, b in zip(x.vec, y.vec)])
        assert x + y == expected

    def test_factors_from_another_group_are_refused(self):
        z2, z3 = AbGroup(0, (2,)), AbGroup(0, (3,))
        (g,) = z2.basis()
        (h,) = z3.basis()
        with pytest.raises(InvalidArguments, match="different groups"):
            inclusion_exclusion_chain((g,), (1,), 0, (g, h))

    @pytest.mark.parametrize("slot", [1, 3, -1])
    def test_slot_out_of_range_is_refused(self, slot):
        (g,) = AbGroup(0, (3,)).basis()
        with pytest.raises(InvalidArguments, match="out of range 0..0"):
            inclusion_exclusion_chain((g,), (1,), slot, (g, g))


class TestOneCyclePerSlotValue:
    """inclusion_exclusion_chain sums one cycle per value a subset
    product puts in the slot, weighted by the net sign of the subsets
    with that product."""

    Z2, Z5, Z2Z2 = AbGroup(0, (2,)), AbGroup(0, (5,)), AbGroup(0, (2, 2))

    def cases(self):
        (x,) = self.Z2.basis()
        (g,) = self.Z5.basis()
        u, v = self.Z2Z2.basis()
        zero = self.Z2.identity()
        return [
            # 15 subsets, 2 values
            ((x,), (3,), 0, (x, x, x, x)),
            ((u,), (2,), 0, (u, v, u + v)),
            ((u, v), (1, 2), 1, (u, v, u + v)),
            ((g,), (3,), 0, (g, g + g, g, -g)),
            ((g, g + g), (1, 2), 1, (g, -g, g + g)),
            # net(x) = +1 - 1 - 1 + 1 = 0, net(0) = 1
            ((x,), (2,), 0, (x, zero, zero)),
        ]

    def test_chains_equal_the_subset_by_subset_oracle(self):
        for args, lam, slot, betas in self.cases():
            assert inclusion_exclusion_chain(
                args, lam, slot, betas
            ) == ref_inclusion_exclusion_chain(args, lam, slot, betas)

    def test_cells_are_those_of_the_public_constructors(self):
        # the cycles' joins are built by the trusted constructor
        for args, lam, slot, betas in self.cases():
            chain = inclusion_exclusion_chain(args, lam, slot, betas)
            for cell in chain.terms:
                public = JoinCell(1, [BarCell(c.elements) for c in cell.comps])
                assert cell == public and hash(cell) == hash(public)
                assert (cell.level, cell.degree) == (1, 2 * sum(lam) - 1)
                assert cell.degree == public.degree

    def test_a_value_of_net_sign_zero_adds_nothing(self):
        (x,) = self.Z2.basis()
        zero = self.Z2.identity()
        chain = inclusion_exclusion_chain((x,), (2,), 0, (x, zero, zero))
        assert chain == symmetrized_cycle((zero,), (2,))

    def test_one_cycle_per_value(self, monkeypatch):
        calls = []
        real = homology_module._add_symmetrized

        def counting(terms, args, lam, coeff):
            calls.append(coeff)
            real(terms, args, lam, coeff)

        monkeypatch.setattr(homology_module, "_add_symmetrized", counting)
        (x,) = self.Z2.basis()
        inclusion_exclusion_chain((x,), (3,), 0, (x, x, x, x))
        # net(x) = -4 - 4 and net(0) = 6 + 1 over the 15 subsets
        assert sorted(calls) == [-8, 7]
        calls.clear()
        zero = self.Z2.identity()
        inclusion_exclusion_chain((x,), (2,), 0, (x, zero, zero))
        assert calls == [1]


class TestSymmetrizedCycles:
    def test_reference_expansion_lambda_22(self):
        table = SymbolTable.free("ab")
        group = table.group
        a, b = group.basis()[:2]
        chain = symmetrized_cycle((a, b), (2, 2))
        assert format_chain(chain, table) == (
            "[a|a|b|b] + [a|b|a|b] + [a|b|b|a]"
            " + [b|a|a|b] + [b|a|b|a] + [b|b|a|a]"
        )

    def test_single_part_is_one_cell(self):
        group = AbGroup(1)
        (a,) = group.basis()
        chain = symmetrized_cycle((a,), (4,))
        assert len(chain.terms) == 1
        (cell,) = chain.terms
        assert cell.degree == 7

    def test_boundaries_vanish_for_all_compositions(self):
        rng = random.Random(77)
        groups = [AbGroup(0, (2,)), AbGroup(0, (3,)), AbGroup(2)]
        for d in range(1, 5):
            for lam in compositions(d):
                group = rng.choice(groups)
                args = tuple(
                    group.element(
                        [rng.randint(-2, 2) if not group.torsion else
                         rng.randrange(m) for m in (group.torsion or [5] * group.ncoords)]
                    )
                    for _ in lam
                )
                assert boundary(symmetrized_cycle(args, lam)).is_zero()

    def test_argument_count_guard(self):
        group = AbGroup(2)
        a, b = group.basis()
        with pytest.raises(InvalidArguments):
            symmetrized_cycle((a, b), (2,))

    def test_coincident_arguments_accumulate_multiplicity(self):
        # slots stay distinguishable: equal elements in different slots
        # produce multinomially many summands as coefficients
        group = AbGroup(1)
        (a,) = group.basis()
        chain = symmetrized_cycle((a, a), (1, 1))
        assert list(chain.terms.values()) == [2]
        chain = symmetrized_cycle((a, a), (2, 2))
        assert sum(chain.terms.values()) == 6

    def test_theta_stays_a_form_on_the_diagonal(self):
        rng = random.Random(53)
        for _ in range(10):
            t = random_tensor(rng, degree=2)
            group = AbGroup(t.rank)
            basis = group.basis()
            l = rng.randrange(t.rank)
            # bilinear form evaluated at (g, g) is q(g,g)^2
            assert theta_lambda(t, (1, 1), (basis[l], basis[l])) == (
                4 * t.entry((l + 1, l + 1))
            ) % t.modulus


class TestDiagonalCochain:
    def test_identity_argument_gives_zero(self, zeta11):
        group = AbGroup(2)
        a = group.basis()[0]
        e = group.identity()
        cell = join(1, tuple(BarCell((x,)) for x in (a, e, a, a)))
        assert dcharacter_eval(zeta11, cell) == 0

    def test_eleventh_root_bridge_values(self, zeta11):
        group = AbGroup(2)
        a1, a2 = group.basis()
        for k in range(5):
            # theta on the (4-k, k) cycle equals the aggregate exponent
            # of q_k, which is mu^2 for every k in this example
            args = (a1, a2)
            lam = (4 - k, k)
            if k == 0:
                args, lam = (a1,), (4,)
            elif k == 4:
                args, lam = (a2,), (4,)
            assert theta_lambda(zeta11, lam, args) == 2

    def test_matches_enumeration_oracle_degree_three(self):
        rng = random.Random(5)
        for _ in range(10):
            t = random_tensor(rng, degree=3)
            group = AbGroup(t.rank)
            xs = tuple(
                group.element([rng.randint(-2, 2) for _ in range(t.rank)])
                for _ in range(3)
            )
            cell = join(1, tuple(BarCell((x,)) for x in xs))
            expected = 0
            for idx in itertools.product(range(1, t.rank + 1), repeat=3):
                prod = 1
                for x, i in zip(xs, idx):
                    prod *= x.vec[i - 1]
                expected += 2 * t.entry(idx) * prod
            assert dcharacter_eval(t, cell) == expected % t.modulus

    def test_non_pure_cell_rejected(self, zeta11):
        group = AbGroup(2)
        a, b = group.basis()
        with pytest.raises(CellShapeError):
            dcharacter_eval(zeta11, join(1, (BarCell((a, b)), BarCell((a,)),
                                             BarCell((a,)))))

    def test_chain_evaluation_is_additive(self, zeta11):
        group = AbGroup(2)
        a, b = group.basis()
        cochain = DiagonalCochain(zeta11)
        c1 = join(1, tuple(BarCell((x,)) for x in (a, b, a, b)))
        c2 = join(1, tuple(BarCell((x,)) for x in (b, a, b, a)))
        chain = Chain({c1: 2, c2: -1})
        expected = (2 * cochain.eval_cell(c1) - cochain.eval_cell(c2)) % 22
        assert cochain.eval_chain(chain) == expected


# (degree, rank) of the tensors below, rank**degree <= 100 entries each
ZERO_EXTENSION_SHAPES = [
    (d, rank) for d in (2, 3, 4) for rank in (1, 2, 3) if rank ** d <= 100
]


class TestZeroExtension:
    """theta_T extended by zero vanishes mod M on the boundary of every
    level-1 cell of degree 2d, a cocycle condition at level 1."""

    def test_vanishes_on_level_one_boundaries(self):
        # (a) the d-fold joins with one two-entry bar component [a, b]
        # are the only level-1 cells whose boundary meets a pure cell,
        # in the faces [a], [a + b] and [b] of that component; (b) cells
        # from random_cell, mostly with no pure face at all
        rng = random.Random(61)
        nonzero, nontrivial = [], 0
        for d, rank in ZERO_EXTENSION_SHAPES:
            group = AbGroup(rank)
            for modulus in range(2, 13):
                tensor = random_tensor(rng, modulus, rank, d)
                cochain = DiagonalCochain(tensor)
                cells = []
                for slot in range(d):
                    for _ in range(2):
                        comps = [random_cell(rng, group, 0, 1)
                                 for _ in range(d)]
                        comps[slot] = random_cell(rng, group, 0, 2)
                        a, b = comps[slot].elements
                        before, after = comps[:slot], comps[slot + 1:]
                        faces = [join(1, before + [BarCell((x,))] + after)
                                 for x in (a, a + b, b)]
                        nontrivial += any(map(cochain.eval_cell, faces))
                        cells.append(join(1, comps))
                cells += [random_cell(rng, group, 1, 2 * d) for _ in range(12)]
                for cell in cells:
                    if cochain.eval_chain_zero_extended(boundary(cell)):
                        nonzero.append((d, rank, modulus, cell))
        assert nonzero == []
        # the faces carry nonzero values that the boundary cancels
        assert nontrivial > 0

    def test_level_two_boundaries_give_minus_the_symmetrization(self):
        # the boundary of [x||y] is -[x|y] - [y|x], so theta_T extended
        # by zero is no level-2 cocycle unless it is alternating
        rng = random.Random(67)
        nonzero = 0
        for _ in range(50):
            rank, modulus = rng.randint(1, 3), rng.randint(2, 12)
            cochain = DiagonalCochain(random_tensor(rng, modulus, rank, 2))
            group = AbGroup(rank)
            x, y = (random_cell(rng, group, 0, 1) for _ in range(2))
            value = cochain.eval_chain_zero_extended(boundary(join(2, (x, y))))
            xy = (x.elements[0], y.elements[0])
            assert value == (
                -cochain.eval_element_tuple(xy)
                - cochain.eval_element_tuple(xy[::-1])
            ) % modulus
            nonzero += value != 0
        assert nonzero > 0


class TestThetaLambda:
    def test_bridge_identity_random(self):
        rng = random.Random(13)
        for _ in range(30):
            t = random_tensor(rng, degree=rng.randint(2, 5))
            group = AbGroup(t.rank)
            basis = group.basis()
            l, j = rng.sample(range(t.rank), 2)
            k = rng.randint(0, t.degree)
            args, lam = (basis[l], basis[j]), (t.degree - k, k)
            if k == 0:
                args, lam = (basis[l],), (t.degree,)
            elif k == t.degree:
                args, lam = (basis[j],), (t.degree,)
            assert theta_lambda(t, lam, args) == (
                2 * gamma_aggregate(t, l + 1, j + 1, k)
            ) % t.modulus

    def test_invariant_under_simultaneous_permutation(self):
        rng = random.Random(29)
        for _ in range(10):
            t = random_tensor(rng, degree=3)
            group = AbGroup(t.rank)
            args = tuple(
                group.element([rng.randint(-1, 1) for _ in range(t.rank)])
                for _ in range(3)
            )
            lam = (1, 1, 1)
            base = theta_lambda(t, lam, args)
            for perm in itertools.permutations(range(3)):
                permuted_args = tuple(args[i] for i in perm)
                assert theta_lambda(t, lam, permuted_args) == base

    def test_degree_two_classical_forms(self):
        rng = random.Random(37)
        for _ in range(10):
            t = random_tensor(rng, degree=2)
            group = AbGroup(t.rank)
            basis = group.basis()
            g, h = rng.sample(range(t.rank), 2)
            assert theta_lambda(t, (2,), (basis[g],)) == (
                2 * t.entry((g + 1, g + 1))
            ) % t.modulus
            assert theta_lambda(t, (1, 1), (basis[g], basis[h])) == (
                2 * (t.entry((g + 1, h + 1)) + t.entry((h + 1, g + 1)))
            ) % t.modulus
