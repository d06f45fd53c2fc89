import random

import pytest

from conftest import random_rank2_profile_tensor
from weylg.errors import (
    AxiomViolation,
    InvalidArguments,
    NotAQuiddityCycle,
    ObjectLimitExceeded,
    UndefinedCartanEntry,
)
from weylg.groupoid import generate_cartan_graph
from weylg.lattice import SqrtBraidingTensor
from weylg.rank2 import (
    QuiddityCycle,
    checked_quiddity_cycle,
    continuant_product,
    frieze_rows,
    quiddity_cycle,
    render_frieze,
    triangulate,
)

REFERENCE_FRIEZE_ROWS = [
    (0, 1, 1, 3, 2, 1, 0),
    (0, 1, 4, 3, 2, 1, 0),
    (0, 1, 1, 1, 1, 1, 0),
    (0, 1, 2, 3, 4, 1, 0),
    (0, 1, 2, 3, 1, 1, 0),
    (0, 1, 2, 1, 2, 1, 0),
]


class TestQuiddity:
    def test_reference_examples(self, zeta11, zeta7):
        assert quiddity_cycle(generate_cartan_graph(zeta11)).entries == (
            3, 1, 2, 3, 2, 1, 3,
        )
        assert quiddity_cycle(generate_cartan_graph(zeta7)).entries == (
            2, 1, 5, 1, 3, 1, 5, 1, 2, 3,
        )

    def test_a2_triangle(self, a2):
        assert quiddity_cycle(generate_cartan_graph(a2)).entries == (1, 1, 1)

    def test_total_is_triangle_count(self, zeta7):
        cycle = quiddity_cycle(generate_cartan_graph(zeta7))
        assert cycle.total() == 3 * len(cycle) - 6

    def test_every_start_walks_the_same_polygon(self, zeta11, zeta7, a2):
        examples = [generate_cartan_graph(t) for t in (zeta11, zeta7, a2)]
        graphs = list(examples)
        rng = random.Random(7)
        while len(graphs) < len(examples) + 8:
            t = random_rank2_profile_tensor(rng, rng.randint(2, 14), 2)
            try:
                graph = generate_cartan_graph(t, m_max=40, max_objects=400)
                triangulate(quiddity_cycle(graph))
            except (UndefinedCartanEntry, ObjectLimitExceeded,
                    NotAQuiddityCycle, AxiomViolation):
                continue
            graphs.append(graph)
        for k, graph in enumerate(graphs):
            cycle = quiddity_cycle(graph)
            walks = [
                quiddity_cycle(graph, start=p).entries
                for p in range(len(graph))
            ]
            assert walks[0] == cycle.entries
            assert {_dihedral_class(w) for w in walks} == {
                _dihedral_class(cycle.entries)
            }
            if k < len(examples):
                # two objects of each walk the exact sequence; the others
                # start elsewhere on the polygon
                assert sum(w == cycle.entries for w in walks) == 2

    def test_affine_period_is_not_a_quiddity_cycle(self):
        # (2,) fits the triangle count at N = 6, but [[2, -1], [1, 0]]**6
        # is not -I: the closure is the affine [2 -2; -2 2] one
        affine = SqrtBraidingTensor.from_rank2_profile(3, 4, [1, 2, 2, 0, 0])
        graph = generate_cartan_graph(affine)
        assert len(graph) == 6
        assert {obj.cartan.rows for obj in graph.objects} == {
            ((2, -2), (-2, 2))
        }
        assert continuant_product(QuiddityCycle((2,) * 6)) == (
            (7, -6), (6, -5),
        )
        with pytest.raises(NotAQuiddityCycle) as err:
            quiddity_cycle(graph)
        assert str(err.value) == (
            "period (2,) gives eta-product [[7, -6], [6, -5]], not -I"
        )

    def test_start_out_of_range(self, a2):
        graph = generate_cartan_graph(a2)
        for start in (-1, 2):
            with pytest.raises(InvalidArguments, match="out of range 0..1"):
                quiddity_cycle(graph, start=start)


def _dihedral_class(entries):
    """Least rotation of the entries or of their reversal."""
    n = len(entries)
    turns = [entries, entries[::-1]]
    return min(t[k:] + t[:k] for t in turns for k in range(n))


class TestCheckedCycle:
    """A typed cycle is checked as a walked one: at least three entries,
    a sum of 3N - 6, and the eta-product -I."""

    @pytest.mark.parametrize("entries, message", [
        ((0, 0), "cycle (0, 0) has 2 entries, fewer than 3"),
        ((1, 1), "cycle (1, 1) has 2 entries, fewer than 3"),
        ((1, 1, 1, 1), "cycle (1, 1, 1, 1) sums to 4, not 3N - 6 = 6"),
        ((0, 0, 2, 4),
         "cycle (0, 0, 2, 4) gives eta-product [[-7, 2], [-4, 1]], not -I"),
    ])
    def test_refusals(self, entries, message):
        with pytest.raises(NotAQuiddityCycle) as err:
            checked_quiddity_cycle(entries)
        assert str(err.value) == message

    def test_quiddity_cycles_pass_unchanged(self, zeta11, zeta7, a2):
        cycles = [
            quiddity_cycle(generate_cartan_graph(t)) for t in (zeta11, zeta7, a2)
        ]
        cycles += [QuiddityCycle((1, 1, 1)), QuiddityCycle((1, 4, 1, 2, 2, 2))]
        for cycle in cycles:
            assert checked_quiddity_cycle(list(cycle.entries)) == cycle

    def test_negative_entries_stay_invalid_arguments(self):
        with pytest.raises(InvalidArguments):
            checked_quiddity_cycle([-1, 2, 2])


class TestFrieze:
    def test_reference_rows_and_stagger(self):
        cycle = QuiddityCycle((1, 4, 1, 2, 2, 2))
        assert frieze_rows(cycle) == [tuple(r) for r in REFERENCE_FRIEZE_ROWS]
        rendered = render_frieze(cycle).splitlines()
        for offset, (line, row) in enumerate(zip(rendered, REFERENCE_FRIEZE_ROWS)):
            assert line == " " * (2 * offset) + " ".join(str(e) for e in row)

    def test_triangle_frieze(self):
        rows = frieze_rows(QuiddityCycle((1, 1, 1)))
        assert all(row == (0, 1, 1, 0) for row in rows)

    def test_interior_positivity_and_continuant_sign(self, zeta11, zeta7, a2):
        cycles = [
            quiddity_cycle(generate_cartan_graph(t)) for t in (zeta11, zeta7, a2)
        ]
        cycles.append(QuiddityCycle((1, 4, 1, 2, 2, 2)))
        for cycle in cycles:
            for row in frieze_rows(cycle):
                assert row[0] == 0 and row[-1] == 0
                assert all(e > 0 for e in row[1:-1])
            # the fold over one full period is minus the identity
            assert continuant_product(cycle) == ((-1, 0), (0, -1))


class TestTriangulate:
    def test_triangle(self):
        tri = triangulate(QuiddityCycle((1, 1, 1)))
        assert tri.diagonals == ()
        assert tri.triangles == ((0, 1, 2),)

    def test_heptagon(self):
        tri = triangulate(QuiddityCycle((3, 1, 2, 3, 2, 1, 3)))
        assert len(tri.diagonals) == 4
        assert tri.quiddity().entries == (3, 1, 2, 3, 2, 1, 3)

    def test_square(self):
        tri = triangulate(QuiddityCycle((1, 2, 1, 2)))
        assert tri.diagonals == ((1, 3),)

    def test_invalid_cycles(self):
        with pytest.raises(NotAQuiddityCycle):
            triangulate(QuiddityCycle((2, 2, 2, 2)))
        with pytest.raises(NotAQuiddityCycle):
            triangulate(QuiddityCycle((1, 1)))


class TestGeneratedCyclesAreTriangulations:
    def test_random_terminating_profiles(self):
        rng = random.Random(2024)
        produced = 0
        while produced < 12:
            t = random_rank2_profile_tensor(rng, rng.randint(2, 14), 4)
            try:
                graph = generate_cartan_graph(t, m_max=40, max_objects=400)
                cycle = quiddity_cycle(graph)
                tri = triangulate(cycle)
            except (UndefinedCartanEntry, ObjectLimitExceeded,
                    NotAQuiddityCycle, AxiomViolation):
                # affine or hyperbolic profiles have no triangulation, and
                # degree-4 closures may fail the graph axioms; only
                # finite-type walks produce quiddity cycles
                continue
            assert cycle.total() == 3 * len(cycle) - 6
            assert len(tri.diagonals) == len(cycle) - 3
            produced += 1
