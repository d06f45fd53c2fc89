"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line on success (visible with -s or in
captured output); any assertion failure marks the criterion failed.
"""

import random

from conftest import random_cell, random_rank2_profile_tensor, random_tensor
from test_groupoid import reflect_in_gamma_basis
from weylg.cells import boundary
from weylg.cellexpr import SymbolTable, parse_chain, table_for
from weylg.cli import run
from weylg.cycles import symmetrized_cycle, theta_lambda
from weylg.errors import (
    AxiomViolation,
    ObjectLimitExceeded,
    UndefinedCartanEntry,
)
from weylg.groupoid import (
    generate_cartan_graph,
    reflect,
    validate_axioms,
)
from weylg.groups import AbGroup
from weylg.homology import CellComplex
from weylg.lattice import aggregate_profile, gamma_aggregate
from weylg.laurent import (
    verify_classical_d2,
    verify_divisibility,
    verify_recursion,
)
from weylg.rank2 import QuiddityCycle, frieze_rows, quiddity_cycle, triangulate
from weylg.reports import (
    corollary_combination,
    verify_corollary_witnesses,
    verify_lemma_witnesses,
    verify_table1,
)
from weylg.roots import real_roots, validate_root_axioms
from weylg.rosso import cartan_entry, cartan_matrix, rosso_diagnostics, rosso_vectors

Z2 = AbGroup(0, (2,))
Z3 = AbGroup(0, (3,))


def _passed(number, text):
    print(f"ACCEPTANCE {number:02d}: PASS  {text}")


def test_criterion_01_eleventh_root_example(zeta11):
    rows = rosso_diagnostics(zeta11, 1, 2, range(4))
    assert [(r.chi_v, r.chi_w, r.chi_s) for r in rows] == [
        (4, 4, 4), (4, 4, 13), (2, 2, 8), (0, 0, 11),
    ]
    assert cartan_entry(zeta11, 1, 2) == -3
    image = reflect(zeta11, 1, cartan_matrix(zeta11).row(1))
    second = rosso_diagnostics(image, 2, 1, range(2))
    assert [(r.chi_v, r.chi_w, r.chi_s) for r in second] == [
        (18, 20, 18), (20, 0, 10),
    ]
    cycle = quiddity_cycle(generate_cartan_graph(zeta11))
    assert cycle.entries == (3, 1, 2, 3, 2, 1, 3)
    _passed(1, "11th-root example: tables, entry -3, quiddity 3 1 2 3 2 1 3")


def test_criterion_02_seventh_root_example(zeta7):
    cycle = quiddity_cycle(generate_cartan_graph(zeta7))
    assert cycle.entries == (2, 1, 5, 1, 3, 1, 5, 1, 2, 3)
    assert cycle.total() == 24 == 3 * len(cycle) - 6
    tri = triangulate(cycle)
    assert len(tri.diagonals) == len(cycle) - 3
    _passed(2, "7th-root example: quiddity cycle and triangulation")


def test_criterion_03_reflected_tuple_erratum(zeta11):
    image = reflect(zeta11, 1, cartan_matrix(zeta11).row(1))
    computed = aggregate_profile(image, 1, 2)
    assert computed == (1, 9, 20, 12, 11)
    printed = (2, 10, 21, 13, 12)
    assert computed != printed
    assert {(p - c) % 22 for p, c in zip(printed, computed)} == {1}
    # the computed aggregates reproduce the second diagnostics table
    rows = rosso_diagnostics(image, 2, 1, range(2))
    assert [(r.chi_v, r.chi_w, r.chi_s) for r in rows] == [
        (18, 20, 18), (20, 0, 10),
    ]
    _passed(3, "reflected-tuple erratum documented; table agreement asserted")


def test_criterion_04_symbolic_recursion_and_divisibility():
    for d in (2, 3, 4, 5, 6):
        report = verify_recursion(d, 8)
        assert report.ok, report.counterexample
    classical = verify_classical_d2(8)
    assert classical.ok, classical.counterexample
    for d in (2, 3, 4, 5, 6):
        report = verify_divisibility(d, 8)
        assert report.ok, report.counterexample
    _passed(4, "recursion, classical degree-2 reduction, divisibility (m <= 8)")


def _check_eigenvectors(graph):
    d = graph.objects[0].tensor.degree
    for obj in graph.objects:
        n = obj.tensor.rank
        for l in range(1, n + 1):
            row = obj.cartan.row(l)
            for j in range(1, n + 1):
                if l == j:
                    continue
                m = -obj.cartan.entry(l, j)
                vecs = rosso_vectors(d, m)
                assert reflect_in_gamma_basis(vecs.v, l, j, row, n) == vecs.v
                assert reflect_in_gamma_basis(vecs.w, l, j, row, n) == -vecs.w
                assert reflect_in_gamma_basis(vecs.s, l, j, row, n) == vecs.s


def _check_tensor_involution(graph):
    for source, targets in zip(graph.objects, graph.edges):
        for i, target_pos in enumerate(targets, start=1):
            target = graph.objects[target_pos]
            image = reflect(source.tensor, i, source.cartan.row(i))
            assert image == target.tensor
            back = reflect(image, i, target.cartan.row(i))
            assert back == source.tensor


def test_criterion_05_cartan_graph_axioms(zeta11, zeta7, zeta3):
    graphs = [
        generate_cartan_graph(zeta11),
        generate_cartan_graph(zeta7),
        generate_cartan_graph(zeta3),
    ]
    rng = random.Random(20240817)
    produced = 0
    rejected_axioms = 0
    while produced < 50:
        degree = rng.choice((2, 4))
        tensor = random_rank2_profile_tensor(rng, rng.randint(2, 16), degree)
        try:
            graphs.append(
                generate_cartan_graph(tensor, m_max=60, max_objects=600)
            )
        except (UndefinedCartanEntry, ObjectLimitExceeded):
            continue
        except AxiomViolation:
            # degree-4 closures can violate C2 (documented counterexample
            # in the groupoid tests); only tensors producing a Cartan
            # graph count as terminating
            rejected_axioms += 1
            continue
        produced += 1
    for graph in graphs:
        report = validate_axioms(graph)
        assert report.ok, report.failures()
        _check_tensor_involution(graph)
        _check_eigenvectors(graph)
    _passed(5, f"axioms M1 M2 C1 C2, involutions, eigenvectors on "
               f"{len(graphs)} orbits ({rejected_axioms} axiom-violating "
               f"samples surfaced as typed errors)")


def test_criterion_06_root_axioms(zeta11, zeta7, zeta3, a2):
    for tensor in (zeta11, zeta7, zeta3, a2):
        graph = generate_cartan_graph(tensor)
        roots = real_roots(graph)
        report = validate_root_axioms(graph, roots)
        assert report.ok, report.failures()
    a2_graph = generate_cartan_graph(a2)
    a2_roots = real_roots(a2_graph)
    for rs in a2_roots.values():
        assert rs.positive() == {(1, 0), (0, 1), (1, 1)}
    _passed(6, "root axioms R1-R4 on all finite examples; classical sanity")


def test_criterion_07_frieze_figure():
    cycle = QuiddityCycle((1, 4, 1, 2, 2, 2))
    expected = [
        (0, 1, 1, 3, 2, 1, 0),
        (0, 1, 4, 3, 2, 1, 0),
        (0, 1, 1, 1, 1, 1, 0),
        (0, 1, 2, 3, 4, 1, 0),
        (0, 1, 2, 3, 1, 1, 0),
        (0, 1, 2, 1, 2, 1, 0),
    ]
    assert frieze_rows(cycle) == expected
    from weylg.rank2 import render_frieze

    rendered = render_frieze(cycle).splitlines()
    for offset, row in enumerate(expected):
        assert rendered[offset] == " " * (2 * offset) + " ".join(
            str(e) for e in row
        )
    _passed(7, "frieze rows and staggered borders match the figure")


def test_criterion_08_table_and_square_zero():
    report = verify_table1()
    assert report.ok
    flagged = [line for line in report.checks if not line.printed_exact]
    assert {line.name for line in flagged} == {
        "boundary of [a|||b,c]",
        "boundary of [a||||b]",
    }
    assert all(line.note for line in flagged)
    # the degree-inconsistent row must match the defining formula
    table = table_for("[a|||b]")
    assert boundary(parse_chain("[a||||b]", table)) == parse_chain(
        "-[a|||b] - [b|||a]", table
    )
    groups = [Z2, Z3, AbGroup(0, (2, 2)), AbGroup(4)]
    rng = random.Random(88)
    checked = 0
    while checked < 1000:
        group = rng.choice(groups)
        cell = random_cell(rng, group, rng.randint(0, 3), rng.randint(1, 7))
        assert boundary(boundary(cell)).is_zero()
        checked += 1
    _passed(8, "table verified (2 documented discrepancies); dd = 0 on "
               "1000 random cells")


def test_criterion_09_symmetrized_cycles():
    table = SymbolTable.free("ab")
    a, b = table.group.basis()[:2]
    assert parse_chain(
        "[a|a|b|b] + [a|b|a|b] + [a|b|b|a] + [b|a|a|b] + [b|a|b|a]"
        " + [b|b|a|a]",
        table,
    ) == symmetrized_cycle((a, b), (2, 2))
    rng = random.Random(99)
    groups = [Z2, Z3, AbGroup(2)]

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    checked = 0
    while checked < 200:
        for d in range(1, 5):
            for lam in compositions(d):
                group = rng.choice(groups)
                args = tuple(
                    group.element(
                        [rng.randint(-2, 2) for _ in range(group.ncoords)]
                        if not group.torsion
                        else [rng.randrange(m) for m in group.torsion]
                    )
                    for _ in lam
                )
                assert boundary(symmetrized_cycle(args, lam)).is_zero()
                checked += 1
    _passed(9, f"symmetrized cycles: expansion verbatim; {checked} boundary "
               "checks vanish")


def test_criterion_10_lemma_witnesses():
    report = verify_lemma_witnesses()
    assert report.ok, [line.name for line in report.failures()]
    assert len(report.checks) == 9
    exact = [line for line in report.checks if line.printed_exact]
    repaired = [line for line in report.checks if not line.printed_exact]
    assert len(exact) == 6
    assert len(repaired) == 3
    assert all("degenerate correction" in line.note for line in repaired)
    _passed(10, "all witness identities verified exactly (6 as printed, "
                "3 via documented sign repair plus degenerate correction)")


def test_criterion_11_cohomology_bridge():
    rng = random.Random(123)
    group_cache = {}
    checked = 0
    while checked < 100:
        d = rng.randint(2, 5)
        t = random_tensor(rng, degree=d)
        basis = group_cache.setdefault(t.rank, AbGroup(t.rank).basis())
        l, j = rng.sample(range(t.rank), 2)
        k = rng.randint(0, d)
        if k == 0:
            args, lam = (basis[l],), (d,)
        elif k == d:
            args, lam = (basis[j],), (d,)
        else:
            args, lam = (basis[l], basis[j]), (d - k, k)
        assert theta_lambda(t, lam, args) == (
            2 * gamma_aggregate(t, l + 1, j + 1, k)
        ) % t.modulus
        checked += 1
    _passed(11, "bridge 2*aggregate = theta_(d-k,k) on 100 random tensors")


def test_criterion_12_membership_certificates():
    # second oracle: the assembled witnesses bound the combinations with
    # generic symbols, independent of the matrix computation below
    assert verify_corollary_witnesses().ok

    cases = []
    for group in (Z2, Z3):
        g = group.element((1,))
        h = group.element((group.torsion[0] - 1,))
        cases.append((group, corollary_combination(0, (g, h, g))))
        cases.append((group, corollary_combination(1, (g, h, g, h))))
        cases.append((group, corollary_combination(2, (g, h, g, h))))
    complexes = {}
    for group, combination in cases:
        key = group.torsion
        complex_ = complexes.setdefault(key, CellComplex(group, 1))
        ok, witness = complex_.boundary_membership(combination)
        assert ok
        assert boundary(witness) == combination
    _passed(12, "inclusion-exclusion combinations certified over Z/2 and "
                "Z/3 by integer normal forms; witness chains as second oracle")


def test_criterion_13_cli_determinism(capsys):
    commands = [
        ["quiddity", "--example", "zeta11"],
        ["quiddity", "--example", "zeta7"],
        ["cartan", "--example", "zeta11", "--diagnostics", "0:3"],
        ["cartan", "--example", "zeta3", "--format", "json"],
        ["orbit", "--example", "zeta7", "--format", "json"],
        ["orbit", "--example", "zeta3", "--format", "dot"],
        ["dynkin", "--example", "zeta3"],
        ["frieze", "--quiddity", "1,4,1,2,2,2"],
        ["triangulate", "--quiddity", "3,1,2,3,2,1,3", "--format", "json"],
        ["roots", "--example", "a2", "--format", "json"],
        ["verify", "recursion", "--degree", "2", "--m-max", "3"],
        ["complex", "boundary", "--expr", "[a,b|c]"],
        ["complex", "symcycle", "--lambda", "2,2", "--args", "a;b"],
        ["complex", "verify-table"],
        ["complex", "witnesses"],
        ["complex", "membership", "--expr", "[(1)|(1)] - [(2)|(2)]",
         "--group", "Z/3", "--level", "1", "--format", "json"],
        ["complex", "homology", "--group", "Z/2", "--level", "1",
         "--degree", "3", "--format", "json"],
    ]
    for argv in commands:
        code1 = run(["--seed", "7"] + argv)
        out1 = capsys.readouterr()
        code2 = run(["--seed", "7"] + argv)
        out2 = capsys.readouterr()
        assert code1 == code2 == 0
        assert out1.out == out2.out
        assert out1.err == out2.err
    with capsys.disabled():
        pass
    _passed(13, f"{len(commands)} CLI invocations byte-stable across reruns")
