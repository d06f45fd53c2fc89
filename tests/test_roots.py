import random
from collections import Counter

import pytest

from conftest import random_rank2_profile_tensor, sparse_rank3_tensor
from weylg.errors import (
    AxiomViolation,
    DepthExceeded,
    InvalidArguments,
    NonPeriodic,
    NotAQuiddityCycle,
    ObjectLimitExceeded,
    Report,
    UndefinedCartanEntry,
)
from weylg.groupoid import generate_cartan_graph
from weylg.lattice import SqrtBraidingTensor
from weylg.rank2 import quiddity_cycle
from weylg.roots import RootSet, _sigma_apply, real_roots, validate_root_axioms


def real_roots_naive(graph, depth_max):
    """Reference closure: every visit maps the source's whole root set."""
    n = graph.rank
    simple = []
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        simple.append(tuple(vec))
    sets = [set(simple) for _ in graph.objects]
    for _ in range(depth_max):
        changed = False
        for pos, obj in enumerate(graph.objects):
            for i, target in enumerate(graph.edges[pos], start=1):
                row = obj.cartan.row(i)
                image = {_sigma_apply(row, i, v) for v in sets[pos]}
                before = len(sets[target])
                sets[target] |= image
                if len(sets[target]) != before:
                    changed = True
        if not changed:
            return {pos: RootSet(v) for pos, v in enumerate(sets)}
    raise DepthExceeded(
        f"root closure did not stabilize within {depth_max} rounds"
    )


# _sigma_apply, RootSet.positive and validate_root_axioms as they were
# before positive sets were shared between R1 and R4, kept as references


def _sigma_apply_reference(c_row, i, vec):
    """sigma_i on coordinates: only coordinate i changes, by the pairing."""
    pairing = sum(c * x for c, x in zip(c_row, vec))
    out = list(vec)
    out[i - 1] = vec[i - 1] - pairing
    return tuple(out)


def _positive_reference(rs):
    return {r for r in rs.roots if all(x >= 0 for x in r)}


def validate_root_axioms_reference(graph, roots):
    report = Report()
    n = graph.rank
    for pos, rs in roots.items():
        positive = _positive_reference(rs)
        r1 = rs.roots == positive | {tuple(-x for x in r) for r in positive}
        report.record(f"R1 object {pos}", r1)
        r2 = True
        for r in rs.roots:
            support = [abs(x) for x in r if x != 0]
            if len([x for x in r if x != 0]) == 1 and support[0] != 1:
                r2 = False
        report.record(f"R2 object {pos}", r2)
    for pos, obj in enumerate(graph.objects):
        for i, target in enumerate(graph.edges[pos], start=1):
            row = obj.cartan.row(i)
            image = {_sigma_apply_reference(row, i, v) for v in roots[pos].roots}
            report.record(
                f"R3 object {pos} index {i}",
                image == roots[target].roots,
            )
    for pos in range(len(graph)):
        # the (i, j) quadrant holds the nonnegative roots supported in {i, j}
        supports = Counter(
            frozenset(p for p, x in enumerate(r) if x != 0)
            for r in _positive_reference(roots[pos])
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                pair = {i - 1, j - 1}
                m = sum(c for s, c in supports.items() if s <= pair)
                current = pos
                for _ in range(m):
                    current = graph.edges[graph.edges[current][j - 1]][i - 1]
                r4 = current == pos
                report.record(
                    f"R4 object {pos} pair ({i},{j})",
                    r4,
                    "" if r4 else f"(rho_{i} rho_{j})^{m} moved the object",
                )
    return report


def _closure_outcome(closure, graph, depth_max):
    try:
        roots = closure(graph, depth_max)
    except DepthExceeded as exc:
        return str(exc)
    return {key: rs.roots for key, rs in roots.items()}


def _closures(rng, draw, count, max_objects):
    graphs = []
    while len(graphs) < count:
        try:
            graphs.append(generate_cartan_graph(
                draw(rng), m_max=40, max_objects=max_objects
            ))
        except (UndefinedCartanEntry, ObjectLimitExceeded, AxiomViolation):
            continue
    return graphs


def test_semi_naive_closure_matches_the_whole_set_loop(a2, zeta3, zeta7, zeta11):
    rng = random.Random(2024)
    graphs = [generate_cartan_graph(t) for t in (a2, zeta3, zeta7, zeta11)]
    graphs += _closures(
        rng,
        lambda r: random_rank2_profile_tensor(
            r, r.randint(2, 22), r.choice((2, 4, 6))
        ),
        30,
        max_objects=60,
    )
    graphs += _closures(rng, sparse_rank3_tensor, 10, max_objects=50)
    # a closure of infinite type never stabilizes and its root sets grow
    # with every round, so every closure is compared up to a cap; the
    # finite ones here stabilize within six rounds
    stabilized = 0
    for graph in graphs:
        for depth_max in range(9):
            expected = _closure_outcome(real_roots_naive, graph, depth_max)
            assert _closure_outcome(real_roots, graph, depth_max) == expected
            if not isinstance(expected, str):
                stabilized += 1
                break
    assert stabilized >= 20


def test_single_object_diagonal_graph():
    t = SqrtBraidingTensor.from_entries(10, 3, 2, {(1, 1): 1, (2, 2): 3, (3, 3): 7})
    graph = generate_cartan_graph(t)
    roots = real_roots(graph)
    (rs,) = roots.values()
    assert rs.positive() == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert validate_root_axioms(graph, roots).ok


def test_a2_closure(a2):
    graph = generate_cartan_graph(a2)
    roots = real_roots(graph)
    for rs in roots.values():
        assert rs.positive() == {(1, 0), (0, 1), (1, 1)}
    report = validate_root_axioms(graph, roots)
    assert report.ok
    # the (1,2) quadrant count is 3 and three double reflections return
    assert any("R4" in c.name for c in report.checks if c.ok)


def test_rank2_examples_pass_axioms(zeta11, zeta7):
    for tensor, cycle_length in ((zeta11, 7), (zeta7, 10)):
        graph = generate_cartan_graph(tensor)
        roots = real_roots(graph)
        assert validate_root_axioms(graph, roots).ok
        counts = {len(rs.positive()) for rs in roots.values()}
        # every object carries one positive root per polygon vertex
        assert counts == {cycle_length}


def test_zeta3_axioms(zeta3):
    graph = generate_cartan_graph(zeta3)
    roots = real_roots(graph)
    assert validate_root_axioms(graph, roots).ok
    assert {len(rs.positive()) for rs in roots.values()} == {7}


def test_passing_root_checks_carry_no_note(a2, zeta3, zeta7, zeta11):
    for tensor in (a2, zeta3, zeta7, zeta11):
        graph = generate_cartan_graph(tensor, m_max=1000)
        report = validate_root_axioms(graph, real_roots(graph))
        assert report.ok
        assert [c.note for c in report.checks] == [""] * len(report.checks)


def test_corrupted_roots_fail_r3(a2):
    graph = generate_cartan_graph(a2)
    roots = real_roots(graph)
    key = next(iter(roots))
    roots[key].roots.add((2, 3))
    report = validate_root_axioms(graph, roots)
    assert not report.ok
    assert any("R3" in c.name for c in report.failures())


def test_divergent_roots_hit_depth_cap():
    # constant Cartan matrix [[2,-3],[-3,2]] has an infinite root system
    t = SqrtBraidingTensor.from_entries(
        14, 2, 2, {(1, 1): 1, (2, 2): 1, (1, 2): 4}
    )
    graph = generate_cartan_graph(t, max_objects=50)
    with pytest.raises(DepthExceeded):
        real_roots(graph, depth_max=10)


def test_negative_depth_max_is_invalid(a2):
    graph = generate_cartan_graph(a2)
    with pytest.raises(InvalidArguments, match="depth_max must be >= 0, got -1"):
        real_roots(graph, depth_max=-1)


def test_r1_r2_r3_on_random_stabilizing_graphs():
    rng = random.Random(515)
    produced = 0
    while produced < 10:
        t = random_rank2_profile_tensor(rng, rng.randint(2, 12), 4)
        try:
            graph = generate_cartan_graph(t, m_max=40, max_objects=300)
            roots = real_roots(graph, depth_max=24)
        except (UndefinedCartanEntry, ObjectLimitExceeded, AxiomViolation,
                DepthExceeded):
            continue
        report = validate_root_axioms(graph, roots)
        relevant = [
            (c.name, c.ok)
            for c in report.checks
            if c.name.startswith(("R1", "R2", "R3"))
        ]
        assert relevant and all(ok for _, ok in relevant)
        produced += 1


def test_sigma_apply_and_positive_match_the_references():
    rng = random.Random(808)
    for _ in range(2000):
        n = rng.randint(1, 5)
        i = rng.randint(1, n)
        row = tuple(2 if k == i else -rng.randint(0, 4) for k in range(1, n + 1))
        vec = tuple(rng.randint(-6, 6) for _ in range(n))
        assert _sigma_apply(row, i, vec) == _sigma_apply_reference(row, i, vec)
        rs = RootSet({
            tuple(rng.randint(-2, 2) for _ in range(n))
            for _ in range(rng.randint(0, 8))
        })
        assert rs.positive() == _positive_reference(rs)


def _copy_roots(roots):
    return {pos: RootSet(set(rs.roots)) for pos, rs in roots.items()}


def test_root_axiom_reports_match_the_reference(a2, zeta3, zeta7, zeta11):
    rng = random.Random(4242)
    graphs = [generate_cartan_graph(t) for t in (a2, zeta3, zeta7, zeta11)]
    graphs += _closures(
        rng,
        lambda r: random_rank2_profile_tensor(
            r, r.randint(2, 22), r.choice((2, 4, 6))
        ),
        25,
        max_objects=60,
    )
    graphs += _closures(rng, sparse_rank3_tensor, 10, max_objects=50)
    # closures of infinite type are skipped: their root sets grow with
    # every round, and the finite ones here stabilize within six rounds
    compared = 0
    for graph in graphs:
        try:
            roots = real_roots(graph, depth_max=8)
        except DepthExceeded:
            continue
        expected = validate_root_axioms_reference(graph, roots)
        assert validate_root_axioms(graph, roots).checks == expected.checks
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("axiom", ["R1", "R2", "R3", "R4"])
def test_corrupted_root_sets_match_the_reference(axiom, zeta3, zeta11):
    """Each corruption makes the reference fail the named axiom; the
    whole report, notes included, must match it."""
    for tensor in (zeta3, zeta11):
        graph = generate_cartan_graph(tensor)
        roots = _copy_roots(real_roots(graph))
        n = graph.rank
        unit = (1,) + (0,) * (n - 1)
        target = roots[1].roots
        if axiom == "R1":
            target.add((1, -1) + (0,) * (n - 2))
        elif axiom == "R2":
            target |= {tuple(2 * x for x in unit), tuple(-2 * x for x in unit)}
        elif axiom == "R3":
            r = max(target)
            target -= {r, tuple(-x for x in r)}
        else:
            r = (5, 7) + (0,) * (n - 2)
            target |= {r, tuple(-x for x in r)}
        expected = validate_root_axioms_reference(graph, roots)
        assert any(c.name.startswith(axiom) for c in expected.failures())
        assert validate_root_axioms(graph, roots).checks == expected.checks


# Rank-2 roots read off the alternating walk (Cuntz-Heckenberger): from
# object a, reflect at i_1, i_2, ... = 1, 2, 1, ...; the N positive
# roots at a are beta_k = sigma_{i_1} ... sigma_{i_{k-1}}(alpha_{i_k}),
# each sigma taken with the Cartan row of the object the walk has
# reached, and N is the length of the quiddity cycle.  It shares no code
# with real_roots, which closes the root sets under every edge.


def _walk_sigma(c_row, i, vec):
    """sigma_i on rank-2 coordinates: alpha_i -> -alpha_i and
    alpha_j -> alpha_j - c_ij alpha_i."""
    j = 3 - i
    image = [0, 0]
    image[i - 1] = -vec[i - 1] - c_row[j - 1] * vec[j - 1]
    image[j - 1] = vec[j - 1]
    return tuple(image)


def walk_roots(graph, start, length):
    """beta_1 .. beta_length along the alternating walk from start."""
    betas = []
    rows = []  # (Cartan row, index) of each reflection taken so far
    pos = start
    for k in range(length):
        i = 1 if k % 2 == 0 else 2
        beta = (1, 0) if i == 1 else (0, 1)
        for row, index in reversed(rows):
            beta = _walk_sigma(row, index, beta)
        betas.append(beta)
        rows.append((graph.objects[pos].cartan.row(i), i))
        pos = graph.edges[pos][i - 1]
    return betas


def _assert_walk_gives_the_positive_roots(graph):
    roots = real_roots(graph)
    for pos in range(len(graph)):
        length = len(quiddity_cycle(graph, pos))
        betas = walk_roots(graph, pos, length)
        assert all(min(beta) >= 0 for beta in betas), (pos, betas)
        assert len(set(betas)) == length
        assert set(betas) == roots[pos].positive(), pos


def test_walk_roots_of_the_examples(a2, zeta7, zeta11):
    profile = SqrtBraidingTensor.from_rank2_profile(9, 4, [0, 1, 1, 6, 4])
    for tensor, size in ((a2, 2), (zeta7, 10), (zeta11, 14), (profile, None)):
        graph = generate_cartan_graph(tensor)
        assert size is None or len(graph) == size
        _assert_walk_gives_the_positive_roots(graph)


def test_walk_roots_of_seeded_finite_closures():
    """Seeded rank-2 profiles at degrees 2, 4 and 6 whose closure is
    finite: it has a quiddity cycle and its roots stabilize.  Draws go
    on until each degree has 12 such closures, one of them with at
    least 6 positive roots."""
    rng = random.Random(307)
    found = Counter()
    attempts = 0
    while any(found[d] < 12 or not found[d, "long"] for d in (2, 4, 6)):
        attempts += 1
        assert attempts < 5000
        degree = rng.choice((2, 4, 6))
        tensor = random_rank2_profile_tensor(rng, rng.randint(2, 20), degree)
        try:
            graph = generate_cartan_graph(tensor, m_max=40, max_objects=60)
            cycle = quiddity_cycle(graph)
            real_roots(graph)
        except (UndefinedCartanEntry, ObjectLimitExceeded, AxiomViolation,
                DepthExceeded, NonPeriodic, NotAQuiddityCycle):
            continue
        _assert_walk_gives_the_positive_roots(graph)
        found[degree] += 1
        found[degree, "long"] += len(cycle) >= 6
