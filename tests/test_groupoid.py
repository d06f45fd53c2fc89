import itertools
import math
import random
from collections import Counter
from math import comb

import pytest

from conftest import (
    cartan_matrix_by_entries,
    random_rank2_profile_tensor,
    random_tensor,
    sparse_rank3_tensor,
)
import weylg.groupoid
from weylg.errors import (
    AxiomViolation,
    InvalidArguments,
    ObjectLimitExceeded,
    UndefinedCartanEntry,
)
from weylg.groupoid import (
    CartanGraph,
    CartanGraphObject,
    _check_cartan_row,
    dynkin_diagram,
    generate_cartan_graph,
    reflect,
    validate_axioms,
)
from weylg.lattice import GammaVector, SqrtBraidingTensor, aggregate_profile
from weylg.rosso import cartan_entry, cartan_matrix, rosso_vectors


def reflected_aggregates_oracle(aggs, c, d, modulus):
    """Independent expansion oracle for rank-2 reflection at index 1.

    New aggregate k pairs the old ones against the expanded tensor power
    of the reflection: coefficient of the old k'-aggregate is
    C(d-k', k-k') * (-c)^(k-k') * (-1)^(d-k).
    """
    out = []
    for k in range(d + 1):
        total = 0
        for kp in range(k + 1):
            total += (
                comb(d - kp, k - kp) * (-c) ** (k - kp) * (-1) ** (d - k) * aggs[kp]
            )
        out.append(total % modulus)
    return tuple(out)


def _sigma_columns(rank, l, c_row):
    """Per-basis-index expansion of the reflection at l.

    Returns, for each 1-based index i, the support of sigma_l(alpha_i)
    as ((basis index, coefficient), ...).
    """
    if len(c_row) != rank:
        raise InvalidArguments("Cartan row has wrong length")
    if c_row[l - 1] != 2:
        raise InvalidArguments("Cartan row must have 2 at the reflecting index")
    cols = {}
    for i in range(1, rank + 1):
        if i == l:
            cols[i] = ((l, -1),)
        else:
            c = c_row[i - 1]
            if c > 0:
                raise InvalidArguments("off-diagonal Cartan entries must be <= 0")
            terms = [(i, 1)]
            if c != 0:
                terms.append((l, -c))
            cols[i] = tuple(terms)
    return cols


def reflect_by_expansion(
    tensor: SqrtBraidingTensor, l: int, c_row
) -> SqrtBraidingTensor:
    """Reflected tensor: sqrt-exponents transformed by the tensor power.

    The new exponent at (i_1..i_d) is the pairing of the old exponents
    with the expansion of sigma_l(alpha_{i_1}) x .. x sigma_l(alpha_{i_d}),
    at most 2^d terms per entry, all mod M.
    """
    if not 1 <= l <= tensor.rank:
        raise InvalidArguments(f"index {l} out of range 1..{tensor.rank}")
    cols = _sigma_columns(tensor.rank, l, tuple(c_row))
    d = tensor.degree
    flat = []
    for out in tensor.index_tuples():
        total = 0
        for combo in itertools.product(*(cols[i] for i in out)):
            coeff = 1
            for _, kappa in combo:
                coeff *= kappa
            total += coeff * tensor.entry(tuple(b for b, _ in combo))
        flat.append(total % tensor.modulus)
    return SqrtBraidingTensor(tensor.rank, d, tensor.modulus, flat)


def reflect_in_gamma_basis_by_expansion(v, l, j, c_row, rank=2):
    """Reference gamma-basis reflection: expands the vector into the
    full tensor basis over {l, j}-tuples, applies the reflection
    coordinatewise, and recollects, checking that the image stays in
    the two-index span and is constant on aggregate orbits."""
    cols = _sigma_columns(rank, l, tuple(c_row))
    d = v.degree
    image = {}
    for tup in itertools.product((l, j), repeat=d):
        k = sum(1 for i in tup if i == j)
        coeff = v.doubled[k]
        if not coeff:
            continue
        for combo in itertools.product(*(cols[i] for i in tup)):
            kappa = coeff
            for _, c in combo:
                kappa *= c
            key = tuple(b for b, _ in combo)
            image[key] = image.get(key, 0) + kappa
    out = [0] * (d + 1)
    seen = [False] * (d + 1)
    for tup, coeff in image.items():
        if coeff == 0:
            continue
        assert all(i in (l, j) for i in tup)
        k = sum(1 for i in tup if i == j)
        assert not seen[k] or out[k] == coeff
        out[k] = coeff
        seen[k] = True
    return GammaVector(d, tuple(out))


def reflect_in_gamma_basis(
    v: GammaVector, l: int, j: int, c_row, rank: int = 2
) -> GammaVector:
    """Image of a gamma vector under the tensor-power reflection.

    sigma_l sends alpha_l to -alpha_l and alpha_j to alpha_j - c alpha_l,
    c = c_{l,j}.  So a tuple over {l, j} with k' entries j receives
    (-c)**(k-k') * (-1)**(d-k) times v[k] from each of the C(d-k', k-k')
    tuples with k >= k' entries j that map onto it, a sum that depends
    on k' only: the image stays in the two-index span and is constant
    on aggregate orbits.
    """
    for index in (l, j):
        if not 1 <= index <= rank:
            raise InvalidArguments(f"index {index} out of range 1..{rank}")
    if l == j:
        raise InvalidArguments("reflection needs two distinct indices")
    _check_cartan_row(rank, l, tuple(c_row))
    c = c_row[j - 1]
    d = v.degree
    return GammaVector(d, tuple(
        sum(
            math.comb(d - kp, k - kp) * (-c) ** (k - kp) * (-1) ** (d - k)
            * v.doubled[k]
            for k in range(kp, d + 1)
        )
        for kp in range(d + 1)
    ))


PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
WIDE_MODULI = (2**64 + 13, 2**64, 2**89 - 1)


def _largest_modulus_in_words(degree, words):
    """Largest M with (M-1) * M**degree < 2**(64 * words): the worst
    slot of an all-(M-1) tensor reflected with |c| = M - 1 then fills
    `words` 64-bit words to the top bit."""
    limit = 2 ** (64 * words)
    lo, hi = 2, 2 ** (64 * words // (degree + 1) + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid - 1) * mid**degree < limit:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestReflect:
    def test_diagonal_entry_unchanged_for_even_degree(self):
        rng = random.Random(2)
        for _ in range(10):
            t = random_tensor(rng, degree=4, rank=2)
            row = (2, -rng.randint(0, 3))
            image = reflect(t, 1, row)
            idx = (1,) * 4
            assert image.entry(idx) == t.entry(idx)

    def test_reflected_aggregates_and_erratum(self, zeta11):
        c = cartan_matrix(zeta11)
        image = reflect(zeta11, 1, c.row(1))
        computed = aggregate_profile(image, 1, 2)
        assert computed == (1, 9, 20, 12, 11)
        assert computed == reflected_aggregates_oracle(
            aggregate_profile(zeta11, 1, 2), -3, 4, 22
        )
        # the printed tuple differs by a uniform extra factor
        printed = (2, 10, 21, 13, 12)
        assert computed != printed
        assert {(p - q) % 22 for p, q in zip(printed, computed)} == {1}

    def test_zero_row_negates_odd_orbits(self):
        rng = random.Random(9)
        for _ in range(10):
            t = random_rank2_profile_tensor(rng, 12, 4)
            image = reflect(t, 1, (2, 0))
            before = aggregate_profile(t, 1, 2)
            after = aggregate_profile(image, 1, 2)
            for k in range(5):
                assert after[k] == (-1) ** (4 - k) * before[k] % 12

    def test_oracle_on_random_profiles(self):
        rng = random.Random(31)
        for _ in range(20):
            M = rng.randint(2, 26)
            t = random_rank2_profile_tensor(rng, M, 4)
            c = -rng.randint(0, 4)
            image = reflect(t, 1, (2, c))
            assert aggregate_profile(image, 1, 2) == reflected_aggregates_oracle(
                aggregate_profile(t, 1, 2), c, 4, M
            )

    def test_matches_the_tensor_power_expansion(self, zeta11, zeta3):
        """Besides the examples: ranks 1-4 and degrees 2-6 (two tensors
        at rank 4, degree 6), with moduli 1, 2, primes, one up to 30 and
        one above 2**64 per shape, and off-diagonal |c_i| of 0, 1, a
        random value or M - 1, so that the packed slots of reflect span
        one 64-bit word or several."""
        rng = random.Random(17)
        cases = [(t, l, 5) for t in (zeta11, zeta3)
                 for l in range(1, t.rank + 1)]
        for rank in (1, 2, 3, 4):
            for degree in range(2, 7):
                moduli = (1, 2, rng.choice(PRIMES), rng.choice(PRIMES),
                          rng.randint(2, 30), rng.choice(WIDE_MODULI))
                if rank == 4 and degree > 4:
                    moduli = moduli[-2:]
                for M in moduli:
                    t = random_tensor(rng, modulus=M, rank=rank, degree=degree)
                    cases.append((t, rng.randint(1, rank), M - 1))
        widths = Counter()
        for t, l, largest in cases:
            row = [-rng.choice((0, 1, rng.randint(0, largest), largest))
                   for _ in range(t.rank)]
            row[l - 1] = 2
            assert reflect(t, l, row) == reflect_by_expansion(t, l, row), (
                t, l, row)
            gain = max([-c for c in row if c <= 0], default=0)
            widths[(t.modulus - 1) * (1 + gain) ** t.degree >= 2**64] += 1
        assert widths[False] and widths[True]

    def test_largest_slot_reaches_the_word_boundary_without_carry(self):
        """Every entry M - 1 and every off-diagonal |c| = M - 1: the
        slot whose index avoids l holds (M - 1) * M**d after the axis
        passes, which for these M fills one or two words to the top
        bit (and for M + 1 would not fit).  A carry into the next slot
        would change an entry mod M."""
        cases = 0
        for rank, degree in ((2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6)):
            for words in (1, 2):
                top_modulus = _largest_modulus_in_words(degree, words)
                for M in (top_modulus, top_modulus + 1):
                    worst = (M - 1) * M**degree
                    fits = M == top_modulus
                    assert (worst.bit_length() == 64 * words) == fits
                    t = SqrtBraidingTensor(
                        rank, degree, M, [M - 1] * rank**degree
                    )
                    for l in range(1, rank + 1):
                        row = [2 if i == l else 1 - M
                               for i in range(1, rank + 1)]
                        assert reflect(t, l, row) == reflect_by_expansion(
                            t, l, row
                        ), (M, rank, degree, l)
                        cases += 1
        assert cases == 60

    def test_double_reflection_is_identity(self, zeta11, zeta3):
        for tensor in (zeta11, zeta3):
            c = cartan_matrix(tensor)
            for l in range(1, tensor.rank + 1):
                image = reflect(tensor, l, c.row(l))
                back = reflect(image, l, cartan_matrix(image).row(l))
                assert back == tensor

    def test_invalid_row_rejected(self, zeta11):
        with pytest.raises(InvalidArguments):
            reflect(zeta11, 1, (1, -3))
        with pytest.raises(InvalidArguments):
            reflect(zeta11, 1, (2, 3))

    def test_invalid_row_messages_match_the_expansion(self):
        """Both reflections reject a row with the message of
        _sigma_columns, for the first of its faults."""
        v = GammaVector(2, (1, 2, 3))
        for rank, l, row in [
            (2, 1, (2, -1, 0)), (3, 2, (2, -1)), (2, 1, (1, -3)),
            (2, 2, (-1, 3)), (2, 1, (2, 3)), (3, 2, (1, 2, 0)),
            (3, 3, (-2, 1, 2)), (3, 1, (2, 0, 5)), (3, 2, (1, 3, 1)),
        ]:
            tensor = random_tensor(random.Random(rank), 5, rank, 2)
            with pytest.raises(InvalidArguments) as expected:
                _sigma_columns(rank, l, row)
            with pytest.raises(InvalidArguments) as raised:
                reflect(tensor, l, row)
            assert str(raised.value) == str(expected.value), (rank, l, row)
            with pytest.raises(InvalidArguments) as raised:
                reflect_in_gamma_basis(v, l, l % rank + 1, row, rank)
            assert str(raised.value) == str(expected.value), (rank, l, row)

    def test_rank2_reflection_depends_only_on_aggregates(self):
        rng = random.Random(41)
        for _ in range(10):
            M, d = rng.randint(2, 18), 4
            profile = [rng.randrange(M) for _ in range(d + 1)]
            lift = SqrtBraidingTensor.from_rank2_profile(M, d, profile)
            import itertools

            entries = {}
            leftover = list(profile)
            for tup in itertools.product((1, 2), repeat=d):
                k = sum(1 for i in tup if i == 2)
                share = rng.randrange(M)
                entries[tup] = share
                leftover[k] = (leftover[k] - share) % M
            for k in range(d + 1):
                rep = (1,) * (d - k) + (2,) * k
                entries[rep] = (entries[rep] + leftover[k]) % M
            other = SqrtBraidingTensor.from_entries(M, 2, d, entries)
            row = (2, -rng.randint(0, 3))
            assert aggregate_profile(reflect(lift, 1, row), 1, 2) == (
                aggregate_profile(reflect(other, 1, row), 1, 2)
            )


class TestEigenvectors:
    def test_fixed_and_negated_parts(self, zeta11, zeta7):
        for tensor in (zeta11, zeta7):
            c12 = cartan_entry(tensor, 1, 2)
            m = -c12
            row = (2, c12)
            vecs = rosso_vectors(tensor.degree, m)
            assert reflect_in_gamma_basis(vecs.v, 1, 2, row) == vecs.v
            assert reflect_in_gamma_basis(vecs.w, 1, 2, row) == -vecs.w
            assert reflect_in_gamma_basis(vecs.s, 1, 2, row) == vecs.s

    def test_closed_form_matches_the_expansion(self, zeta11, zeta7):
        rng = random.Random(53)
        cases = []
        for tensor in (zeta11, zeta7):
            c12 = cartan_entry(tensor, 1, 2)
            vecs = rosso_vectors(tensor.degree, -c12)
            cases += [(v, 1, 2, (2, c12), 2) for v in (vecs.v, vecs.w, vecs.s)]
        for _ in range(300):
            rank = rng.randint(2, 4)
            d = rng.randint(2, 6)
            l, j = rng.sample(range(1, rank + 1), 2)
            row = [-rng.randint(0, 5) for _ in range(rank)]
            row[l - 1] = 2
            v = GammaVector(d, tuple(rng.randint(-9, 9) for _ in range(d + 1)))
            cases.append((v, l, j, row, rank))
        for v, l, j, row, rank in cases:
            assert reflect_in_gamma_basis(v, l, j, row, rank) == (
                reflect_in_gamma_basis_by_expansion(v, l, j, row, rank)
            ), (v, l, j, row, rank)

    def test_indices_outside_the_pair_are_rejected(self):
        v = GammaVector(2, (1, 2, 3))
        with pytest.raises(InvalidArguments, match="out of range 1..2"):
            reflect_in_gamma_basis(v, 1, 3, (2, -1), 2)
        with pytest.raises(InvalidArguments, match="out of range 1..2"):
            reflect_in_gamma_basis(v, 0, 2, (2, -1), 2)
        with pytest.raises(InvalidArguments, match="2 at the reflecting"):
            reflect_in_gamma_basis(v, 1, 2, (1, -1))

    def test_equal_indices_are_rejected(self):
        with pytest.raises(InvalidArguments, match="two distinct indices"):
            reflect_in_gamma_basis(GammaVector(2, (1, 2, 3)), 1, 1, (2, -1))

    def test_entry_invariant_under_reflection(self, zeta11, zeta7):
        for tensor in (zeta11, zeta7):
            c = cartan_matrix(tensor)
            for l, j in ((1, 2), (2, 1)):
                image = reflect(tensor, l, c.row(l))
                assert cartan_entry(image, l, j) == c.entry(l, j)


class TestGraphGeneration:
    def test_zeta11_orbit(self, zeta11):
        graph = generate_cartan_graph(zeta11)
        assert len(graph) == 14
        assert validate_axioms(graph).ok

    def test_zeta3_orbit(self, zeta3):
        graph = generate_cartan_graph(zeta3)
        assert len(graph) == 16
        assert validate_axioms(graph).ok

    def test_trivial_tensor_single_object(self):
        t = SqrtBraidingTensor.from_entries(10, 2, 2, {(1, 1): 3, (2, 2): 7})
        graph = generate_cartan_graph(t)
        assert len(graph) == 1
        assert graph.object_list()[0].cartan.rows == ((2, 0), (0, 2))

    def test_object_limit(self, zeta11):
        with pytest.raises(ObjectLimitExceeded):
            generate_cartan_graph(zeta11, max_objects=3)

    def test_object_limit_counts_the_start(self, a2):
        trivial = SqrtBraidingTensor.from_entries(
            10, 2, 2, {(1, 1): 3, (2, 2): 7}
        )
        for tensor, size in ((a2, 2), (trivial, 1)):
            assert len(generate_cartan_graph(tensor, max_objects=size)) == size
            limit = size - 1
            with pytest.raises(
                ObjectLimitExceeded, match=f"closure exceeded {limit} objects"
            ):
                generate_cartan_graph(tensor, max_objects=limit)

    def test_objects_in_discovery_order(self, zeta11):
        graph = generate_cartan_graph(zeta11)
        assert graph.objects[0].tensor == zeta11
        assert [len(targets) for targets in graph.edges] == [2] * 14
        # positions are discovery order: scanning the edge table in
        # order meets the new positions as 1, 2, 3, ...
        seen = [0]
        for targets in graph.edges:
            seen += [t for t in targets if t not in seen]
        assert seen == list(range(14))

    def test_axioms_check_c1_and_c2_per_edge(self, zeta3):
        graph = generate_cartan_graph(zeta3)
        report = validate_axioms(graph)
        assert report.ok
        assert [c.name for c in report.checks[:2]] == [
            "C1 object 0 index 1", "C2 object 0 index 1",
        ]
        assert len(report.checks) == 2 * len(graph) * graph.rank
        assert all(c.name[:2] in ("C1", "C2") for c in report.checks)

    def test_axiom_violation_names_the_first_failure(self):
        t = SqrtBraidingTensor.from_rank2_profile(8, 4, [2, 6, 4, 3, 3])
        with pytest.raises(AxiomViolation) as err:
            generate_cartan_graph(t, m_max=60, max_objects=600)
        assert str(err.value) == (
            "closure violates the Cartan-graph axioms "
            "(C1 object 3 index 1, 16 failed checks)"
        )
        assert err.value.failures[0][0] == "C1 object 3 index 1"

    def test_corrupted_edges_fail_c1(self, zeta11):
        graph = generate_cartan_graph(zeta11)
        graph.edges[0] = (0,) + graph.edges[0][1:]
        report = validate_axioms(graph)
        assert not report.ok
        assert any("C1" in c.name for c in report.failures())

    def test_degree_four_c2_counterexample(self):
        """Frozen counterexample: the vanishing condition can fire
        earlier on a reflected tensor, so the closure of this profile is
        not a Cartan graph; generation must say so loudly."""
        t = SqrtBraidingTensor.from_rank2_profile(8, 4, [2, 6, 4, 3, 3])
        with pytest.raises(AxiomViolation) as err:
            generate_cartan_graph(t, m_max=60, max_objects=600)
        assert any("C2" in c.name for c in err.value.failures)
        # the unvalidated closure contains an object with these
        # aggregates; the violation itself only depends on them: the
        # entry is -3, yet the reflected tensor vanishes already at m=2
        graph = generate_cartan_graph(
            t, m_max=60, max_objects=600, validate=False
        )
        profiles = {
            aggregate_profile(obj.tensor, 1, 2)
            for obj in graph.object_list()
        }
        assert (1, 1, 7, 5, 4) in profiles
        witness = SqrtBraidingTensor.from_rank2_profile(8, 4, [1, 1, 7, 5, 4])
        assert cartan_entry(witness, 1, 2) == -3
        image = reflect(witness, 1, (2, -3))
        assert aggregate_profile(image, 1, 2) == (1, 3, 6, 2, 6)
        assert cartan_entry(image, 1, 2) == -2


def closure_reflecting_every_edge(
    tensor, m_max, max_objects, reflect_kernel=reflect,
    cartan_kernel=cartan_matrix,
):
    """Reference closure: every object is reflected at every index, so
    each edge is computed from both of its ends."""
    graph = CartanGraph(tensor.rank)
    positions = {}

    def position(t):
        pos = positions.setdefault(t.flat(), len(graph.objects))
        if pos == len(graph.objects):
            if pos >= max_objects:
                raise ObjectLimitExceeded(
                    f"closure exceeded {max_objects} objects"
                )
            graph.objects.append(CartanGraphObject(t, cartan_kernel(t, m_max)))
        return pos

    position(tensor)
    for obj in graph.objects:
        graph.edges.append(tuple(
            position(reflect_kernel(obj.tensor, i, obj.cartan.row(i)))
            for i in range(1, graph.rank + 1)
        ))
    return graph


def closure_outcome(build, tensor, m_max=60, max_objects=600):
    """Objects (tensor, Cartan rows) and edges, or the error type and
    text."""
    try:
        graph = build(tensor, m_max=m_max, max_objects=max_objects)
    except (UndefinedCartanEntry, ObjectLimitExceeded) as err:
        return type(err), str(err)
    objects = [(obj.tensor, obj.cartan.rows) for obj in graph.objects]
    return objects, graph.edges


def unvalidated_closure(tensor, m_max, max_objects):
    return generate_cartan_graph(
        tensor, m_max=m_max, max_objects=max_objects, validate=False
    )


def degree_four_counterexample():
    return SqrtBraidingTensor.from_rank2_profile(8, 4, [2, 6, 4, 3, 3])


class TestEachEdgeOnce:
    """The closure reads an edge's reverse from sigma_i^2 = id when the
    Cartan rows at its two ends agree, and reflects otherwise."""

    def assert_same_closure(self, tensor, **bounds):
        expected = closure_outcome(closure_reflecting_every_edge, tensor, **bounds)
        assert closure_outcome(unvalidated_closure, tensor, **bounds) == expected
        return expected

    def test_double_reflection_with_any_valid_row(self):
        rng = random.Random(53)
        for _ in range(40):
            rank, degree = rng.randint(2, 4), rng.choice((2, 4, 6))
            t = random_tensor(rng, rank=rank, degree=degree)
            l = rng.randint(1, rank)
            row = [-rng.randint(0, 6) for _ in range(rank)]
            row[l - 1] = 2
            assert reflect(reflect(t, l, row), l, row) == t

    def test_examples_match_the_every_edge_loop(self, a2, zeta3, zeta7, zeta11):
        for tensor, size in ((a2, 2), (zeta3, 16), (zeta7, 10), (zeta11, 14)):
            objects, _ = self.assert_same_closure(tensor, m_max=1000)
            assert len(objects) == size

    def test_every_object_limit(self, zeta3, zeta11):
        for tensor, size in ((zeta11, 14), (zeta3, 16)):
            for limit in range(size + 1):
                outcome = self.assert_same_closure(tensor, max_objects=limit)
                assert (outcome[0] is ObjectLimitExceeded) == (limit < size)

    def test_seeded_profiles_and_rank3_tensors(self):
        rng = random.Random(211)
        kinds = []
        for _ in range(50):
            tensor = random_rank2_profile_tensor(
                rng, rng.randint(2, 22), rng.choice((2, 4, 6))
            )
            outcome = self.assert_same_closure(tensor, max_objects=40)
            kinds.append(outcome[0] if isinstance(outcome[0], type) else "ok")
        for _ in range(10):
            self.assert_same_closure(sparse_rank3_tensor(rng), max_objects=60)
        assert {"ok", UndefinedCartanEntry, ObjectLimitExceeded} <= set(kinds)

    def test_counterexample_reflects_where_rows_differ(self):
        objects, edges = self.assert_same_closure(degree_four_counterexample())
        assert len(objects) == 20
        graph = unvalidated_closure(
            degree_four_counterexample(), m_max=60, max_objects=600
        )
        labels = [c.name for c in validate_axioms(graph).failures()]
        assert any(label.startswith("C1") for label in labels)
        assert any(label.startswith("C2") for label in labels)

    def test_failure_notes_only_on_failing_checks(self, a2, zeta3, zeta7, zeta11):
        for tensor in (a2, zeta3, zeta7, zeta11):
            report = validate_axioms(generate_cartan_graph(tensor, m_max=1000))
            assert report.ok
            assert [c.note for c in report.checks] == [""] * len(report.checks)
        graph = unvalidated_closure(degree_four_counterexample(), 60, 600)
        report = validate_axioms(graph)
        notes = {"C1": "reflection is not an involution",
                 "C2": "Cartan row changed across the edge"}
        assert {c.name[:2] for c in report.failures()} == {"C1", "C2"}
        for check in report.checks:
            assert check.note == ("" if check.ok else notes[check.name[:2]])

    def test_reflect_calls(self, monkeypatch, a2, zeta3, zeta7, zeta11):
        calls = []
        original = weylg.groupoid.reflect

        def counting(tensor, l, c_row):
            calls.append(l)
            return original(tensor, l, c_row)

        monkeypatch.setattr(weylg.groupoid, "reflect", counting)
        # one call per edge; the every-edge loop makes twice as many
        for tensor, expected in ((a2, 2), (zeta7, 10), (zeta11, 14), (zeta3, 24)):
            calls.clear()
            generate_cartan_graph(tensor)
            assert len(calls) == expected
        # where the rows across an edge differ, both ends are reflected:
        # 24 calls for 20 edges (the every-edge loop makes 40)
        calls.clear()
        unvalidated_closure(degree_four_counterexample(), 60, 600)
        assert len(calls) == 24


def closure_from_reference_kernels(tensor, m_max, max_objects):
    return closure_reflecting_every_edge(
        tensor, m_max, max_objects, reflect_kernel=reflect_by_expansion,
        cartan_kernel=cartan_matrix_by_entries,
    )


class TestReferenceKernels:
    """The closure against one built from reference kernels alone: the
    tensor-power expansion for every reflection and cartan_entry for
    every matrix entry."""

    def test_seeded_profiles_and_sparse_rank3_tensors(self):
        rng = random.Random(181)
        kinds = Counter()
        cases = [
            (random_rank2_profile_tensor(rng, rng.randint(2, 22), degree), 24)
            for degree in (4, 6)
            for _ in range(12)
        ]
        cases += [(sparse_rank3_tensor(rng, degree=4), 20) for _ in range(4)]
        for tensor, limit in cases:
            expected = closure_outcome(
                closure_from_reference_kernels, tensor, max_objects=limit
            )
            assert closure_outcome(
                unvalidated_closure, tensor, max_objects=limit
            ) == expected
            kind = expected[0] if isinstance(expected[0], type) else "ok"
            kinds[tensor.rank, tensor.degree, kind] += 1
        for degree in (4, 6):
            for kind in ("ok", UndefinedCartanEntry, ObjectLimitExceeded):
                assert kinds[2, degree, kind]
        assert kinds[3, 4, "ok"]


class TestDynkin:
    def test_zeta3_triangle(self, zeta3):
        diagram = dynkin_diagram(zeta3)
        # vertices all -1 = mu^6, edges all zeta = mu^4
        assert diagram.vertex_labels == (6, 6, 6)
        assert diagram.edges == ((1, 2, 4), (1, 3, 4), (2, 3, 4))

    def test_diagonal_braiding_edgeless(self):
        t = SqrtBraidingTensor.from_entries(10, 3, 2, {(1, 1): 1, (2, 2): 2})
        assert dynkin_diagram(t).edges == ()

    def test_reflected_labels_stay_in_reference_set(self, zeta3):
        graph = generate_cartan_graph(zeta3)
        labels = set()
        for obj in graph.object_list():
            diagram = dynkin_diagram(obj.tensor)
            labels.update(diagram.vertex_labels)
            labels.update(e for _, _, e in diagram.edges)
        # zeta = mu^4, -1 = mu^6, zeta^-1 = mu^8
        assert labels <= {4, 6, 8}

    def test_degree_restriction(self, zeta11):
        with pytest.raises(InvalidArguments):
            dynkin_diagram(zeta11)
