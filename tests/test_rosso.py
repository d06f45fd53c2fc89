import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rank2_profile_tensor, random_tensor
from weylg.errors import InvalidArguments, OddDegreeError, UndefinedCartanEntry
from weylg.groupoid import reflect
from weylg.lattice import SqrtBraidingTensor, aggregate_profile, pairing
from weylg.rosso import (
    DEFAULT_M_MAX,
    GeneralizedCartanMatrix,
    cartan_entry,
    cartan_matrix,
    ef_coeffs,
    rosso_condition,
    rosso_diagnostics,
    rosso_vectors,
)


def classical_entry(q_ii, q_mixed, modulus, m_max=200):
    """Independent oracle for degree 2 on mu-exponents: smallest m with
    1 + q + .. + q^m = 0 or q^m * q_mixed = 1, via direct enumeration."""
    for m in range(m_max + 1):
        power_sum_zero = (
            (m + 1) * q_ii % modulus == 0 and q_ii % modulus != 0
        )
        if power_sum_zero or (m * q_ii + q_mixed) % modulus == 0:
            return -m
    raise AssertionError("no classical entry found")


# _vanishes and the m-loop of cartan_entry, copied verbatim as
# references: a faster search must keep their values and errors


def _vanishes_reference(profile, modulus, vecs):
    if pairing(vecs.w.doubled, profile, modulus) == 0:
        return True
    return (
        pairing(vecs.v.doubled, profile, modulus) == 0
        and pairing(vecs.s.doubled, profile, modulus) != 0
    )


def cartan_entry_reference(tensor, l, j, m_max=DEFAULT_M_MAX):
    if m_max < 0:
        raise InvalidArguments("m_max must be >= 0")
    profile = aggregate_profile(tensor, l, j)
    M = tensor.modulus
    for m in range(min(m_max, M - 1) + 1):
        if _vanishes_reference(profile, M, rosso_vectors(tensor.degree, m)):
            return -m
    raise UndefinedCartanEntry((l, j), m_max, period=M)


def _entry_outcome(entry, tensor, l, j, m_max):
    try:
        return entry(tensor, l, j, m_max)
    except UndefinedCartanEntry as err:
        return ("undefined", err.pair, err.m_max, str(err))


class TestEfCoeffs:
    def test_e_at_m_zero(self):
        assert ef_coeffs(0, 4)[0] == 1
        assert ef_coeffs(0, 3)[0] == 0

    def test_sum_identity(self):
        for m in range(6):
            for k in range(8):
                e, f = ef_coeffs(m, k)
                assert e + f == (m + 1) ** k - m**k

    def test_f_at_k_two_is_classical_factor(self):
        for m in range(8):
            assert ef_coeffs(m, 2)[1] == 2 * m


class TestRossoVectors:
    def test_degree_four_coordinates(self):
        # doubled coordinates of (2m^3+3m^2+2m+1, 1.5m^2+1.5m, m+1, 0, 0)
        for m in range(6):
            rv = rosso_vectors(4, m)
            expected = (
                4 * m**3 + 6 * m**2 + 4 * m + 2,
                3 * m**2 + 3 * m,
                2 * m + 2,
                0,
                0,
            )
            assert rv.v.doubled == expected

    def test_degree_three_exponent_pattern(self):
        # chi(v_m) = q0^(3m(m+1)/2) q1^(m+1); doubled exponents double that
        for m in range(6):
            rv = rosso_vectors(3, m)
            assert rv.v.doubled == (3 * m * (m + 1), 2 * (m + 1), 0, 0)
            assert rv.w.doubled == (3 * m * (m + 1) + 2, 2 * m, 2, 0)

    def test_degree_two_is_classical(self):
        for m in range(6):
            rv = rosso_vectors(2, m)
            assert rv.v.doubled == (2 * (m + 1), 0, 0)
            assert rv.w.doubled == (2 * m, 2, 0)

    def test_sum_and_scaling_invariants(self):
        for d in range(2, 7):
            for m in range(5):
                rv = rosso_vectors(d, m)
                # u_m = v_m + w_m, the difference of tensor powers
                assert (rv.v + rv.w).doubled == tuple(
                    2 * ((m + 1) ** (d - nu) - m ** (d - nu)) for nu in range(d + 1)
                )
                assert rv.v.doubled == rv.s.scale(m + 1).doubled

    def test_cached_per_degree_and_m_and_invalid_arguments_still_raise(self):
        assert rosso_vectors(5, 3) is rosso_vectors(5, 3)
        for _ in range(2):
            with pytest.raises(InvalidArguments, match="degree must be >= 2"):
                rosso_vectors(1, 0)
            with pytest.raises(InvalidArguments, match="m must be >= 0"):
                rosso_vectors(2, -1)


class TestRossoCondition:
    def test_eleventh_root_smallest_m_is_three(self, zeta11):
        results = [rosso_condition(zeta11, 1, 2, m) for m in range(4)]
        assert results == [False, False, False, True]

    def test_trivial_mixed_part_vanishes_at_zero(self):
        t = SqrtBraidingTensor.from_entries(6, 2, 2, {(1, 1): 2, (2, 2): 1})
        assert rosso_condition(t, 1, 2, 0)

    def test_reflected_tensor_condition_via_w(self, zeta11):
        c = cartan_matrix(zeta11)
        image = reflect(zeta11, 1, c.row(1))
        rows = rosso_diagnostics(image, 2, 1, range(2))
        assert not rosso_condition(image, 2, 1, 0)
        assert rosso_condition(image, 2, 1, 1)
        assert rows[1].chi_w == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_degree_two_matches_classical_condition(self, seed):
        rng = random.Random(seed)
        M = rng.randint(2, 24)
        t = random_tensor(rng, modulus=M, rank=2, degree=2)
        q_ii = 2 * t.entry((1, 1))
        q_mixed = 2 * (t.entry((1, 2)) + t.entry((2, 1)))
        for m in range(6):
            classical = (
                (m + 1) * q_ii % M == 0 and q_ii % M != 0
            ) or (m * q_ii + q_mixed) % M == 0
            assert rosso_condition(t, 1, 2, m) == classical


class TestCartanEntries:
    def test_eleventh_root_entry(self, zeta11):
        assert cartan_entry(zeta11, 1, 2) == -3

    def test_zeta3_entries_match_classical_oracle(self, zeta3):
        M = zeta3.modulus
        for l in range(1, 4):
            for j in range(1, 4):
                if l == j:
                    continue
                q_ii = 2 * zeta3.entry((l, l))
                q_mixed = 2 * (zeta3.entry((l, j)) + zeta3.entry((j, l)))
                assert cartan_entry(zeta3, l, j) == classical_entry(
                    q_ii, q_mixed, M
                )

    def test_trivial_aggregates_give_zero(self):
        t = SqrtBraidingTensor.from_entries(8, 2, 2, {(1, 1): 3, (2, 2): 5})
        assert cartan_entry(t, 1, 2) == 0

    def test_undefined_entry_raises_with_pair(self):
        t = SqrtBraidingTensor.from_entries(
            14, 2, 2, {(1, 1): 1, (2, 2): 1, (1, 2): 4}
        )
        with pytest.raises(UndefinedCartanEntry) as err:
            cartan_entry(t, 1, 2, m_max=2)
        assert err.value.pair == (1, 2)
        assert err.value.m_max == 2
        assert str(err.value) == "no Cartan entry for pair (1, 2) with m <= 2"

    def test_undefined_entry_over_a_whole_period_is_a_proof(self):
        # q_11 = 1 and q_12 q_21 = mu^2: the classical condition never holds
        t = SqrtBraidingTensor.from_entries(3, 2, 2, {(1, 2): 1})
        for m_max in (2, 1000):
            with pytest.raises(UndefinedCartanEntry) as err:
                cartan_entry(t, 1, 2, m_max=m_max)
            assert err.value.pair == (1, 2)
            assert err.value.m_max == m_max
            assert str(err.value) == (
                "no Cartan entry for pair (1, 2): the vanishing condition "
                "has period 3 in m and fails for every m <= 2"
            )

    def test_matches_a_full_scan_of_the_condition(self):
        """The period-bounded search against rosso_condition at every
        m <= m_max, with m_max = 1000 or a bound below M - 1.  Half the
        diagonal entries are zeroed: at degree 2 that makes q_ii = 1,
        where most entries are undefined."""
        rng = random.Random(61)
        undefined = Counter()
        short = 0
        for _ in range(100):
            M = rng.randint(2, 40)
            rank = rng.randint(2, 4)
            degree = rng.choice((2, 4, 6) if rank < 4 else (2, 4))
            t = random_tensor(rng, modulus=M, rank=rank, degree=degree)
            entries = dict(zip(t.index_tuples(), t.flat()))
            for i in range(1, rank + 1):
                if rng.random() < 0.5:
                    entries[(i,) * degree] = 0
            t = SqrtBraidingTensor.from_entries(M, rank, degree, entries)
            m_max = 1000 if rng.random() < 0.8 else rng.randint(0, M - 2)
            short += m_max < M - 1
            for l in range(1, rank + 1):
                for j in range(1, rank + 1):
                    if l == j:
                        continue
                    scan = next(
                        (-m for m in range(m_max + 1)
                         if rosso_condition(t, l, j, m)),
                        None,
                    )
                    try:
                        entry = cartan_entry(t, l, j, m_max)
                    except UndefinedCartanEntry as err:
                        assert err.m_max == m_max
                        assert ("period" in str(err)) == (m_max >= M - 1)
                        entry = None
                        if m_max == 1000:
                            undefined[degree] += 1
                    assert entry == scan
        assert sum(undefined.values()) >= 100
        assert all(undefined[d] for d in (2, 4, 6))
        assert short >= 10

    def test_matches_the_reference_m_loop(self):
        """The search against the reference loop, at degrees 2, 4 and 6
        and M <= 40, with m_max below M - 1 and at least M - 1."""
        rng = random.Random(97)
        outcomes = Counter()
        for _ in range(150):
            M = rng.randint(2, 40)
            degree = rng.choice((2, 4, 6))
            rank = rng.randint(2, 3)
            t = random_tensor(rng, modulus=M, rank=rank, degree=degree)
            entries = dict(zip(t.index_tuples(), t.flat()))
            for i in range(1, rank + 1):
                if rng.random() < 0.5:
                    entries[(i,) * degree] = 0
            t = SqrtBraidingTensor.from_entries(M, rank, degree, entries)
            for m_max in (rng.randint(0, M - 2), M - 1, rng.randint(M, 1000)):
                for l in range(1, rank + 1):
                    for j in range(1, rank + 1):
                        if l == j:
                            continue
                        got = _entry_outcome(cartan_entry, t, l, j, m_max)
                        expected = _entry_outcome(
                            cartan_entry_reference, t, l, j, m_max
                        )
                        assert got == expected
                        outcomes[degree, isinstance(got, tuple),
                                 m_max >= M - 1] += 1
        assert all(
            outcomes[d, undefined, whole]
            for d in (2, 4, 6)
            for undefined in (False, True)
            for whole in (False, True)
        )

    def test_matches_the_reference_m_loop_on_large_moduli(self):
        """With M above DEFAULT_M_MAX and m_max on either side of it,
        first hits past m = DEFAULT_M_MAX agree with the reference."""
        rng = random.Random(131)
        deep = 0
        for _ in range(40):
            M = rng.randint(DEFAULT_M_MAX + 2, 1400)
            t = random_rank2_profile_tensor(rng, M, rng.choice((2, 4, 6)))
            for m_max in (DEFAULT_M_MAX - 1, DEFAULT_M_MAX, DEFAULT_M_MAX + 1,
                          M - 2, 5000):
                for l, j in ((1, 2), (2, 1)):
                    got = _entry_outcome(cartan_entry, t, l, j, m_max)
                    assert got == _entry_outcome(
                        cartan_entry_reference, t, l, j, m_max
                    )
                    deep += (
                        not isinstance(got, tuple) and got < -DEFAULT_M_MAX
                    )
        assert deep >= 8
        # degree 2, q_11 = mu^2 and q_12 q_21 = mu^(-2 target): the
        # classical condition first holds at m = target, around the
        # default bound
        M = 1201
        for target in range(DEFAULT_M_MAX - 1, DEFAULT_M_MAX + 3):
            t = SqrtBraidingTensor.from_entries(
                M, 2, 2, {(1, 1): 1, (1, 2): M - target}
            )
            assert cartan_entry(t, 1, 2, 5000) == -target
            for m_max in (target - 1, target):
                assert _entry_outcome(cartan_entry, t, 1, 2, m_max) == (
                    _entry_outcome(cartan_entry_reference, t, 1, 2, m_max)
                )

    def test_search_stops_at_the_first_hit(self):
        """A hit at m = 0 on a large modulus builds the vectors of m = 0
        alone."""
        t = SqrtBraidingTensor.from_entries(997, 2, 6, {})
        rosso_vectors.cache_clear()
        assert cartan_entry(t, 1, 2) == 0
        assert rosso_vectors.cache_info().currsize == 1

    def test_zero_pattern_is_symmetric_at_m_zero(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_rank2_profile_tensor(rng, rng.randint(2, 16), 4)
            try:
                c12 = cartan_entry(t, 1, 2, m_max=60)
                c21 = cartan_entry(t, 2, 1, m_max=60)
            except UndefinedCartanEntry:
                continue
            assert (c12 == 0) == (c21 == 0)


class TestCartanMatrix:
    def test_zeta3_matrix(self, zeta3):
        assert cartan_matrix(zeta3).rows == (
            (2, -1, -1),
            (-1, 2, -1),
            (-1, -1, 2),
        )

    def test_zeta11_matrix(self, zeta11):
        assert cartan_matrix(zeta11).rows == ((2, -3), (-3, 2))

    def test_diagonal_only_tensor(self):
        t = SqrtBraidingTensor.from_entries(
            10, 3, 2, {(1, 1): 1, (2, 2): 3, (3, 3): 7}
        )
        c = cartan_matrix(t)
        assert all(
            c.entry(i, j) == (2 if i == j else 0)
            for i in range(1, 4)
            for j in range(1, 4)
        )

    def test_negative_m_max_is_invalid_at_every_rank(self):
        rank1 = SqrtBraidingTensor.from_entries(7, 1, 2, {(1, 1): 3})
        assert cartan_matrix(rank1, m_max=0).rows == ((2,),)
        for t in (rank1, SqrtBraidingTensor.from_entries(7, 2, 2, {})):
            with pytest.raises(InvalidArguments, match="m_max must be >= 0"):
                cartan_matrix(t, m_max=-3)

    def test_odd_degree_rejected(self):
        t = SqrtBraidingTensor.from_entries(6, 2, 3, {(1, 1, 1): 1})
        with pytest.raises(OddDegreeError):
            cartan_matrix(t)


class TestDiagnostics:
    def test_eleventh_root_first_table(self, zeta11):
        rows = rosso_diagnostics(zeta11, 1, 2, range(4))
        assert [(r.chi_v, r.chi_w, r.chi_s) for r in rows] == [
            (4, 4, 4),
            (4, 4, 13),
            (2, 2, 8),
            (0, 0, 11),
        ]

    def test_eleventh_root_second_table(self, zeta11):
        image = reflect(zeta11, 1, cartan_matrix(zeta11).row(1))
        rows = rosso_diagnostics(image, 2, 1, range(2))
        assert [(r.chi_v, r.chi_w, r.chi_s) for r in rows] == [
            (18, 20, 18),
            (20, 0, 10),
        ]

    def test_zero_tensor_all_exponents_zero(self):
        t = SqrtBraidingTensor.from_entries(9, 2, 4, {})
        rows = rosso_diagnostics(t, 1, 2, range(3))
        assert all((r.chi_v, r.chi_w, r.chi_s) == (0, 0, 0) for r in rows)


class TestGeneralizedCartanMatrix:
    """The constructor is the one guard of the matrix axioms M1/M2."""

    def test_accepts_a_generalized_cartan_matrix(self):
        m = GeneralizedCartanMatrix(((2, -3, 0), (-1, 2, 0), (0, 0, 2)))
        assert m.n == 3 and m.entry(1, 2) == -3 and m.row(2) == (-1, 2, 0)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((2, -1), (-1, 2, 0)), "matrix must be square"),
            (((2, -1), (-1, 3)), r"diagonal entry \(1,1\) is 3, not 2"),
            (((2, 1), (-1, 2)), r"off-diagonal entry \(0,1\) is positive"),
            (((2, -1), (0, 2)), r"zero pattern not symmetric at \(0,1\)"),
        ],
    )
    def test_rejects_each_axiom_violation(self, rows, message):
        with pytest.raises(InvalidArguments, match=f"^{message}$"):
            GeneralizedCartanMatrix(rows)
