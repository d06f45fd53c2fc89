import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tensor
import weylg.laurent
from weylg.lattice import GammaVector, chi_eval
from weylg.laurent import (
    LaurentPoly,
    chi_v_poly,
    g_poly,
    poly_from_gamma,
    product_condition_poly,
    r_poly,
    verify_classical_d2,
    verify_divisibility,
    verify_recursion,
    z_poly,
)
from weylg.rosso import rosso_vectors


def poly_strategy(nvars=3):
    term = st.tuples(
        st.tuples(*([st.integers(-3, 3)] * nvars)), st.integers(-5, 5)
    )
    return st.lists(term, max_size=5).map(
        lambda terms: sum(
            (LaurentPoly.monomial(e, c) for e, c in terms),
            LaurentPoly.zero(nvars),
        )
    )


@settings(max_examples=80, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p + (-p) == LaurentPoly.zero(3)


def test_poly_from_gamma_monomials():
    assert poly_from_gamma(GammaVector.zero(2)) == LaurentPoly.one(3)
    # degree 2: v_1 = 2*gamma_0, i.e. the monomial q0^2
    assert poly_from_gamma(rosso_vectors(2, 1).v) == LaurentPoly.monomial(
        (4, 0, 0)
    )
    # degree 4: s_1 has doubled coordinates (8, 3, 2, 0, 0)
    assert rosso_vectors(4, 1).s.doubled == (8, 3, 2, 0, 0)
    assert poly_from_gamma(rosso_vectors(4, 1).s) == LaurentPoly.monomial(
        (8, 3, 2, 0, 0)
    )


def test_recursion_small_grid():
    for d in (2, 3, 4):
        report = verify_recursion(d, 4)
        assert report.ok, report.counterexample


def test_recursion_negative_control():
    # an off-by-one exponent in the recursion factor must break the step
    d, m = 3, 2
    one = LaurentPoly.one(d + 1)
    wrong_r = r_poly(d, m) * LaurentPoly.monomial((2, 0, 0, 0))
    lhs = product_condition_poly(d, m)
    rhs = wrong_r * product_condition_poly(d, m - 1) + (one - wrong_r) * (
        one - z_poly(d, m)
    )
    assert lhs != rhs


def test_divisibility_small_grid():
    for d in (2, 3, 4):
        report = verify_divisibility(d, 3)
        assert report.ok, report.counterexample


def test_identity_notes_only_on_failing_checks(monkeypatch):
    for d in (2, 3, 4):
        for report in (verify_recursion(d, 4), verify_divisibility(d, 3)):
            assert report.ok
            assert [c.note for c in report.checks] == [""] * len(report.checks)
    # an off-by-one recursion factor breaks every step, and each failing
    # step notes its nonzero difference
    shifted = lambda d, m: r_poly(d, m) * LaurentPoly.monomial((2, 0, 0, 0))
    monkeypatch.setattr(weylg.laurent, "r_poly", shifted)
    report = verify_recursion(3, 2)
    assert not report.ok
    for check in report.checks:
        assert check.ok == (check.note == "")
        assert check.ok or check.note.startswith("difference: ")


def test_degree_two_g_is_the_diagonal_variable():
    for m in range(5):
        assert g_poly(2, m) == LaurentPoly.monomial((2, 0, 0))


def test_degree_four_g3_exponents():
    assert g_poly(4, 3) == LaurentPoly.monomial((44, 9, 2, 0, 0))


def test_classical_reduction():
    assert verify_classical_d2(6).ok


def test_specialization_coherence():
    # the monomial exponent vector of chi(v_m) pairs with the aggregates
    # exactly as the residue engine computes chi
    rng = random.Random(17)
    for _ in range(20):
        t = random_tensor(rng, rank=2)
        d, M = t.degree, t.modulus
        m = rng.randint(0, 4)
        vec = rosso_vectors(d, m)
        poly = chi_v_poly(d, m)
        (exps, coeff), = poly.terms.items()
        assert coeff == 1
        specialized = sum(
            e * chi_eval(t, 1, 2, _unit_gamma(d, i)) for i, e in enumerate(exps)
        ) % M
        assert specialized == chi_eval(t, 1, 2, vec.v)


def _unit_gamma(degree, position):
    coords = [0] * (degree + 1)
    coords[position] = 1
    return GammaVector(degree, tuple(coords))
