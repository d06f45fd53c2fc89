"""Sparse exact Laurent polynomials in the aggregate variables.

Monomials are indexed by integer vectors of length d+1 holding doubled
exponents: coordinate i is the exponent of sqrt(q_i), so q_i itself is
the square of the atomic variable.  This makes every vector and
character appearing in the vanishing-condition identities a genuine
monomial, and the identities can be checked by exact canonical-form
subtraction, independent of any root-of-unity specialization.
"""

from __future__ import annotations

from .errors import InvalidArguments, Report
from .lattice import GammaVector
from .rosso import ef_coeffs, rosso_vectors


class LaurentPoly:
    """Map from doubled-exponent vectors to nonzero integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if c:
                if len(exps) != nvars:
                    raise InvalidArguments("exponent vector has wrong length")
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars):
        return cls.const(nvars, 1)

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            new = terms.get(exps, 0) + c
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return LaurentPoly(self.nvars, terms)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(key, 0) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    del terms[key]
        return LaurentPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise InvalidArguments("only non-negative powers")
        out = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _check(self, other):
        if self.nvars != other.nvars:
            raise InvalidArguments("mixed numbers of variables")

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            mono = " ".join(
                f"r{i}^{e}" for i, e in enumerate(exps) if e
            ) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def poly_from_gamma(v: GammaVector) -> LaurentPoly:
    """chi of a gamma vector as a formal monomial (doubled exponents)."""
    return LaurentPoly.monomial(v.doubled)


def chi_v_poly(d, m):
    return poly_from_gamma(rosso_vectors(d, m).v)


def chi_w_poly(d, m):
    return poly_from_gamma(rosso_vectors(d, m).w)


def g_poly(d, m):
    return poly_from_gamma(rosso_vectors(d, m).s)


def r_poly(d, m):
    exps = [0] * (d + 1)
    for i in range(0, d - 1):
        exps[i] = 2 * ef_coeffs(m, d - i)[0]
    return LaurentPoly.monomial(exps)


def z_poly(d, m):
    exps = [0] * (d + 1)
    for i in range(0, d):
        exps[i] = 2 * ef_coeffs(m, d - i)[1]
    return LaurentPoly.monomial(exps)


def product_condition_poly(d, m):
    """(1 - chi(v_m)) * (1 - chi(w_m)) as an exact polynomial."""
    one = LaurentPoly.one(d + 1)
    return (one - chi_v_poly(d, m)) * (one - chi_w_poly(d, m))


def _record_equal(report, name, lhs, rhs):
    """Record lhs == rhs; a failing check notes the difference."""
    ok = lhs == rhs
    report.record(name, ok, "" if ok else f"difference: {lhs - rhs!r}")


def verify_recursion(d: int, m_max: int) -> Report:
    """Check the product-condition recursion exactly for m <= m_max.

    Base case: (1-chi(v_0))(1-chi(w_0)) = (1-r_0)(1-z_0).  Step:
    P_m = r_m * P_{m-1} + (1-r_m)(1-z_m), all as Laurent polynomials.
    A failing check notes the nonzero difference of the two sides; a
    passing one has no note.
    """
    if d < 2 or m_max < 1:
        raise InvalidArguments("need d >= 2 and m_max >= 1")
    one = LaurentPoly.one(d + 1)
    report = Report()
    prev = product_condition_poly(d, 0)
    base_rhs = (one - r_poly(d, 0)) * (one - z_poly(d, 0))
    _record_equal(report, f"d={d} m=0 base case", prev, base_rhs)
    for m in range(1, m_max + 1):
        cur = product_condition_poly(d, m)
        rhs = r_poly(d, m) * prev + (one - r_poly(d, m)) * (one - z_poly(d, m))
        _record_equal(report, f"d={d} m={m} recursion step", cur, rhs)
        prev = cur
    return report


def verify_divisibility(d: int, m_max: int) -> Report:
    """Check chi(v_m) = g_m^(m+1) and the geometric-sum factorization.

    Also checks g_0 = r_0 (the degree-0 divisor collapses, so the m = 0
    condition reduces to 1 - z_0).
    """
    if d < 2 or m_max < 0:
        raise InvalidArguments("need d >= 2 and m_max >= 0")
    one = LaurentPoly.one(d + 1)
    report = Report()
    report.record(f"d={d} g_0 = r_0", g_poly(d, 0) == r_poly(d, 0))
    for m in range(m_max + 1):
        g = g_poly(d, m)
        report.record(
            f"d={d} m={m} chi(v) = g^(m+1)",
            chi_v_poly(d, m) == g ** (m + 1),
        )
        geo = LaurentPoly.zero(d + 1)
        for mu in range(m + 1):
            geo = geo + g**mu
        lhs = one - chi_v_poly(d, m)
        rhs = (one - g) * geo
        _record_equal(report, f"d={d} m={m} geometric factorization", lhs, rhs)
    return report


def verify_classical_d2(m_max: int) -> Report:
    """Degree-2 reduction against the classical closed form and recursion.

    With q0 the diagonal value and q1 the mixed product, the product
    condition divided by (1-q0) is (1 - q0^m q1) * sum_{v<=m} q0^v, and
    that quotient satisfies R_0 = 1 - q1, R_m = 1 - q0^(2m) q1 + q0 R_{m-1}.
    """
    d = 2
    nv = d + 1
    one = LaurentPoly.one(nv)
    q0 = LaurentPoly.monomial((2, 0, 0))
    q1 = LaurentPoly.monomial((0, 2, 0))
    report = Report()

    def closed(m):
        geo = LaurentPoly.zero(nv)
        for v in range(m + 1):
            geo = geo + q0**v
        return (one - q0**m * q1) * geo

    prev = None
    for m in range(m_max + 1):
        cm = closed(m)
        report.record(
            f"d=2 m={m} product condition = (1-q0)*closed form",
            product_condition_poly(d, m) == (one - q0) * cm,
        )
        if m == 0:
            report.record("d=2 m=0 closed form = 1-q1", cm == one - q1)
        else:
            rec = one - q0 ** (2 * m) * q1 + q0 * prev
            report.record(f"d=2 m={m} classical recursion", cm == rec)
        prev = cm
    return report
