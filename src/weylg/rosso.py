"""Vanishing condition, Cartan entries, and Cartan matrices.

For a pair (l, j) and a candidate integer m the tensor determines three
distinguished gamma vectors: the difference of tensor powers u_m splits
into a reflection-fixed part v_m and a reflection-negated part w_m, and
s_m = v_m/(m+1).  The Cartan entry c_{l,j} is minus the smallest m for
which the quotient condition vanishes, which on root-of-unity exponents
reads: (chi(v_m) = 1 and chi(s_m) != 1) or chi(w_m) = 1.

The condition is periodic in m with period M, the order of mu.  With
K = d - nu, the doubled coordinates of v_m and w_m on gamma_nu are the
integer polynomials (m+1)**K - m**K +- (-1)**K in m (0 at K = 0).  Each
coordinate of v_m vanishes at m = -1, so m + 1 divides it in Z[m] and
s_m = v_m/(m+1) has integer polynomial coordinates as well.  A
character value is the mu-exponent sum_k t_k * a_k mod M of such
coordinates t_k against the pair's aggregates a_k, so it is an integer
polynomial in m read mod M, and such a polynomial takes the same value
at m and m + M.  The smallest m, if any, therefore lies in 0..M-1, and
a search that covered 0..M-1 without success proves that none exists.

The search reads one polynomial.  With the aggregates a_k taken as
integers, let F(x) = sum_{k<d} a_k x**(d-k).  Then

    chi(v_m) = F(m+1) - F(m) + F(-1),   chi(w_m) = F(m+1) - F(m) - F(-1)

as mu-exponents mod M, because the doubled coordinate of v_m on gamma_k
is (m+1)**K - m**K + (-1)**K with K = d - k for k < d, and 0 at k = d:
summing a_k times it over k < d gives F(m+1), F(m) and F(-1) term by
term, and w_m only flips the last sum.  Every coordinate t_k of v_m is
divisible by m+1 (it vanishes at m = -1, see above), so with the same
integers a_k the sum V = sum_k a_k t_k is divisible by m+1 and

    chi(s_m) = sum_k a_k (t_k / (m+1)) = (V / (m+1)) mod M,

read off the exact integer V, not its residue mod M (division by m+1 is
not defined mod M in general).  `cartan_entry` therefore evaluates F at
consecutive integers by Horner's rule, one new value per m, with no
vectors built.  Only `rosso_diagnostics` builds them, with
`rosso_vectors`, one row of three character values per m; the per-m
condition `rosso_condition` reads its one row at m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidArguments, OddDegreeError, UndefinedCartanEntry
from .lattice import (
    GammaVector,
    SqrtBraidingTensor,
    aggregate_profile,
    chi_eval,
)

DEFAULT_M_MAX = 1000


def ef_coeffs(m: int, k: int) -> tuple:
    """Binomial sums (e, f) with e + f = (m+1)**k - m**k.

    e sums C(k,v)*m**v over v <= k-2 with v = k mod 2; f sums over
    v <= k-1 with v != k mod 2.
    """
    if m < 0 or k < 0:
        raise InvalidArguments("m and k must be non-negative")
    e = sum(comb(k, v) * m**v for v in range(0, k - 1) if v % 2 == k % 2)
    f = sum(comb(k, v) * m**v for v in range(0, k) if v % 2 != k % 2)
    return e, f


@dataclass(frozen=True)
class RossoVectors:
    """The vectors v_m, w_m, s_m in doubled gamma coordinates; u_m = v_m + w_m."""

    m: int
    degree: int
    v: GammaVector
    w: GammaVector
    s: GammaVector


def rosso_vectors(degree: int, m: int) -> RossoVectors:
    """Doubled gamma coordinates of v_m, w_m, s_m for any degree >= 2.

    The doubled coordinate of v_m on gamma_nu is
    (m+1)**K - m**K + (-1)**K with K = d - nu; w_m flips the sign term,
    and s_m = v_m/(m+1) exactly.
    """
    if degree < 2:
        raise InvalidArguments(f"degree must be >= 2, got {degree}")
    if m < 0:
        raise InvalidArguments(f"m must be >= 0, got {m}")
    v = []
    w = []
    s = []
    for nu in range(degree + 1):
        k = degree - nu
        if k == 0:
            v.append(0)
            w.append(0)
            s.append(0)
            continue
        base = (m + 1) ** k - m**k
        sign = (-1) ** k
        tv = base + sign
        v.append(tv)
        w.append(base - sign)
        assert tv % (m + 1) == 0
        s.append(tv // (m + 1))
    vecs = (GammaVector(degree, tuple(c)) for c in (v, w, s))
    return RossoVectors(m, degree, *vecs)


def rosso_condition(tensor: SqrtBraidingTensor, l: int, j: int, m: int) -> bool:
    """True iff the degree-m vanishing condition holds for the pair (l, j):
    chi(w_m) = 1, or chi(v_m) = 1 and chi(s_m) != 1, read off the one
    row of `rosso_diagnostics` at m."""
    (row,) = rosso_diagnostics(tensor, l, j, (m,))
    return row.chi_w == 0 or (row.chi_v == 0 and row.chi_s != 0)


def cartan_entry(
    tensor: SqrtBraidingTensor,
    l: int,
    j: int,
    m_max: int = DEFAULT_M_MAX,
    *,
    profile: tuple | None = None,
) -> int:
    """Minus the smallest m <= m_max satisfying the vanishing condition.

    Only m <= M-1 is searched, since the condition has period M (see the
    module docstring); the aggregates of the pair are summed once, or
    not at all when the caller passes them as profile, which must then
    be aggregate_profile(tensor, l, j).  Each m costs one Horner
    evaluation of F at m + 1: chi(w_m) is tested first, then chi(v_m),
    and chi(s_m) only where chi(v_m) = 1.
    """
    if m_max < 0:
        raise InvalidArguments("m_max must be >= 0")
    if profile is None:
        profile = aggregate_profile(tensor, l, j)
    M = tensor.modulus
    coeffs = profile[:-1]
    low = 0  # F(-1), by Horner's rule at x = -1
    for a in coeffs:
        low = a - low
    low = -low
    here = 0  # F(m), starting from F(0) = 0
    for m in range(min(m_max, M - 1) + 1):
        x = m + 1
        there = 0
        for a in coeffs:
            there = there * x + a
        there *= x
        step = there - here
        if (step - low) % M == 0:
            return -m
        v = step + low
        if v % M == 0 and v // x % M:
            return -m
        here = there
    raise UndefinedCartanEntry((l, j), m_max, period=M)


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Integer matrix with 2 on the diagonal and <= 0 elsewhere."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InvalidArguments("matrix must be square")
            if row[i] != 2:
                raise InvalidArguments(f"diagonal entry ({i},{i}) is {row[i]}, not 2")
            for j, c in enumerate(row):
                if i != j and c > 0:
                    raise InvalidArguments(
                        f"off-diagonal entry ({i},{j}) is positive"
                    )
        for i in range(n):
            for j in range(n):
                if (self.rows[i][j] == 0) != (self.rows[j][i] == 0):
                    raise InvalidArguments(
                        f"zero pattern not symmetric at ({i},{j})"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """1-based access, matching tensor index conventions."""
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> tuple:
        return self.rows[i - 1]

    def as_lists(self):
        return [list(r) for r in self.rows]


def _trusted_cartan_matrix(rows: tuple) -> GeneralizedCartanMatrix:
    """GeneralizedCartanMatrix(rows) for square rows that pass its
    checks: none of the checks."""
    matrix = object.__new__(GeneralizedCartanMatrix)
    object.__setattr__(matrix, "rows", rows)
    return matrix


def cartan_matrix(
    tensor: SqrtBraidingTensor, m_max: int = DEFAULT_M_MAX
) -> GeneralizedCartanMatrix:
    """Full Cartan matrix of an even-degree tensor.

    The k-th aggregate of the pair (j, i) counts the index tuples with k
    coordinates equal to i, that is d - k equal to j, so the (j, i)
    profile is the (i, j) profile reversed.  Each unordered pair's
    aggregates are therefore summed once, at its entry above the
    diagonal, and its entry below reads the reversed profile.  Entries
    are searched in row-major order, each by cartan_entry.

    Raises UndefinedCartanEntry with the offending pair if some entry has
    no m within the bound (the first such pair in row-major order), and
    OddDegreeError for odd degree (the groupoid constructions are only
    available for even degree).

    The matrix is built without the constructor's checks, which every
    output passes: the diagonal is 2, and an entry off it is -m <= 0.
    The zero pattern is symmetric: c_ij = 0 iff the condition holds at
    m = 0, where s_0 = v_0, so it reads chi(w_0) = 1, that is
    F(1) - F(0) - F(-1) = F(1) - F(-1) = 0 mod M.  With d even,
    F(1) - F(-1) is twice the sum of the aggregates a_k of odd k, and
    reversing the profile, a_k -> a_(d-k), keeps the parity of k.
    """
    if tensor.degree % 2 != 0:
        raise OddDegreeError(
            f"cartan_matrix needs even degree, got {tensor.degree}"
        )
    if m_max < 0:
        raise InvalidArguments("m_max must be >= 0")
    n = tensor.rank
    below = {}  # (j, i) -> reversed (i, j) profile, for i < j
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(2)
                continue
            if i < j:
                profile = aggregate_profile(tensor, i, j)
                below[j, i] = profile[::-1]
            else:
                profile = below.pop((i, j))
            row.append(cartan_entry(tensor, i, j, m_max, profile=profile))
        rows.append(tuple(row))
    return _trusted_cartan_matrix(tuple(rows))


@dataclass(frozen=True)
class DiagnosticsRow:
    m: int
    chi_v: int
    chi_w: int
    chi_s: int


def rosso_diagnostics(tensor, l, j, m_range) -> list:
    """mu-exponents of chi(v_m), chi(w_m), chi(s_m) for each m in m_range."""
    rows = []
    for m in m_range:
        vecs = rosso_vectors(tensor.degree, m)
        rows.append(
            DiagnosticsRow(
                m,
                chi_eval(tensor, l, j, vecs.v),
                chi_eval(tensor, l, j, vecs.w),
                chi_eval(tensor, l, j, vecs.s),
            )
        )
    return rows
