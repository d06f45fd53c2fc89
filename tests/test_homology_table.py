"""Homology of the level-0 and level-1 complexes against closed forms.

Level 0 is the bar complex, so H_n is the group homology H_n(A),
computed by Kuenneth over the cyclic factors.  Level 1 computes
H_{n+1}(K(A, 2)) in low degrees: H_1 = A, H_2 = 0 and H_3 = Gamma(A),
Whitehead's quadratic functor, with Gamma(Z/n) = Z/2n for even n, Z/n
for odd n, and Gamma(A + B) = Gamma(A) + Gamma(B) + A (x) B.

Beyond the closed forms, the level-k complex in degree n computes
H_{n+k}(K(A, k+1)), and K(A x B, k+1) = K(A, k+1) x K(B, k+1), so the
Kuenneth theorem (tensor and Tor terms) predicts the homology of a
product from its factors' computed homology, to degree 5 and level 3.

A finite abelian group is written as the list of orders of cyclic
summands; 0 stands for a summand Z.
"""

import math

import pytest

from weylg.groups import AbGroup
from weylg.homology import CellComplex, homology


def invariant_factors(orders):
    """(free rank, invariant factors > 1) of a sum of cyclic groups."""
    free = sum(1 for d in orders if d == 0)
    powers = {}  # prime -> prime powers of the elementary divisors
    for d in orders:
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    factors = []
    for k in range(max((len(v) for v in powers.values()), default=0)):
        f = 1
        for v in powers.values():
            ranked = sorted(v, reverse=True)
            if k < len(ranked):
                f *= ranked[k]
        factors.append(f)
    return free, tuple(sorted(factors))


def tensor(a, b):
    # Z/m (x) Z/n = Z/gcd(m, n), which also covers Z (x) Z/n and Z (x) Z
    return [math.gcd(x, y) for x in a for y in b]


def tor(a, b):
    return [math.gcd(x, y) for x in a for y in b if x and y]


def cyclic_homology(m, n):
    """H_n(Z/m) as cyclic orders."""
    if n == 0:
        return [0]
    return [m] if n % 2 else []


def kuenneth(x, y, n):
    """H_n of a product of spaces whose H_i are x[i] and y[i]."""
    return [a for i in range(n + 1) for a in tensor(x[i], y[n - i])] + [
        a for i in range(n) for a in tor(x[i], y[n - 1 - i])
    ]


def group_homology(torsion, n):
    """H_n of a finite abelian group by Kuenneth over cyclic factors."""
    # table[i] = H_i of the product so far, as cyclic orders
    table = [[0]] + [[] for _ in range(n)]
    for m in torsion:
        factor = [cyclic_homology(m, i) for i in range(n + 1)]
        table = [kuenneth(table, factor, k) for k in range(n + 1)]
    return table[n]


def gamma(torsion):
    out = []
    for i, m in enumerate(torsion):
        out.append(2 * m if m % 2 == 0 else m)
        out.extend(math.gcd(m, other) for other in torsion[i + 1 :])
    return out


def level_one_homology(torsion, n):
    return {1: list(torsion), 2: [], 3: gamma(torsion)}[n]


SMALL = [(), (2,), (3,), (4,), (2, 2), (5,), (6,)]
CASES = (
    [(t, 0, n) for t in SMALL for n in (1, 2, 3)]
    + [(t, 1, n) for t in SMALL for n in (1, 2, 3)]
    + [(t, 1, 3) for t in [(7,), (8,), (2, 4), (2, 2, 2)]]
)


def expected(torsion, level, n):
    orders = group_homology(torsion, n) if level == 0 else level_one_homology(
        torsion, n
    )
    return invariant_factors(orders)


def test_closed_forms_on_known_groups():
    assert expected((2,), 0, 3) == (0, (2,))
    assert expected((2, 2), 0, 2) == (0, (2,))
    assert expected((2, 2), 0, 3) == (0, (2, 2, 2))
    assert expected((2,), 1, 3) == (0, (4,))
    assert expected((2, 2), 1, 3) == (0, (2, 4, 4))
    assert expected((6,), 1, 3) == (0, (12,))


@pytest.mark.parametrize(
    "torsion,level,n", CASES, ids=lambda v: str(v).replace(" ", "")
)
def test_homology_matches_closed_form(torsion, level, n):
    result = homology(AbGroup(0, torsion), level, n)
    assert (result.free_rank, result.torsion) == expected(torsion, level, n)


def space_homology(torsion, level, top):
    """H_m(K(A, level+1)) for m <= top as cyclic orders: Z in degree 0,
    0 up to degree level, then H_{m-level} of the level-`level` complex."""
    complex_ = CellComplex(AbGroup(0, torsion), level)
    out = [[0]] + [[] for _ in range(level)]
    for n in range(1, top - level + 1):
        result = complex_.homology(n)
        out.append([0] * result.free_rank + list(result.torsion))
    return out


# (factor, factor, product, level, degree); Z/2 x Z/4 at level 1,
# degree 4 takes ~1.5 s, and Z/6 at level 1, degree 5 ~3 s but needs
# WEYL_MAX_CELLS raised
PRODUCTS = (
    [((2,), (2,), (2, 2), 1, n) for n in (3, 4, 5)]
    + [((2,), (2,), (2, 2), 2, n) for n in (4, 5)]
    + [((2,), (2,), (2, 2), 3, 5)]
    + [((2,), (3,), (6,), level, 4) for level in (1, 2)]
    + [((2,), (4,), (2, 4), 1, 4)]
)


@pytest.mark.parametrize(
    "a,b,product,level,n", PRODUCTS, ids=lambda v: str(v).replace(" ", "")
)
def test_product_homology_matches_kuenneth(a, b, product, level, n):
    top = n + level
    predicted = kuenneth(
        space_homology(a, level, top), space_homology(b, level, top), top
    )
    result = CellComplex(AbGroup(0, product), level).homology(n)
    assert (result.free_rank, result.torsion) == invariant_factors(predicted)
