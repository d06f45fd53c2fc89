import random

import hypothesis
import pytest

from weylg.cells import BarCell, join
from weylg.fixtures import load_example
from weylg.lattice import SqrtBraidingTensor
from weylg.rosso import GeneralizedCartanMatrix, cartan_entry

hypothesis.settings.register_profile("det", derandomize=True)
hypothesis.settings.load_profile("det")


@pytest.fixture(scope="session")
def zeta11():
    return load_example("zeta11")


@pytest.fixture(scope="session")
def zeta7():
    return load_example("zeta7")


@pytest.fixture(scope="session")
def zeta3():
    return load_example("zeta3")


@pytest.fixture(scope="session")
def a2():
    return load_example("a2")


def random_tensor(rng: random.Random, modulus=None, rank=None, degree=None):
    modulus = modulus or rng.randint(2, 30)
    rank = rank or rng.randint(2, 3)
    degree = degree or rng.randint(2, 4)
    entries = {}
    import itertools

    for idx in itertools.product(range(1, rank + 1), repeat=degree):
        entries[idx] = rng.randrange(modulus)
    return SqrtBraidingTensor.from_entries(modulus, rank, degree, entries)


_IDENTITY_WEIGHT = 0.2  # random_cell's chance of a zero coordinate


def random_cell(rng, group, max_level, degree):
    """Uniform-ish random canonical cell for property tests.

    Recursively picks a level and a composition; elements are random
    group elements (identities allowed).
    """
    def rand_element():
        if group.is_finite():
            vec = [rng.randrange(m) for m in group.torsion]
        else:
            vec = [
                0 if rng.random() < _IDENTITY_WEIGHT else rng.randint(-2, 2)
                for _ in range(group.ncoords)
            ]
        return group.element(vec)

    def build(level, n):
        if level == 0 or n < 2:
            return BarCell(tuple(rand_element() for _ in range(n)))
        k = rng.randint(1, level)
        # compositions of n - (p-1)*k into p >= 2 parts, else drop a level
        choices = []
        for p in range(2, n + 1):
            rest = n - (p - 1) * k
            if rest >= p:
                choices.append(p)
        if not choices or rng.random() < 0.4:
            return build(0, n)
        p = rng.choice(choices)
        rest = n - (p - 1) * k
        cuts = sorted(rng.sample(range(1, rest), p - 1))
        parts = [b - a_ for a_, b in zip((0,) + tuple(cuts), tuple(cuts) + (rest,))]
        return join(k, tuple(build(k - 1, part) for part in parts))

    return build(max_level, degree)


def sparse_rank3_tensor(rng: random.Random, degree=None):
    """A rank-3 tensor with six nonzero entries, of degree 2 or 4 unless
    `degree` is given."""
    modulus, degree = rng.randint(2, 22), degree or rng.choice((2, 4))
    entries = {}
    while len(entries) < 6:
        idx = tuple(rng.randint(1, 3) for _ in range(degree))
        entries[idx] = rng.randrange(1, modulus)
    return SqrtBraidingTensor.from_entries(modulus, 3, degree, entries)


def random_rank2_profile_tensor(rng: random.Random, modulus, degree):
    profile = [rng.randrange(modulus) for _ in range(degree + 1)]
    return SqrtBraidingTensor.from_rank2_profile(modulus, degree, profile)


def cartan_matrix_by_entries(tensor, m_max):
    """Reference matrix: cartan_entry on every ordered pair in row-major
    order, each call summing its own pair's aggregates."""
    n = tensor.rank
    return GeneralizedCartanMatrix(tuple(
        tuple(
            2 if i == j else cartan_entry(tensor, i, j, m_max)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    ))
