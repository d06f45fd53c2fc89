import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tensor
from weylg import lattice
from weylg.errors import InvalidArguments, SchemaError
from weylg.lattice import (
    GammaVector,
    SqrtBraidingTensor,
    aggregate_profile,
    chi_eval,
    dump_tensor_json,
    gamma_aggregate,
    load_tensor_json,
)


def brute_force_aggregate(tensor, l, j, k):
    """Independent oracle: enumerate all tuples of the orbit directly."""
    total = 0
    for tup in itertools.product((l, j), repeat=tensor.degree):
        if sum(1 for i in tup if i == j) == k:
            total += tensor.entry(tup)
    return total % tensor.modulus


def test_zero_tensor_aggregates_vanish():
    t = SqrtBraidingTensor.from_entries(10, 2, 3, {})
    for k in range(4):
        assert gamma_aggregate(t, 1, 2, k) == 0


def test_reference_profile_every_aggregate_is_one(zeta11):
    assert aggregate_profile(zeta11, 1, 2) == (1, 1, 1, 1, 1)


def test_aggregate_matches_enumeration_oracle():
    rng = random.Random(7)
    for rank in range(2, 5):
        for degree in range(2, 7):
            t = random_tensor(rng, rank=rank, degree=degree)
            for l, j in itertools.permutations(range(1, rank + 1), 2):
                expected = tuple(
                    brute_force_aggregate(t, l, j, k) for k in range(degree + 1)
                )
                assert aggregate_profile(t, l, j) == expected
                for k in range(degree + 1):
                    assert gamma_aggregate(t, l, j, k) == expected[k]


def test_aggregate_requires_distinct_indices(zeta11):
    with pytest.raises(InvalidArguments):
        gamma_aggregate(zeta11, 1, 1, 0)


def test_aggregate_rejects_out_of_range_pair(zeta11):
    # (1, 3) at k = 0 reads only the entry (1, 1, 1, 1)
    for l, j in ((0, 1), (1, 3), (3, 2)):
        message = rf"pair \({l}, {j}\) out of range 1\.\.2"
        with pytest.raises(InvalidArguments, match=message):
            aggregate_profile(zeta11, l, j)
        for k in range(5):
            with pytest.raises(InvalidArguments, match=message):
                gamma_aggregate(zeta11, l, j, k)


def test_tensor_rejects_modulus_below_one():
    with pytest.raises(InvalidArguments, match="modulus must be >= 1, got 0"):
        SqrtBraidingTensor.from_entries(0, 2, 2, {})


def test_aggregate_orbit_relabeling_symmetry():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tensor(rng)
        l, j = rng.sample(range(1, t.rank + 1), 2)
        d = t.degree
        for k in range(d + 1):
            assert gamma_aggregate(t, l, j, k) == gamma_aggregate(t, j, l, d - k)


def test_chi_eval_zero_vector(zeta11):
    assert chi_eval(zeta11, 1, 2, GammaVector.zero(4)) == 0


def test_chi_eval_reference_values(zeta11):
    # chi(v_3) = 1 and chi(s_3) = mu^11 in the 11th-root example
    v3_doubled = GammaVector(4, (176, 36, 8, 0, 0))
    s3_doubled = GammaVector(4, (44, 9, 2, 0, 0))
    assert chi_eval(zeta11, 1, 2, v3_doubled) == 0
    assert chi_eval(zeta11, 1, 2, s3_doubled) == 11


def test_chi_eval_degree_mismatch(zeta11):
    with pytest.raises(InvalidArguments):
        chi_eval(zeta11, 1, 2, GammaVector.zero(3))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=5, max_size=5),
    st.lists(st.integers(-50, 50), min_size=5, max_size=5),
)
def test_chi_eval_is_additive(zeta11, c1, c2):
    v = GammaVector(4, tuple(c1))
    w = GammaVector(4, tuple(c2))
    lhs = chi_eval(zeta11, 1, 2, v + w)
    rhs = (chi_eval(zeta11, 1, 2, v) + chi_eval(zeta11, 1, 2, w)) % 22
    assert lhs == rhs


def test_rank2_chi_depends_only_on_aggregates():
    rng = random.Random(11)
    for _ in range(15):
        M = rng.randint(2, 20)
        d = rng.randint(2, 4)
        profile = [rng.randrange(M) for _ in range(d + 1)]
        lift = SqrtBraidingTensor.from_rank2_profile(M, d, profile)
        # a second tensor with the same aggregates, different distribution
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
        assert aggregate_profile(other, 1, 2) == aggregate_profile(lift, 1, 2)
        for _ in range(5):
            v = GammaVector(d, tuple(rng.randint(-9, 9) for _ in range(d + 1)))
            assert chi_eval(lift, 1, 2, v) == chi_eval(other, 1, 2, v)


def test_json_round_trip():
    rng = random.Random(5)
    t = random_tensor(rng)
    again = load_tensor_json(dump_tensor_json(t))
    assert again == t


def test_json_rank2_profile_form(zeta7):
    assert zeta7.rank == 2
    assert zeta7.degree == 4
    assert aggregate_profile(zeta7, 1, 2) == (4, 1, 4, 1, 1)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"modulus": 5, "degree": 2}, "rank"),
        ({"modulus": 0, "degree": 2, "rank": 2}, "modulus"),
        (
            {"modulus": 5, "degree": 2, "rank": 2,
             "sqrt_entries": [{"index": [1], "exp": 1}]},
            "sqrt_entries[0].index",
        ),
        (
            {"modulus": 5, "degree": 2, "rank": 2,
             "sqrt_entries": [{"index": [1, 3], "exp": 1}]},
            "sqrt_entries[0].index",
        ),
        (
            {"modulus": 5, "degree": 2, "rank": 2,
             "sqrt_entries": [{"index": [1, 1], "exp": "x"}]},
            "sqrt_entries[0].exp",
        ),
        (
            {"modulus": 5, "degree": 2, "rank": 2,
             "sqrt_entries": [{"index": [1, 1], "exp": 1},
                              {"index": [1, 1], "exp": 2}]},
            "duplicate",
        ),
        ({"modulus": 5, "degree": 2, "rank2_profile": [1, 2]}, "rank2_profile"),
    ],
)
def test_schema_errors_carry_paths(doc, fragment):
    with pytest.raises(SchemaError) as err:
        load_tensor_json(json.dumps(doc))
    assert fragment in str(err.value)


def _schema_message(doc):
    with pytest.raises(SchemaError) as err:
        load_tensor_json(json.dumps(doc))
    return str(err.value)


def test_boolean_profile_entry_is_not_an_integer():
    doc = {"modulus": 5, "degree": 2, "rank2_profile": [True, 1, 0]}
    assert _schema_message(doc) == "rank2_profile: expected a list of integers"


def test_boolean_index_entry_is_not_an_integer():
    doc = {"modulus": 5, "degree": 2, "rank": 2,
           "sqrt_entries": [{"index": [True, 2], "exp": 1}]}
    assert _schema_message(doc) == "sqrt_entries[0].index: expected 2 integers"


def test_boolean_exponent_is_not_an_integer():
    doc = {"modulus": 5, "degree": 2, "rank": 2,
           "sqrt_entries": [{"index": [1, 2], "exp": True}]}
    assert _schema_message(doc) == "sqrt_entries[0].exp: expected an integer"


# every shape here is refused before anything is allocated: at the
# default limit rank**degree is at least 2**63, so an unchecked
# allocation fails at once too
@pytest.mark.parametrize("rank, degree", [(2, 70), (2 ** 40, 2), (3, 40)])
def test_oversized_shapes_are_refused(rank, degree):
    with pytest.raises(InvalidArguments) as err:
        SqrtBraidingTensor.from_entries(3, rank, degree, {})
    assert str(err.value) == (
        f"a tensor of rank {rank} and degree {degree} has more than "
        f"{lattice.MAX_TENSOR_ENTRIES} entries"
    )
    doc = {"modulus": 3, "rank": rank, "degree": degree, "sqrt_entries": []}
    with pytest.raises(InvalidArguments):
        load_tensor_json(json.dumps(doc))


# the checks of __init__, in its order and with its messages, come
# before the size check and the allocation: a negative degree made
# rank**degree a float there, and rank 0 a division by zero
@pytest.mark.parametrize("modulus", [0, 3])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
@pytest.mark.parametrize("degree", [-2, -1, 0, 1])
def test_invalid_shapes_are_refused_as_init_refuses_them(modulus, rank, degree):
    if modulus < 1:
        expected = f"modulus must be >= 1, got {modulus}"
    elif rank < 1:
        expected = f"rank must be >= 1, got {rank}"
    else:
        expected = f"degree must be >= 2, got {degree}"
    with pytest.raises(InvalidArguments) as init:
        SqrtBraidingTensor(rank, degree, modulus, [])
    with pytest.raises(InvalidArguments) as built:
        SqrtBraidingTensor.from_entries(modulus, rank, degree, {})
    assert str(init.value) == str(built.value) == expected


def test_the_limit_is_checked_before_allocation(monkeypatch):
    # with the limit lowered to 8, the shapes just over it, and one over
    # it by the degree alone, are refused; 2**3 = 8 entries are built
    monkeypatch.setattr(lattice, "MAX_TENSOR_ENTRIES", 8)
    for rank, degree in ((3, 2), (2, 4), (2, 5)):
        with pytest.raises(InvalidArguments):
            SqrtBraidingTensor.from_entries(3, rank, degree, {})
    tensor = SqrtBraidingTensor.from_entries(3, 2, 3, {(2, 2, 2): 1})
    assert len(tensor.flat()) == 8
    with pytest.raises(InvalidArguments):
        SqrtBraidingTensor.from_rank2_profile(3, 4, [0, 0, 0, 0, 0])
