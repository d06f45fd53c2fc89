"""Exact arithmetic substrate for braiding tensors of arbitrary degree.

Every scalar in sight is a root of unity, written as a power of one fixed
primitive M-th root ``mu``.  All arithmetic therefore happens on exponents
in Z/M and is exact.  Tensors store the exponents of the *square roots*
sqrt(q_{i1..id}), so the tensor value is q = mu^(2*entry).  Vectors in the
gamma basis keep doubled integer coordinates so that half-integer
coordinates never require fractions: a GammaVector with doubled
coordinates (t_0,..,t_d) represents sum_k (t_k/2) * gamma_k, and pairing
doubled coordinates against sqrt-exponents yields the mu-exponent of the
character value.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, mul

from .errors import InvalidArguments, SchemaError

# the most entries a tensor may have: rank**degree is refused above it
# before anything is allocated
MAX_TENSOR_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class GammaVector:
    """Vector sum_k (doubled[k]/2) * gamma_k for a fixed pair and degree."""

    degree: int
    doubled: tuple

    def __post_init__(self):
        if len(self.doubled) != self.degree + 1:
            raise InvalidArguments(
                f"need {self.degree + 1} coordinates, got {len(self.doubled)}"
            )

    @classmethod
    def zero(cls, degree: int) -> "GammaVector":
        return cls(degree, (0,) * (degree + 1))

    def __add__(self, other: "GammaVector") -> "GammaVector":
        self._check(other)
        return GammaVector(
            self.degree, tuple(a + b for a, b in zip(self.doubled, other.doubled))
        )

    def __sub__(self, other: "GammaVector") -> "GammaVector":
        self._check(other)
        return GammaVector(
            self.degree, tuple(a - b for a, b in zip(self.doubled, other.doubled))
        )

    def __neg__(self) -> "GammaVector":
        return GammaVector(self.degree, tuple(-a for a in self.doubled))

    def scale(self, c: int) -> "GammaVector":
        return GammaVector(self.degree, tuple(c * a for a in self.doubled))

    def _check(self, other):
        if self.degree != other.degree:
            raise InvalidArguments("degree mismatch between gamma vectors")


def _check_shape(modulus, rank, degree):
    """InvalidArguments unless modulus >= 1, rank >= 1 and degree >= 2,
    checked in that order."""
    if modulus < 1:
        raise InvalidArguments(f"modulus must be >= 1, got {modulus}")
    if rank < 1:
        raise InvalidArguments(f"rank must be >= 1, got {rank}")
    if degree < 2:
        raise InvalidArguments(f"degree must be >= 2, got {degree}")


class SqrtBraidingTensor:
    """Rank-n, degree-d tensor of sqrt-exponents over a fixed modulus.

    M is the order of the fixed primitive root mu, so exponents live in
    Z/M.  Entries are stored as a flat tuple of length n**d in row-major
    order over 1-based index tuples, each reduced mod M.  Instances are
    immutable and hashable; the flat tuple is the canonical object key
    used for groupoid deduplication.
    """

    __slots__ = ("rank", "degree", "modulus", "_flat")

    def __init__(self, rank, degree, modulus, flat):
        _check_shape(modulus, rank, degree)
        if len(flat) != rank**degree:
            raise InvalidArguments(
                f"need {rank ** degree} entries, got {len(flat)}"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_flat", tuple([e % modulus for e in flat]))

    def __setattr__(self, *a):
        raise AttributeError("SqrtBraidingTensor is immutable")

    @classmethod
    def from_entries(cls, modulus, rank, degree, entries):
        """Build from a {index tuple: exponent} mapping; absent means 0."""
        _check_shape(modulus, rank, degree)
        # rank**degree >= 2**degree, so a degree above the limit's bit
        # length is refused without computing the power
        if rank >= 2 and (
            degree > MAX_TENSOR_ENTRIES.bit_length()
            or rank**degree > MAX_TENSOR_ENTRIES
        ):
            raise InvalidArguments(
                f"a tensor of rank {rank} and degree {degree} has more "
                f"than {MAX_TENSOR_ENTRIES} entries"
            )
        flat = [0] * rank**degree
        for idx, e in entries.items():
            flat[cls._flat_index_static(rank, degree, idx)] = e
        return cls(rank, degree, modulus, flat)

    @classmethod
    def from_rank2_profile(cls, modulus, degree, profile):
        """Lift a (d+1)-tuple of aggregate sqrt-exponents to a full tensor.

        The k-th aggregate is assigned entirely to the lexicographically
        smallest index tuple with exactly k coordinates equal to 2, i.e.
        (1,..,1,2,..,2); every other entry is zero.  For rank 2 all
        downstream results depend only on the aggregates, so the choice
        of representative does not matter.
        """
        if len(profile) != degree + 1:
            raise InvalidArguments(
                f"profile needs {degree + 1} aggregates, got {len(profile)}"
            )
        entries = {}
        for k, e in enumerate(profile):
            idx = (1,) * (degree - k) + (2,) * k
            entries[idx] = e
        return cls.from_entries(modulus, 2, degree, entries)

    @staticmethod
    def _flat_index_static(rank, degree, idx):
        if len(idx) != degree:
            raise InvalidArguments(f"index {idx} has wrong length")
        pos = 0
        for i in idx:
            if not 1 <= i <= rank:
                raise InvalidArguments(f"index {idx} out of range 1..{rank}")
            pos = pos * rank + (i - 1)
        return pos

    def entry(self, idx) -> int:
        return self._flat[self._flat_index_static(self.rank, self.degree, idx)]

    def flat(self) -> tuple:
        return self._flat

    def key(self) -> tuple:
        return (self.modulus, self.rank, self.degree, self._flat)

    def __eq__(self, other):
        return isinstance(other, SqrtBraidingTensor) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"SqrtBraidingTensor(rank={self.rank}, degree={self.degree}, "
            f"M={self.modulus})"
        )

    def index_tuples(self):
        return itertools.product(range(1, self.rank + 1), repeat=self.degree)


# the slot setters: the class refuses attribute assignment, and they are
# quicker than object.__setattr__
_set_rank, _set_degree, _set_modulus, _set_flat = [
    SqrtBraidingTensor.__dict__[name].__set__
    for name in SqrtBraidingTensor.__slots__
]


def _trusted_tensor(rank, degree, modulus, flat: tuple) -> SqrtBraidingTensor:
    """SqrtBraidingTensor(rank, degree, modulus, flat) for arguments its
    checks pass and a tuple of rank**degree entries already reduced mod
    modulus: none of the checks, and no second reduction."""
    tensor = object.__new__(SqrtBraidingTensor)
    _set_rank(tensor, rank)
    _set_degree(tensor, degree)
    _set_modulus(tensor, modulus)
    _set_flat(tensor, flat)
    return tensor


def aggregate_profile(tensor: SqrtBraidingTensor, l: int, j: int) -> tuple:
    """All d+1 aggregate sqrt-exponents for the pair (l, j).

    The k-th aggregate sums the entries over the index tuples in {l,j}^d
    with exactly k coordinates equal to j, mod M; its value is
    mu^(2*aggregate).  The first and the last aggregate are one entry
    each, already reduced; each other one sums the entries an itemgetter
    cached per shape picks.
    """
    n = tensor.rank
    if l == j:
        raise InvalidArguments("aggregate needs two distinct indices")
    if not (1 <= l <= n and 1 <= j <= n):
        raise InvalidArguments(f"pair ({l}, {j}) out of range 1..{n}")
    flat = tensor.flat()
    M = tensor.modulus
    first, middle, last = _pair_buckets(n, tensor.degree, l, j)
    return (flat[first], *[sum(pick(flat)) % M for pick in middle], flat[last])


@lru_cache(maxsize=4096)
def _pair_buckets(n: int, d: int, l: int, j: int) -> tuple:
    """(offset of (l,..,l), itemgetters, offset of (j,..,j)) over the
    flat offsets of the index tuples in {l,j}^d: the k-th itemgetter,
    for 1 <= k <= d-1, picks the C(d, k) >= 2 offsets of the tuples with
    exactly k coordinates equal to j, so it returns a tuple.

    Depends on the shape only, so it is cached per (n, d, l, j); the
    caller has checked the pair, and d >= 2.
    """
    buckets = [[0]]
    for _ in range(d):
        grown = [[] for _ in range(len(buckets) + 1)]
        for k, bucket in enumerate(buckets):
            for pos in bucket:
                grown[k].append(pos * n + l - 1)
                grown[k + 1].append(pos * n + j - 1)
        buckets = grown
    middle = tuple(itemgetter(*bucket) for bucket in buckets[1:-1])
    return buckets[0][0], middle, buckets[-1][0]


def gamma_aggregate(tensor: SqrtBraidingTensor, l: int, j: int, k: int) -> int:
    """Sqrt-exponent of the k-th aggregate for the pair (l, j)."""
    d = tensor.degree
    if not 0 <= k <= d:
        raise InvalidArguments(f"k must lie in 0..{d}, got {k}")
    return aggregate_profile(tensor, l, j)[k]


def pairing(doubled, profile, modulus: int) -> int:
    """mu-exponent sum_k doubled[k] * profile[k] mod M of a character.

    Doubled gamma coordinates pair with aggregate sqrt-exponents, so this
    is the exponent of the character value of the vector they describe.
    """
    return sum(map(mul, doubled, profile)) % modulus


def chi_eval(tensor: SqrtBraidingTensor, l: int, j: int, v: GammaVector) -> int:
    """mu-exponent of the character of v on the pair (l, j)."""
    if v.degree != tensor.degree:
        raise InvalidArguments(
            f"vector degree {v.degree} != tensor degree {tensor.degree}"
        )
    return pairing(v.doubled, aggregate_profile(tensor, l, j), tensor.modulus)


def load_tensor_json(text: str) -> SqrtBraidingTensor:
    """Parse the JSON tensor schema (full entries or rank-2 profile)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    modulus = _require_int(doc, "modulus", minimum=1)
    degree = _require_int(doc, "degree", minimum=2)
    if "rank2_profile" in doc:
        profile = doc["rank2_profile"]
        if not isinstance(profile, list) or not all(map(_is_int, profile)):
            raise SchemaError("rank2_profile: expected a list of integers")
        if len(profile) != degree + 1:
            raise SchemaError(
                f"rank2_profile: expected {degree + 1} entries, got {len(profile)}"
            )
        return SqrtBraidingTensor.from_rank2_profile(modulus, degree, profile)
    rank = _require_int(doc, "rank", minimum=1)
    raw = doc.get("sqrt_entries", [])
    if not isinstance(raw, list):
        raise SchemaError("sqrt_entries: expected a list")
    entries = {}
    for pos, item in enumerate(raw):
        path = f"sqrt_entries[{pos}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{path}: expected an object")
        idx = item.get("index")
        if (
            not isinstance(idx, list)
            or len(idx) != degree
            or not all(map(_is_int, idx))
        ):
            raise SchemaError(f"{path}.index: expected {degree} integers")
        if not all(1 <= i <= rank for i in idx):
            raise SchemaError(f"{path}.index: entries must lie in 1..{rank}")
        if not _is_int(item.get("exp")):
            raise SchemaError(f"{path}.exp: expected an integer")
        key = tuple(idx)
        if key in entries:
            raise SchemaError(f"{path}.index: duplicate index {idx}")
        entries[key] = item["exp"]
    return SqrtBraidingTensor.from_entries(modulus, rank, degree, entries)


def dump_tensor_json(tensor: SqrtBraidingTensor) -> str:
    entries = [
        {"index": list(idx), "exp": e}
        for idx, e in zip(tensor.index_tuples(), tensor.flat())
        if e != 0
    ]
    doc = {
        "modulus": tensor.modulus,
        "rank": tensor.rank,
        "degree": tensor.degree,
        "sqrt_entries": entries,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _is_int(value) -> bool:
    """An integer in JSON: a bool is an int in Python, but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(doc, key, minimum=None):
    value = doc.get(key)
    if not _is_int(value):
        raise SchemaError(f"{key}: expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{key}: must be >= {minimum}, got {value}")
    return value
