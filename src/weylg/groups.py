"""Finitely generated abelian groups and their elements.

A group is Z^r x Z/m_1 x .. x Z/m_s; elements are integer vectors of
length r+s with torsion components reduced.  The group law is
componentwise addition, so "products" in multiplicative notation are
sums here and inverses are negations.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import InvalidArguments, SchemaError


@dataclass(frozen=True)
class AbGroup:
    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InvalidArguments("free rank must be >= 0")
        if any(m < 2 for m in self.torsion):
            raise InvalidArguments("torsion orders must be >= 2")

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite():
            raise InvalidArguments("group is infinite")
        n = 1
        for m in self.torsion:
            n *= m
        return n

    def reduce(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.ncoords:
            raise InvalidArguments(
                f"element needs {self.ncoords} coordinates, got {len(vec)}"
            )
        free = vec[: self.free_rank]
        tors = tuple(v % m for v, m in zip(vec[self.free_rank :], self.torsion))
        return free + tors

    def element(self, vec) -> "GroupElement":
        return GroupElement(self, self.reduce(vec))

    def identity(self) -> "GroupElement":
        return self.element((0,) * self.ncoords)

    def basis(self):
        """One generator per coordinate, in coordinate order."""
        out = []
        for i in range(self.ncoords):
            vec = [0] * self.ncoords
            vec[i] = 1
            out.append(self.element(vec))
        return out

    def elements(self):
        """All elements, lexicographic in coordinates; finite groups only."""
        if not self.is_finite():
            raise InvalidArguments("cannot enumerate an infinite group")
        for vec in itertools.product(*(range(m) for m in self.torsion)):
            yield GroupElement(self, vec)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{m}" for m in self.torsion]
        return "x".join(parts) if parts else "1"


@dataclass(frozen=True)
class GroupElement:
    group: AbGroup
    vec: tuple

    def __add__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if other.group is not group and other.group != group:
            raise InvalidArguments("elements of different groups")
        # both vectors are reduced and of the group's length: reduce
        # only the torsion coordinates of the sum
        free = group.free_rank
        a, b = self.vec, other.vec
        if not free:
            return GroupElement(group, tuple(
                [(x + y) % m for x, y, m in zip(a, b, group.torsion)]
            ))
        vec = tuple([x + y for x, y in zip(a[:free], b[:free])]) + tuple(
            [(x + y) % m for x, y, m in zip(a[free:], b[free:], group.torsion)]
        )
        return GroupElement(group, vec)

    def __neg__(self) -> "GroupElement":
        return self.group.element(tuple(-a for a in self.vec))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.vec)

    def __repr__(self):
        return f"GroupElement{self.vec}"


_GROUP_TOKEN = re.compile(r"^(Z(?:/(\d+))?)$")


def parse_group(text: str) -> AbGroup:
    """Parse strings like "Z/2xZ/3", "Z^2", "Z/4", "ZxZ/2", "1"."""
    text = text.strip()
    if text in ("1", "0", "trivial"):
        return AbGroup(0, ())
    free = 0
    torsion = []
    for part in text.split("x"):
        part = part.strip()
        caret = re.match(r"^Z\^(\d+)$", part)
        if caret:
            free += int(caret.group(1))
            continue
        m = _GROUP_TOKEN.match(part)
        if not m:
            raise SchemaError(f"group: cannot parse component {part!r}")
        if m.group(2) is None:
            free += 1
        else:
            order = int(m.group(2))
            if order < 2:
                raise SchemaError(f"group: torsion order must be >= 2, got {order}")
            torsion.append(order)
    return AbGroup(free, tuple(torsion))
