"""Symmetrized cycles and evaluation of diagonal cochains.

The symmetrized cycle of arguments (a_1..a_p) with composition
(l_1..l_p) of d sums, with coefficient one, the level-1 cells
[b_1|..|b_d] over all multiset permutations of the multiset holding a_i
with multiplicity l_i.  Its boundary vanishes identically.  A braiding
tensor over the free group Z^n defines a cochain on pure cells of that
shape by multilinear extension of its entries; pairing it with
symmetrized cycles recovers the aggregate exponents.
"""

from __future__ import annotations

from .cells import BarCell, Chain, JoinCell, _add_term, join
from .errors import CellShapeError, InvalidArguments
from .groups import AbGroup, GroupElement
from .lattice import SqrtBraidingTensor


def multiset_permutations(items):
    """Distinct permutations of a tuple of hashables, lexicographically
    ordered by first-occurrence index of each value."""
    order = []
    counts = {}
    for it in items:
        if it not in counts:
            order.append(it)
            counts[it] = 0
        counts[it] += 1
    n = len(items)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for value in order:
            if counts[value]:
                counts[value] -= 1
                prefix.append(value)
                rec(prefix)
                prefix.pop()
                counts[value] += 1

    rec([])
    return out


def symmetrized_cycle(args, lam) -> Chain:
    """Sum of pure cells over the slot permutations; always a cycle.

    There are exactly d!/(l_1! .. l_p!) summands, one per multiset
    permutation of the argument slots; when distinct slots carry equal
    group elements the corresponding cells accumulate multiplicity (the
    convention that keeps the evaluation a form in each argument).
    """
    args = tuple(args)
    lam = tuple(lam)
    if len(args) != len(lam):
        raise InvalidArguments(
            f"{len(lam)}-part composition needs {len(lam)} arguments"
        )
    if any(l < 1 for l in lam):
        raise InvalidArguments("composition parts must be >= 1")
    labels = []
    for pos, l in enumerate(lam):
        labels.extend([pos] * l)
    terms = {}
    for perm in multiset_permutations(tuple(labels)):
        cell = join(1, tuple(BarCell((args[p],)) for p in perm))
        _add_term(terms, cell, 1)
    return Chain(terms)


def _pure_components(cell, degree):
    """Elements (x_1..x_d) of a pure cell [x_1|..|x_d], else None."""
    if degree == 1:
        if isinstance(cell, BarCell) and cell.degree == 1:
            return (cell.elements[0],)
        return None
    if not isinstance(cell, JoinCell) or cell.level != 1:
        return None
    if len(cell.comps) != degree:
        return None
    elements = []
    for c in cell.comps:
        if not isinstance(c, BarCell) or c.degree != 1:
            return None
        elements.append(c.elements[0])
    return tuple(elements)


class DiagonalCochain:
    """Cochain on pure cells defined by a braiding tensor over Z^n.

    The value on [x_1|..|x_d] is the mu-exponent
    sum over index tuples of 2*entry(i_1..i_d) * prod_t x_t[i_t],
    i.e. the multilinear extension of the tensor on the standard basis.
    Other cell shapes are undefined and raise; chains evaluate by
    extending additively on exponents.
    """

    def __init__(self, tensor: SqrtBraidingTensor):
        self.tensor = tensor
        self.group = AbGroup(tensor.rank)

    def eval_element_tuple(self, xs) -> int:
        tensor = self.tensor
        if len(xs) != tensor.degree:
            raise CellShapeError(
                f"need {tensor.degree} arguments, got {len(xs)}"
            )
        for x in xs:
            if not isinstance(x, GroupElement) or x.group != self.group:
                raise CellShapeError("arguments must lie in Z^rank")
        total = 0
        for idx, e in zip(tensor.index_tuples(), tensor.flat()):
            if e == 0:
                continue
            factor = 1
            for x, i in zip(xs, idx):
                factor *= x.vec[i - 1]
                if factor == 0:
                    break
            if factor:
                total += 2 * e * factor
        return total % tensor.modulus

    def eval_cell(self, cell) -> int:
        xs = _pure_components(cell, self.tensor.degree)
        if xs is None:
            raise CellShapeError(f"cochain undefined on cell shape {cell!r}")
        return self.eval_element_tuple(xs)

    def eval_chain(self, chain: Chain) -> int:
        total = 0
        for cell, coeff in chain.terms.items():
            total += coeff * self.eval_cell(cell)
        return total % self.tensor.modulus

    def eval_chain_zero_extended(self, chain: Chain) -> int:
        """Evaluation that treats non-pure cells as exponent zero.

        Exploratory only: whether this extension is a cocycle is not
        asserted anywhere.
        """
        total = 0
        for cell, coeff in chain.terms.items():
            xs = _pure_components(cell, self.tensor.degree)
            if xs is not None:
                total += coeff * self.eval_element_tuple(xs)
        return total % self.tensor.modulus


def dcharacter_eval(tensor: SqrtBraidingTensor, cell) -> int:
    return DiagonalCochain(tensor).eval_cell(cell)


def theta_lambda(tensor: SqrtBraidingTensor, lam, args) -> int:
    """Cochain value on the symmetrized cycle; the (d-k,k) case on a
    basis pair is twice the aggregate sqrt-exponent."""
    cochain = DiagonalCochain(tensor)
    return cochain.eval_chain(symmetrized_cycle(args, lam))
