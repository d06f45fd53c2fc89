"""Cells of the abelian complexes, formal chains, shuffles, boundaries.

A level-0 cell is a bar tuple [x_1,..,x_n] of group elements (the empty
tuple is the degree-0 generator, which makes the bar boundary uniform).
A level-k cell for k >= 1 joins at least two cells of level < k; its
degree is the sum of the component degrees plus (p-1)*k.  Singleton
joins are canonicalized away, which realizes the inclusion of each
complex into the next level: equality and hashing always see the
canonical form.
"""

from __future__ import annotations

import itertools

from .errors import InvalidArguments

_set = object.__setattr__


class BarCell:
    __slots__ = ("elements", "degree", "_key", "_hash")

    level = 0

    def __init__(self, elements):
        elements = tuple(elements)
        _set(self, "elements", elements)
        _set(self, "degree", len(elements))
        key = ("b", tuple([e.vec for e in elements]))
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def __setattr__(self, *a):
        raise AttributeError("cells are immutable")

    def sort_key(self):
        return (self.degree, 0, self._key)

    def __eq__(self, other):
        return isinstance(other, BarCell) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "[" + ",".join(str(e.vec) for e in self.elements) + "]"


class JoinCell:
    __slots__ = ("level", "comps", "degree", "_key", "_hash")

    def __init__(self, level, comps):
        comps = tuple(comps)
        if level < 1:
            raise InvalidArguments("join level must be >= 1")
        if len(comps) < 2:
            raise InvalidArguments("joins need at least two components")
        degree = (len(comps) - 1) * level
        for c in comps:
            if c.level > level - 1:
                raise InvalidArguments(
                    f"component level {c.level} too high for join level {level}"
                )
            if c.degree < 1:
                raise InvalidArguments("components must have degree >= 1")
            degree += c.degree
        _set(self, "level", level)
        _set(self, "comps", comps)
        _set(self, "degree", degree)
        key = ("j", level, tuple([c._key for c in comps]))
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def __setattr__(self, *a):
        raise AttributeError("cells are immutable")

    def sort_key(self):
        return (self.degree, self.level, self._key)

    def __eq__(self, other):
        return isinstance(other, JoinCell) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        sep = "|" * self.level
        return "[" + sep.join(repr(c)[1:-1] for c in self.comps) + "]"


def join(level, comps):
    """Canonical join: a singleton wrapper is the component itself."""
    comps = tuple(comps)
    if len(comps) == 1:
        return comps[0]
    return JoinCell(level, comps)


def bar(*elements) -> BarCell:
    return BarCell(elements)


class Chain:
    """Finite integer combination of cells; no zero coefficients stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for cell, c in (terms or {}).items():
            if c:
                clean[cell] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, cell, coeff=1):
        return cls({cell: coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        _add_chain(terms, other)
        return Chain(terms)

    def __neg__(self):
        return Chain({cell: -c for cell, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Chain({cell: c * x for cell, x in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Chain) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def degree(self):
        degrees = {cell.degree for cell in self.terms}
        if len(degrees) > 1:
            raise InvalidArguments(f"chain is not homogeneous: degrees {degrees}")
        return degrees.pop() if degrees else None

    def max_level(self):
        return max((cell.level for cell in self.terms), default=0)

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"{c}*{cell!r}" for cell, c in self.sorted_terms())


def _add_term(terms, cell, coeff):
    """terms[cell] += coeff in a {cell: coeff} dict, dropping the entry
    when it cancels."""
    new = terms.get(cell, 0) + coeff
    if new:
        terms[cell] = new
    else:
        terms.pop(cell, None)


def _add_chain(terms, chain, scale=1):
    """terms += scale * chain in a {cell: coeff} dict."""
    for cell, c in chain.terms.items():
        _add_term(terms, cell, scale * c)


def _as_chain(x):
    if isinstance(x, Chain):
        return x
    return Chain.of(x)


def _shuffle_components(x, k):
    """Component list [(item, degree)] of a cell viewed at join level k."""
    if k == 0:
        if not isinstance(x, BarCell):
            raise InvalidArguments("level-0 shuffle needs bar cells")
        return [(e, 1) for e in x.elements]
    if isinstance(x, JoinCell) and x.level == k:
        return [(c, c.degree) for c in x.comps]
    return [(x, x.degree)]


def _reassemble(k, items):
    if k == 0:
        return BarCell(tuple(items))
    return join(k, tuple(items))


def shuffle_cells(x, y, k) -> Chain:
    """Signed sum over all order-preserving interleavings at level k.

    The sign of an interleaving is (-1) to the sum of
    (deg(x_i)+k)*(deg(y_j)+k) over pairs where x_i lands after y_j.
    """
    cx = _shuffle_components(x, k)
    cy = _shuffle_components(y, k)
    p, q = len(cx), len(cy)
    wy = [d + k for _, d in cy]
    prefix = [0]
    for w in wy:
        prefix.append(prefix[-1] + w)
    terms = {}
    for positions in itertools.combinations(range(p + q), p):
        eps = 0
        merged = [None] * (p + q)
        for i, pos in enumerate(positions):
            item, d = cx[i]
            merged[pos] = item
            eps += (d + k) * prefix[pos - i]
        it = iter(cy)
        for pos in range(p + q):
            if merged[pos] is None:
                merged[pos] = next(it)[0]
        cell = _reassemble(k, merged)
        _add_term(terms, cell, -1 if eps % 2 else 1)
    return Chain(terms)


def shuffle(x, y, k) -> Chain:
    """Bilinear extension of the level-k shuffle to chains."""
    terms = {}
    for cx, a in _as_chain(x).terms.items():
        for cy, b in _as_chain(y).terms.items():
            for cell, c in shuffle_cells(cx, cy, k).terms.items():
                _add_term(terms, cell, a * b * c)
    return Chain(terms)


def boundary_cell(cell) -> Chain:
    """Boundary of a single canonical cell.

    Level 0 is the bar boundary (with the empty cell absorbing the end
    terms, so degree-1 cells have zero boundary); higher levels apply
    the componentwise boundary plus adjacent contractions by the
    next-lower shuffle, with alternating signs driven by the partial
    degrees a_i = n_1 + .. + n_i + i*k.
    """
    terms = {}
    if isinstance(cell, BarCell):
        xs = cell.elements
        n = len(xs)
        if n == 0:
            return Chain.zero()
        _add_term(terms, BarCell(xs[1:]), 1)
        for i in range(1, n):
            merged = xs[: i - 1] + (xs[i - 1] + xs[i],) + xs[i + 1 :]
            _add_term(terms, BarCell(merged), (-1) ** i)
        _add_term(terms, BarCell(xs[:-1]), (-1) ** n)
        return Chain(terms)
    k = cell.level
    comps = cell.comps
    p = len(comps)
    a = [0]
    for c in comps:
        a.append(a[-1] + c.degree + k)
    for i in range(p):
        sign = -1 if a[i] % 2 else 1
        for inner, coeff in boundary_cell(comps[i]).terms.items():
            rebuilt = join(k, comps[:i] + (inner,) + comps[i + 1 :])
            _add_term(terms, rebuilt, sign * coeff)
    for i in range(p - 1):
        sign = -1 if a[i + 1] % 2 else 1
        contracted = shuffle_cells(comps[i], comps[i + 1], k - 1)
        for inner, coeff in contracted.terms.items():
            rebuilt = join(k, comps[:i] + (inner,) + comps[i + 2 :])
            _add_term(terms, rebuilt, sign * coeff)
    return Chain(terms)


def boundary(x) -> Chain:
    """Boundary of a cell or chain; linear, square zero."""
    terms = {}
    for cell, c in _as_chain(x).terms.items():
        for image, coeff in boundary_cell(cell).terms.items():
            _add_term(terms, image, c * coeff)
    return Chain(terms)


def random_cell(rng, group, max_level, degree, identity_weight=0.2):
    """Uniform-ish random canonical cell for property tests.

    Recursively picks a level and a composition; elements are random
    group elements (identities allowed).
    """
    def rand_element():
        if group.is_finite():
            vec = [rng.randrange(m) for m in group.torsion]
        else:
            vec = [
                0 if rng.random() < identity_weight else rng.randint(-2, 2)
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
