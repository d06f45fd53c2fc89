"""Text grammar for cells and chains.

Cells are written with bar runs whose length encodes the join level:
``[a,b|c]`` is a level-1 join of the bar cells a,b and c, ``[a||b]`` is
level 2, and so on; commas outside parentheses separate elements inside
a bar cell.  An element is a juxtaposition of symbol powers (``ab``,
``a^-1``, ``b^2c``), ``1``, or an explicit coordinate vector ``(1,0,2)``;
an empty element (``[a,,b]``, ``[a,]``) is refused, while ``[]`` is the
degree-0 cell.
A chain is a sequence of terms, each a sign, an optional multiplicity
``N*`` and a cell, e.g. ``[a,b] - 2*[b,a]``; only the first term may
omit its sign, and ``0`` is the zero chain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cells import BarCell, Chain, _add_term, join
from .errors import SchemaError
from .groups import AbGroup


@dataclass
class SymbolTable:
    """Names for the free coordinates of a group, in coordinate order."""

    group: AbGroup
    names: tuple = ()

    def __post_init__(self):
        if len(self.names) > self.group.ncoords:
            raise SchemaError("more symbol names than group coordinates")
        self._index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def free(cls, names):
        names = tuple(names)
        return cls(AbGroup(len(names)), names)

    def coordinate(self, name) -> int:
        if name not in self._index:
            raise SchemaError(f"unknown symbol {name!r}")
        return self._index[name]

    def render_element(self, el) -> str:
        if el.is_identity():
            return "1"
        if len(self.names) == self.group.ncoords:
            bits = []
            for name, e in zip(self.names, el.vec):
                if e == 0:
                    continue
                bits.append(name if e == 1 else f"{name}^{e}")
            return "".join(bits)
        return "(" + ",".join(str(v) for v in el.vec) + ")"


def symbols_in(text: str):
    """Distinct letters used in an expression, in alphabetical order."""
    return tuple(sorted(set(re.findall(r"[a-zA-Z]", text))))


def table_for(text: str) -> SymbolTable:
    names = symbols_in(text)
    if not names:
        names = ("a",)
    return SymbolTable.free(names)


_ATOM = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")
_ATOMS = re.compile(f"(?:{_ATOM.pattern})*")
_VECTOR = re.compile(r"\((-?\d+(?:,-?\d+)*)\)")
# a comma that no ")" follows before the next "(": outside every vector
_ELEMENT_COMMA = re.compile(r",(?![^(]*\))")
# one chain term: a sign (required after the first term), an optional
# multiplicity "N*", then a bracketed cell
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?(\[[^\[\]]*\])\s*")


def parse_element(text: str, table: SymbolTable):
    text = text.strip().replace(" ", "")
    if not text:
        raise SchemaError("element: empty element")
    if text == "1":
        return table.group.identity()
    m = _VECTOR.fullmatch(text)
    if m:
        vec = tuple(int(v) for v in m.group(1).split(","))
        return table.group.element(vec)
    end = _ATOMS.match(text).end()
    vec = [0] * table.group.ncoords
    for name, power in _ATOM.findall(text, 0, end):
        vec[table.coordinate(name)] += int(power or 1)
    if end < len(text):
        raise SchemaError(f"element: cannot parse {text!r} at offset {end}")
    return table.group.element(vec)


def parse_cell(text: str, table: SymbolTable):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SchemaError(f"cell: expected [..], got {text!r}")
    return _parse_body(text[1:-1].strip(), table)


def _parse_body(body: str, table: SymbolTable):
    if body == "":
        return BarCell(())
    # the longest bar run is the join level; shorter runs nest inside
    k = max(map(len, re.findall(r"\|+", body)), default=0)
    if k == 0:
        elements = _ELEMENT_COMMA.split(body)
        return BarCell(tuple(parse_element(e, table) for e in elements))
    parts = [p.strip() for p in body.split("|" * k)]
    if "" in parts:
        raise SchemaError(f"cell: empty component in {body!r}")
    return join(k, tuple(_parse_body(p, table) for p in parts))


def parse_chain(text: str, table: SymbolTable) -> Chain:
    text = text.strip()
    if text == "0":
        return Chain.zero()
    terms = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise SchemaError(f"chain: cannot parse {text!r} at offset {pos}")
        sign, num, cell = m.groups()
        coeff = int(num or 1) * (-1 if sign == "-" else 1)
        _add_term(terms, parse_cell(cell, table), coeff)
        pos = m.end()
    return Chain(terms)


def format_cell(cell, table: SymbolTable) -> str:
    return "[" + _body(cell, table) + "]"


def _body(cell, table):
    if isinstance(cell, BarCell):
        return ",".join(table.render_element(e) for e in cell.elements)
    sep = "|" * cell.level
    return sep.join(_body(c, table) for c in cell.comps)


def format_chain(chain: Chain, table: SymbolTable) -> str:
    if chain.is_zero():
        return "0"
    rendered = sorted(
        (format_cell(cell, table), coeff) for cell, coeff in chain.terms.items()
    )
    bits = []
    for pos, (cell_s, coeff) in enumerate(rendered):
        mag = abs(coeff)
        body = cell_s if mag == 1 else f"{mag}*{cell_s}"
        if pos == 0:
            bits.append(body if coeff > 0 else f"-{body}")
        else:
            bits.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(bits)
