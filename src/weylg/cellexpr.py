"""Text grammar for cells and chains.

Cells are written with bar runs whose length encodes the join level:
``[a,b|c]`` is a level-1 join of the bar cells a,b and c, ``[a||b]`` is
level 2, and so on; commas separate elements inside a bar cell.  An
element is a juxtaposition of symbol powers (``ab``, ``a^-1``, ``b^2c``)
or an explicit coordinate vector ``(1,0,2)``.  Chains are signed sums of
cells with optional integer multiplicities, e.g. ``[a,b] - 2*[b,a]``.
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

    def symbol(self, name):
        if name not in self._index:
            raise SchemaError(f"unknown symbol {name!r}")
        vec = [0] * self.group.ncoords
        vec[self._index[name]] = 1
        return self.group.element(vec)

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
_VECTOR = re.compile(r"\((-?\d+(?:,-?\d+)*)\)")


def parse_element(text: str, table: SymbolTable):
    text = text.strip().replace(" ", "")
    if text == "1":
        return table.group.identity()
    m = _VECTOR.fullmatch(text)
    if m:
        vec = tuple(int(v) for v in m.group(1).split(","))
        return table.group.element(vec)
    pos = 0
    out = table.group.identity()
    while pos < len(text):
        m = _ATOM.match(text, pos)
        if not m:
            raise SchemaError(f"element: cannot parse {text!r} at offset {pos}")
        el = table.symbol(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        step = el if power >= 0 else -el
        for _ in range(abs(power)):
            out = out + step
        pos = m.end()
    return out


def _split_runs(body: str, k: int):
    """Split on runs of exactly k bars (longer runs never occur here)."""
    parts = []
    current = []
    i = 0
    while i < len(body):
        if body[i] == "|":
            run = 0
            while i < len(body) and body[i] == "|":
                run += 1
                i += 1
            if run == k:
                parts.append("".join(current))
                current = []
            else:
                current.append("|" * run)
        else:
            current.append(body[i])
            i += 1
    parts.append("".join(current))
    return parts


def parse_cell(text: str, table: SymbolTable):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SchemaError(f"cell: expected [..], got {text!r}")
    return _parse_body(text[1:-1].strip(), table)


def _parse_body(body: str, table: SymbolTable):
    if body == "":
        return BarCell(())
    runs = set(len(r) for r in re.findall(r"\|+", body))
    if not runs:
        elements = [parse_element(e, table) for e in body.split(",")]
        return BarCell(tuple(elements))
    k = max(runs)
    parts = _split_runs(body, k)
    if any(p.strip() == "" for p in parts):
        raise SchemaError(f"cell: empty component in {body!r}")
    return join(k, tuple(_parse_body(p.strip(), table) for p in parts))


def _split_chain(text: str):
    """Split a chain expression into (sign, term) pieces at depth 0."""
    pieces = []
    depth = 0
    sign = 1
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-" and not _inside_number(current):
            if "".join(current).strip():
                pieces.append((sign, "".join(current).strip()))
            sign = 1 if ch == "+" else -1
            current = []
        else:
            current.append(ch)
    if "".join(current).strip():
        pieces.append((sign, "".join(current).strip()))
    return pieces


def _inside_number(current):
    # allow "2*[a]" style coefficients; a sign directly after '*' or '^'
    # belongs to the number, not to the chain structure
    for ch in reversed(current):
        if ch == " ":
            continue
        return ch in "*^"
    return False


def parse_chain(text: str, table: SymbolTable) -> Chain:
    text = text.strip()
    if text == "0":
        return Chain.zero()
    terms = {}
    for sign, term in _split_chain(text):
        coeff = sign
        if "*" in term:
            num, _, rest = term.partition("*")
            coeff *= int(num.strip())
            term = rest.strip()
        _add_term(terms, parse_cell(term, table), coeff)
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
