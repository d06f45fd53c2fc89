import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylg.cellexpr import (
    SymbolTable,
    format_cell,
    format_chain,
    parse_cell,
    parse_chain,
    parse_element,
    symbols_in,
    table_for,
)
from weylg.cells import BarCell, Chain, _add_term, boundary, join
from weylg.cli import run
from weylg.errors import SchemaError
from weylg.groups import AbGroup, GroupElement, parse_group
from weylg.homology import CellComplex
from weylg.tabledata import TABLE_ROWS, WITNESS_REPAIRS, WITNESSES


@pytest.fixture
def table():
    return SymbolTable.free("abcd")


def test_element_products_and_powers(table):
    assert parse_element("ab", table).vec == (1, 1, 0, 0)
    assert parse_element("a^-1", table).vec == (-1, 0, 0, 0)
    assert parse_element("a^2bc^-1", table).vec == (2, 1, -1, 0)
    assert parse_element("1", table).is_identity()


def test_element_vector_form():
    group = AbGroup(0, (2, 3))
    t = SymbolTable(group)
    assert parse_element("(1,2)", t).vec == (1, 2)
    assert parse_element("(3,5)", t).vec == (1, 2)


def test_unknown_symbol(table):
    with pytest.raises(SchemaError):
        parse_element("z", table)


@pytest.mark.parametrize(
    "text",
    ["[a,b|c]", "[a||b]", "[a|b,c|d]", "[a|b||c]", "[ab|a^-1]", "[]",
     "[a,1,b]", "[a|||b]"],
)
def test_cell_round_trip(text, table):
    cell = parse_cell(text, table)
    assert format_cell(cell, table) == text
    assert parse_cell(format_cell(cell, table), table) == cell


def test_nested_levels(table):
    cell = parse_cell("[a|b||c]", table)
    assert cell.level == 2
    assert cell.comps[0].level == 1


def test_chain_parsing_with_coefficients(table):
    chain = parse_chain("2*[a] - [b] + [a]", table)
    assert format_chain(chain, table) == "3*[a] - [b]"
    assert parse_chain("0", table).is_zero()


def test_boundary_print_matches_expected_order():
    table = table_for("[a|b]")
    chain = boundary(parse_cell("[a|b]", table))
    assert format_chain(chain, table) == "[a,b] - [b,a]"


def test_symbols_in_and_table_for():
    assert symbols_in("[c,a|b]") == ("a", "b", "c")
    table = table_for("[b|a]")
    assert format_cell(parse_cell("[b|a]", table), table) == "[b|a]"


def test_malformed_cells(table):
    for bad in ["a,b", "[a,b", "[a||]", "[|a]"]:
        with pytest.raises(SchemaError):
            parse_cell(bad, table)


# ---------------------------------------------------------------------
# Reference grammar: the character scanners that the regular expressions
# of weylg.cellexpr replaced, kept verbatim except for the `ref_`
# prefixes and the symbol lookup, as the oracle of the differential
# tests below.

_ATOM = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")
_VECTOR = re.compile(r"\((-?\d+(?:,-?\d+)*)\)")


def _symbol(table, name):
    vec = [0] * table.group.ncoords
    vec[table.coordinate(name)] = 1
    return table.group.element(vec)


def ref_parse_element(text: str, table: SymbolTable):
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
        el = _symbol(table, m.group(1))
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


def ref_parse_cell(text: str, table: SymbolTable):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SchemaError(f"cell: expected [..], got {text!r}")
    return ref_parse_body(text[1:-1].strip(), table)


def ref_parse_body(body: str, table: SymbolTable):
    if body == "":
        return BarCell(())
    runs = set(len(r) for r in re.findall(r"\|+", body))
    if not runs:
        elements = [ref_parse_element(e, table) for e in body.split(",")]
        return BarCell(tuple(elements))
    k = max(runs)
    parts = _split_runs(body, k)
    if any(p.strip() == "" for p in parts):
        raise SchemaError(f"cell: empty component in {body!r}")
    return join(k, tuple(ref_parse_body(p.strip(), table) for p in parts))


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


def ref_parse_chain(text: str, table: SymbolTable) -> Chain:
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
        _add_term(terms, ref_parse_cell(term, table), coeff)
    return Chain(terms)


# ---------------------------------------------------------------------

Z2xZ3 = parse_group("Z/2xZ/3")


def vec(*coords):
    return Z2xZ3.element(coords)


def test_vectors_parse_inside_bar_cells_and_joins():
    table = SymbolTable(Z2xZ3)
    assert parse_cell("[(1,0),(0,2)]", table) == BarCell((vec(1, 0), vec(0, 2)))
    assert parse_cell("[(1,0)|(1,0)]", table) == join(
        1, (BarCell((vec(1, 0),)), BarCell((vec(1, 0),)))
    )
    cell = parse_cell("[(1,1),1||(0,1)|(1,2), (3,4)]", table)
    assert cell == join(2, (
        BarCell((vec(1, 1), vec(0, 0))),
        join(1, (BarCell((vec(0, 1),)), BarCell((vec(1, 2), vec(1, 1))))),
    ))
    assert format_cell(cell, table) == "[(1,1),1||(0,1)|(1,2),(1,1)]"
    assert parse_chain("2*[(1,0)|(1,0)] - [(0,1),(0,1)]", table) == Chain({
        join(1, (BarCell((vec(1, 0),)), BarCell((vec(1, 0),)))): 2,
        BarCell((vec(0, 1), vec(0, 1))): -1,
    })


def test_product_group_witness_round_trips():
    table = SymbolTable(Z2xZ3)
    query = parse_chain("4*[(1,0)|(1,0)]", table)
    ok, witness = CellComplex(Z2xZ3, 1).boundary_membership(query)
    assert ok
    text = format_chain(witness, table)
    assert "(1,0)" in text
    assert parse_chain(text, table) == witness
    assert boundary(witness) == query


MALFORMED_CHAINS = ["[a] 2*[b]", "x*[a]", "[a]+", "[a]--[b]", "2*-[a]"]


@pytest.mark.parametrize("text", MALFORMED_CHAINS)
def test_malformed_chains_are_schema_errors(text, table):
    with pytest.raises(SchemaError, match=r"^chain: cannot parse .* at offset \d+$"):
        parse_chain(text, table)


@pytest.mark.parametrize("text", MALFORMED_CHAINS)
def test_malformed_chains_exit_2_through_the_cli(text, capsys):
    code = run(["complex", "boundary", "--expr", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: chain: cannot parse ")
    assert captured.err.count("\n") == 1


EMPTY_ELEMENTS = ["[a,,b]", "[a,b,]", "[,]", "[,a]", "[a, |b]"]


@pytest.mark.parametrize("text", EMPTY_ELEMENTS)
def test_empty_elements_are_schema_errors(text, table):
    with pytest.raises(SchemaError, match=r"^element: empty element$"):
        parse_cell(text, table)
    code = run(["complex", "boundary", "--expr", text])
    assert code == 2


def test_empty_element_text_is_refused(table):
    for text in ["", " "]:
        with pytest.raises(SchemaError, match=r"^element: empty element$"):
            parse_element(text, table)


def test_empty_cell_and_identity_still_parse(table):
    assert parse_cell("[]", table) == BarCell(())
    assert parse_cell("[ ]", table) == BarCell(())
    assert parse_cell("[1]", table) == BarCell((table.group.identity(),))


def test_element_exponents_are_added_once(monkeypatch):
    additions = []
    add = GroupElement.__add__
    monkeypatch.setattr(
        GroupElement, "__add__", lambda x, y: additions.append(1) or add(x, y)
    )
    assert parse_element("a^1000000b^-3", SymbolTable.free("ab")).vec == (
        1000000, -3,
    )
    assert len(additions) <= 2


RECORDED_EXPRESSIONS = sorted(
    {expr for row in TABLE_ROWS for expr in row[:2]}
    | {witness for _, witness, _ in WITNESSES}
    | {repaired for repaired, _ in WITNESS_REPAIRS.values()}
)


@pytest.mark.parametrize("text", RECORDED_EXPRESSIONS)
def test_recorded_expressions_parse_as_before(text):
    table = SymbolTable.free("abcdef")
    assert parse_chain(text, table) == ref_parse_chain(text, table)


_SPACE = st.sampled_from(["", " ", "  "])
_POWERS = st.tuples(
    st.sampled_from("abcd"), st.sampled_from([None, -3, -1, 0, 2, 5])
)
_ELEMENTS = st.one_of(
    st.just("1"),
    st.lists(_POWERS, min_size=1, max_size=3).map(
        lambda atoms: "".join(n if p is None else f"{n}^{p}" for n, p in atoms)
    ),
)


def _bodies(level):
    if level == 0:
        return st.lists(_ELEMENTS, min_size=1, max_size=2).map(",".join)
    comps = st.integers(0, level - 1).flatmap(_bodies)
    bars = _SPACE.map(lambda sp: sp + "|" * level + sp)
    return st.tuples(st.lists(comps, min_size=2, max_size=2), bars).map(
        lambda parts: parts[1].join(parts[0])
    )


@st.composite
def _terms(draw, first):
    signs = ["", "+", "-"] if first else ["+", "-"]
    sign = draw(st.sampled_from(signs))
    coeff = draw(st.one_of(st.none(), st.integers(0, 12)))
    level = draw(st.integers(-1, 3))
    body = "" if level < 0 else draw(_bodies(level))
    sp = draw(_SPACE)
    mult = "" if coeff is None else f"{coeff}{draw(_SPACE)}*{sp}"
    return f"{sign}{sp}{mult}[{body}]"


@st.composite
def _chains(draw):
    first = draw(_terms(first=True))
    rest = draw(st.lists(_terms(first=False), max_size=3))
    return draw(_SPACE).join([first, *rest])


@settings(max_examples=120, deadline=None)
@given(_chains())
def test_drawn_chains_parse_as_before(text):
    table = SymbolTable.free("abcd")
    assert parse_chain(text, table) == ref_parse_chain(text, table)


@settings(max_examples=120, deadline=None)
@given(_ELEMENTS)
def test_drawn_elements_parse_as_before(text):
    table = SymbolTable.free("abcd")
    assert parse_element(text, table) == ref_parse_element(text, table)
