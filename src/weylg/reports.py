"""Verification reports: the boundary table, witness chains, and the
inclusion-exclusion combinations certified two independent ways.

Everything here recomputes boundaries with the formula engine and
compares exactly against the recorded chains; nothing is approximate.
"""

from __future__ import annotations

from .cells import BarCell, Chain, boundary, join
from .cellexpr import SymbolTable, parse_chain, parse_element
from .cycles import _add_symmetrized
from .errors import Report
from .homology import inclusion_exclusion_chain
from .snf import ColumnSolver
from .tabledata import TABLE_ROWS, WITNESS_REPAIRS, WITNESSES

_TABLE_SYMBOLS = "abcdef"
_WITNESS_SYMBOLS = "abcd"
_CORRECTION_ROUNDS = 3


def verify_table1() -> Report:
    """Boundary of every tabulated generator versus the printed chain.

    Rows without a note must match exactly.  A flagged row is recorded
    as ok when the formula output behaves as its printed chain's degree
    says, with the note carried through: a print one degree below the
    generator (an ambiguous sign, resolved in the encoded chain) must
    equal the formula; any other print is degree-inconsistent, and the
    formula must differ from it and lie one degree below the generator.
    """
    table = SymbolTable.free(_TABLE_SYMBOLS)
    report = Report()
    for generator, printed, note in TABLE_ROWS:
        cell = parse_chain(generator, table)
        computed = boundary(cell)
        printed_chain = parse_chain(printed, table)
        if note is None:
            report.record(
                f"boundary of {generator}",
                computed == printed_chain,
                "matches the printed chain"
                if computed == printed_chain
                else "formula output differs from the printed chain",
            )
        else:
            lower = cell.degree() - 1
            if printed_chain.degree() == lower:
                formula_ok = computed == printed_chain
            else:
                formula_ok = (
                    computed != printed_chain and computed.degree() == lower
                )
            report.record(
                f"boundary of {generator}", formula_ok, note, printed_exact=False
            )
    return report


def _claimed_combination(claims, table: SymbolTable) -> Chain:
    terms = {}
    for coeff, lam, arg_exprs in claims:
        args = tuple(parse_element(e, table) for e in arg_exprs)
        _add_symmetrized(terms, args, lam, coeff)
    return Chain(terms)


def _contains_identity(cell) -> bool:
    if isinstance(cell, BarCell):
        return any(e.is_identity() for e in cell.elements)
    return any(_contains_identity(c) for c in cell.comps)


def _degenerate_parents(cell):
    """Degree+1 cells obtained by inserting one identity element."""
    identity = None
    out = set()
    if isinstance(cell, BarCell):
        if not cell.elements:
            return out
        identity = cell.elements[0].group.identity()
        els = cell.elements
        for i in range(len(els) + 1):
            out.add(BarCell(els[:i] + (identity,) + els[i:]))
        return out
    comps = cell.comps
    for ci, comp in enumerate(comps):
        if isinstance(comp, BarCell) and comp.elements:
            identity = comp.elements[0].group.identity()
            els = comp.elements
            for i in range(len(els) + 1):
                patched = BarCell(els[:i] + (identity,) + els[i:])
                out.add(join(cell.level, comps[:ci] + (patched,) + comps[ci + 1 :]))
    return out


def degenerate_correction(junk: Chain):
    """Chain of identity-containing cells whose boundary is `junk`.

    Searches a window grown from the junk support by inserting identity
    elements _CORRECTION_ROUNDS times; returns None if the window does
    not close (callers treat that as failure).
    """
    if junk.is_zero():
        return Chain.zero()
    if not all(_contains_identity(c) for c in junk.terms):
        return None
    support = set(junk.terms)
    candidates = set()
    frontier = set(junk.terms)
    for _ in range(_CORRECTION_ROUNDS):
        fresh = set()
        for cell in frontier:
            fresh |= _degenerate_parents(cell)
        fresh -= candidates
        candidates |= fresh
        frontier = set()
        for cand in fresh:
            for image in boundary(cand).terms:
                if image not in support:
                    support.add(image)
                    frontier.add(image)
    column_cells = sorted(candidates, key=lambda c: c.sort_key())
    row_index = {
        cell: i
        for i, cell in enumerate(sorted(support, key=lambda c: c.sort_key()))
    }
    columns = [
        {row_index[cell]: coeff for cell, coeff in boundary(cand).terms.items()}
        for cand in column_cells
    ]
    target = {row_index[cell]: coeff for cell, coeff in junk.terms.items()}
    solution = ColumnSolver(columns).solve(target)
    if solution is None:
        return None
    return Chain({column_cells[j]: solution[j] for j in sorted(solution)})


def verify_lemma_witnesses() -> Report:
    """Check each recorded witness chain against its claimed combination.

    The nine witnesses cover the product and inverse rules for
    symmetrized cycles in degrees 3 and 5.  The six product-rule
    witnesses bound their claims exactly as printed.  The three
    inverse-rule witnesses do not: their source computation drops cells
    containing the group identity, and two sign patterns are off on top
    of that.  For those, the repaired sign pattern is checked to match
    the claim modulo identity-containing cells, and an explicit
    degenerate correction chain is computed so that the repaired witness
    plus correction bounds the claim exactly; the identity is recorded
    as verified with the erratum noted.
    """
    table = SymbolTable.free(_WITNESS_SYMBOLS)
    report = Report()
    for name, witness_expr, claims in WITNESSES:
        witness = parse_chain(witness_expr, table)
        claimed = _claimed_combination(claims, table)
        computed = boundary(witness)
        if computed == claimed:
            report.record(name, True, "printed witness is exact")
            continue
        repair = WITNESS_REPAIRS.get(name)
        if repair is None:
            report.record(
                name, False, "boundary differs from the claim", printed_exact=False
            )
            continue
        repaired_expr, repair_note = repair
        repaired = parse_chain(repaired_expr, table)
        junk = claimed - boundary(repaired)
        correction = degenerate_correction(junk)
        exact = (
            correction is not None
            and boundary(repaired + correction) == claimed
        )
        report.record(
            name,
            exact,
            f"printed witness not exact ({repair_note}); verified via the "
            "repaired witness plus an explicit degenerate correction of "
            f"{len(correction.terms) if correction is not None else 0} cells",
            printed_exact=False,
        )
    return report


def _witness_chain(index: int, table: SymbolTable, *arg_exprs) -> Chain:
    """Witness number `index` with its symbols substituted.

    The recorded chains use symbols a, b(, c, d); substitution rewrites
    them to arbitrary element expressions over `table`.  Only witnesses
    without inverse powers are eligible (substituting a product into
    x^-1 would invert just the last factor).
    """
    name, expr, _ = WITNESSES[index]
    if "^" in expr:
        raise ValueError(f"cannot substitute into {name!r}")
    base_names = sorted(set(ch for ch in expr if ch.isalpha()))
    mapping = dict(zip(base_names, arg_exprs))
    out = []
    for ch in expr:
        out.append(mapping.get(ch, ch))
    return parse_chain("".join(out), table)


# inclusion-exclusion combinations certified by the membership engine,
# together with witnesses assembled from the recorded ones

COROLLARY_NAMES = (
    "degree 3 quadratic inclusion-exclusion (three factors)",
    "degree 5 (2,1) inclusion-exclusion (three factors)",
    "degree 5 cubic inclusion-exclusion (four factors)",
)


def corollary_combination(which: int, args) -> Chain:
    """The alternating sum of symmetrized cycles over subproducts.

    which=0: quadratic cycles of three factors (degree 3);
    which=1: (2,1) cycles of three factors against a fixed last argument
    (degree 5); which=2: cubic cycles of four factors (degree 5).
    """
    if which == 0:
        x, y, z = args
        return inclusion_exclusion_chain((x,), (2,), 0, (x, y, z))
    if which == 1:
        x, y, z, w = args
        return inclusion_exclusion_chain((x, w), (2, 1), 0, (x, y, z))
    if which == 2:
        return inclusion_exclusion_chain((args[0],), (3,), 0, tuple(args))
    raise ValueError(f"unknown combination {which}")


def corollary_witness(which: int, table: SymbolTable, names) -> Chain:
    """Explicit boundary witness assembled from the recorded chains.

    These are the compositions of the recorded product-rule witnesses
    that exhibit each inclusion-exclusion combination as a boundary,
    giving a second certificate independent of the matrix solver.
    """
    W = _witness_chain
    if which == 0:
        x, y, z = names
        return (
            W(0, table, x, z)
            + W(0, table, y, z)
            - W(0, table, x + y, z)
            - W(1, table, x, y, z)
        )
    if which == 1:
        x, y, z, w = names
        return (
            W(4, table, x, z, w)
            + W(4, table, y, z, w)
            - W(4, table, x + y, z, w)
            - W(6, table, x, y, z, w)
        )
    if which == 2:
        x, y, z, w = names
        return (
            -W(3, table, x + y + z, w)
            + W(3, table, x + y, w)
            + W(3, table, x + z, w)
            + W(3, table, y + z, w)
            - W(3, table, x, w)
            - W(3, table, y, w)
            - W(3, table, z, w)
            + W(4, table, x, z, w)
            + W(4, table, y, z, w)
            - W(4, table, x + y, z, w)
            - W(6, table, x, y, z, w)
            - W(5, table, w, x + y, z)
            + W(5, table, w, x, z)
            + W(5, table, w, y, z)
        )
    raise ValueError(f"unknown combination {which}")


def verify_corollary_witnesses() -> Report:
    """Exact check that each assembled witness bounds its combination."""
    table = SymbolTable.free("wxyz")
    report = Report()
    specs = [
        (0, ("x", "y", "z")),
        (1, ("x", "y", "z", "w")),
        (2, ("x", "y", "z", "w")),
    ]
    for which, names in specs:
        args = tuple(parse_element(n, table) for n in names)
        combo = corollary_combination(which, args)
        witness = corollary_witness(which, table, names)
        ok = boundary(witness) == combo
        report.record(COROLLARY_NAMES[which], ok)
    return report
