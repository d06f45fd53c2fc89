"""Command-line front end.

Exit codes: 0 success, 1 validation failure (a verification report did
not pass), 2 typed errors (undefined Cartan entry, exceeded bounds,
malformed input), 141 when the reader closes stdout early (the shell's
status for SIGPIPE; nothing is printed to stderr).  All output is
deterministic for a fixed command line; residues print uniformly as
"mu^k (mod M)".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures
from .cellexpr import (
    SymbolTable,
    format_chain,
    parse_chain,
    parse_element,
    table_for,
)
from .cells import boundary
from .cycles import symmetrized_cycle
from .errors import SchemaError, WeylgError
from .groupoid import (
    DEFAULT_MAX_OBJECTS,
    dynkin_diagram,
    generate_cartan_graph,
    validate_axioms,
)
from .groups import parse_group
from .homology import CellComplex
from .lattice import load_tensor_json
from .laurent import verify_classical_d2, verify_divisibility, verify_recursion
from .rank2 import QuiddityCycle, quiddity_cycle, render_frieze, triangulate
from .reports import verify_lemma_witnesses, verify_table1
from .roots import DEFAULT_DEPTH_MAX, real_roots, validate_root_axioms
from .rosso import (
    DEFAULT_M_MAX,
    cartan_entry,
    cartan_matrix,
    rosso_diagnostics,
)


def mu_str(exp: int, modulus: int) -> str:
    return f"mu^{exp % modulus} (mod {modulus})"


def _load_tensor(args):
    if getattr(args, "example", None):
        return fixtures.load_example(args.example)
    if getattr(args, "tensor", None):
        with open(args.tensor, "r", encoding="utf-8") as handle:
            return load_tensor_json(handle.read())
    raise SchemaError("provide --tensor FILE or --example NAME")


def _emit_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _parse_ints(text: str, sep: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(sep)]
    except ValueError:
        raise SchemaError(
            f"{flag}: expected integers separated by {sep!r}, got {text!r}"
        ) from None


def _parse_range(text: str):
    bounds = _parse_ints(text, ":", "--diagnostics")
    if len(bounds) > 2:
        raise SchemaError(f"--diagnostics: expected M1 or M0:M1, got {text!r}")
    lo, hi = bounds if len(bounds) == 2 else (0, bounds[0])
    if not 0 <= lo <= hi:
        raise SchemaError(f"--diagnostics: expected 0 <= M0 <= M1, got {text!r}")
    return range(lo, hi + 1)


def _diagnostics_doc(tensor, l, j, m_range):
    rows = rosso_diagnostics(tensor, l, j, m_range)
    M = tensor.modulus
    return {
        "pair": [l, j],
        "rows": [
            {
                "m": r.m,
                "chi_v": mu_str(r.chi_v, M),
                "chi_w": mu_str(r.chi_w, M),
                "chi_s": mu_str(r.chi_s, M),
            }
            for r in rows
        ],
    }


def cmd_cartan(args) -> int:
    tensor = _load_tensor(args)
    M = tensor.modulus
    doc = {"modulus": M, "rank": tensor.rank, "degree": tensor.degree}
    if args.pair:
        l, j = args.pair
        doc["pair"] = [l, j]
        doc["entry"] = cartan_entry(tensor, l, j, args.m_max)
    else:
        doc["cartan"] = cartan_matrix(tensor, args.m_max).as_lists()
    if args.diagnostics is not None:
        l, j = args.pair if args.pair else (1, 2)
        doc["diagnostics"] = _diagnostics_doc(
            tensor, l, j, _parse_range(args.diagnostics)
        )
    if args.format == "json":
        _emit_json(doc)
        return 0
    if "cartan" in doc:
        print(f"cartan matrix (modulus {M}, rank {tensor.rank}, degree {tensor.degree}):")
        width = max(len(str(e)) for row in doc["cartan"] for e in row)
        for row in doc["cartan"]:
            print("  " + " ".join(str(e).rjust(width) for e in row))
    else:
        l, j = doc["pair"]
        print(f"cartan entry ({l},{j}) = {doc['entry']}")
    if "diagnostics" in doc:
        d = doc["diagnostics"]
        print(f"diagnostics for pair ({d['pair'][0]},{d['pair'][1]}):")
        print("  m | chi(v) | chi(w) | chi(s)")
        for row in d["rows"]:
            print(
                f"  {row['m']} | {row['chi_v']} | {row['chi_w']} | {row['chi_s']}"
            )
    return 0


def _graph_doc(graph):
    objects = [
        {"key": list(obj.tensor.flat()), "cartan": obj.cartan.as_lists()}
        for obj in graph.objects
    ]
    edges = [
        {"from": pos, "by": i, "to": target}
        for pos, targets in enumerate(graph.edges)
        for i, target in enumerate(targets, start=1)
    ]
    return {"rank": graph.rank, "objects": objects, "edges": edges}


def _graph_dot(graph) -> str:
    doc = _graph_doc(graph)
    lines = ["graph orbit {"]
    for pos, obj in enumerate(doc["objects"]):
        rows = ";".join(",".join(str(e) for e in row) for row in obj["cartan"])
        lines.append(f'  o{pos} [label="{pos}: {rows}"];')
    seen = set()
    for edge in doc["edges"]:
        a, b, i = edge["from"], edge["to"], edge["by"]
        key = (min(a, b), max(a, b), i)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f'  o{a} -- o{b} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_orbit(args) -> int:
    tensor = _load_tensor(args)
    # validation is reported (exit 1 on failure) rather than raised, so
    # axiom-violating closures can still be inspected
    graph = generate_cartan_graph(
        tensor, args.m_max, args.max_objects, validate=False
    )
    report = validate_axioms(graph)
    if args.format == "dot":
        print(_graph_dot(graph))
    elif args.format == "json":
        doc = _graph_doc(graph)
        doc["axioms_ok"] = report.ok
        _emit_json(doc)
    else:
        print(f"objects: {len(graph)}")
        for pos, obj in enumerate(graph.objects):
            rows = "; ".join(
                " ".join(str(e) for e in row) for row in obj.cartan.rows
            )
            print(f"  object {pos}: cartan [{rows}]")
        print(f"axioms: {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def cmd_dynkin(args) -> int:
    tensor = _load_tensor(args)
    diagram = dynkin_diagram(tensor)
    M = diagram.modulus
    if args.format == "json":
        _emit_json(
            {
                "modulus": M,
                "vertices": [mu_str(e, M) for e in diagram.vertex_labels],
                "edges": [
                    {"i": i, "j": j, "label": mu_str(e, M)}
                    for i, j, e in diagram.edges
                ],
            }
        )
        return 0
    lines = ["graph dynkin {"]
    for pos, label in enumerate(diagram.vertex_labels, start=1):
        lines.append(f'  v{pos} [label="{mu_str(label, M)}"];')
    for i, j, e in diagram.edges:
        lines.append(f'  v{i} -- v{j} [label="{mu_str(e, M)}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def cmd_quiddity(args) -> int:
    cycle = _cycle_from_args(args)
    if args.format == "json":
        _emit_json({"quiddity": list(cycle.entries)})
    else:
        print(" ".join(str(c) for c in cycle.entries))
    return 0


def _cycle_from_args(args):
    if getattr(args, "quiddity", None):
        return QuiddityCycle(tuple(_parse_ints(args.quiddity, ",", "--quiddity")))
    tensor = _load_tensor(args)
    graph = generate_cartan_graph(tensor, args.m_max, args.max_objects)
    return quiddity_cycle(graph)


def cmd_frieze(args) -> int:
    print(render_frieze(_cycle_from_args(args)))
    return 0


def cmd_triangulate(args) -> int:
    cycle = _cycle_from_args(args)
    tri = triangulate(cycle)
    if args.format == "json":
        _emit_json(
            {
                "n": tri.n,
                "diagonals": [list(d) for d in tri.diagonals],
                "triangles": [list(t) for t in tri.triangles],
            }
        )
        return 0
    print(f"polygon with {tri.n} vertices, quiddity "
          + " ".join(str(c) for c in cycle.entries))
    print("diagonals: " + ", ".join(f"{i}-{j}" for i, j in tri.diagonals))
    print("triangles: " + ", ".join(
        f"({i},{j},{k})" for i, j, k in tri.triangles
    ))
    return 0


def cmd_roots(args) -> int:
    tensor = _load_tensor(args)
    graph = generate_cartan_graph(tensor, args.m_max, args.max_objects)
    roots = real_roots(graph, args.depth_max)
    report = validate_root_axioms(graph, roots)
    if args.format == "json":
        doc = {
            "objects": [
                {
                    "object": pos,
                    "positive_roots": sorted(list(r) for r in rs.positive()),
                }
                for pos, rs in roots.items()
            ],
            "axioms_ok": report.ok,
        }
        _emit_json(doc)
    else:
        for pos, rs in roots.items():
            pretty = " ".join(
                "(" + ",".join(str(x) for x in r) + ")"
                for r in sorted(rs.positive())
            )
            print(f"object {pos}: positive roots {pretty}")
        print(f"root axioms: {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _print_report(report) -> int:
    for check in report.checks:
        mark = "ok  " if check.ok else "FAIL"
        suffix = f"  ({check.note})" if check.note else ""
        print(f"{mark} {check.name}{suffix}")
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    if args.what == "divisibility":
        return _print_report(verify_divisibility(args.degree, args.m_max))
    report = verify_recursion(args.degree, args.m_max)
    if args.degree == 2:
        report.checks.extend(verify_classical_d2(args.m_max).checks)
    return _print_report(report)


def _table(group, text):
    """Symbols of the named group, or free on the letters of `text`."""
    if group is None:
        return table_for(text)
    return SymbolTable(parse_group(group))


def cmd_boundary(args) -> int:
    table = _table(args.group, args.expr)
    chain = parse_chain(args.expr, table)
    print(format_chain(boundary(chain), table))
    return 0


def cmd_verify_table(args) -> int:
    return _print_report(verify_table1())


def cmd_witnesses(args) -> int:
    return _print_report(verify_lemma_witnesses())


def cmd_symcycle(args) -> int:
    lam = tuple(_parse_ints(args.lam, ",", "--lambda"))
    table = _table(args.group, args.args)
    elements = tuple(parse_element(e, table) for e in args.args.split(";"))
    print(format_chain(symmetrized_cycle(elements, lam), table))
    return 0


def cmd_membership(args) -> int:
    group = parse_group(args.group)
    table = SymbolTable(group)
    chain = parse_chain(args.expr, table)
    complex_ = CellComplex(group, args.level, args.degree_bound)
    ok, witness = complex_.boundary_membership(chain)
    if args.format == "json":
        _emit_json(
            {
                "is_boundary": ok,
                "witness": format_chain(witness, table) if ok else None,
            }
        )
    else:
        print(f"is boundary: {'yes' if ok else 'no'}")
        if ok:
            print(f"witness: {format_chain(witness, table)}")
    return 0


def cmd_homology(args) -> int:
    group = parse_group(args.group)
    result = CellComplex(group, args.level, args.degree_bound).homology(
        args.degree
    )
    if args.format == "json":
        _emit_json(
            {
                "group": group.describe(),
                "level": args.level,
                "degree": args.degree,
                "free_rank": result.free_rank,
                "torsion": list(result.torsion),
            }
        )
    else:
        print(
            f"H^{args.level}_{args.degree}({group.describe()}) = "
            f"{result.describe()}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylg",
        description="Weyl groupoids from braiding tensors and abelian "
        "cell complexes",
    )
    parser.add_argument("--seed", type=int, default=0, help="accepted for "
                        "reproducible invocations; every command is deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tensor_flags(p, m_max=True, objects=False):
        p.add_argument("--tensor", help="tensor JSON file")
        p.add_argument(
            "--example",
            help="bundled example: " + ", ".join(sorted(fixtures.EXAMPLES)),
        )
        if m_max:
            p.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
        if objects:
            p.add_argument("--max-objects", type=int, default=DEFAULT_MAX_OBJECTS)

    p = sub.add_parser("cartan", help="Cartan matrix or entry of a tensor")
    add_tensor_flags(p)
    p.add_argument("--pair", nargs=2, type=int, metavar=("L", "J"))
    p.add_argument("--diagnostics", metavar="M0:M1",
                   help="also print chi exponents for m in the range")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("orbit", help="reflection closure of a tensor")
    add_tensor_flags(p, objects=True)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("dynkin", help="labeled diagram of a degree-2 tensor")
    add_tensor_flags(p, m_max=False)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_dynkin)

    p = sub.add_parser("quiddity", help="quiddity cycle of a rank-2 tensor")
    add_tensor_flags(p, objects=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_quiddity)

    p = sub.add_parser("frieze", help="staggered frieze of a quiddity cycle")
    add_tensor_flags(p, objects=True)
    p.add_argument("--quiddity", help="comma-separated cycle, e.g. 1,4,1,2,2,2")
    p.set_defaults(func=cmd_frieze)

    p = sub.add_parser("triangulate", help="polygon triangulation of a cycle")
    add_tensor_flags(p, objects=True)
    p.add_argument("--quiddity", help="comma-separated cycle")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("roots", help="real roots per orbit object")
    add_tensor_flags(p, objects=True)
    p.add_argument("--depth-max", type=int, default=DEFAULT_DEPTH_MAX)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", help="symbolic identity certificates")
    p.add_argument("what", choices=("recursion", "divisibility"))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--m-max", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("complex", help="abelian cell complex operations")
    csub = p.add_subparsers(dest="complex_cmd", required=True)

    q = csub.add_parser("boundary", help="boundary of a cell expression")
    q.add_argument("--expr", required=True)
    q.add_argument("--group", default=None,
                   help='e.g. "Z/2xZ/3"; default: free on the letters used')
    q.set_defaults(func=cmd_boundary)

    q = csub.add_parser("verify-table", help="check the boundary table")
    q.set_defaults(func=cmd_verify_table)

    q = csub.add_parser("witnesses", help="check the witness chains")
    q.set_defaults(func=cmd_witnesses)

    q = csub.add_parser("symcycle", help="expand a symmetrized cycle")
    q.add_argument("--lambda", dest="lam", required=True,
                   help="composition, e.g. 2,2")
    q.add_argument("--args", required=True,
                   help="semicolon-separated elements, e.g. a;b")
    q.add_argument("--group", default=None,
                   help='e.g. "Z/2xZ/3"; default: free on the letters used')
    q.set_defaults(func=cmd_symcycle)

    q = csub.add_parser("membership", help="decide boundary membership")
    q.add_argument("--expr", required=True)
    q.add_argument("--group", required=True, help='e.g. "Z/2xZ/3"')
    q.add_argument("--level", type=int, default=1)
    q.add_argument("--degree-bound", type=int, default=None)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_membership)

    q = csub.add_parser("homology", help="elementary divisors of H^k_n")
    q.add_argument("--group", required=True)
    q.add_argument("--level", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--degree-bound", type=int, default=None)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_homology)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WeylgError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the interpreter's final flush to
        # devnull, so it cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
