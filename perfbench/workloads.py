"""Job lists of the three workloads and the correctness gate.

Every job calls public weylg functions on inputs recorded in ``data/``;
the seed draws the membership instances and orders every job list.
Each recorded input carries the reference answer or typed outcome that
the gate compares against; see ``record.py`` for how the inputs and
answers were produced and checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from weylg import (
    CellComplex,
    generate_cartan_graph,
    quiddity_cycle,
    real_roots,
    symmetrized_cycle,
    triangulate,
    validate_root_axioms,
)
from weylg.cells import boundary
from weylg.errors import (
    AxiomViolation,
    DepthExceeded,
    NonPeriodic,
    NotAQuiddityCycle,
    UndefinedCartanEntry,
    WeylgError,
)
from weylg.fixtures import load_example
from weylg.groups import parse_group
from weylg.homology import homology, inclusion_exclusion_chain
from weylg.lattice import SqrtBraidingTensor
from weylg.reports import corollary_combination
from weylg.roots import DEFAULT_DEPTH_MAX

DATA = Path(__file__).resolve().parent / "data"

# CLI defaults of the orbit/quiddity/roots commands, except max_objects,
# which is lowered so that a closure that does not close stays cheap.
M_MAX = 1000
MAX_OBJECTS = 200
# real_roots does not bound time on closures of infinite type, so only
# closures known to be finite get the default depth; every other closure
# gets this explicit small bound (the CLI's --depth-max).
SMALL_DEPTH = 4

MEMBERSHIP_DRAW = 2  # instances per (group, composition, slot)


@dataclass
class Job:
    key: str
    run: Callable  # timed: returns the raw result
    check: Callable  # untimed: raw result -> None, or why it is wrong


def load(workload):
    with open(DATA / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Pass:
    jobs: list
    reset: Callable = lambda: None  # called before each pass


def build(workload, seed, smoke=False) -> Pass:
    """Jobs of one pass: pool draw and order depend only on the seed.

    smoke keeps a tiny deterministic subset for the harness check.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](load(workload), rng, smoke)


def element(group, vec):
    return group.element(tuple(vec))


# homology: one homology(group, level, n) call per job, each building a
# fresh complex, as the CLI's `complex homology` does


def _homology_jobs(pool, rng, smoke):
    entries = pool["jobs"]
    if smoke:
        entries = [e for e in entries if e["group"] == "Z/2" and e["degree"] <= 2]
    jobs = [_homology_job(e) for e in entries]
    rng.shuffle(jobs)
    return Pass(jobs)


def _homology_job(entry):
    group = parse_group(entry["group"])
    level, degree = entry["level"], entry["degree"]
    expected = {"free": entry["free"], "torsion": entry["torsion"]}

    def check(raw):
        if isinstance(raw, WeylgError):
            return f"raised {type(raw).__name__}"
        got = {"free": raw.free_rank, "torsion": list(raw.torsion)}
        return None if got == expected else f"got {got}, expected {expected}"

    return Job(
        f"{entry['group']} L{level} H{degree}",
        lambda: homology(group, level, degree),
        check,
    )


# membership: one CellComplex(group, 1) per group and pass, then one
# boundary_membership(chain) call per job; the first query of each degree
# pays for the solver factorization


class ComplexSlot:
    """Holds the current group's complex; the previous one is dropped."""

    def __init__(self):
        self.group = None
        self.complex = None

    def get(self, group):
        if group != self.group:
            self.group, self.complex = group, None
            self.complex = CellComplex(group, 1)
        return self.complex

    def reset(self):
        self.group = self.complex = None


def membership_chains(group, shape, instance):
    """The inclusion-exclusion chain and the base symmetrized cycle."""
    lam, slot = tuple(shape["lam"]), shape["slot"]
    args = tuple(element(group, v) for v in instance["args"])
    betas = tuple(element(group, v) for v in instance["betas"])
    return (
        inclusion_exclusion_chain(args, lam, slot, betas),
        symmetrized_cycle(args, lam),
    )


def _membership_jobs(pool, rng, smoke):
    slot = ComplexSlot()
    jobs = []
    for block in pool["groups"]:
        if smoke and block["group"] != "Z/2":
            continue
        group = parse_group(block["group"])
        queries = []
        for shape in block["shapes"]:
            if smoke and sum(shape["lam"]) > 2:
                continue
            label = f"{block['group']} lam={shape['lam']} slot={shape['slot']}"
            for pos in rng.sample(range(len(shape["instances"])), MEMBERSHIP_DRAW):
                instance = shape["instances"][pos]
                ie, cyc = membership_chains(group, shape, instance)
                queries.append((f"{label} #{pos} ie", ie, instance["ie_member"]))
                queries.append((f"{label} #{pos} cycle", cyc, instance["cycle_member"]))
        if not smoke:
            for entry in block["corollaries"]:
                args = tuple(element(group, v) for v in entry["args"])
                chain = corollary_combination(entry["which"], args)
                queries.append(
                    (f"{block['group']} corollary {entry['which']}", chain,
                     entry["member"])
                )
        rng.shuffle(queries)
        jobs.extend(_membership_job(slot, group, *q) for q in queries)
    return Pass(jobs, slot.reset)


def _membership_job(slot, group, key, chain, member):
    def check(raw):
        if isinstance(raw, WeylgError):
            return f"raised {type(raw).__name__}"
        ok, witness = raw
        if ok != member:
            return f"membership {ok}, expected {member}"
        if ok and boundary(witness) != chain:
            return "witness does not bound the chain"
        return None

    return Job(key, lambda: slot.get(group).boundary_membership(chain), check)


# closure: reflection closure, then quiddity and triangulation on rank 2,
# then real roots and the root axioms on every closure


@dataclass
class Closure:
    graph: object
    cycle: object = None
    triangulation: object = None
    quiddity_error: object = None
    roots: object = None
    roots_error: object = None
    root_report: object = None


def run_closure(tensor, known_finite):
    graph = generate_cartan_graph(tensor, M_MAX, MAX_OBJECTS)
    out = Closure(graph)
    if tensor.rank == 2:
        try:
            out.cycle = quiddity_cycle(graph)
            out.triangulation = triangulate(out.cycle)
        except (NotAQuiddityCycle, NonPeriodic) as exc:
            out.quiddity_error = exc
    finite = known_finite or out.triangulation is not None
    try:
        out.roots = real_roots(graph, DEFAULT_DEPTH_MAX if finite else SMALL_DEPTH)
    except DepthExceeded as exc:
        out.roots_error = exc
        return out
    out.root_report = validate_root_axioms(graph, out.roots)
    return out


def closure_answer(raw):
    """JSON summary of a closure job's result or typed outcome."""
    if isinstance(raw, WeylgError):
        out = {"outcome": type(raw).__name__}
        if isinstance(raw, UndefinedCartanEntry):
            out["pair"] = list(raw.pair)
        if isinstance(raw, AxiomViolation):
            out["first"] = raw.failures[0][0]
        return out
    graph = raw.graph
    rows = [obj.cartan.rows for obj in graph.object_list()]
    out = {
        "outcome": "closed",
        "objects": len(graph),
        "cartan": hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
    }
    if graph.rank == 2:
        if raw.cycle is None:
            out["quiddity"] = type(raw.quiddity_error).__name__
        else:
            out["quiddity"] = list(raw.cycle.entries)
            out["triangulated"] = raw.triangulation is not None
    if raw.roots_error is not None:
        out["roots"] = type(raw.roots_error).__name__
    else:
        out["roots"] = sum(len(rs.roots) for rs in raw.roots.values())
        out["root_axioms"] = raw.root_report.ok
    return out


def closure_oracles(raw, known_finite):
    """Checks that need no reference: triangulation round trip and the
    axiom reports of closures known to be finite."""
    if isinstance(raw, WeylgError):
        return None
    tri = raw.triangulation
    if tri is not None and tri.quiddity().entries != raw.cycle.entries:
        return "triangulation does not reproduce the quiddity cycle"
    if known_finite or tri is not None:
        if raw.root_report is None:
            return "finite closure without a root system"
        if not raw.root_report.ok:
            return "root axioms fail on a finite closure"
    return None


def tensor_of(entry):
    if "example" in entry:
        return load_example(entry["example"])
    if "profile" in entry:
        return SqrtBraidingTensor.from_rank2_profile(
            entry["modulus"], entry["degree"], entry["profile"]
        )
    return SqrtBraidingTensor.from_entries(
        entry["modulus"], entry["rank"], entry["degree"],
        {tuple(idx): e for idx, e in entry["entries"]},
    )


def closure_key(entry):
    if "example" in entry:
        return entry["example"]
    body = entry.get("profile") or entry["entries"]
    return (f"rank {entry.get('rank', 2)} d{entry['degree']} "
            f"M{entry['modulus']} {json.dumps(body, separators=(',', ':'))}")


def _closure_jobs(pool, rng, smoke):
    entries = pool["rank2"] + pool["sparse"] + pool["examples"]
    if smoke:
        entries = entries[::8]
    jobs = [_closure_job(e) for e in entries]
    rng.shuffle(jobs)
    return Pass(jobs)


def _closure_job(entry):
    tensor = tensor_of(entry)
    known_finite = "example" in entry
    expected = entry["answer"]

    def check(raw):
        reason = closure_oracles(raw, known_finite)
        if reason:
            return reason
        got = closure_answer(raw)
        return None if got == expected else f"got {got}, expected {expected}"

    return Job(closure_key(entry), lambda: run_closure(tensor, known_finite), check)


_BUILDERS = {
    "homology": _homology_jobs,
    "membership": _membership_jobs,
    "closure": _closure_jobs,
}
