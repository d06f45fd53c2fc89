#!/usr/bin/env python3
"""Regenerate the input pools and reference answers in ``data/``.

    python3 perfbench/record.py [homology|membership|closure ...]

Pools are drawn from fixed pool seeds, so rerunning this on the same
code reproduces the files, except the recorded closure costs and, since
the rank-2 jobs are picked by cost rank, possibly which profiles are
kept.  Every
answer is recorded from the current weylg and checked against the
independent oracles that exist:

* homology: closed forms for level 0 (Kunneth formula for the group
  homology of a finite abelian group) and for level 1 with n <= 3
  (H1 = A, H2 = 0, H3 = Whitehead's Gamma(A)), and a one-time sympy
  Smith-form computation on every job whose boundary matrices are small
  enough for it;
* membership: boundary(witness) == chain for every member;
* closure: the triangulation round trip and the axiom reports on
  closures known to be finite.

A disagreement with an oracle stops the recording.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from weylg.errors import WeylgError  # noqa: E402
from weylg.groups import parse_group  # noqa: E402
from weylg.homology import CellComplex, homology  # noqa: E402

HOMOLOGY_GROUPS = ("Z/2", "Z/3", "Z/4", "Z/2xZ/2", "Z/5", "Z/6")
# A pass must stay near 2.5 s so that every job repeats about ten times
# in a run; Z/6 L1 H3 and L2 H3 take 1.4-3 s alone, so they are left out
# here, and so are heavier cases such as Z/3 L1 H5 and Z/4 L1 H4.
HOMOLOGY_LEFT_OUT = (("Z/6", 1, 3), ("Z/6", 2, 3))
HOMOLOGY_HEAVY = (
    ("Z/3", 1, 4), ("Z/3", 2, 4), ("Z/3", 0, 5), ("Z/2", 1, 4),
    ("Z/2", 1, 5), ("Z/2", 2, 5), ("Z/2", 0, 6),
)
SYMPY_MAX_ENTRIES = 60000  # largest m*n sent to sympy

# (group, largest d); the chains of a composition of d have degree 2d - 1.
# Z/3 stops at d = 2 and keeps only the degree-3 corollary, because its
# degree-5 queries need the 513x1944 factorization of Z/3's boundary from
# degree 6, which takes about 9 s alone, more than a pass may take.
MEMBERSHIP_GROUPS = (("Z/2", 3), ("Z/3", 2), ("Z/4", 2), ("Z/2xZ/2", 2), ("Z/5", 2))
MEMBERSHIP_POOL = 6  # instances per (group, composition, slot)
COROLLARIES = {"Z/2": (0, 1, 2), "Z/3": (0,)}  # acceptance criterion 12

# the rank-2 jobs are every sixth profile of a random pool sorted by cost,
# so that they follow the pool's mix of cheap, undefined, axiom-violating
# and object-limited closures
RANK2_POOL = 120
RANK2_STEP = 6
RANK2_MODULI = range(2, 25)
RANK2_DEGREES = (2, 4, 6)
SPARSE_COUNT = 9
# (rank, degree) of the sparse tensors in turn; rank 4 at degree 6 is left
# out because each such closure takes 0.5-0.7 s
SPARSE_SHAPES = ((3, 4), (3, 6), (4, 4))


def dump(name, doc):
    path = workloads.DATA / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


# closed forms; a group is (free rank, [cyclic orders]) and is compared
# through its elementary divisors


def elementary(group):
    free, orders = group
    out = []
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return free, sorted(out)


def tensor(a, b):
    fa, oa = a
    fb, ob = b
    orders = oa * fb + ob * fa + [gcd(x, y) for x in oa for y in ob]
    return fa * fb, [m for m in orders if m > 1]


def tor(a, b):
    return 0, [m for m in (gcd(x, y) for x in a[1] for y in b[1]) if m > 1]


def direct_sum(*groups):
    return sum(g[0] for g in groups), [m for g in groups for m in g[1]]


def cyclic_homology(m, n):
    if n == 0:
        return 1, []
    return (0, [m]) if n % 2 else (0, [])


def group_homology(orders, n):
    """H_n of a product of cyclic groups with integer coefficients."""
    table = [cyclic_homology(orders[0], i) for i in range(n + 1)]
    for m in orders[1:]:
        other = [cyclic_homology(m, i) for i in range(n + 1)]
        table = [
            direct_sum(
                *(tensor(table[i], other[k - i]) for i in range(k + 1)),
                *(tor(table[i], other[k - 1 - i]) for i in range(k)),
            )
            for k in range(n + 1)
        ]
    return table[n]


def whitehead_gamma(orders):
    parts = [(0, [2 * m if m % 2 == 0 else m]) for m in orders]
    for a, b in itertools.combinations(orders, 2):
        parts.append(tensor((0, [a]), (0, [b])))
    return direct_sum(*parts)


def closed_form(orders, level, n):
    if level == 0:
        return group_homology(orders, n)
    if level == 1 and n <= 3:
        return {1: (0, list(orders)), 2: (0, []), 3: whitehead_gamma(orders)}[n]
    return None


def sympy_homology(group, level, n):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    cx = CellComplex(group, level)
    upper = cx.boundary_matrix(n + 1)
    lower = cx.boundary_matrix(n) if n >= 1 else []
    for mat in (upper, lower):
        if mat and len(mat) * len(mat[0]) > SYMPY_MAX_ENTRIES:
            return None

    def factors(mat):
        if not mat or not mat[0]:
            return []
        return [int(f) for f in invariant_factors(Matrix(mat), domain=ZZ) if f]

    up = factors(upper)
    free = len(cx.cells(n)) - len(factors(lower)) - len(up)
    return free, [f for f in up if f > 1]


def record_homology():
    specs = [
        (g, level, n)
        for g in HOMOLOGY_GROUPS for level in range(3) for n in range(1, 4)
        if (g, level, n) not in HOMOLOGY_LEFT_OUT
    ] + list(HOMOLOGY_HEAVY)
    jobs = []
    for name, level, n in specs:
        group = parse_group(name)
        result = homology(group, level, n)
        got = (result.free_rank, list(result.torsion))
        oracles = []
        expected = closed_form(group.torsion, level, n)
        if expected is not None:
            oracles.append("closed form")
            if elementary(expected) != elementary(got):
                raise SystemExit(f"{name} L{level} H{n}: {got} vs closed form {expected}")
        expected = sympy_homology(group, level, n)
        if expected is not None:
            oracles.append("sympy")
            if elementary(expected) != elementary(got):
                raise SystemExit(f"{name} L{level} H{n}: {got} vs sympy {expected}")
        print(f"{name} L{level} H{n} = {result.describe()}  [{', '.join(oracles) or 'recorded'}]")
        jobs.append({
            "group": name, "level": level, "degree": n,
            "free": got[0], "torsion": got[1], "oracles": oracles,
        })
    dump("homology", {"jobs": jobs})


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def decide(cx, chain):
    ok, witness = cx.boundary_membership(chain)
    if ok and workloads.boundary(witness) != chain:
        raise SystemExit("witness does not bound its chain")
    return ok


def record_membership():
    rng = random.Random("pool:membership")
    groups = []
    for name, max_d in MEMBERSHIP_GROUPS:
        group = parse_group(name)
        cx = CellComplex(group, 1)
        elements = [g.vec for g in group.elements()]
        shapes = []
        for d in range(1, max_d + 1):
            for lam in compositions(d):
                for slot in range(len(lam)):
                    width = len(lam) + lam[slot] + 1
                    space = list(itertools.product(elements, repeat=width))
                    instances = []
                    for combo in rng.sample(space, MEMBERSHIP_POOL):
                        instance = {
                            "args": [list(v) for v in combo[: len(lam)]],
                            "betas": [list(v) for v in combo[len(lam):]],
                        }
                        shape = {"lam": list(lam), "slot": slot}
                        ie, cyc = workloads.membership_chains(group, shape, instance)
                        instance["ie_member"] = decide(cx, ie)
                        instance["cycle_member"] = decide(cx, cyc)
                        instances.append(instance)
                    shapes.append({"lam": list(lam), "slot": slot, "instances": instances})
        corollaries = []
        g = (1,)
        h = (group.torsion[0] - 1,)
        for which in COROLLARIES.get(name, ()):
            args = (g, h, g) if which == 0 else (g, h, g, h)
            chain = workloads.corollary_combination(
                which, tuple(workloads.element(group, v) for v in args)
            )
            corollaries.append({
                "which": which, "args": [list(v) for v in args],
                "member": decide(cx, chain),
            })
        members = sum(i["ie_member"] + i["cycle_member"] for s in shapes for i in s["instances"])
        total = 2 * sum(len(s["instances"]) for s in shapes)
        print(f"{name}: {len(shapes)} shapes, {members}/{total} pool queries are members")
        groups.append({"group": name, "shapes": shapes, "corollaries": corollaries})
    dump("membership", {"groups": groups})


def closure_entry(entry, known_finite=False):
    tensor = workloads.tensor_of(entry)
    start = time.perf_counter()
    try:
        raw = workloads.run_closure(tensor, known_finite)
    except WeylgError as exc:
        raw = exc
    cost = time.perf_counter() - start
    reason = workloads.closure_oracles(raw, known_finite)
    if reason:
        raise SystemExit(f"{workloads.closure_key(entry)}: {reason}")
    entry["answer"] = workloads.closure_answer(raw)
    return cost


def record_closure():
    rng = random.Random("pool:closure")
    rank2 = []
    for _ in range(RANK2_POOL):
        modulus = rng.choice(RANK2_MODULI)
        degree = rng.choice(RANK2_DEGREES)
        profile = [rng.randrange(modulus) for _ in range(degree + 1)]
        entry = {"modulus": modulus, "degree": degree, "profile": profile}
        entry["cost_s"] = round(closure_entry(entry), 6)
        rank2.append(entry)
    outcomes = Counter(entry["answer"]["outcome"] for entry in rank2)
    print(f"rank-2 pool outcomes: {dict(outcomes)}")
    rank2.sort(key=lambda e: e["cost_s"])
    rank2 = rank2[RANK2_STEP // 2::RANK2_STEP]
    sparse = []
    for pos in range(SPARSE_COUNT):
        rank, degree = SPARSE_SHAPES[pos % len(SPARSE_SHAPES)]
        modulus = rng.choice(RANK2_MODULI)
        entries = {}
        while len(entries) < 2 * rank:
            idx = tuple(rng.randint(1, rank) for _ in range(degree))
            entries[idx] = rng.randrange(1, modulus)
        entry = {
            "modulus": modulus, "rank": rank, "degree": degree,
            "entries": [[list(idx), e] for idx, e in sorted(entries.items())],
        }
        entry["cost_s"] = round(closure_entry(entry), 6)
        print(f"sparse {pos}: {entry['answer']} {entry['cost_s']:.3f}s")
        sparse.append(entry)
    examples = []
    for name in ("zeta11", "zeta7", "zeta3", "a2"):
        entry = {"example": name}
        entry["cost_s"] = round(closure_entry(entry, known_finite=True), 6)
        examples.append(entry)
    print(f"rank-2 jobs cost {sum(e['cost_s'] for e in rank2):.2f}s, sparse "
          f"{sum(e['cost_s'] for e in sparse):.2f}s, examples "
          f"{sum(e['cost_s'] for e in examples):.2f}s")
    dump("closure", {"rank2": rank2, "sparse": sparse, "examples": examples})


RECORDERS = {
    "homology": record_homology,
    "membership": record_membership,
    "closure": record_closure,
}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(RECORDERS):
        RECORDERS[name]()
