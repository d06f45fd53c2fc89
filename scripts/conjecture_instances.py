#!/usr/bin/env python3
"""Instance checks of the inclusion-exclusion identity for symmetrized
cycles over small finite groups.

For each composition and argument choice within the enumeration bounds,
the alternating combination over subproducts in one slot is tested for
boundary membership by exact integer normal forms, together with the
inverse-argument identity.  Output is a report of holds / fails /
out-of-bounds; nothing is asserted.
"""

import argparse
import random

from weylg.groups import parse_group
from weylg.homology import CellComplex, check_conjecture_instance


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def run(groups, max_d, cases_per_shape, seed):
    rng = random.Random(seed)
    rows = []
    for group_name in groups:
        group = parse_group(group_name)
        elements = [g for g in group.elements()]
        # one complex per group, so each degree's solver is factored once
        complex_ = CellComplex(group, 1)
        for d in range(1, max_d + 1):
            for lam in compositions(d):
                for slot in range(len(lam)):
                    for _ in range(cases_per_shape):
                        args = tuple(rng.choice(elements) for _ in lam)
                        betas = tuple(
                            rng.choice(elements) for _ in range(lam[slot] + 1)
                        )
                        inst = check_conjecture_instance(
                            complex_, lam, slot, args, betas
                        )
                        rows.append((group_name, lam, slot, inst))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", default="Z/2,Z/3")
    parser.add_argument("--max-d", type=int, default=3)
    parser.add_argument("--cases", type=int, default=2,
                        help="random argument choices per shape")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rows = run(args.groups.split(","), args.max_d, args.cases, args.seed)
    tally = {"holds": 0, "fails": 0, "out-of-bounds": 0}
    for group_name, lam, slot, inst in rows:
        tally[inst.status] = tally.get(inst.status, 0) + 1
        marker = "" if inst.status == "holds" else "  <--"
        print(
            f"{group_name:6s} lambda={lam} slot={slot} "
            f"identity={inst.status:12s} inverse={inst.inverse_status}{marker}"
        )
    print(f"\nsummary: {tally}")


if __name__ == "__main__":
    main()
