#!/usr/bin/env python3
"""Tabulate cover counts per degree: character route, enumeration, and the
connected/disconnected comparison.

Usage: python scripts/hurwitz_table.py [--max-degree 4] [--max-branch 6]
"""

import argparse
from fractions import Fraction

from cutjoin.cli import MAX_CONNECTED_BRANCH_POINTS, MAX_TABLE_DEGREE
from cutjoin.hurwitz import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    hurwitz_bruteforce,
    hurwitz_connected,
    hurwitz_disconnected,
    branch_count,
)
from cutjoin.partitions import enumerate_partitions


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--max-branch", type=int, default=6)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()
    # the connected column logs the disconnected series of every |mu| <= d
    if not 0 <= args.max_degree <= MAX_TABLE_DEGREE:
        parser.error(
            f"--max-degree {args.max_degree} is outside 0..{MAX_TABLE_DEGREE}, "
            "the sizes |mu| of the connected column"
        )
    # every r up to --max-branch is a query of the connected column
    if not 0 <= args.max_branch <= MAX_CONNECTED_BRANCH_POINTS:
        parser.error(
            f"--max-branch {args.max_branch} is outside 0..{MAX_CONNECTED_BRANCH_POINTS}, "
            "the branch counts of the connected column"
        )
    if args.budget < 0:
        parser.error(f"--budget must be nonnegative, got {args.budget}")

    for d in range(1, args.max_degree + 1):
        for mu in enumerate_partitions(d):
            rows = []
            for r in range(args.max_branch + 1):
                disc = hurwitz_disconnected(r, mu)
                if not disc:
                    continue
                try:
                    brute = hurwitz_bruteforce(r, mu, budget=args.budget)
                except BudgetExceededError:
                    brute = "over-budget"
                g2 = r - d - mu.length + 2
                conn = (
                    hurwitz_connected(g2 // 2, mu)
                    if g2 >= 0 and g2 % 2 == 0
                    else Fraction(0)
                )
                flag = "" if brute in (disc, "over-budget") else "  <-- MISMATCH"
                rows.append(f"  r={r}: all={disc}  enum={brute}  connected={conn}{flag}")
            if rows:
                print(f"mu=({mu}), branch counts r with nonzero counts:")
                print("\n".join(rows))


if __name__ == "__main__":
    main()
