#!/usr/bin/env python3
"""Tabulate cover counts per degree: character route, enumeration, and the
connected count, each connected value checked by the branch-point recursion.

Usage: python scripts/hurwitz_table.py [--max-degree 4] [--max-branch 6]
"""

import argparse
from fractions import Fraction

from cutjoin import cli, hurwitz, partitions
from cutjoin.cli import MAX_TABLE_DEGREE
from cutjoin.hurwitz import DEFAULT_BUDGET, BudgetExceededError


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
    # every r up to --max-branch is a query of each column, whose counts
    # must print; the digit bound grows with the degree
    if args.max_branch < 0:
        parser.error(f"--max-branch must be nonnegative, got {args.max_branch}")
    limit = cli.count_digit_limit(args.max_branch, args.max_degree)
    if limit:
        parser.error(
            f"--max-branch {args.max_branch} at --max-degree {args.max_degree}: "
            f"a count could exceed {limit} digits"
        )
    if args.budget < 0:
        parser.error(f"--budget must be nonnegative, got {args.budget}")

    for d in range(1, args.max_degree + 1):
        for mu in partitions.enumerate_partitions(d):
            rows = []
            for r in range(args.max_branch + 1):
                disc = hurwitz.hurwitz_disconnected(r, mu)
                if not disc:
                    continue
                try:
                    brute = hurwitz.hurwitz_bruteforce(r, mu, budget=args.budget)
                except BudgetExceededError:
                    brute = "over-budget"
                g2 = r - d - mu.length + 2
                conn = Fraction(0)
                if g2 >= 0 and g2 % 2 == 0:
                    conn = hurwitz.hurwitz_connected(g2 // 2, mu)
                    if not hurwitz.hurwitz_cutjoin_check(g2 // 2, mu):
                        conn = f"{conn} MISMATCH"
                flag = "" if brute in (disc, "over-budget") else "  <-- MISMATCH"
                rows.append(f"  r={r}: all={disc}  enum={brute}  connected={conn}{flag}")
            if rows:
                print(f"mu=({mu}), branch counts r with nonzero counts:")
                print("\n".join(rows))


if __name__ == "__main__":
    main()
