#!/usr/bin/env python3
"""Print the extracted tau-polynomials and their isolated Hodge factors.

Usage: python scripts/hodge_table.py [--max-genus 2] [--max-size 4]
"""

import argparse

from cutjoin import exact, hodge, partitions
from cutjoin.cli import MAX_LAMBDA_ORDER, MAX_TABLE_DEGREE
from cutjoin.exact import TauPolynomial


def poly_str(poly) -> str:
    """A phased tau-polynomial as a sum of terms; every coefficient carries
    the one phase, so each is real or purely imaginary."""
    coeffs = poly.real.coeffs
    if not coeffs:
        return "0"
    unit = "*i" if poly.i_power else ""
    bits = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        coeff = exact.fraction_str(c) + unit
        bits.append(f"({coeff})*t^{k}" if k else f"({coeff})")
    return " + ".join(bits)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-genus", type=int, default=2)
    parser.add_argument("--max-size", type=int, default=4)
    parser.add_argument("--lambda-order", type=int, default=12)
    args = parser.parse_args()
    if args.max_genus < 0:
        parser.error(f"--max-genus must be nonnegative, got {args.max_genus}")
    if not 0 <= args.max_size <= MAX_TABLE_DEGREE:
        parser.error(f"--max-size must be in 0..{MAX_TABLE_DEGREE}, got {args.max_size}")
    if not 0 <= args.lambda_order <= MAX_LAMBDA_ORDER:
        parser.error(f"--lambda-order must be in 0..{MAX_LAMBDA_ORDER}, got {args.lambda_order}")
    # the longest partition of the largest genus reads lambda^(2g - 2 + l(mu))
    top = 2 * args.max_genus - 2 + args.max_size
    if top > args.lambda_order:
        parser.error(
            f"--max-genus {args.max_genus} with --max-size {args.max_size} reads "
            f"lambda exponent {top}, above --lambda-order {args.lambda_order}"
        )

    _, conn = hodge.build_series_pair(max(args.max_size, 1), args.lambda_order)
    for d in range(1, args.max_size + 1):
        for mu in partitions.enumerate_partitions(d):
            for g in range(args.max_genus + 1):
                c = hodge.extract_C_gmu(conn, g, mu)
                factor = hodge.hodge_polynomial(g, mu, conn)
                print(f"g={g} mu=({mu})")
                print(f"  series coefficient: {poly_str(c.poly)}")
                print(f"  hodge factor:       {poly_str(TauPolynomial.phased(factor, 0))}")


if __name__ == "__main__":
    main()
