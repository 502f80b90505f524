#!/usr/bin/env python3
"""Print the extracted tau-polynomials and their isolated Hodge factors.

Usage: python scripts/hodge_table.py [--max-genus 2] [--max-size 4]
"""

import argparse

from cutjoin.cli import MAX_LAMBDA_ORDER, MAX_TABLE_DEGREE
from cutjoin.exact import TauPolynomial, fraction_str
from cutjoin.hodge import build_series_pair, extract_C_gmu, hodge_polynomial
from cutjoin.partitions import enumerate_partitions


def poly_str(poly) -> str:
    if not poly.coeffs:
        return "0"
    bits = []
    for k, c in enumerate(poly.coeffs):
        if not c:
            continue
        re = "" if not c.re else fraction_str(c.re)
        im = "" if not c.im else f"{fraction_str(c.im)}*i"
        coeff = re + ("+" if re and im else "") + im
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

    _, conn = build_series_pair(max(args.max_size, 1), args.lambda_order)
    for d in range(1, args.max_size + 1):
        for mu in enumerate_partitions(d):
            for g in range(args.max_genus + 1):
                c = extract_C_gmu(conn, g, mu)
                hodge = hodge_polynomial(g, mu, conn)
                print(f"g={g} mu=({mu})")
                print(f"  series coefficient: {poly_str(c.poly)}")
                print(f"  hodge factor:       {poly_str(TauPolynomial.phased(hodge, 0))}")


if __name__ == "__main__":
    main()
