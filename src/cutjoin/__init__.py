"""Exact-arithmetic combinatorics of cut-and-join identities.

The package computes and cross-verifies, in exact rational arithmetic:
symmetric-group characters and Schur expansions, the sine amplitude attached
to a partition in both its defining and hook-product forms, the generating
series whose tau-evolution is governed by the cut-and-join operator, the
per-genus Hodge polynomials extracted from it, and branched-cover counts with
their closed-form and recursive descriptions.
"""
