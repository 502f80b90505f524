"""Exact irreducible characters of symmetric groups.

Characters are computed by the Murnaghan-Nakayama rule, implemented on
beta-numbers (first-column hook lengths): removing a border strip of length t
replaces one beta-number b by b - t when b - t is free, with sign (-1)^h
where h counts the beta-numbers jumped over.  The largest cycle is stripped
first and results are memoized on canonical (shape, remaining cycles) keys,
so full tables for small degrees are cheap and cached per process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .exact import LaurentSeries, QHalfLaurent, _dot
from .partitions import Partition, enumerate_partitions


def _beta_set(shape: tuple[int, ...]) -> tuple[int, ...]:
    l = len(shape)
    return tuple(shape[i] + l - 1 - i for i in range(l))


def _shape_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    l = len(beta)
    shape = [beta[i] - (l - 1 - i) for i in range(l)]
    return tuple(p for p in shape if p > 0)


def _strip_removals(shape: tuple[int, ...], t: int):
    """All ways to remove a border strip of length t; yields (shape, sign)."""
    beta = _beta_set(shape)
    in_beta = set(beta)
    for idx, b in enumerate(beta):
        c = b - t
        if c < 0 or c in in_beta:
            continue
        jumped = sum(1 for x in beta if c < x < b)
        new_beta = list(beta)
        new_beta[idx] = c
        yield _shape_from_beta(new_beta), -1 if jumped % 2 else 1


@cache
def _mn(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    total = 0
    for smaller, sign in _strip_removals(shape, t):
        total += sign * _mn(smaller, rest)
    return total


def character(nu: Partition, mu: Partition) -> int:
    """Value of the irreducible character labeled nu on the class mu."""
    if nu.size != mu.size:
        raise ValueError(f"size mismatch: |nu|={nu.size}, |mu|={mu.size}")
    return _mn(nu.parts, mu.parts)


@cache
def character_table(d: int) -> tuple[tuple[int, ...], ...]:
    """Full character table of degree d; rows by irrep nu, columns by class mu,
    both in the fixed partition enumeration order."""
    parts = enumerate_partitions(d)
    return tuple(tuple(character(nu, mu) for mu in parts) for nu in parts)


def dimension(nu: Partition) -> int:
    """Dimension of the irreducible labeled nu, as a character value."""
    return character(nu, Partition([1] * nu.size))


def dimension_hook(nu: Partition) -> int:
    """Dimension by the hook length formula; the independent oracle."""
    prod = 1
    for h in nu.hooks():
        prod *= h
    return factorial(nu.size) // prod


def central_character_transposition(nu: Partition) -> Fraction:
    """Scalar by which the sum of all transpositions acts on the irrep nu.

    Equals |C(2)| * chi_nu(transposition class) / dim, and must agree with
    kappa(nu)/2 computed purely from the diagram; the two routes share no
    code.
    """
    d = nu.size
    if d < 2:
        return Fraction(0)
    cls = Partition([2] + [1] * (d - 2))
    num_transpositions = d * (d - 1) // 2
    return Fraction(num_transpositions * character(nu, cls), dimension(nu))


def schur_in_p(nu: Partition) -> dict[Partition, Fraction]:
    """Schur function expanded over power sums, sum_eta chi_nu(eta)/z_eta p_eta,
    as the dict {eta: chi_nu(eta)/z_eta}."""
    return {eta: Fraction(character(nu, eta), eta.z()) for eta in enumerate_partitions(nu.size)}


def schur_principal_specialization(nu: Partition) -> tuple[QHalfLaurent, QHalfLaurent]:
    """The specialization at x_i = q^(i-1) as an exact rational q-expression.

    Returns the pair (q^n(nu), prod_cells (1 - q^hook)); exponents live in the
    half-integer lattice used elsewhere, so q^k is stored with key 2k.  The
    denominator is one QHalfLaurent.binomial_product, a shift-subtract per
    hook on one integer list.
    """
    numerator = QHalfLaurent.monomial(1, 2 * nu.n_weight())
    return numerator, QHalfLaurent.binomial_product([2 * h for h in nu.hooks()])


def principal_specialization_check(nu: Partition, order: int) -> bool:
    """Cross-check of the hook form against the power-sum expansion.

    Substitutes the geometric variables x_i = q^(i-1) into the p-expansion,
    as series in q to q^order, multiplies by the hook form's denominator and
    compares the product with its numerator.
    """
    pairs = []
    for eta, coeff in schur_in_p(nu).items():
        term = LaurentSeries.one(order)
        for k in eta:  # p_k(1, q, q^2, ...) = 1 + q^k + q^(2k) + ...
            term = term * LaurentSeries(0, [int(e % k == 0) for e in range(order + 1)])
        pairs.append((term, coeff))
    expansion = _dot(pairs)
    numerator, denominator = schur_principal_specialization(nu)
    return expansion * _q_series(denominator, order) == _q_series(numerator, order)


def _q_series(x: QHalfLaurent, order: int) -> LaurentSeries:
    """A phase-free q-polynomial with integer exponents, as a series to q^order."""
    return LaurentSeries(0, [x.terms.get(2 * e, 0) for e in range(order + 1)])
