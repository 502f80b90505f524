"""Whole-series forms of the cut-and-join operators, the sums, negations
and powers of exact values that no command runs, and the paper's
lambda-form statements that the printed readout is checked against, for the
tests.

The package reads each coefficient of an operator off one table, the
column `cutjoin.partitions.cut_join_incoming(mu)` of joins, cuts and merged
splits into mu.  The forms here build the derivative series instead, with
every product at the full weight cap, and add one term at a time, so they
share no table with the code they check: tests/test_partitions.py reads the
table's join and cut weights off `reference_linear` and its split weights
off the polarised quadratic part `reference_nonlinear - reference_linear`.
`connected_cover_table` logs the cover counts' rows cut at one order r, in
x, where the package logs exponential sums exact at every r.
`two_factor_w` forms a partition's summand W_nu as the product of its two
factors, the tau-exponential term by term and the sine amplitude as the
reciprocal of its sinh products, where the package takes one exponential of
one exponent series.

The package checks every identity on rational coefficients in x = i*lambda
and P_k = i^k p_k and attaches the phase i^(m+|mu|) only where a value is
printed.  `tau_zero_lambda_value` and `genus0_lambda_value` state two
closed forms as the paper does, in lambda and p with their powers of i
written out, on Gaussian rationals and the sine series `sin_half_series`
(the package forms only the sinh); a test reads the package's printed
values against them, so a wrong readout phase fails there.
"""

from fractions import Fraction
from math import factorial

from cutjoin import genfun, hurwitz
from cutjoin.exact import (
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    RealTauPolynomial,
    sinh_half_series,
)
from cutjoin.genfun import PartitionSeries
from cutjoin.partitions import EMPTY, enumerate_partitions


def q_add(a, b):
    """a + b for QHalfLaurent values, merged term by term from their
    {exponent: coefficient} readouts.  A sum whose parts of phase i^0 and
    i^1 are both nonzero has no common phase and raises ValueError."""
    phases = {x.i_power for x in (a, b) if x}
    if len(phases) > 1:
        raise ValueError("a sum of terms with phases i^0 and i^1 has no common phase")
    return QHalfLaurent([*a.terms.items(), *b.terms.items()], phases.pop() if phases else 0)


def q_neg(a):
    """-a for a QHalfLaurent value, the sign put on every coefficient."""
    return QHalfLaurent({k: -c for k, c in a.terms.items()}, a.i_power)


def q_power(a, n):
    """a**n for a QHalfLaurent value and n >= 0, by repeated *."""
    out = QHalfLaurent.monomial(1, 0)
    for _ in range(n):
        out = out * a
    return out


def sub(a, b):
    """a - b, as a + (-b), for the values that define + and unary - but no
    -: real tau-polynomials, Laurent series and partition series (either
    may be a rational on the right)."""
    return a + (-b)


def ps_zero(w):
    """The zero partition series under the weight cap w."""
    return PartitionSeries({}, w)


def ps_monomial(mu, coeff, w):
    """coeff * p_mu under the weight cap w."""
    return PartitionSeries({mu: coeff}, w)


def i_power(k):
    """i^k as a Gaussian rational, by repeated products with i."""
    out = GaussianRational(1)
    for _ in range(k % 4):
        out = out * GaussianRational(0, 1)
    return out


def gaussian_coeffs(p):
    """The coefficients of a phased tau-polynomial as Gaussian rationals,
    constant term first: each rational coefficient times i^(p.i_power).
    The package prints the same values without building one."""
    phase = i_power(p.i_power)
    return tuple(phase * c for c in p.real.coeffs)


def series_agree(a, b, order=None):
    """Whether two Laurent series have the same coefficients on every
    exponent both know, up to the given order if one is given."""
    top = min(a.trunc_order, b.trunc_order)
    if order is not None:
        top = min(top, order)
    return a.truncate(top) == b.truncate(top)


def sin_half_series(c, order):
    """Series of sin(c*x/2) = sum_k (-1)^k (c/2)^(2k+1) x^(2k+1)/(2k+1)!."""
    if order < 1:
        raise ValueError("order must be at least 1")
    half = Fraction(c) / 2
    coeffs = [0] * order  # exponents 1..order
    for k in range(0, order, 2):
        coeffs[k] = (-1) ** (k // 2) * half ** (k + 1) / factorial(k + 1)
    return LaurentSeries(1, coeffs, order)


def v_series_by_products(nu, order):
    """V_nu / i^|nu| = 1 / prod_h 2*sinh(h*x/2) to x^order, as the
    reciprocal of the product of the sinh series over the hooks."""
    work = order + 2 * nu.size
    prod = LaurentSeries.one(work)
    for h in nu.hooks():
        prod = prod * (sinh_half_series(Fraction(h), work) * 2)
    return prod.reciprocal().truncate(order)


def tau_exponential(kappa, order):
    """exp((tau + 1/2)*kappa*x/2) to x^order, term by term: a^n / n! at x^n,
    a = (tau + 1/2)*kappa/2 and a^n by repeated products."""
    a = RealTauPolynomial([Fraction(kappa, 4), Fraction(kappa, 2)])
    terms, power = [], RealTauPolynomial([1])
    for n in range(order + 1):
        terms.append(power * Fraction(1, factorial(n)))
        power = power * a
    return LaurentSeries(0, terms, order)


def two_factor_w(nu, order):
    """W_nu = exp((tau + 1/2)*kappa_nu*x/2) * V_nu / i^|nu| to x^order, the
    tau-exponential times `v_series_by_products`."""
    return tau_exponential(nu.kappa(), order + nu.size) * v_series_by_products(nu, order)


def connected_cover_table(d, r):
    """The connected cover series sum_mu sum_k h_{g,mu} x^k p_mu over
    |mu| <= d and k <= r, with h = H/k!, in the x^k/k! grading: rows
    `hurwitz_disconnected(k, mu) / k!` to order r, then `ps_log` (the
    exponential formula).  The package takes the same log once per degree on
    exponential sums, exact at every r."""
    terms = {EMPTY: LaurentSeries.one(r)}
    for size in range(1, d + 1):
        for mu in enumerate_partitions(size):
            row = [hurwitz.hurwitz_disconnected(k, mu) / factorial(k) for k in range(r + 1)]
            terms[mu] = LaurentSeries(0, row, r)
    return genfun.ps_log(PartitionSeries(terms, d))


def tau_zero_lambda_value(d, order):
    """The tau = 0 coefficient of p_d in lambda, -(i)^(d+1) / (2d sin(d lambda/2)),
    as {exponent: GaussianRational} up to the given order."""
    recip = (sin_half_series(Fraction(d), order + 2) * (2 * d)).reciprocal()
    phase = -i_power(d + 1)
    return {k: phase * c for k, c in recip.items()}


def _poly_mul(a, b):
    """The product of two coefficient lists, constant term first."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def prefactor_coefficients(mu):
    """P_mu = (tau(tau+1))^(l-1) * prod_i prod_{a<mu_i} (mu_i tau + a)
    / (|Aut mu| * prod_i (mu_i - 1)!), as a coefficient list built one
    linear factor at a time."""
    out = [Fraction(1, mu.aut_order())]
    for _ in range(mu.length - 1):
        out = _poly_mul(_poly_mul(out, [0, 1]), [1, 1])
    for part in mu:
        for a in range(1, part):
            out = _poly_mul(out, [a, part])
        out = [c / factorial(part - 1) for c in out]
    return out


def genus0_lambda_value(mu):
    """The coefficient of lambda^(l-2) p_mu, -(i)^(|mu|+l) * P_mu * |mu|^(l-3),
    as a tuple of Gaussian rationals, constant term first."""
    phase = -i_power(mu.size + mu.length) * (Fraction(mu.size) ** (mu.length - 3))
    return tuple(phase * c for c in prefactor_coefficients(mu))


def d_dp(F, i):
    """Formal partial derivative of a series with respect to p_i."""
    out = {}
    for mu, c in F.terms.items():
        m = mu.multiplicity(i)
        if m:
            # removing one part i is injective, so no two terms meet
            out[mu.remove_one(i)] = c * m
    return PartitionSeries(out, F.max_weight)


def ref_merge(terms, w):
    """The series of (partition, coefficient) terms, merged one at a time
    under the cap w: a repeated partition adds its coefficients, and a sum
    that vanishes drops the term."""
    data = {}
    for mu, c in terms:
        if mu.size > w or not c:
            continue
        if mu in data:
            s = data[mu] + c
            if not s:
                del data[mu]
            else:
                data[mu] = s
        else:
            data[mu] = c
    return PartitionSeries(data, w)


def ref_add(A, B):
    return ref_merge([*A.terms.items(), *B.terms.items()], min(A.max_weight, B.max_weight))


def reference_linear(F):
    """Omega(F) summed one term at a time."""
    w = F.max_weight
    out = ps_zero(w)
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    for i in range(1, maxpart + 1):
        dFi = d_dp(F, i)
        if not dFi.terms:
            continue
        for j in range(1, maxpart + 1):
            second = d_dp(dFi, j)
            if second.terms:
                out = ref_add(out, second.mul_p(i + j) * (i * j))
    for s in range(2, maxpart + 1):
        dFs = d_dp(F, s)
        if not dFs.terms:
            continue
        for i in range(1, s):
            out = ref_add(out, dFs.mul_p(i).mul_p(s - i) * s)
    return out


def reference_nonlinear(F):
    """Omega(F) plus the quadratic term with dF/dp_i * dF/dp_j formed at the
    full cap, leaving mul_p to drop what lands above it, summed one term at
    a time."""
    out = reference_linear(F)
    w = F.max_weight
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    derivs = {i: d_dp(F, i) for i in range(1, maxpart + 1)}
    for i in range(1, maxpart + 1):
        for j in range(1, maxpart + 1):
            if i + j > w:
                continue
            prod = derivs[i] * derivs[j]
            if prod.terms:
                out = ref_add(out, prod.mul_p(i + j) * (i * j))
    return out
