"""The two-variable generating series for triple Hodge integrals.

Everything here is built from the character side: the disconnected series

    sum_mu ( sum_{|nu|=|mu|} chi_nu(mu)/z_mu * exp-factor(kappa_nu) * V_nu ) p_mu

where V_nu is the sine amplitude attached to a partition and the exponential
factor carries kappa_nu and the deformation variable tau.  The connected
series is its formal logarithm.  From the connected series we extract, per
genus and partition, the tau-polynomials whose prefactor-free parts are the
triple Hodge integrals; the evolution equation in tau and the closed-form
initial value at tau = 0 are verified exactly, coefficient by coefficient.

Truncation bookkeeping: to guarantee the connected series is valid to
lambda-order L at every weight up to W, the disconnected series is built with
per-coefficient truncation L + W - 1 (a product of k coefficient series loses
at most W - 1 orders against the worst split of its weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .exact import (
    GR_I,
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    TP_ONE,
    TP_TAU,
    TauPolynomial,
    sin_half_series,
    series_exp,
)
from .genfun import PartitionSeries, cut_join_linear, cut_join_nonlinear, ps_log
from .linalg import nullspace
from .partitions import (
    Partition,
    cut_join_incoming,
    enumerate_partitions,
    split_contributions,
)
from .characters import character


# -- the sine amplitude V_nu, in exact q^(1/2) form and as a Laurent series --


def two_sin_half(m: int) -> QHalfLaurent:
    """2*sin(m*lambda/2) written in y = exp(-sqrt(-1)*lambda/2) = q^(1/2):
    equals i*(y^m - y^(-m))."""
    if m == 0:
        return QHalfLaurent.zero()
    return QHalfLaurent(((m, GR_I), (-m, -GR_I)))


def v_sine_product(nu: Partition) -> tuple[QHalfLaurent, QHalfLaurent]:
    """The double-product form of V_nu as an exact (numerator, denominator).

    numerator   = prod_{a<b} 2 sin[(nu_a - nu_b + b - a) lambda/2]
    denominator = prod_{a<b} 2 sin[(b - a) lambda/2]
                  * prod_i prod_{v=1..nu_i} 2 sin[(v - i + l) lambda/2]
    """
    if nu.size < 1:
        raise ValueError("requires a nonempty partition")
    l = nu.length
    num = QHalfLaurent.one()
    den = QHalfLaurent.one()
    for a in range(l):
        for b in range(a + 1, l):
            num = num * two_sin_half(nu.parts[a] - nu.parts[b] + b - a)
            den = den * two_sin_half(b - a)
    for i in range(1, l + 1):
        for v in range(1, nu.parts[i - 1] + 1):
            den = den * two_sin_half(v - i + l)
    return num, den


def v_hook_form(nu: Partition) -> tuple[QHalfLaurent, QHalfLaurent]:
    """V_nu as 1 over the product of 2*sin(h(x)*lambda/2) over all cells.

    One factor of 2 per cell; this is the reading forced by the per-cell
    "2 sin" product in the logarithm identity, and it is what makes the two
    forms agree exactly.
    """
    if nu.size < 1:
        raise ValueError("requires a nonempty partition")
    den = QHalfLaurent.one()
    for h in nu.hooks():
        den = den * two_sin_half(h)
    return QHalfLaurent.one(), den


def v_forms_agree(nu: Partition) -> bool:
    """Cross-multiplied equality of the two exact forms of V_nu."""
    num_p, den_p = v_sine_product(nu)
    num_h, den_h = v_hook_form(nu)
    return num_p * den_h == num_h * den_p


def v_series(nu: Partition, order: int) -> LaurentSeries:
    """Laurent expansion of V_nu; pole of order |nu|, rational coefficients."""
    if order < -nu.size:
        raise ValueError("order must be at least -|nu|")
    if nu.size == 0:
        return LaurentSeries.one(order)
    work = order + 2 * nu.size
    prod = LaurentSeries.one(work)
    for h in nu.hooks():
        prod = prod * (sin_half_series(Fraction(h), work) * 2)
    return prod.reciprocal().truncate(order)


# -- building the series -----------------------------------------------------


def kappa_exp_factor(kappa: int, trunc: int) -> LaurentSeries:
    """Series of exp(sqrt(-1)*(tau + 1/2)*kappa*lambda/2) over tau-polynomials."""
    c = TauPolynomial([GR_I * Fraction(kappa, 4), GR_I * Fraction(kappa, 2)])
    return series_exp(LaurentSeries.monomial(c, 1, trunc))


@dataclass(frozen=True)
class MVSeries:
    """A partition series whose coefficients are lambda-Laurent series over
    tau-polynomials, together with its guaranteed-valid lambda order."""

    body: PartitionSeries
    max_weight: int
    lambda_order: int

    def coefficient(self, mu: Partition) -> LaurentSeries:
        c = self.body.coefficient(mu)
        if isinstance(c, int):
            return LaurentSeries.zero(self.lambda_order)
        return c

    def tau_derivative(self) -> PartitionSeries:
        return self.body.map_coefficients(
            lambda s: s.map_coefficients(_tau_diff)
        )

    def at_tau_zero(self) -> PartitionSeries:
        return self.body.map_coefficients(
            lambda s: s.map_coefficients(_tau_eval_zero)
        )


def _tau_diff(c):
    return c.derivative() if isinstance(c, TauPolynomial) else 0


def _tau_eval_zero(c):
    return c.evaluate(0) if isinstance(c, TauPolynomial) else c


def build_disconnected(max_weight: int, lambda_order: int) -> MVSeries:
    """The disconnected series (constant term 1) up to the given weight."""
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    T = lambda_order + max_weight - 1
    terms = {}
    for d in range(max_weight + 1):
        nus = enumerate_partitions(d)
        weights = []
        for nu in nus:
            E = kappa_exp_factor(nu.kappa(), T + d)
            V = v_series(nu, T)
            weights.append((E * V).map_coefficients(TauPolynomial.coerce))
        for mu in nus:
            z = mu.z()
            acc = None
            for nu, W in zip(nus, weights):
                chi = character(nu, mu)
                if chi == 0:
                    continue
                term = W * Fraction(chi, z)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                terms[mu] = acc
    return MVSeries(PartitionSeries(terms, max_weight), max_weight, lambda_order)


@cache
def build_series_pair(max_weight: int, lambda_order: int) -> tuple[MVSeries, MVSeries]:
    """(disconnected, connected) pair; cached per process and reused by the
    evolution, initial-value and extraction checks."""
    star = build_disconnected(max_weight, lambda_order)
    conn = MVSeries(ps_log(star.body), max_weight, lambda_order)
    return star, conn


def build_R_star(max_weight: int = 6, lambda_order: int = 12) -> MVSeries:
    return build_series_pair(max_weight, lambda_order)[0]


def build_R(max_weight: int = 6, lambda_order: int = 12) -> MVSeries:
    return build_series_pair(max_weight, lambda_order)[1]


# -- the evolution equation and the initial value ----------------------------


def _series_agree(a, b, order: int) -> bool:
    """Exact agreement of two coefficient entries up to the given order.

    Entries are Laurent series or the integer 0 for an exactly-cancelled
    coefficient; every series in these computations carries a truncation at
    or above `order` by construction, which the caller asserts.
    """
    if isinstance(a, int):
        a, b = b, a
    if isinstance(b, int):
        if isinstance(a, int):
            return True
        zero = LaurentSeries.zero(a.trunc_order)
        return a.agrees_with(zero, up_to=order)
    return a.agrees_with(b, up_to=order)


def _evolution_holds(lhs: PartitionSeries, rhs: PartitionSeries, order: int) -> bool:
    keys = set(lhs.terms) | set(rhs.terms)
    for mu in keys:
        a, b = lhs.coefficient(mu), rhs.coefficient(mu)
        for s in (a, b):
            if not isinstance(s, int) and s.trunc_order < order:
                raise ValueError(
                    f"coefficient of p_{mu} only valid to {s.trunc_order} < {order}"
                )
        if not _series_agree(a, b, order):
            return False
    return True


def _half_i_lambda(F: PartitionSeries) -> PartitionSeries:
    """Multiply every coefficient series by sqrt(-1)*lambda/2."""
    scale = GaussianRational(0, Fraction(1, 2))
    return F.map_coefficients(lambda s: s.shift(1) * scale)


def theorem1_verdicts(max_weight: int = 6, lambda_order: int = 12) -> tuple[bool, bool]:
    """Both forms of the evolution equation, coefficientwise exact, as the
    (linear, nonlinear) pair of verdicts.

    linear form:     d/dtau (disconnected) = (i*lambda/2) * Omega(disconnected)
    nonlinear form:  d/dtau (connected)    = (i*lambda/2) * Omega~(connected)
    """
    star, conn = build_series_pair(max_weight, lambda_order)
    linear = _evolution_holds(
        star.tau_derivative(), _half_i_lambda(cut_join_linear(star.body)), lambda_order
    )
    nonlinear = _evolution_holds(
        conn.tau_derivative(), _half_i_lambda(cut_join_nonlinear(conn.body)), lambda_order
    )
    return linear, nonlinear


def theorem1_check(max_weight: int = 6, lambda_order: int = 12) -> bool:
    """True when both forms of the evolution equation hold; see
    theorem1_verdicts."""
    return all(theorem1_verdicts(max_weight, lambda_order))


def initial_condition_series(d: int, order: int) -> LaurentSeries:
    """The closed-form tau = 0 coefficient of p_d:
    -(sqrt(-1))^(d+1) / (2*d*sin(d*lambda/2))."""
    den = sin_half_series(Fraction(d), order + 2) * Fraction(2 * d)
    return den.reciprocal() * (-GaussianRational.i_power(d + 1))


def initial_condition_check(max_weight: int = 6, lambda_order: int = 12) -> bool:
    """The connected series at tau = 0 collapses to single-row terms with the
    sine closed form; all multi-row coefficients vanish identically."""
    _, conn = build_series_pair(max_weight, lambda_order)
    at_zero = conn.at_tau_zero()
    for mu in at_zero.terms:
        series = at_zero.coefficient(mu)
        if mu.length == 1:
            target = initial_condition_series(mu.size, lambda_order)
            if not _series_agree(series, target, lambda_order):
                return False
        else:
            if not _series_agree(series, 0, lambda_order):
                return False
    for d in range(1, max_weight + 1):
        if Partition([d]) not in at_zero.terms:
            return False
    return True


# -- extraction of per-genus tau-polynomials ---------------------------------


@dataclass(frozen=True)
class CgmuPolynomial:
    """Coefficient of lambda^(2g-2+l(mu)) p_mu in the connected series."""

    g: int
    mu: Partition
    poly: TauPolynomial

    @property
    def degree_bound(self) -> int:
        return 2 * self.g - 2 + self.mu.size + self.mu.length

    def degree_ok(self) -> bool:
        return self.poly.degree <= self.degree_bound

    def symmetry_ok(self) -> bool:
        """poly(-tau-1) = (-1)^(|mu|-l(mu)) * poly(tau)."""
        sign = (-1) ** (self.mu.size - self.mu.length)
        flipped = self.poly.substitute(TauPolynomial([-1, -1]))
        return flipped == self.poly * sign


def extract_C_gmu(R: MVSeries, g: int, mu: Partition) -> CgmuPolynomial:
    """Read off the genus-g tau-polynomial attached to p_mu."""
    if mu.size > R.max_weight:
        raise ValueError(f"|mu|={mu.size} exceeds series weight {R.max_weight}")
    m = 2 * g - 2 + mu.length
    if m > R.lambda_order:
        raise ValueError(
            f"lambda exponent {m} exceeds valid order {R.lambda_order}"
        )
    c = R.coefficient(mu).coefficient(m)
    return CgmuPolynomial(g, mu, TauPolynomial.coerce(c))


def prefactor_polynomial(mu: Partition) -> TauPolynomial:
    """The combinatorial prefactor multiplying the triple Hodge integral:

    -(sqrt(-1))^(|mu|+l) / |Aut(mu)| * (tau(tau+1))^(l-1)
        * prod_i prod_{a=1..mu_i-1} (mu_i tau + a) / (mu_i - 1)!
    """
    d, l = mu.size, mu.length
    head = -GaussianRational.i_power(d + l) * Fraction(1, mu.aut_order())
    poly = TauPolynomial.constant(head)
    poly = poly * (TP_TAU * (TP_TAU + 1)) ** (l - 1)
    for part in mu:
        rising = TP_ONE
        for a in range(1, part):
            rising = rising * (TP_TAU * part + a)
        poly = poly * rising * Fraction(1, factorial(part - 1))
    return poly


def genus0_closed_form(mu: Partition) -> TauPolynomial:
    """Definition-route value at genus 0: prefactor times |mu|^(l-3)."""
    d, l = mu.size, mu.length
    return prefactor_polynomial(mu) * (Fraction(d) ** (l - 3))


class HodgeDivisionError(ArithmeticError):
    """Raised when the extracted polynomial is not an exact multiple of the
    prefactor; carries both polynomials for diagnosis."""

    def __init__(self, mu: Partition, g: int, dividend: TauPolynomial, remainder: TauPolynomial):
        self.mu = mu
        self.g = g
        self.dividend = dividend
        self.remainder = remainder
        super().__init__(
            f"nonzero remainder isolating the Hodge factor for g={g}, mu={mu}: "
            f"dividend {dividend!r}, remainder {remainder!r}"
        )


def hodge_polynomial(g: int, mu: Partition, R: MVSeries) -> TauPolynomial:
    """Divide out the prefactor to isolate the Hodge-integral polynomial."""
    extracted = extract_C_gmu(R, g, mu).poly
    quotient, remainder = extracted.divmod_poly(prefactor_polynomial(mu))
    if remainder:
        raise HodgeDivisionError(mu, g, extracted, remainder)
    return quotient


def lambda_g_coefficients(order: int) -> list[Fraction]:
    """Even coefficients of (x/2)/sin(x/2): 1, 1/24, 7/5760, ..."""
    if order < 2:
        raise ValueError("order must be at least 2")
    s = sin_half_series(Fraction(1), order + 2)
    w = s.reciprocal().shift(1) * Fraction(1, 2)
    return [Fraction(w.coefficient(2 * g)) for g in range(order // 2 + 1)]


def cutjoin_derivative_check(R: MVSeries, g: int, mu: Partition) -> bool:
    """Per-coefficient form of the evolution equation on extracted polynomials:

    d/dtau C_{g,mu} = i * [ sum_{nu joins of mu} w1 C_{g,nu}
                          + sum_{nu cuts of mu} w2 C_{g-1,nu}
                          + 1/2 sum_splits weight * C_{g1,nu1} C_{g2,nu2} ]

    with the w and split weights read from the cut/join edge coefficients.
    """
    lhs = extract_C_gmu(R, g, mu).poly.derivative()
    joins_into, cuts_into = cut_join_incoming(mu)
    acc = TauPolynomial()
    for nu, w in joins_into:
        acc = acc + extract_C_gmu(R, g, nu).poly * w
    if g >= 1:
        for nu, w in cuts_into:
            acc = acc + extract_C_gmu(R, g - 1, nu).poly * w
    half = Fraction(1, 2)
    for term in split_contributions(mu):
        for g1 in range(g + 1):
            g2 = g - g1
            prod = (
                extract_C_gmu(R, g1, term.nu1).poly
                * extract_C_gmu(R, g2, term.nu2).poly
            )
            acc = acc + prod * (half * term.weight)
    return lhs == acc * GR_I


def parity_pole_check(R: MVSeries) -> bool:
    """Connected-series structure: the coefficient of p_mu has lambda
    exponents m >= l(mu) - 2 with m = l(mu) (mod 2) only."""
    for mu in R.body.terms:
        series = R.coefficient(mu)
        l = mu.length
        for k, c in series.items():
            if k > R.lambda_order:
                break
            if not c:
                continue
            if k < l - 2 or (k - l) % 2 != 0:
                return False
    return True


# -- the branch-count transfer system ----------------------------------------


def transfer_system_kernel(l: int) -> list[Fraction]:
    """Exact kernel of the l x (l+1) falling-factorial system.

    Row i has entries k!/(k-i)! for k = i..l; the kernel is one-dimensional
    and, normalized to leading entry 1, equals the alternating binomial
    vector (-1)^k * C(l, k).
    """
    if l < 1:
        raise ValueError("l must be positive")
    rows = [
        [Fraction(factorial(k), factorial(k - i)) if k >= i else Fraction(0)
         for k in range(l + 1)]
        for i in range(l)
    ]
    basis = nullspace(rows)
    if len(basis) != 1:
        raise ArithmeticError(f"kernel dimension {len(basis)} != 1 for l={l}")
    v = basis[0]
    if not v[0]:
        raise ArithmeticError("kernel vector has vanishing leading entry")
    lead = v[0]
    return [x / lead for x in v]
