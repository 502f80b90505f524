"""The two-variable generating series for triple Hodge integrals.

Everything here is built from the character side: the disconnected series

    sum_mu ( sum_{|nu|=|mu|} chi_nu(mu)/z_mu * exp-factor(kappa_nu) * V_nu ) p_mu

where V_nu is the sine amplitude attached to a partition and the exponential
factor carries kappa_nu and the deformation variable tau.  The connected
series is its formal logarithm.  From the connected series we extract, per
genus and partition, the tau-polynomials whose prefactor-free parts are the
triple Hodge integrals; the evolution equation in tau and the closed-form
initial value at tau = 0 are verified exactly, coefficient by coefficient.

The series are computed in the variables x = i*lambda and P_k = i^k p_k,
where every coefficient is rational.  The substitution is a ring
homomorphism that keeps the p-weight of every term, so it commutes with
exp and log of partition series, with both cut-and-join operators (each
term of i*j*p_{i+j} d2/dp_i dp_j and (i+j)*p_i*p_j d/dp_{i+j} carries
i^0 overall) and with d/dtau.  In the new variables the sine amplitude is
V_nu = i^|nu| / prod_cells 2*sinh(h*x/2), whose i^|nu| cancels against
p_mu = i^(-|mu|) P_mu since |mu| = |nu|; the exponential factor is
exp((tau + 1/2)*kappa*x/2); and the evolution equation reads
d/dtau R = (x/2) * Omega(R).  So the coefficient of x^m P_mu is a rational
tau-polynomial r, and the coefficient of lambda^m p_mu is i^(m+|mu|) * r.
That phase is put back only where a value leaves the series (MVSeries
coefficients, the tau = 0 value and extraction), as the TauPolynomial
i^(m+|mu|) * r, which stores r and the phase and never multiplies out
complex coefficients.  The closed forms are written in lambda as in the
paper, each as one explicit power of i times a rational object: the
prefactor is i^(|mu|+l(mu)) times -1/|Aut mu| times a rational
tau-polynomial, the tau = 0 value of p_d is i^(d+1) times the rational
lambda-series -1/(2d*sin(d*lambda/2)), and the sqrt(-1) of the evolution
equation is the unit TP_I.  So the checks against them test the phase rule
independently of _lambda_series, and Gaussian rationals appear only when a
coefficient is read out.

The sine amplitude is expanded from the power sums of the hook lengths:

    1 / prod_h 2*sinh(h*x/2)
        = x^(-|nu|) / prod_h h * exp(-sum_k c_k * p_2k(hooks) * x^(2k)),

where c_k is the x^(2k) coefficient of log(2*sinh(x/2)/x) and
p_2k(hooks) = sum_h h^(2k): one exponential per partition in place of |nu|
sinh products and a reciprocal.  Conjugate partitions halve the work.  The
conjugate nu' has the same hooks and kappa(nu') = -kappa(nu), so
W_nu = E_nu * V_nu satisfies W_nu'(x) = (-1)^|nu| * W_nu(-x); with
chi_nu'(mu) = (-1)^(|mu|-l(mu)) * chi_nu(mu) the pair contributes

    m_nu * chi_nu(mu) / z_mu * W_nu[x^m]   for m = l(mu) (mod 2), else 0

to the x^m P_mu coefficient, where m_nu = 2, or 1 when nu = nu'.  So W_nu is
built for one partition of each pair, and only exponents of the parity of
l(mu) are formed.

Truncation bookkeeping: each coefficient is computed only to the order
something downstream reads.  The weight-d coefficients of the disconnected
series are built to x-order L + W - d.  A weight-d factor of a product of
weight at most W meets poles of total order at most W - d from the other
factors (the weight-e coefficient has a pole of order at most e), so by
induction on the recurrence of ps_log every connected coefficient of weight
n is valid to at least L + W - n >= L.  Every check and readout compares the
series only up to L, so both bodies are cut at L (MVSeries.truncated) before
the tau-derivative, the cut-and-join operators, the tau = 0 value and the
lambda-series readout.  A connected coefficient has a pole of order at most
1, so a product of two of them cut at L is valid to L - 1 and the
nonlinear side (x/2) * Omega~ is still valid to L; _evolution_holds raises
if any compared coefficient is valid below L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, prod

from .exact import (
    LaurentSeries,
    QHalfLaurent,
    RTP_ZERO,
    RealTauPolynomial,
    TP_I,
    TP_ONE,
    TP_TAU,
    TauPolynomial,
    sin_half_series,
    sinh_half_series,
    series_exp,
    series_log,
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
    return QHalfLaurent(((m, 1), (-m, -1)), i_power=1)


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
    """Laurent expansion of V_nu / i^|nu| = 1 / prod_cells 2*sinh(h*x/2) in
    x = i*lambda; pole of order |nu|, rational coefficients.  Computed as
    one exponential of the hook power sums (see the module docstring).
    """
    if order < -nu.size:
        raise ValueError("order must be at least -|nu|")
    hooks = nu.hooks()
    work = order + nu.size
    c = _log_sinh_coefficients(work // 2)
    exponent = [0] * work  # exponents 1..work
    for k in range(1, work // 2 + 1):
        exponent[2 * k - 1] = -c[k] * sum(h ** (2 * k) for h in hooks)
    e = series_exp(LaurentSeries(1, exponent, work))
    return e.shift(-nu.size) * Fraction(1, prod(hooks))


@cache
def _log_sinh_coefficients(n: int) -> tuple[Fraction, ...]:
    """c_0..c_n, where c_k is the x^(2k) coefficient of log(2*sinh(x/2)/x)."""
    s = series_log(sinh_half_series(Fraction(1), 2 * n + 1).shift(-1) * 2)
    return tuple(s.coefficient(2 * k) for k in range(n + 1))


# -- building the series -----------------------------------------------------


def kappa_exp_factor(kappa: int, trunc: int) -> LaurentSeries:
    """Series of exp((tau + 1/2)*kappa*x/2) over real tau-polynomials: the
    factor exp(sqrt(-1)*(tau + 1/2)*kappa*lambda/2) at x = i*lambda."""
    c = RealTauPolynomial([Fraction(kappa, 4), Fraction(kappa, 2)])
    # the exponent is built to order 1 at least, so that trunc = 0 gives 1
    return series_exp(LaurentSeries.monomial(c, 1, max(trunc, 1)), trunc)


@dataclass(frozen=True)
class MVSeries:
    """A partition series together with its guaranteed-valid lambda order.

    The body is the series in x = i*lambda and P_k = i^k p_k: its
    coefficients are x-Laurent series over real tau-polynomials (see the
    module docstring), valid to at least `lambda_order` and possibly beyond.
    `truncated` is the body cut at `lambda_order`, the order every check and
    readout compares to; `tau_derivative`, `coefficient` and `at_tau_zero`
    read it, and the last two give the series in lambda and p, each
    coefficient a phased TauPolynomial, valid to exactly `lambda_order`.
    """

    body: PartitionSeries
    max_weight: int
    lambda_order: int

    @cached_property
    def truncated(self) -> PartitionSeries:
        """The body with every coefficient series cut at lambda_order."""
        return self.body.map_coefficients(lambda s: s.truncate(self.lambda_order))

    def coefficient(self, mu: Partition) -> LaurentSeries:
        """The coefficient of p_mu as a lambda-Laurent series over
        tau-polynomials, valid to lambda_order."""
        c = self.truncated.coefficient(mu)
        if isinstance(c, int):
            return LaurentSeries.zero(self.lambda_order)
        return _lambda_series(c, mu.size)

    def tau_derivative(self) -> PartitionSeries:
        """d/dtau of the truncated body, in the x and P variables."""
        return self.truncated.map_coefficients(
            lambda s: s.map_coefficients(_tau_diff)
        )

    def at_tau_zero(self) -> PartitionSeries:
        """The series in lambda and p at tau = 0, valid to lambda_order: the
        constant term of each rational polynomial, then the phase put back,
        so each coefficient is a constant TauPolynomial."""
        return PartitionSeries(
            {
                mu: _lambda_series(s.map_coefficients(_tau_zero), mu.size)
                for mu, s in self.truncated.terms.items()
            },
            self.max_weight,
        )


def _tau_diff(c):
    return c.derivative() if isinstance(c, RealTauPolynomial) else 0


def _tau_zero(c):
    return RealTauPolynomial.constant(c.coefficient(0)) if c else 0


def _lambda_series(s: LaurentSeries, weight: int) -> LaurentSeries:
    """The coefficient series of p_mu, |mu| = weight, from that of P_mu:
    the x^m entry r becomes the lambda^m entry i^(m+weight) * r."""
    return LaurentSeries._raw(
        s.min_exp,
        tuple(TauPolynomial.phased(c, k + weight) for k, c in s.items()),
        s.trunc_order,
    )


def build_disconnected(max_weight: int, lambda_order: int) -> MVSeries:
    """The disconnected series (constant term 1) up to the given weight.

    W_nu = E_nu * V_nu is built once per conjugate pair {nu, nu'}, and the
    x^m P_mu coefficient is formed only for m = l(mu) (mod 2); the other
    parity is zero (see the module docstring).  Weight d is built to x-order
    L + W - d, enough for the connected series to be valid to L.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    terms = {}
    for d in range(max_weight + 1):
        T = lambda_order + max_weight - d
        nus = enumerate_partitions(d)
        reps = []
        for nu in nus:
            conj = nu.transpose()
            if conj < nu:
                continue
            W = kappa_exp_factor(nu.kappa(), T + d) * v_series(nu, T)
            reps.append((nu, 1 if conj == nu else 2, W))
        for mu in nus:
            weighted = [
                (m_nu * chi, W)
                for nu, m_nu, W in reps
                if (chi := character(nu, mu))
            ]
            scale = Fraction(1, mu.z())
            coeffs = [RTP_ZERO] * (T + d + 1)  # exponents -d..T
            for m in range(-d + (d + mu.length) % 2, T + 1, 2):
                acc = RTP_ZERO
                for w, W in weighted:
                    c = W.coefficient(m)
                    if c:
                        acc = acc + c * w
                coeffs[m + d] = acc * scale
            series = LaurentSeries(-d, coeffs, T)
            if series:
                terms[mu] = series
    return MVSeries(PartitionSeries(terms, max_weight), max_weight, lambda_order)


@cache
def build_series_pair(max_weight: int, lambda_order: int) -> tuple[MVSeries, MVSeries]:
    """(disconnected, connected) pair; cached per process and reused by the
    evolution, initial-value and extraction checks."""
    star = build_disconnected(max_weight, lambda_order)
    conn = MVSeries(ps_log(star.body), max_weight, lambda_order)
    return star, conn


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


def _x_scaled(F: PartitionSeries, c: Fraction) -> PartitionSeries:
    """Multiply every coefficient series by c*x."""
    return F.map_coefficients(lambda s: s.shift(1) * c)


def theorem1_verdicts(max_weight: int = 6, lambda_order: int = 12) -> tuple[bool, bool]:
    """Both forms of the evolution equation, coefficientwise exact, as the
    (linear, nonlinear) pair of verdicts.

    linear form:     d/dtau (disconnected) = (x/2) * Omega(disconnected)
    nonlinear form:  d/dtau (connected)    = (x/2) * Omega~(connected)

    In lambda and p the factor x/2 reads sqrt(-1)*lambda/2.  Both sides are
    formed from the bodies cut at lambda_order and compared up to it.
    """
    star, conn = build_series_pair(max_weight, lambda_order)
    half = Fraction(1, 2)
    linear = _evolution_holds(
        star.tau_derivative(), _x_scaled(cut_join_linear(star.truncated), half), lambda_order
    )
    nonlinear = _evolution_holds(
        conn.tau_derivative(), _x_scaled(cut_join_nonlinear(conn.truncated), half), lambda_order
    )
    return linear, nonlinear


def theorem1_check(max_weight: int = 6, lambda_order: int = 12) -> bool:
    """True when both forms of the evolution equation hold; see
    theorem1_verdicts."""
    return all(theorem1_verdicts(max_weight, lambda_order))


def initial_condition_series(d: int, order: int) -> LaurentSeries:
    """The closed-form tau = 0 coefficient of p_d:
    -(sqrt(-1))^(d+1) / (2*d*sin(d*lambda/2)), the rational reciprocal series
    times the phase i^(d+1)."""
    den = sin_half_series(Fraction(d), order + 2) * Fraction(2 * d)
    return den.reciprocal() * TauPolynomial.phased(RealTauPolynomial.constant(-1), d + 1)


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
    series = R.body.coefficient(mu)
    c = series.coefficient(m) if series else 0
    return CgmuPolynomial(g, mu, TauPolynomial.phased(c, m + mu.size))


def prefactor_polynomial(mu: Partition) -> TauPolynomial:
    """The combinatorial prefactor multiplying the triple Hodge integral:

    -(sqrt(-1))^(|mu|+l) / |Aut(mu)| * (tau(tau+1))^(l-1)
        * prod_i prod_{a=1..mu_i-1} (mu_i tau + a) / (mu_i - 1)!
    """
    d, l = mu.size, mu.length
    head = RealTauPolynomial.constant(Fraction(-1, mu.aut_order()))
    poly = TauPolynomial.phased(head, d + l)
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
    return lhs == acc * TP_I


def parity_pole_check(R: MVSeries) -> bool:
    """Connected-series structure: the coefficient of p_mu has lambda
    exponents m >= l(mu) - 2 with m = l(mu) (mod 2) only."""
    for mu, series in R.truncated.terms.items():
        l = mu.length
        for k, c in series.items():
            if c and (k < l - 2 or (k - l) % 2 != 0):
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
