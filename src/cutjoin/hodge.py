"""The two-variable generating series for triple Hodge integrals.

Everything here is built from the character side: the disconnected series

    sum_mu ( sum_{|nu|=|mu|} chi_nu(mu)/z_mu * exp-factor(kappa_nu) * V_nu ) p_mu

where V_nu is the sine amplitude attached to a partition and the exponential
factor carries kappa_nu and the deformation variable tau.  The connected
series is its formal logarithm.  From the connected series we extract, per
genus and partition, the tau-polynomials whose prefactor-free parts are the
triple Hodge integrals; the evolution equation in tau and the closed-form
initial value at tau = 0 are verified exactly, coefficient by coefficient.

V_nu's two exact forms, the double-sine product and the hook product, are
Laurent polynomials in y = q^(1/2), each one product of binomials multiplied
in by a shift-subtract per factor (two_sin_product); v_forms_agree compares
two such products, each expanded in full.

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

Every check runs on r, and each closed form is rational in x and P: the
per-coefficient evolution, d/dtau r_{g,mu} equal to half the x^(m-1)
coefficient, m = 2g-2+l(mu), of the nonlinear operator's column at P_mu,
with no factor of i; the tau = 0 value sum_d P_d / (2d*sinh(d*x/2)), every
multi-row term zero; the genus-0 anchor r_{0,mu} = P_mu * |mu|^(l-3), with
P_mu the rational prefactor; and the Hodge factor (-1)^g * r_{g,mu} / P_mu.
The phase is attached once, where a value is printed (`readout`: the
MVSeries coefficients, CgmuPolynomial.poly and the hodge command's
prefactor), as the TauPolynomial i^(m+|mu|) * r, which stores r and the
phase; its JSON writes each rational coefficient of r as the real or the
imaginary part, by the phase, so no complex coefficient is ever formed.
The paper's forms in lambda and p, the tau = 0 value
-(sqrt(-1))^(d+1) / (2d*sin(d*lambda/2)) and the genus-0 value
-(sqrt(-1))^(|mu|+l) * P_mu * |mu|^(l-3), are kept by the tests, which read
the printed values as Gaussian rationals and check them against those forms.

The sine amplitude is expanded from the power sums of the hook lengths:

    1 / prod_h 2*sinh(h*x/2)
        = x^(-|nu|) / prod_h h * exp(-sum_k c_k * p_2k(hooks) * x^(2k)),

where c_k is the x^(2k) coefficient of log(2*sinh(x/2)/x) and
p_2k(hooks) = sum_h h^(2k): one exponential per partition in place of |nu|
sinh products and a reciprocal.  Every sine constant is read off one series,
S(x) = 1/(2*sinh(x/2)) (`_sinh_reciprocal`): c_k = -[x^(2k)] log(x*S(x)),
the tau = 0 value 1/(2d*sinh(d*x/2)) = S(d*x)/d, and the lambda_g numbers
b_g = (-1)^g [x^(2g-1)] S of (lambda/2)/sin(lambda/2).

Conjugate partitions halve the work.  The conjugate nu' has the same hooks
and kappa(nu') = -kappa(nu), so W_nu = E_nu * V_nu satisfies
W_nu'(x) = (-1)^|nu| * W_nu(-x); with chi_nu'(mu) = (-1)^(|mu|-l(mu)) *
chi_nu(mu) the pair contributes

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
series only up to L, so MVSeries cuts each series at L once, when the pair
is built, and every reader sees that one cut.  A connected coefficient has a
pole of order at most 1, so a product of two of them cut at L is valid to
L - 1 and the nonlinear side (x/2) * Omega~ is still valid to L.

One comparison, _evolution_mismatch, decides both forms of the evolution
equation, the tau = 0 value (against the series of single-row closed forms)
and the parity and pole structure of the connected series (against its own
copy with every exponent of the wrong parity or below the pole zeroed):
term by term up to L, an absent term counting as zero, failing if a
compared coefficient is valid only below L.  A failure is the first
Mismatch, which names the partition, x exponent and tau degree where the
sides part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import zip_longest
from math import factorial, prod
from typing import NamedTuple

from . import characters, exact, genfun, hurwitz, linalg, partitions
from .exact import LaurentSeries, QHalfLaurent, RTP_ZERO, RealTauPolynomial, TauPolynomial
from .genfun import PartitionSeries
from .partitions import Partition


# -- the sine amplitude V_nu, in exact q^(1/2) form and as a Laurent series --


def two_sin_product(args) -> QHalfLaurent:
    """prod_m 2*sin(m*lambda/2) in y = exp(-sqrt(-1)*lambda/2) = q^(1/2).

    Each factor is i*(y^m - y^(-m)) = -i * y^(-m) * (1 - y^(2m)), so the
    product is (-i)^n * y^(-sum m) times prod_m (1 - y^(2m)): one
    QHalfLaurent.binomial_product, a shift-subtract per factor on one
    integer list, with the y-offset and the power of i kept apart.
    """
    return QHalfLaurent.binomial_product([2 * m for m in args], -sum(args), -len(args))


def _sine_arguments(nu: Partition) -> tuple[list[int], list[int]]:
    """The arguments m of the 2*sin(m*lambda/2) factors of V_nu's double
    product, as (numerator, denominator) lists."""
    if nu.size < 1:
        raise ValueError("requires a nonempty partition")
    l, parts = nu.length, nu.parts
    pairs = [(a, b) for a in range(l) for b in range(a + 1, l)]
    num = [parts[a] - parts[b] + b - a for a, b in pairs]
    den = [b - a for a, b in pairs]
    den += [v - i + l for i in range(1, l + 1) for v in range(1, parts[i - 1] + 1)]
    return num, den


def v_forms_agree(nu: Partition) -> bool:
    """Cross-multiplied equality of the two exact forms of V_nu.

    Each side is one two_sin_product, expanded in full: the sine numerator's
    factors with the hook factors, against the sine denominator's factors
    (the hook form's numerator is 1).  No factor is cancelled between the
    sides and no two dense polynomials are multiplied.
    """
    num, den = _sine_arguments(nu)
    return two_sin_product([*num, *nu.hooks()]) == two_sin_product(den)


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
    e = exact.series_exp(LaurentSeries(1, exponent, work))
    return e.shift(-nu.size) * Fraction(1, prod(hooks))


@cache
def _log_sinh_coefficients(n: int) -> tuple[Fraction, ...]:
    """c_0..c_n, c_k = -[x^(2k)] log(x*S(x)), the x^(2k) coefficient of
    log(2*sinh(x/2)/x)."""
    s = exact.series_log(_sinh_reciprocal(2 * n - 1).shift(1))
    return tuple(-s.coefficient(2 * k) for k in range(n + 1))


@cache
def _sinh_reciprocal(order: int) -> LaurentSeries:
    """S(x) = 1/(2*sinh(x/2)) = 1/x - x/24 + 7x^3/5760 - ... to x^order,
    the one series every sine constant is read off (module docstring)."""
    return (exact.sinh_half_series(1, order + 2) * 2).reciprocal()


# -- building the series -----------------------------------------------------


def kappa_exp_factor(kappa: int, trunc: int) -> LaurentSeries:
    """Series of exp((tau + 1/2)*kappa*x/2) over real tau-polynomials: the
    factor exp(sqrt(-1)*(tau + 1/2)*kappa*lambda/2) at x = i*lambda."""
    c = RealTauPolynomial([Fraction(kappa, 4), Fraction(kappa, 2)])
    # the exponent is built to order 1 at least, so that trunc = 0 gives 1
    return exact.series_exp(LaurentSeries.monomial(c, 1, max(trunc, 1)).truncate(trunc))


class MVSeries:
    """A partition series cut at its lambda order.

    The body is the series in x = i*lambda and P_k = i^k p_k: its
    coefficients are x-Laurent series over real tau-polynomials (see the
    module docstring), each cut at `lambda_order`, the order every check and
    readout compares to.  The cut keeps every partition of the input, even
    one whose coefficient is zero up to `lambda_order`.  `coefficient` gives
    the series in lambda and p, each coefficient a phased TauPolynomial.
    """

    def __init__(self, series: PartitionSeries, lambda_order: int):
        cut = {mu: s.truncate(lambda_order) for mu, s in series.terms.items()}
        self.body = PartitionSeries._raw(cut, series.max_weight)
        self.lambda_order = lambda_order

    def coefficient(self, mu: Partition) -> LaurentSeries:
        """The coefficient of p_mu as a lambda-Laurent series over
        tau-polynomials, valid to lambda_order."""
        zero = LaurentSeries.zero(self.lambda_order)
        return _lambda_series(self.body.terms.get(mu, zero), mu.size)

    def tau_derivative(self) -> PartitionSeries:
        """d/dtau of the body, in the x and P variables."""
        return self.body.map_coefficients(lambda s: s.map_coefficients(_tau_diff))

    def at_tau_zero(self) -> PartitionSeries:
        """The body at tau = 0, in the x and P variables: the constant term
        of each rational polynomial."""
        return self.body.map_coefficients(lambda s: s.map_coefficients(_tau_zero))


def _tau_diff(c):
    return c.derivative() if isinstance(c, RealTauPolynomial) else 0


def _tau_zero(c):
    return c.coefficient(0) if c else 0


def readout(r, m: int, weight: int) -> TauPolynomial:
    """The coefficient of lambda^m p_mu, |mu| = weight, from the rational
    coefficient r of x^m P_mu: i^(m+weight) * r.  The one place a phase is
    attached, where a value is printed."""
    return TauPolynomial.phased(r, m + weight)


def _lambda_series(s: LaurentSeries, weight: int) -> LaurentSeries:
    """The coefficient series of p_mu, |mu| = weight, from that of P_mu:
    the x^m entry r becomes the lambda^m entry `readout(r, m, weight)`."""
    return LaurentSeries._raw(
        s.min_exp, tuple(readout(c, k, weight) for k, c in s.items()), s.trunc_order
    )


def build_disconnected(max_weight: int, lambda_order: int) -> PartitionSeries:
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
        nus = partitions.enumerate_partitions(d)
        reps = []
        for nu in nus:
            conj = nu.transpose()
            if conj < nu:
                continue
            W = kappa_exp_factor(nu.kappa(), T + d) * v_series(nu, T)
            reps.append((nu, 1 if conj == nu else 2, W))
        for mu in nus:
            weighted = [
                (Fraction(m_nu * chi, mu.z()), W)
                for nu, m_nu, W in reps
                if (chi := characters.character(nu, mu))
            ]
            coeffs = [RTP_ZERO] * (T + d + 1)  # exponents -d..T
            for m in range(-d + (d + mu.length) % 2, T + 1, 2):
                pairs = [(c, w) for w, W in weighted if (c := W.coefficient(m))]
                coeffs[m + d] = RealTauPolynomial._sum_of_products(pairs)
            series = LaurentSeries(-d, coeffs, T)
            if series:
                terms[mu] = series
    return PartitionSeries(terms, max_weight)


@cache
def build_series_pair(max_weight: int, lambda_order: int) -> tuple[MVSeries, MVSeries]:
    """(disconnected, connected) pair, each cut at lambda_order; cached per
    process and reused by the evolution, initial-value and extraction
    checks.  The log is taken before the cut."""
    star = build_disconnected(max_weight, lambda_order)
    return MVSeries(star, lambda_order), MVSeries(genfun.ps_log(star), lambda_order)


# -- the evolution equation and the initial value ----------------------------


class Mismatch(NamedTuple):
    """Where two compared series first disagree: the partition mu, first in
    support order, then the x exponent, tau degree and both rational values
    of the first entry that differs; or, for a coefficient valid only below
    the compared order, `valid_to`, the order it is valid to."""

    mu: Partition
    exponent: int | None = None
    tau_degree: int | None = None
    values: tuple | None = None
    valid_to: int | None = None

    def __str__(self) -> str:
        if self.valid_to is not None:
            return f"first mismatch at p_({self.mu}): valid only to x^{self.valid_to}"
        left, right = self.values
        return (
            f"first mismatch at p_({self.mu}) x^{self.exponent} tau^{self.tau_degree}: "
            f"{left} != {right}"
        )


def _evolution_mismatch(
    lhs: PartitionSeries, rhs: PartitionSeries, order: int
) -> Mismatch | None:
    """None when two series of coefficient series agree exactly up to the
    given order, a term absent on one side being zero; else their first
    Mismatch.  A compared coefficient valid only below that order does not
    agree: it cannot show the terms up to it."""
    zero = LaurentSeries.zero(order)
    for mu in sorted(set(lhs.terms) | set(rhs.terms), key=lambda m: (m.size, m.parts)):
        a, b = lhs.terms.get(mu, zero), rhs.terms.get(mu, zero)
        valid_to = min(a.trunc_order, b.trunc_order)
        if valid_to < order:
            return Mismatch(mu, valid_to=valid_to)
        if a.truncate(order) != b.truncate(order):
            for m in range(min(a.min_exp, b.min_exp), order + 1):
                pairs = zip_longest(_tau_coefficients(a, m), _tau_coefficients(b, m), fillvalue=0)
                for k, values in enumerate(pairs):
                    if values[0] != values[1]:
                        return Mismatch(mu, m, k, values)
    return None


def _tau_coefficients(s: LaurentSeries, m: int) -> tuple:
    """The rationals of the x^m coefficient of s by tau degree; a rational
    coefficient is its own tau^0 entry."""
    c = s.coefficient(m)
    return c.coeffs if isinstance(c, RealTauPolynomial) else (c,)


def _x_scaled(F: PartitionSeries, c: Fraction) -> PartitionSeries:
    """Multiply every coefficient series by c*x."""
    return F.map_coefficients(lambda s: s.shift(1) * c)


def theorem1_mismatches(
    max_weight: int, lambda_order: int
) -> tuple[Mismatch | None, Mismatch | None]:
    """Both forms of the evolution equation, coefficientwise exact, as the
    (linear, nonlinear) pair of `_evolution_mismatch` results, None where a
    form holds.

    linear form:     d/dtau (disconnected) = (x/2) * Omega(disconnected)
    nonlinear form:  d/dtau (connected)    = (x/2) * Omega~(connected)

    In lambda and p the factor x/2 reads sqrt(-1)*lambda/2.  Both sides are
    formed from the bodies cut at lambda_order and compared up to it.
    """
    star, conn = build_series_pair(max_weight, lambda_order)
    half = Fraction(1, 2)
    linear = _evolution_mismatch(
        star.tau_derivative(), _x_scaled(genfun.cut_join_linear(star.body), half), lambda_order
    )
    nonlinear = _evolution_mismatch(
        conn.tau_derivative(), _x_scaled(genfun.cut_join_nonlinear(conn.body), half), lambda_order
    )
    return linear, nonlinear


def initial_condition_series(d: int, order: int) -> LaurentSeries:
    """The closed-form tau = 0 coefficient of P_d, 1 / (2*d*sinh(d*x/2)), a
    rational series in x; in lambda and p it reads
    -(sqrt(-1))^(d+1) / (2*d*sin(d*lambda/2)).  S(d*x)/d: the x^k
    coefficient of S times d^(k-1)."""
    s = _sinh_reciprocal(order)
    return LaurentSeries(s.min_exp, [c * Fraction(d) ** (k - 1) for k, c in s.items()], order)


def initial_condition_mismatch(max_weight: int, lambda_order: int) -> Mismatch | None:
    """The connected series at tau = 0 is the sum of the single-row terms
    initial_condition_series(d) * P_d over d <= max_weight: every multi-row
    coefficient vanishes identically.  None when it is, else the first
    Mismatch."""
    _, conn = build_series_pair(max_weight, lambda_order)
    rows = range(1, max_weight + 1)
    target = PartitionSeries(
        {Partition([d]): initial_condition_series(d, lambda_order) for d in rows}, max_weight
    )
    return _evolution_mismatch(conn.at_tau_zero(), target, lambda_order)


# -- extraction of per-genus tau-polynomials ---------------------------------


class CgmuPolynomial(NamedTuple):
    """The rational coefficient r of x^(2g-2+l(mu)) P_mu in the connected
    series; `poly` reads it out as the coefficient of lambda^(2g-2+l(mu)) p_mu."""

    g: int
    mu: Partition
    real: RealTauPolynomial

    @property
    def poly(self) -> TauPolynomial:
        return readout(self.real, 2 * self.g - 2 + self.mu.length, self.mu.size)

    @property
    def degree_bound(self) -> int:
        return hurwitz.branch_count(self.g, self.mu)

    def degree_ok(self) -> bool:
        return self.real.degree <= self.degree_bound

    def symmetry_ok(self) -> bool:
        """r(-tau-1) = (-1)^(|mu|-l(mu)) * r(tau)."""
        return _reflected(self.real) == self.real * (-1) ** (self.mu.size - self.mu.length)


def _reflected(p: RealTauPolynomial) -> RealTauPolynomial:
    """p(-tau-1), by Horner's rule."""
    acc, flip = RTP_ZERO, RealTauPolynomial([-1, -1])
    for c in reversed(p.coeffs):
        acc = acc * flip + c
    return acc


def extract_C_gmu(R: MVSeries, g: int, mu: Partition) -> CgmuPolynomial:
    """Read off the genus-g tau-polynomial attached to p_mu."""
    if mu.size > R.body.max_weight:
        raise ValueError(f"|mu|={mu.size} exceeds series weight {R.body.max_weight}")
    m = 2 * g - 2 + mu.length
    if m > R.lambda_order:
        raise ValueError(
            f"lambda exponent {m} exceeds valid order {R.lambda_order}"
        )
    series = R.body.coefficient(mu)
    c = series.coefficient(m) if series else 0
    return CgmuPolynomial(g, mu, c or RTP_ZERO)


def prefactor_polynomial(mu: Partition) -> RealTauPolynomial:
    """The combinatorial prefactor P_mu of the triple Hodge integral:

    1 / |Aut(mu)| * (tau(tau+1))^(l-1)
        * prod_i prod_{a=1..mu_i-1} (mu_i tau + a) / (mu_i - 1)!

    formed as one rational scale times one product of the linear factors
    tau, tau + 1 and mu_i tau + a.  In lambda and p the prefactor is
    -(sqrt(-1))^(|mu|+l) * P_mu, the readout of P_mu as the genus-0 term
    lambda^(l-2) p_mu.
    """
    scale = Fraction(1, mu.aut_order() * prod(factorial(part - 1) for part in mu))
    factors = [RealTauPolynomial([0, 1]), RealTauPolynomial([1, 1])] * (mu.length - 1)
    factors += [RealTauPolynomial([a, part]) for part in mu for a in range(1, part)]
    return prod(factors, start=RealTauPolynomial.constant(scale))


def genus0_closed_form(mu: Partition) -> RealTauPolynomial:
    """Definition-route value of r_{0,mu}: prefactor times |mu|^(l-3)."""
    return prefactor_polynomial(mu) * hurwitz.linear_hodge_factor(0, mu)


def hodge_division(
    g: int, mu: Partition, R: MVSeries
) -> tuple[RealTauPolynomial, RealTauPolynomial]:
    """(quotient, remainder) of r_{g,mu} over the prefactor P_mu, the
    quotient signed (-1)^g: in lambda and p the genus-g coefficient over the
    prefactor, whose phases i^(2g-2+l+|mu|) and -i^(|mu|+l) leave (-1)^g."""
    quotient, remainder = extract_C_gmu(R, g, mu).real.divmod_poly(prefactor_polynomial(mu))
    return quotient * (-1) ** g, remainder


def hodge_polynomial(g: int, mu: Partition, R: MVSeries) -> RealTauPolynomial:
    """The Hodge-integral polynomial (-1)^g * r_{g,mu} / P_mu, the quotient
    of `hodge_division`; raises ArithmeticError on a nonzero remainder."""
    quotient, remainder = hodge_division(g, mu, R)
    if remainder:
        raise ArithmeticError(
            f"nonzero remainder isolating the Hodge factor for g={g}, mu={mu}: "
            f"dividend {extract_C_gmu(R, g, mu).real!r}, remainder {remainder!r}"
        )
    return quotient


def lambda_g_coefficients(order: int) -> list[Fraction]:
    """b_g = (-1)^g [x^(2g-1)] S for 2g <= order, the lambda^(2g)
    coefficients of (lambda/2)/sin(lambda/2) = x*S(x): 1, 1/24, 7/5760, ..."""
    if order < 2:
        raise ValueError("order must be at least 2")
    s = _sinh_reciprocal(order)
    return [Fraction((-1) ** g * s.coefficient(2 * g - 1)) for g in range(order // 2 + 1)]


def cutjoin_derivative_check(R: MVSeries, g: int, mu: Partition) -> bool:
    """Per-coefficient form of the evolution equation on extracted polynomials:

    d/dtau r_{g,mu} = 1/2 * [ sum_{nu joins of mu} w r_{g,nu}
                            + sum_{nu cuts of mu} w r_{g-1,nu}
                            + sum_{splits, g1+g2=g} w r_{g1,nu1} r_{g2,nu2} ]

    the x^m P_mu coefficient, m = 2g-2+l(mu), of d/dtau R = (x/2) * Omega~(R).
    The bracket is the x^(m-1) coefficient of Omega~(R) on P_mu, where every
    term on the right sits, read off the one column of the operator.  In
    lambda and p each term of the bracket has a phase one power of i short of
    C_{g,mu}'s, which is the sqrt(-1) of the paper's form.
    """
    lhs = extract_C_gmu(R, g, mu).real.derivative()
    m = 2 * g - 2 + mu.length
    return lhs == genfun._column_coefficient(R.body, mu, m - 1) * Fraction(1, 2)


def parity_pole_mismatch(R: MVSeries) -> Mismatch | None:
    """Connected-series structure: the coefficient of P_mu has x exponents
    m >= l(mu) - 2 with m = l(mu) (mod 2) only.  None when it has, else the
    first Mismatch of the body against a copy of itself with every other
    exponent zeroed."""
    allowed = {}
    for mu, s in R.body.terms.items():
        l = mu.length
        coeffs = [c if k >= l - 2 and (k - l) % 2 == 0 else 0 for k, c in s.items()]
        allowed[mu] = LaurentSeries(s.min_exp, coeffs, s.trunc_order)
    return _evolution_mismatch(R.body, PartitionSeries(allowed, R.body.max_weight), R.lambda_order)


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
    basis = linalg.nullspace(rows)
    if len(basis) != 1:
        raise ArithmeticError(f"kernel dimension {len(basis)} != 1 for l={l}")
    v = basis[0]
    if not v[0]:
        raise ArithmeticError("kernel vector has vanishing leading entry")
    lead = v[0]
    return [x / lead for x in v]
