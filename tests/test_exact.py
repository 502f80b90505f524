import inspect
import re
import textwrap
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from cutjoin import exact
from cutjoin.exact import (
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    RealTauPolynomial,
    TauPolynomial,
    _dot,
    fraction_str,
    series_exp,
    series_log,
    sinh_half_series,
)
from series_reference import (
    gaussian_coeffs,
    i_power,
    q_add,
    q_neg,
    series_agree,
    sin_half_series,
    sub,
)

TP_ONE = TauPolynomial([1])
TP_TAU = TauPolynomial([0, 1])
TP_I = TauPolynomial.phased(RealTauPolynomial.constant(1), 1)

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=9)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


def laurent(coeff_st, min_lo=-3, max_len=6):
    return st.builds(
        lambda lo, cs: LaurentSeries(lo, cs),
        st.integers(min_lo, 2),
        st.lists(coeff_st, min_size=1, max_size=max_len),
    )


series_coeffs = small_fractions | st.builds(
    RealTauPolynomial, st.lists(small_fractions, max_size=3)
)


def exp_by_powers(x, order=None):
    """exp as the sum of x^k/k!, one whole-series product per term."""
    order = x.trunc_order if order is None else order
    x = x.truncate(order)
    result = term = LaurentSeries.one(min(order, x.trunc_order))
    k = 1
    while x and k * x.min_exp <= order:
        term = (term * x) * Fraction(1, k)
        result = result + term
        k += 1
    return result


def log_by_powers(x, order=None):
    """log as the sum of (-1)^(k+1) (x-1)^k/k, one whole-series product per
    term."""
    order = x.trunc_order if order is None else order
    x = x.truncate(order)
    h = sub(x, 1)
    result = LaurentSeries.zero(x.trunc_order)
    power = LaurentSeries.one(x.trunc_order)
    k = 1
    while h and k * h.min_exp <= order:
        power = power * h
        result = result + power * Fraction((-1) ** (k + 1), k)
        k += 1
    return result


class TestGaussianRational:
    """The readout record of a phased value, and the sum and product the
    test-side references below run on."""

    def test_i_squared(self):
        # i is the phased unit; its powers read out as Gaussian rationals
        assert TP_I * TP_I == -1
        assert gaussian_coeffs(TP_I * TP_I * TP_I) == (GaussianRational(0, -1),)
        assert gaussian_coeffs(TP_I * TP_I * TP_I * TP_I) == (1,)

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GaussianRational(0) == a
        assert a * GaussianRational(1) == a
        assert a + (-a) == 0

    @given(gaussians)
    def test_lowest_terms(self, a):
        # Fractions normalize on construction; re-wrapping is idempotent
        again = GaussianRational(a.re, a.im)
        assert again == a
        assert again.re.denominator > 0 and again.im.denominator > 0

    def test_mixed_arithmetic(self):
        (i,) = gaussian_coeffs(TP_I)
        assert i + 1 == GaussianRational(1, 1)
        assert Fraction(1, 2) * i == GaussianRational(0, Fraction(1, 2))
        assert (1 + -i) * (1 + i) == 2
        # the same values, phased
        assert gaussian_coeffs(TP_I * Fraction(1, 2)) == (GaussianRational(0, Fraction(1, 2)),)
        assert gaussian_coeffs(TP_I * TP_I * 2)[0] + 2 == 0

    def test_serialization(self):
        assert GaussianRational(Fraction(1, 2), -2).to_json() == {
            "re": "1/2",
            "im": "-2/1",
        }
        assert Fraction(fraction_str(Fraction(-3, 7))) == Fraction(-3, 7)


class TestLaurentSeries:
    def test_sin_examples(self):
        s = sin_half_series(1, 5)
        assert [s.coefficient(k) for k in (1, 3, 5)] == [
            Fraction(1, 2),
            Fraction(-1, 48),
            Fraction(1, 3840),
        ]
        assert s.min_exp == 1
        s2 = sin_half_series(2, 3)
        assert s2.coefficient(1) == 1 and s2.coefficient(3) == Fraction(-1, 6)
        assert not sin_half_series(0, 5)

    def test_exp_examples(self):
        e = series_exp(LaurentSeries.monomial(Fraction(1), 1, 5))
        assert [e.coefficient(k) for k in range(4)] == [
            1,
            1,
            Fraction(1, 2),
            Fraction(1, 6),
        ]
        assert series_exp(LaurentSeries.zero(5)) == LaurentSeries.one(5)

    def test_exp_rejects_constant_and_polar_parts(self):
        with pytest.raises(ValueError, match="exponent 0"):
            series_exp(LaurentSeries.monomial(Fraction(1), 0, 5))
        with pytest.raises(ValueError, match="exponent -2"):
            series_exp(LaurentSeries.monomial(Fraction(1), -2, 5))

    def test_log_examples(self):
        assert not series_log(LaurentSeries.one(5))
        l = series_log(LaurentSeries(0, [Fraction(1), Fraction(1)], 5))
        assert [l.coefficient(k) for k in (1, 2, 3)] == [
            1,
            Fraction(-1, 2),
            Fraction(1, 3),
        ]
        with pytest.raises(ValueError, match="constant term 1"):
            series_log(LaurentSeries.monomial(Fraction(2), 0, 5))

    @given(st.lists(small_fractions, min_size=1, max_size=20))
    def test_exp_log_roundtrip(self, coeffs):
        x = LaurentSeries(1, coeffs, 20)
        assert series_agree(series_log(series_exp(x)), x)

    @given(
        st.integers(1, 3),
        st.lists(series_coeffs, max_size=10),
        st.integers(0, 3),
        st.none() | st.integers(0, 12),
    )
    def test_exp_matches_sum_of_powers(self, lo, coeffs, extra, order):
        x = LaurentSeries(lo, coeffs, lo + len(coeffs) - 1 + extra)
        truncated = x if order is None else x.truncate(order)
        assert series_exp(truncated) == exp_by_powers(x, order)

    @given(
        st.lists(series_coeffs, max_size=10),
        st.integers(0, 12),
        st.none() | st.integers(0, 12),
    )
    def test_log_matches_sum_of_powers(self, coeffs, trunc, order):
        x = LaurentSeries(0, [1, *coeffs[:trunc]], trunc)
        truncated = x if order is None else x.truncate(order)
        assert series_log(truncated) == log_by_powers(x, order)

    @given(laurent(small_fractions))
    def test_reciprocal(self, x):
        if not x:
            return
        recip = x.reciprocal()
        prod = x * recip
        assert series_agree(prod, LaurentSeries.one(prod.trunc_order))

    @given(laurent(small_fractions), laurent(small_fractions), laurent(small_fractions))
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert series_agree((a * b) * c, a * (b * c))
        assert series_agree(a * (b + c), a * b + a * c)

    def test_equals_its_scalar(self):
        for series, scalar in [
            (LaurentSeries.monomial(5, 0, 0), 5),
            (LaurentSeries.zero(3), 0),
            (LaurentSeries.zero(-2), 0),
            (LaurentSeries(0, [Fraction(1, 2), 0, 0], 2), Fraction(1, 2)),
            (LaurentSeries.monomial(RealTauPolynomial([1, 2]), 0, 3), RealTauPolynomial([1, 2])),
        ]:
            assert series == scalar
        # equal series that are not scalars still compare equal
        x = LaurentSeries(-1, [1, 0, Fraction(2)], 1)
        assert x == LaurentSeries(-1, [Fraction(1), 0, 2], 1) and x != 2

    def test_shift(self):
        x = LaurentSeries(-1, [Fraction(2), Fraction(3)], 0)
        y = x.shift(3)
        assert y.min_exp == 2 and y.trunc_order == 3
        assert y.coefficient(2) == 2 and y.coefficient(3) == 3

    def test_truncation_tracking(self):
        a = LaurentSeries(0, [Fraction(1)] * 5, 4)
        b = LaurentSeries(-2, [Fraction(1)] * 3, 0)
        assert (a + b).trunc_order == 0
        assert (a * b).trunc_order == min(4 - 2, 0 + 0)

    def test_truncate_below_first_term(self):
        s = LaurentSeries.monomial(Fraction(3), 4, 6)
        assert s.truncate(1) == LaurentSeries.zero(1)
        assert LaurentSeries.zero(6).truncate(0) == LaurentSeries.zero(0)

    def test_coefficient_past_truncation_rejected(self):
        s = LaurentSeries.one(3)
        with pytest.raises(ValueError, match="beyond truncation"):
            s.coefficient(4)

    def test_serialization(self):
        s = LaurentSeries(-1, [Fraction(1), Fraction(0), Fraction(1, 24)], 1)
        assert s.to_json() == {
            "min_exp": -1,
            "trunc_order": 1,
            "coeffs": ["1/1", "0/1", "1/24"],
        }


def _fields(x):
    return x.low, x.i_power, x.coeffs


def _ref_q_product(a, a_phase, b, b_phase):
    """i**a_phase * sum(c y**k for k, c in a) times the same of b, by dict
    convolution, as ({exponent: coefficient}, phase): the phases added mod 4
    and i**2 = -1 folded into the sign; zero has phase 0."""
    out = {}
    for i, x in a:
        for j, y in b:
            out[i + j] = out.get(i + j, 0) + x * y
    phase = (a_phase + b_phase) % 4
    sign = -1 if phase >= 2 else 1
    terms = {k: sign * c for k, c in out.items() if c}
    return terms, (phase % 2 if terms else 0)


class TestQHalfLaurent:
    """The three stored fields are canonical; sums, negations and powers are
    the test-side references in series_reference."""

    def test_spec_examples(self):
        a = q_add(QHalfLaurent.monomial(1, 1), q_neg(QHalfLaurent.monomial(1, -1)))
        b = q_add(QHalfLaurent.monomial(1, 1), q_neg(QHalfLaurent.monomial(1, -1)))
        assert a == b and a == QHalfLaurent({1: 1, -1: -1})
        assert _fields(a) == (-1, 0, (-1, 0, 1))
        q = QHalfLaurent.monomial(1, 2)
        assert q_add(q, q_neg(q)) == QHalfLaurent() and not QHalfLaurent()

    def test_phase_is_canonical(self):
        y = QHalfLaurent({1: 1})
        assert QHalfLaurent({1: 1}, i_power=2) == q_neg(y)
        assert _fields(QHalfLaurent({1: 1}, i_power=2)) == (1, 0, (-1,))
        assert QHalfLaurent({1: 1}, i_power=5) == QHalfLaurent({1: 1}, i_power=1)
        assert QHalfLaurent({1: 1}, i_power=-1) == q_neg(QHalfLaurent({1: 1}, i_power=1))
        assert QHalfLaurent({}, i_power=1) == QHalfLaurent()
        assert _fields(QHalfLaurent({}, i_power=1)) == (0, 0, ())
        with pytest.raises(ValueError, match="common phase"):
            q_add(y, QHalfLaurent({1: 1}, i_power=1))

    def test_low_end_cancellation_is_canonical(self):
        y, y3 = QHalfLaurent.monomial(1, 1), QHalfLaurent.monomial(1, 3)
        cancelled = q_add(q_add(y, y3), q_neg(y))
        assert cancelled == y3
        assert cancelled.terms == {3: 1} and _fields(cancelled) == (3, 0, (1,))
        zero = q_add(y, q_neg(y))
        assert zero == QHalfLaurent()
        assert _fields(QHalfLaurent([(1, 1), (3, 1), (1, -1), (4, 0)])) == (3, 0, (1,))

    def test_phase_folds_into_the_signs(self):
        s = QHalfLaurent({1: 1, -1: -1}, i_power=1)  # 2 sin(lambda/2) = i*(y - 1/y)
        assert s * s == QHalfLaurent({2: -1, 0: 2, -2: -1})
        assert (s * s).i_power == 0 and (s * s * s).i_power == 1
        folded = QHalfLaurent({-1: 1, 2: 3}, i_power=3)
        assert folded == q_neg(QHalfLaurent({-1: 1, 2: 3}, i_power=1))
        assert folded.terms == {-1: -1, 2: -3} and folded.i_power == 1
        y = QHalfLaurent({1: 1}, i_power=1)  # i*q^(1/2): i^4 = 1
        assert y * y * y * y == QHalfLaurent.monomial(1, 4)

    def test_one_phase_rule_for_both_types(self):
        # TauPolynomial.phased and the q-Laurent fields fold i**k alike
        for k in range(-8, 9):
            tau = TauPolynomial.phased(RealTauPolynomial([2, 3]), k)
            q = QHalfLaurent({0: 2, 1: 3}, i_power=k)
            assert (q.i_power, q.coeffs) == (tau.i_power, tau.real.nums), k

    def test_stored_apart_from_the_tau_polynomials(self):
        # the type and its canonicalising helper run on plain ints
        for obj in (QHalfLaurent, exact._q_canonical):
            assert "TauPolynomial" not in inspect.getsource(obj), obj

    def test_repr(self):
        assert repr(QHalfLaurent()) == "QHalfLaurent(0)"
        assert repr(QHalfLaurent({2: 3, -1: 1})) == "QHalfLaurent(1*q^(-1/2) + 3*q^(2/2))"
        s = QHalfLaurent({1: 1, -1: -1}, i_power=3)
        assert repr(s) == "QHalfLaurent(i*(1*q^(-1/2) + -1*q^(1/2)))"

    @given(
        st.lists(st.integers(-6, 8), max_size=7),
        st.integers(-5, 5),
        st.integers(-9, 9),
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=6),
    )
    @example([0], 1, 1, [])  # a factor 1 - y^0 is zero
    @example([], 3, 2, [(0, 1), (0, -1)])  # terms that cancel are zero
    @example([1, -2], -2, 7, [(-1, 0), (2, 5), (0, 1), (3, 0)])  # zeros at both ends
    def test_binomial_product_matches_factor_by_factor(self, exponents, low, i_power, terms):
        want = QHalfLaurent({low: 1}, i_power=i_power)
        for e in exponents:
            factor = q_add(QHalfLaurent.monomial(1, 0), q_neg(QHalfLaurent.monomial(1, e)))
            want = want * factor
        got = QHalfLaurent.binomial_product(exponents, low, i_power)
        assert got.terms == want.terms and got.i_power == want.i_power
        # equal values have equal fields, however they were built
        shifted = [(k + low, c) for k, c in terms]
        x = QHalfLaurent(shifted, i_power)
        negated = QHalfLaurent([(k, -c) for k, c in shifted], i_power + 2)
        rebuilt = QHalfLaurent(x.terms, x.i_power)
        for a, b in ((got, want), (x, negated), (x, rebuilt)):
            assert a == b and _fields(a) == _fields(b)
        for product, b, b_phase in (
            (x * got, got.terms.items(), got.i_power),
            (x * -2, [(0, -2)], 0),
        ):
            assert (product.terms, product.i_power) == _ref_q_product(shifted, i_power, b, b_phase)
        for v in (got, want, x, x * got):
            assert v.i_power in (0, 1)
            if v:
                assert v.coeffs[0] and v.coeffs[-1]
            else:
                assert _fields(v) == (0, 0, ())


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


fraction_tuples = st.lists(small_fractions, max_size=5).map(_trim)


def _ref_divmod(a, d):
    """Long division of Fraction coefficient tuples."""
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(d) + 1, 0)
    while len(rem) >= len(d):
        k = len(rem) - len(d)
        q[k] = f = rem[-1] / d[-1]
        for j, c in enumerate(d):
            rem[k + j] -= f * c
        rem = list(_trim(rem))
    return _trim(q), tuple(rem)


class TestRealTauPolynomial:
    """The integer-numerator type against plain tuples of Fractions."""

    @given(fraction_tuples, fraction_tuples)
    def test_add(self, a, b):
        p, q = RealTauPolynomial(a), RealTauPolynomial(b)
        assert (p + q).coeffs == (q + p).coeffs == _ref_add(a, b)

    @given(fraction_tuples, fraction_tuples)
    def test_mul(self, a, b):
        assert (RealTauPolynomial(a) * RealTauPolynomial(b)).coeffs == _ref_mul(a, b)

    @given(fraction_tuples)
    def test_neg(self, a):
        assert (-RealTauPolynomial(a)).coeffs == tuple(-x for x in a)

    @given(fraction_tuples, small_fractions, st.integers(-9, 9))
    def test_scalar_mul(self, a, c, n):
        p = RealTauPolynomial(a)
        assert (p * c).coeffs == _trim(x * c for x in a)
        assert (c * p).coeffs == _trim(x * c for x in a)
        assert (p * n).coeffs == (n * p).coeffs == _trim(x * n for x in a)

    @given(fraction_tuples, fraction_tuples)
    def test_canonical_form(self, a, b):
        from math import gcd

        r = RealTauPolynomial(a) * RealTauPolynomial(b) + RealTauPolynomial(a)
        assert r.den > 0 and gcd(r.den, *r.nums) == 1
        assert not r.nums or r.nums[-1]
        assert r == RealTauPolynomial(r.coeffs)

    @given(fraction_tuples)
    def test_derivative(self, a):
        assert RealTauPolynomial(a).derivative().coeffs == _trim(
            k * x for k, x in enumerate(a) if k
        )

    @given(fraction_tuples, fraction_tuples)
    def test_derivative_leibniz(self, a, b):
        p, q = RealTauPolynomial(a), RealTauPolynomial(b)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    @given(fraction_tuples, fraction_tuples)
    def test_divmod(self, a, b):
        p, d = RealTauPolynomial(a), RealTauPolynomial(b)
        if not d:
            with pytest.raises(ZeroDivisionError):
                p.divmod_poly(d)
            return
        q, r = p.divmod_poly(d)
        assert (q.coeffs, r.coeffs) == _ref_divmod(a, b)
        assert q * d + r == p
        assert not r or r.degree < d.degree

    def test_constants_and_zero(self):
        assert RealTauPolynomial([Fraction(1, 2)]) == Fraction(1, 2)
        assert RealTauPolynomial([0, 0]) == 0 and not RealTauPolynomial([0, 0])
        assert 0 + RealTauPolynomial([1, 2]) == RealTauPolynomial([1, 2])
        assert RealTauPolynomial([1, 1]).coefficient(5) == 0

    def test_sinh_examples(self):
        s = sinh_half_series(1, 5)
        assert [s.coefficient(k) for k in (1, 3, 5)] == [
            Fraction(1, 2),
            Fraction(1, 48),
            Fraction(1, 3840),
        ]


# -- the fused multiply-accumulate kernel ------------------------------------


def left_to_right(pairs):
    """sum a*b over the pairs, one product and one sum at a time."""
    acc = 0
    for a, b in pairs:
        acc = acc + a * b
    return acc


def assert_canonical(p):
    assert p.den > 0 and (not p.nums or gcd(p.den, *p.nums) == 1)
    assert not p.nums or p.nums[-1]


def _ref_coeffs(x):
    return x.coeffs if isinstance(x, RealTauPolynomial) else _trim((Fraction(x),))


poly_operands = fraction_tuples.map(RealTauPolynomial) | small_fractions | st.integers(-4, 4)
poly_pairs = st.lists(st.tuples(poly_operands, poly_operands), max_size=6)


# the second product's denominator does not divide the first one's
RESCALED = [(RealTauPolynomial([Fraction(1, 2)]), 1), (RealTauPolynomial([Fraction(1, 3), 1]), 3)]


def assert_poly_dot(pairs):
    """_dot over polynomials with mixed denominators, zero operands and
    int/Fraction constants: the left-to-right sum, reduced, and the
    plain-Fraction reference."""
    got, want = _dot(pairs), left_to_right(pairs)
    assert got.__class__ is want.__class__
    if isinstance(got, RealTauPolynomial):
        assert (got.nums, got.den) == (want.nums, want.den)
        assert_canonical(got)
        ref = ()
        for a, b in pairs:
            ref = _ref_add(ref, _ref_mul(_ref_coeffs(a), _ref_coeffs(b)))
        assert got.coeffs == ref
    else:
        assert got == want


def _kernel_without_rescale():
    """A copy of the polynomial kernel that never rescales its running
    denominator."""
    src = textwrap.dedent(inspect.getsource(RealTauPolynomial._sum_of_products))
    mutant, n = re.subn(r"\n *elif den % d:\n(?: .*\n){3}", "\n", src)
    assert n == 1, "the rescale step was not found"
    namespace = dict(vars(exact))
    exec(mutant, namespace)
    return namespace["_sum_of_products"]


scalar_operands = small_fractions | st.integers(-4, 4) | st.booleans()

laurent_operands = st.builds(
    lambda lo, cs, extra: LaurentSeries(lo, cs, lo + len(cs) - 1 + extra),
    st.integers(-3, 2),
    st.lists(poly_operands, max_size=4),  # empty: a zero-so-far series
    st.integers(0, 3),
)


def _ref_laurent_add(s, t):
    """s + t for two series: the dense sum at the least truncation."""
    trunc = min(s.trunc_order, t.trunc_order)
    lo = min(s.min_exp, t.min_exp)
    if lo > trunc:
        return LaurentSeries.zero(trunc)
    out = [0] * (trunc - lo + 1)
    for src in (s, t):
        for k, c in src.items():
            if k > trunc:
                break
            if c:
                out[k - lo] = out[k - lo] + c
    return LaurentSeries(lo, out, trunc)


def _ref_laurent_term(a, b):
    """a * b with at least one series operand: a scalar multiplies the
    series coefficient by coefficient (a zero scalar gives the zero series
    at the partner's truncation), and two series make the schoolbook
    product."""
    if not isinstance(a, LaurentSeries):
        a, b = b, a
    if not isinstance(b, LaurentSeries):
        if not b:
            return LaurentSeries.zero(a.trunc_order)
        return LaurentSeries(a.min_exp, [c * b if c else 0 for c in a.coeffs], a.trunc_order)
    trunc = min(a.trunc_order + b.min_exp, b.trunc_order + a.min_exp)
    lo = a.min_exp + b.min_exp
    if lo > trunc:
        return LaurentSeries.zero(trunc)
    out = [0] * (trunc - lo + 1)
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= trunc and x and y:
                out[i + j - lo] = out[i + j - lo] + x * y
    return LaurentSeries(lo, out, trunc)


def ref_series_sum(pairs):
    """sum a*b over pairs of series and scalars, one term at a time with the
    plain references; the products of two scalars make a constant valid to
    every order, added at x^0 when the sum reaches it."""
    acc, const = None, 0
    for a, b in pairs:
        if isinstance(a, LaurentSeries) or isinstance(b, LaurentSeries):
            term = _ref_laurent_term(a, b)
            acc = term if acc is None else _ref_laurent_add(acc, term)
        else:
            const = const + a * b
    if const and acc.trunc_order >= 0:
        acc = _ref_laurent_add(acc, LaurentSeries.monomial(const, 0, acc.trunc_order))
    return acc


laurent_sum_pairs = st.lists(
    st.tuples(laurent_operands | poly_operands, laurent_operands | poly_operands),
    min_size=1,
    max_size=4,
).filter(lambda pairs: any(isinstance(x, LaurentSeries) for pair in pairs for x in pair))


class TestDot:
    @example(RESCALED)
    @example([])  # an empty sum is the int 0
    @example([(2, 3), (-1, 4)])  # a sum of ints stays an int
    @example([(Fraction(1, 2), 1), (2, Fraction(1, 3))])  # and of Fractions a Fraction
    @given(poly_pairs)
    def test_polynomial_pairs(self, pairs):
        assert_poly_dot(pairs)

    @example([(Fraction(1, 2), 1), (Fraction(1, 3), 3)])  # the rescale, on scalars
    @example([(True, 2), (Fraction(1, 2), False)])
    @given(st.lists(st.tuples(scalar_operands, scalar_operands), max_size=6))
    def test_scalar_pairs_skip_the_polynomial_kernel(self, pairs):
        def kernel(_pairs):
            raise AssertionError("a scalar sum reached the polynomial kernel")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(RealTauPolynomial, "_sum_of_products", staticmethod(kernel))
            got = _dot(pairs)
        kinds = {x.__class__ for pair in pairs for x in pair}
        assert got == left_to_right(pairs)
        assert got.__class__ is (Fraction if Fraction in kinds else int)

    def test_fails_without_the_denominator_rescale(self, monkeypatch):
        monkeypatch.setattr(
            RealTauPolynomial, "_sum_of_products", staticmethod(_kernel_without_rescale())
        )
        with pytest.raises(AssertionError):
            assert_poly_dot(RESCALED)

    # a zero-so-far series, a zero scalar, int, Fraction and polynomial
    # scalars, and a sum (x^-1 + 1) + 1 whose scalar pair lands at x^0
    @example([(LaurentSeries.zero(2), 3), (LaurentSeries(-1, [1], 4), 0)])
    @example([(LaurentSeries(-1, [1, 1], 0), 1), (1, 1)])
    @example([(2, LaurentSeries(1, [Fraction(1, 3)], 3)), (RealTauPolynomial([1, 1]), Fraction(1, 2))])
    @example([(LaurentSeries(-2, [1], -1), RealTauPolynomial([0, 2])), (5, 1)])
    @given(laurent_sum_pairs)
    @settings(max_examples=80)
    def test_laurent_pairs(self, pairs):
        got, want = _dot(pairs), ref_series_sum(pairs)
        assert (got.min_exp, got.trunc_order) == (want.min_exp, want.trunc_order)
        assert got == want
        for c in got.coeffs:
            if isinstance(c, RealTauPolynomial):
                assert_canonical(c)

    @pytest.mark.parametrize(
        "pairs",
        [
            [
                (GaussianRational(1), GaussianRational(0, 1)),
                (GaussianRational(2), GaussianRational(3)),
            ],
            [(GaussianRational(1), 2)],
            [(RealTauPolynomial([0, 1]), GaussianRational(0, 1))],
            [(LaurentSeries.one(2), GaussianRational(0, 1))],
            [(QHalfLaurent.monomial(1, 0), QHalfLaurent.monomial(1, 0))],
            [(QHalfLaurent.monomial(1, 0), 2)],
            [(RealTauPolynomial([1]), QHalfLaurent.monomial(1, 0))],
        ],
    )
    def test_operands_without_a_kernel_are_rejected(self, pairs):
        with pytest.raises(TypeError):
            _dot(pairs)

    @given(laurent_operands, laurent_operands | poly_operands)
    def test_laurent_sum_and_scalar_multiple(self, s, t):
        # + and the scalar * are _dot calls; the references are not
        if isinstance(t, LaurentSeries) or s.trunc_order >= 0 or not t:
            got, want = s + t, ref_series_sum([(s, 1), (t, 1)])
            assert (got.min_exp, got.trunc_order, got) == (want.min_exp, want.trunc_order, want)
        else:
            with pytest.raises(ValueError, match="below truncation order 0"):
                s + t
        got, want = s * t, _ref_laurent_term(s, t)
        assert (got.min_exp, got.trunc_order, got) == (want.min_exp, want.trunc_order, want)


class TestBoolOperands:
    """A bool operand is the int it equals, for + and * alike."""

    OPERANDS = {
        "polynomial": RealTauPolynomial([1, 2]),
        "phased polynomial": TauPolynomial.phased(RealTauPolynomial([1, 2]), 1),
        "series over rationals": LaurentSeries(-1, [Fraction(1, 2), 3], 2),
        "series over polynomials": LaurentSeries(-1, [RealTauPolynomial([1, 2]), 3], 2),
        "q-Laurent polynomial": QHalfLaurent({-1: 2, 3: 1}, i_power=1),
    }

    @staticmethod
    def outcome(f):
        """f(), or the class of the error it raises."""
        try:
            return f()
        except (TypeError, ValueError) as e:
            return e.__class__

    @pytest.mark.parametrize("kind", OPERANDS)
    def test_bool_is_its_int(self, kind):
        x, outcome = self.OPERANDS[kind], self.outcome
        for flag in (True, False):
            n = int(flag)
            assert x * flag == x * n and flag * x == n * x
            assert outcome(lambda: x + flag) == outcome(lambda: x + n)
            assert outcome(lambda: flag + x) == outcome(lambda: n + x)

    def test_partition_series(self):
        from cutjoin.genfun import PartitionSeries
        from cutjoin.partitions import Partition

        F = PartitionSeries({Partition([2]): LaurentSeries(-1, [RealTauPolynomial([1, 2])], 3)}, 4)
        assert F * True == F * 1 == F and (F * False).terms == {}
        # no scalar is added to a series, a bool as its int
        for n in (False, 0):
            with pytest.raises(TypeError):
                n + F

    def test_sums_of_bools_are_ints(self):
        got = _dot([(True, True), (True, 2), (False, 5)])
        assert got == 3 and got.__class__ is int


def _phased(cs, k):
    return TauPolynomial.phased(RealTauPolynomial(cs), k)


phases = st.integers(0, 3)


class TestTauPolynomial:
    """The print-time readout i^k * (rational polynomial) against tuples of
    GaussianRational coefficients (series_reference.gaussian_coeffs).  It is
    no ring: the one operation is the phase-adding product the test-side
    references use."""

    @given(fraction_tuples, fraction_tuples, fraction_tuples, phases, phases)
    def test_product_is_associative_and_commutative(self, a, b, c, j, k):
        p, q, r = _phased(a, j), _phased(b, k), _phased(c, k)
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @given(fraction_tuples, fraction_tuples, phases, phases)
    def test_against_gaussian_coefficients(self, a, b, j, k):
        p, q = _phased(a, j), _phased(b, k)
        assert gaussian_coeffs(p * q) == _ref_mul(gaussian_coeffs(p), gaussian_coeffs(q))
        assert gaussian_coeffs(p) == tuple(i_power(j) * c for c in _trim(a))

    @given(fraction_tuples, phases)
    def test_phase_is_canonical(self, a, k):
        p = _phased(a, k)
        assert p.i_power in (0, 1) and (p or p.i_power == 0)
        parts = [c.im if p.i_power else c.re for c in gaussian_coeffs(p)]
        assert p == _phased(parts, p.i_power)

    @given(fraction_tuples, fraction_tuples, phases, phases)
    def test_degree_multiplicative(self, a, b, j, k):
        p, q = _phased(a, j), _phased(b, k)
        if p and q:
            assert (p * q).real.degree == p.real.degree + q.real.degree

    def test_phased(self):
        p = RealTauPolynomial([Fraction(1, 4), Fraction(1, 2)])
        assert TauPolynomial.phased(p, 0) == TauPolynomial([Fraction(1, 4), Fraction(1, 2)])
        assert TauPolynomial.phased(p, 1) == TauPolynomial([Fraction(1, 4), Fraction(1, 2)]) * TP_I
        assert TauPolynomial.phased(p, 2) == TauPolynomial.phased(-p, 0)
        assert TauPolynomial.phased(p, -1) == TauPolynomial.phased(-p, 1)
        assert TauPolynomial.phased(0, 3) == TauPolynomial.phased(RealTauPolynomial(), 1) == 0

    def test_constructor_keeps_one_phase(self):
        # the constructor takes rationals; a phase comes only from phased
        p = TauPolynomial([Fraction(1, 4), Fraction(1, 2)]) * TP_I
        assert (p.real, p.i_power) == (RealTauPolynomial([Fraction(1, 4), Fraction(1, 2)]), 1)
        assert TauPolynomial([1]) == 1 and TauPolynomial([0, 0]) == TauPolynomial()
        assert repr(TP_I * 3) == "TauPolynomial.phased(RealTauPolynomial(3), 1)"
        # Gaussian rationals are readouts, not operands
        with pytest.raises(TypeError, match="exact rational"):
            TauPolynomial([1, *gaussian_coeffs(TP_I)])
        with pytest.raises(TypeError, match="exact rational"):
            TauPolynomial([GaussianRational(1, 1)])
        with pytest.raises(TypeError):
            TP_TAU * GaussianRational(0, 1)

    def test_no_sum_is_defined(self):
        # every check runs on the rational polynomials; a readout is not added
        for f in (
            lambda: TP_TAU + TP_I,
            lambda: TP_TAU + 0,
            lambda: 1 + TP_ONE,
            lambda: -TP_I,
            lambda: sub(TP_TAU, TP_TAU),
            lambda: TP_TAU * RealTauPolynomial([1]),
        ):
            with pytest.raises(TypeError):
                f()

    @given(fraction_tuples, phases)
    def test_to_json(self, a, k):
        p = _phased(a, k)
        assert p.to_json() == [c.to_json() for c in gaussian_coeffs(p)]
