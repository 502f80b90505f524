from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cutjoin.exact import (
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    RealTauPolynomial,
    TP_I,
    TP_TAU,
    TauPolynomial,
    fraction_str,
    parse_fraction,
    series_exp,
    series_log,
    sin_half_series,
    sinh_half_series,
)

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
    while not x.is_zero() and k * x.min_exp <= order:
        term = (term * x) * Fraction(1, k)
        result = result + term
        k += 1
    return result


def log_by_powers(x, order=None):
    """log as the sum of (-1)^(k+1) (x-1)^k/k, one whole-series product per
    term."""
    order = x.trunc_order if order is None else order
    x = x.truncate(order)
    h = x - 1
    result = LaurentSeries.zero(x.trunc_order)
    power = LaurentSeries.one(x.trunc_order)
    k = 1
    while not h.is_zero() and k * h.min_exp <= order:
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
        assert (TP_I**3).coefficient(0) == GaussianRational(0, -1)
        assert (TP_I**4).coefficient(0) == 1

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
        i = TP_I.coefficient(0)
        assert i + 1 == GaussianRational(1, 1)
        assert Fraction(1, 2) * i == GaussianRational(0, Fraction(1, 2))
        assert (1 + -i) * (1 + i) == 2
        # the same values, phased
        assert (TP_I * Fraction(1, 2)).coeffs == (GaussianRational(0, Fraction(1, 2)),)
        assert (TP_I * TP_I + 1) * 2 == 0

    def test_serialization(self):
        assert GaussianRational(Fraction(1, 2), -2).to_json() == {
            "re": "1/2",
            "im": "-2/1",
        }
        assert parse_fraction(fraction_str(Fraction(-3, 7))) == Fraction(-3, 7)


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
        assert sin_half_series(0, 5).is_zero()

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
        assert series_log(LaurentSeries.one(5)).is_zero()
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
        assert series_log(series_exp(x)).agrees_with(x)

    @given(
        st.integers(1, 3),
        st.lists(series_coeffs, max_size=10),
        st.integers(0, 3),
        st.none() | st.integers(0, 12),
    )
    def test_exp_matches_sum_of_powers(self, lo, coeffs, extra, order):
        x = LaurentSeries(lo, coeffs, lo + len(coeffs) - 1 + extra)
        assert series_exp(x, order) == exp_by_powers(x, order)

    @given(
        st.lists(series_coeffs, max_size=10),
        st.integers(0, 12),
        st.none() | st.integers(0, 12),
    )
    def test_log_matches_sum_of_powers(self, coeffs, trunc, order):
        x = LaurentSeries(0, [1, *coeffs[:trunc]], trunc)
        assert series_log(x, order) == log_by_powers(x, order)

    @given(laurent(small_fractions))
    def test_reciprocal(self, x):
        if x.is_zero():
            return
        recip = x.reciprocal()
        prod = x * recip
        assert prod.agrees_with(LaurentSeries.one(prod.trunc_order))

    @given(laurent(small_fractions), laurent(small_fractions), laurent(small_fractions))
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)

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


class TestQHalfLaurent:
    def test_spec_examples(self):
        a = QHalfLaurent.monomial(1, 1) - QHalfLaurent.monomial(1, -1)
        b = QHalfLaurent.monomial(1, 1) - QHalfLaurent.monomial(1, -1)
        assert a == b
        q = QHalfLaurent.monomial(1, 2)
        assert q - q == QHalfLaurent.zero()

    def test_phase_is_canonical(self):
        y = QHalfLaurent({1: 1})
        assert QHalfLaurent({1: 1}, i_power=2) == -y
        assert QHalfLaurent({1: 1}, i_power=5) == QHalfLaurent({1: 1}, i_power=1)
        assert QHalfLaurent({}, i_power=1) == QHalfLaurent.zero()
        with pytest.raises(ValueError, match="common phase"):
            y + QHalfLaurent({1: 1}, i_power=1)

    def test_power(self):
        y = QHalfLaurent({1: 1}, i_power=1)  # i*q^(1/2)
        assert y**4 == QHalfLaurent.monomial(1, 4)

    def test_negative_power_rejected(self):
        y = QHalfLaurent({1: 1}, i_power=1)
        with pytest.raises(ValueError, match="negative exponent"):
            y ** -1
        assert y**0 == QHalfLaurent.one()


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


def _ref_horner(cs, x):
    acc = GaussianRational(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _ref_quotient(a, b):
    """a / b for Gaussian rationals, from the parts."""
    norm = b.re * b.re + b.im * b.im
    return GaussianRational(
        (a.re * b.re + a.im * b.im) / norm, (a.im * b.re - a.re * b.im) / norm
    )


def _ref_compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, b), (c,))
    return acc


def _ref_divmod(a, d):
    """Long division of coefficient tuples over the Gaussian rationals."""
    rem = list(a)
    q = [GaussianRational(0)] * max(len(a) - len(d) + 1, 0)
    while len(rem) >= len(d):
        k = len(rem) - len(d)
        q[k] = f = _ref_quotient(rem[-1], d[-1])
        for j, c in enumerate(d):
            rem[k + j] = rem[k + j] + -(f * c)
        rem = list(_trim(rem))
    return _trim(q), tuple(rem)


def _phased(cs, k):
    return TauPolynomial.phased(RealTauPolynomial(cs), k)


phases = st.integers(0, 3)


class TestTauPolynomial:
    """Phased values i^k * (rational polynomial) against tuples of
    GaussianRational coefficients."""

    @given(fraction_tuples, fraction_tuples, fraction_tuples, phases, phases)
    def test_ring_axioms(self, a, b, c, j, k):
        p, q, r, s = _phased(a, j), _phased(b, k), _phased(c, k), _phased(a, k)
        assert (s + q) + r == s + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(fraction_tuples, fraction_tuples, phases, phases)
    def test_against_gaussian_coefficients(self, a, b, j, k):
        p, q = _phased(a, j), _phased(b, k)
        assert (p * q).coeffs == _ref_mul(p.coeffs, q.coeffs)
        assert (p + _phased(b, j)).coeffs == _ref_add(p.coeffs, _phased(b, j).coeffs)
        assert (-p).coeffs == tuple(-c for c in p.coeffs)
        assert p.derivative().coeffs == _trim(n * c for n, c in enumerate(p.coeffs) if n)
        flip = TauPolynomial([-1, -1])
        assert p.substitute(flip).coeffs == _ref_compose(p.coeffs, flip.coeffs)
        for x in (GaussianRational(0), GaussianRational(Fraction(-3, 2)), GaussianRational(1, 2)):
            # composition read at a point is evaluation at the inner value
            inner = _ref_horner(flip.coeffs, x)
            assert _ref_horner(p.substitute(flip).coeffs, x) == _ref_horner(p.coeffs, inner)
        assert [p.coefficient(n) for n in range(len(a) + 1)] == list(p.coeffs) + [
            GaussianRational(0)
        ]

    @given(fraction_tuples, phases)
    def test_phase_is_canonical(self, a, k):
        p = _phased(a, k)
        assert p.i_power in (0, 1) and (p or p.i_power == 0)
        parts = [c.im if p.i_power else c.re for c in p.coeffs]
        assert p == _phased(parts, p.i_power)

    @given(fraction_tuples, fraction_tuples, phases, phases)
    def test_degree_multiplicative(self, a, b, j, k):
        p, q = _phased(a, j), _phased(b, k)
        if p and q:
            assert (p * q).degree == p.degree + q.degree

    @given(fraction_tuples, fraction_tuples, phases, phases)
    def test_divmod(self, a, b, j, k):
        p, d = _phased(a, j), _phased(b, k)
        if not d:
            with pytest.raises(ZeroDivisionError):
                p.divmod_poly(d)
            return
        q, r = p.divmod_poly(d)
        assert (q.coeffs, r.coeffs) == _ref_divmod(p.coeffs, d.coeffs)
        assert q * d + r == p
        assert not r or r.degree < d.degree

    @given(fraction_tuples, fraction_tuples, phases, phases)
    def test_derivative_leibniz(self, a, b, j, k):
        p, q = _phased(a, j), _phased(b, k)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    @given(fraction_tuples, phases)
    def test_reflection_involution(self, a, k):
        p = _phased(a, k)
        flip = TauPolynomial([-1, -1])
        assert p.substitute(flip).substitute(flip) == p

    def test_imaginary_substitution(self):
        # tau + tau^3 at i*tau is i*(tau - tau^3); 1 + tau at i*tau has no phase
        i_tau = TP_TAU * TP_I
        assert TauPolynomial([0, 1, 0, 1]).substitute(i_tau) == TauPolynomial([0, 1, 0, -1]) * TP_I
        with pytest.raises(ValueError, match="no common phase"):
            TauPolynomial([1, 1]).substitute(i_tau)

    def test_phased(self):
        p = RealTauPolynomial([Fraction(1, 4), Fraction(1, 2)])
        assert TauPolynomial.phased(p, 0) == TauPolynomial([Fraction(1, 4), Fraction(1, 2)])
        assert TauPolynomial.phased(p, 1) == TauPolynomial([Fraction(1, 4), Fraction(1, 2)]) * TP_I
        assert TauPolynomial.phased(p, 2) == -TauPolynomial.phased(p, 0)
        assert TauPolynomial.phased(p, -1) == -TauPolynomial.phased(p, 1)
        assert TauPolynomial.phased(0, 3) == TauPolynomial.phased(RealTauPolynomial(), 1) == 0

    def test_constructor_keeps_one_phase(self):
        # the constructor takes rationals; a phase comes only from phased
        p = TauPolynomial([Fraction(1, 4), Fraction(1, 2)]) * TP_I
        assert (p.real, p.i_power) == (RealTauPolynomial([Fraction(1, 4), Fraction(1, 2)]), 1)
        assert TauPolynomial([1]) == 1 and TauPolynomial([0, 0]) == TauPolynomial()
        # equal values hash alike, scalars included
        assert hash(TauPolynomial([1])) == hash(1)
        assert hash(TP_I * 3) == hash(TauPolynomial.phased(RealTauPolynomial([3]), 1))
        # Gaussian rationals are readouts, not operands
        with pytest.raises(TypeError, match="exact rational"):
            TauPolynomial([1, TP_I.coefficient(0)])
        with pytest.raises(TypeError, match="exact rational"):
            TauPolynomial([GaussianRational(1, 1)])
        with pytest.raises(TypeError):
            TP_TAU * GaussianRational(0, 1)

    def test_mixed_phase_sum_rejected(self):
        with pytest.raises(ValueError, match="no common phase"):
            TP_TAU + TP_I
        with pytest.raises(ValueError, match="no common phase"):
            TP_TAU * TP_I - 1
        assert TP_TAU * TP_I + 0 == TP_TAU * TP_I

    @given(fraction_tuples, phases)
    def test_to_json(self, a, k):
        p = _phased(a, k)
        assert p.to_json() == [c.to_json() for c in p.coeffs]

    def test_negative_power_rejected(self):
        # rejected rather than looping on the exponent's sign bits
        with pytest.raises(ValueError, match="negative exponent"):
            TauPolynomial([2]) ** -1
        assert TauPolynomial([1, 1]) ** 0 == 1
