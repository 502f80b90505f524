from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cutjoin.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    TauPolynomial,
    fraction_str,
    parse_fraction,
    qhalf_eval_check,
    series_exp,
    series_log,
    sin_half_series,
)

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=9)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
tau_polys = st.builds(TauPolynomial, st.lists(gaussians, max_size=4))


def laurent(coeff_st, min_lo=-3, max_len=6):
    return st.builds(
        lambda lo, cs: LaurentSeries(lo, cs),
        st.integers(min_lo, 2),
        st.lists(coeff_st, min_size=1, max_size=max_len),
    )


class TestGaussianRational:
    def test_i_squared(self):
        assert GR_I * GR_I == -1
        assert GaussianRational.i_power(3) == -GR_I
        assert GaussianRational.i_power(4) == 1

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a
        assert a + (-a) == 0

    @given(gaussians)
    def test_inverse(self, a):
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == 1

    @given(gaussians)
    def test_lowest_terms(self, a):
        # Fractions normalize on construction; re-wrapping is idempotent
        again = GaussianRational(a.re, a.im)
        assert again == a
        assert again.re.denominator > 0 and again.im.denominator > 0

    def test_mixed_arithmetic(self):
        assert GR_I + 1 == GaussianRational(1, 1)
        assert Fraction(1, 2) * GR_I == GaussianRational(0, Fraction(1, 2))
        assert (1 - GR_I) * (1 + GR_I) == 2

    def test_serialization(self):
        assert GaussianRational(Fraction(1, 2), -2).to_json() == {
            "re": "1/2",
            "im": "-2/1",
        }
        assert parse_fraction(fraction_str(Fraction(-3, 7))) == Fraction(-3, 7)


class TestTauPolynomial:
    @given(tau_polys, tau_polys, tau_polys)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(tau_polys, tau_polys)
    def test_degree_multiplicative(self, p, q):
        if p and q:
            assert (p * q).degree == p.degree + q.degree

    @given(tau_polys, tau_polys)
    def test_divmod(self, p, d):
        if not d:
            return
        q, r = p.divmod_poly(d)
        assert q * d + r == p
        assert not r or r.degree < d.degree

    @given(tau_polys, tau_polys)
    def test_derivative_leibniz(self, p, q):
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    def test_reflection_involution(self):
        p = TauPolynomial([1, 2, GaussianRational(0, 3)])
        flip = TauPolynomial([-1, -1])
        assert p.substitute(flip).substitute(flip) == p

    def test_evaluate(self):
        p = TauPolynomial([1, 0, 1])  # 1 + tau^2
        assert p.evaluate(2) == 5
        assert p.evaluate(GR_I) == 0

    def test_unit_inverse_only(self):
        assert TauPolynomial([2]).inverse() == TauPolynomial([Fraction(1, 2)])
        with pytest.raises(ZeroDivisionError):
            TauPolynomial([0, 1]).inverse()

    def test_negative_power_rejected(self):
        # a unit tau-polynomial has an inverse, but a negative power is
        # rejected rather than looping on the exponent's sign bits
        with pytest.raises(ValueError, match="negative exponent"):
            TauPolynomial([2]) ** -1
        assert TauPolynomial([1, 1]) ** 0 == 1


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

    def test_negative_power_rejected(self):
        s = LaurentSeries(0, [Fraction(2), Fraction(1)], 3)
        with pytest.raises(ValueError, match="negative exponent"):
            s ** -1
        assert s**2 == s * s


class TestQHalfLaurent:
    def test_spec_examples(self):
        a = QHalfLaurent.monomial(1, 1) - QHalfLaurent.monomial(1, -1)
        b = QHalfLaurent.monomial(1, 1) - QHalfLaurent.monomial(1, -1)
        assert qhalf_eval_check(a, b)
        q = QHalfLaurent.monomial(1, 2)
        assert qhalf_eval_check(q - q, QHalfLaurent.zero())

    @given(st.lists(st.tuples(st.integers(-4, 4), gaussians), max_size=5),
           st.lists(st.tuples(st.integers(-4, 4), gaussians), max_size=5))
    def test_substitution_homomorphism(self, t1, t2):
        a, b = QHalfLaurent(t1), QHalfLaurent(t2)
        v = GaussianRational(2, 1)
        assert (a * b).substitute(v) == a.substitute(v) * b.substitute(v)
        assert (a + b).substitute(v) == a.substitute(v) + b.substitute(v)

    def test_power(self):
        y = QHalfLaurent.monomial(GR_I, 1)
        assert y**4 == QHalfLaurent.monomial(1, 4)

    def test_negative_power_rejected(self):
        y = QHalfLaurent.monomial(GR_I, 1)
        with pytest.raises(ValueError, match="negative exponent"):
            y ** -1
        assert y**0 == QHalfLaurent.one()
