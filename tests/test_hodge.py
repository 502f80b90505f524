from fractions import Fraction
from math import comb

import pytest

from cutjoin.exact import (
    GaussianRational,
    LaurentSeries,
    RealTauPolynomial,
    TP_I,
    TP_TAU,
    TauPolynomial,
    sinh_half_series,
)
from cutjoin import hodge
from cutjoin.genfun import PartitionSeries, cut_join_linear, cut_join_nonlinear, ps_exp
from cutjoin.hodge import (
    CgmuPolynomial,
    MVSeries,
    _evolution_holds,
    _x_scaled,
    build_disconnected,
    build_series_pair,
    cutjoin_derivative_check,
    extract_C_gmu,
    genus0_closed_form,
    hodge_polynomial,
    initial_condition_check,
    initial_condition_series,
    kappa_exp_factor,
    lambda_g_coefficients,
    parity_pole_check,
    prefactor_polynomial,
    theorem1_check,
    theorem1_verdicts,
    transfer_system_kernel,
    two_sin_half,
    v_forms_agree,
    v_hook_form,
    v_series,
    v_sine_product,
)
from cutjoin.partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    _multiset_difference,
    _sub_multisets,
)

P = Partition


def v_series_by_products(nu, order):
    """V_nu as the reciprocal of the product of 2*sinh(h*x/2) over the hooks."""
    work = order + 2 * nu.size
    prod = LaurentSeries.one(work)
    for h in nu.hooks():
        prod = prod * (sinh_half_series(Fraction(h), work) * 2)
    return prod.reciprocal().truncate(order)


class TestSineAmplitude:
    def test_two_sin_half(self):
        s = two_sin_half(1)  # i*(y - 1/y)
        assert s.terms == {1: 1, -1: -1} and s.i_power == 1
        assert two_sin_half(0).terms == {}

    def test_hook_form_examples(self):
        one, den = v_hook_form(P([1]))
        assert den == two_sin_half(1)
        _, den2 = v_hook_form(P([2]))
        assert den2 == two_sin_half(2) * two_sin_half(1)
        _, den21 = v_hook_form(P([2, 1]))
        assert den21 == two_sin_half(3) * two_sin_half(1) * two_sin_half(1)

    def test_product_form_single_row(self):
        num, den = v_sine_product(P([2]))
        assert num == type(num).one()
        assert den == two_sin_half(1) * two_sin_half(2)

    def test_forms_agree(self):
        for d in range(1, 8):
            for nu in enumerate_partitions(d):
                assert v_forms_agree(nu), nu

    def test_series_example(self):
        # the lambda^k coefficient of V_(1) is i^(1+k) times the x^k one
        s = v_series(P([1]), 3)
        phased = [
            TauPolynomial.phased(RealTauPolynomial([s.coefficient(k)]), 1 + k)
            for k in (-1, 1, 3)
        ]
        assert phased == [
            1,
            Fraction(1, 24),
            Fraction(7, 5760),
        ]

    @pytest.mark.parametrize("d", range(8))
    def test_series_matches_sinh_products(self, d):
        for nu in enumerate_partitions(d):
            for k in (-d, 0, 20):
                assert v_series(nu, k) == v_series_by_products(nu, k), (nu, k)
            with pytest.raises(ValueError, match=r"at least -\|nu\|"):
                v_series(nu, -d - 1)

    def test_conjugate_pairing(self):
        # W_nu'(x) = (-1)^|nu| W_nu(-x), with W_nu = E_nu * V_nu
        T = 12
        for d in range(8):
            for nu in enumerate_partitions(d):
                W, W_conj = (
                    kappa_exp_factor(p.kappa(), T + d) * v_series(p, T)
                    for p in (nu, nu.transpose())
                )
                reflected = LaurentSeries(
                    W.min_exp, [c * (-1) ** (k + d) for k, c in W.items()], W.trunc_order
                )
                assert W_conj == reflected, nu

    def test_series_leading_coefficient(self):
        s = v_series(P([2, 1]), -3)
        assert s.min_exp == -3
        assert s.coefficient(-3) == Fraction(1, 3)  # 1 / (product of hooks)

    def test_series_parity(self):
        for nu in (P([1]), P([2]), P([2, 1])):
            s = v_series(nu, 7)
            for k, c in s.items():
                if c:
                    assert (k - nu.size) % 2 == 0


class TestSeriesBuild:
    def test_exp_factor_solves_its_equation(self):
        # d/dtau E = (kappa*x/2) * E for the tau-exponential factor, which is
        # d/dtau E = (i*kappa*lambda/2) * E at x = i*lambda
        E = kappa_exp_factor(2, 6)
        lhs = E.map_coefficients(
            lambda c: c.derivative() if isinstance(c, RealTauPolynomial) else 0
        )
        assert lhs.agrees_with(E.shift(1), up_to=6)  # kappa/2 = 1

    def test_constant_term_is_one(self, series_pair_small):
        star, _ = series_pair_small
        c = star.coefficient(EMPTY)
        assert c.coefficient(0) == 1
        assert all(not c.coefficient(k) for k in range(1, 5))

    def test_body_parity(self, series_pair_small):
        # the x^m P_mu coefficient vanishes unless m = l(mu) (mod 2)
        star, _ = series_pair_small
        for mu, s in star.body.terms.items():
            assert all(not c for m, c in s.items() if (m - mu.length) % 2), mu

    def test_p1_coefficient_is_tau_free_sine(self, series_pair_small):
        # in x and P, where both sides carry the same phase i^(k+1)
        star, _ = series_pair_small
        c = star.body.coefficient(P([1]))
        v = v_series(P([1]), 8)
        for k in range(-1, 9):
            got = c.coefficient(k)
            expect = v.coefficient(k)
            if isinstance(got, RealTauPolynomial):
                assert got.degree <= 0 and got.coefficient(0) == expect
            else:
                assert got == expect

    def test_disconnected_is_exp_of_connected(self, series_pair_small):
        # in x and P, where the body of each series lives
        star, conn = series_pair_small
        rebuilt = ps_exp(conn.body)
        keys = set(rebuilt.terms) | set(star.body.terms)
        for mu in keys:
            a = star.body.coefficient(mu) or LaurentSeries.zero(star.lambda_order)
            b = rebuilt.coefficient(mu)
            if isinstance(b, int):
                b = LaurentSeries.monomial(Fraction(b), 0, star.lambda_order)
            assert a.agrees_with(b, up_to=star.lambda_order)

    def test_connected_p2_at_tau_zero(self, series_pair_small):
        _, conn = series_pair_small
        at_zero = conn.at_tau_zero()
        series = at_zero.coefficient(P([2]))
        target = initial_condition_series(2, 10)
        # the closed form starts i/4 * lambda^{-1}
        assert target.coefficient(-1) == TP_I * Fraction(1, 4)
        assert target.coefficient(-1).coeffs == (GaussianRational(0, Fraction(1, 4)),)
        assert series.agrees_with(target, up_to=10)

    def test_theorem1_small(self):
        assert theorem1_check(3, 8)

    def test_evolution_check_rejects_wrong_prefactor(self):
        # negative control: x/3 in place of x/2 breaks both forms
        star, conn = build_series_pair(3, 8)
        for series, omega in ((star, cut_join_linear), (conn, cut_join_nonlinear)):
            lhs = series.tau_derivative()
            assert _evolution_holds(lhs, _x_scaled(omega(series.body), Fraction(1, 2)), 8)
            assert not _evolution_holds(lhs, _x_scaled(omega(series.body), Fraction(1, 3)), 8)

    def test_per_weight_truncation_orders(self, series_pair_small):
        # weight d is built to L + W - d, and the log keeps weight n valid to
        # at least L + W - n; every readout is cut at L
        W, L = 4, 6
        for mu, s in build_disconnected(W, L).body.terms.items():
            assert s.trunc_order == L + W - mu.size, mu
        for series in series_pair_small:
            W, L = series.max_weight, series.lambda_order
            for mu, s in series.body.terms.items():
                assert s.trunc_order >= L + W - mu.size, mu
                assert series.coefficient(mu).trunc_order == L
            assert all(s.trunc_order == L for s in series.truncated.terms.values())

    @pytest.mark.parametrize(
        "which, parts, exponent, verdicts",
        [
            # an error at x^L in a connected coefficient breaks only the nonlinear form
            ("connected", [2, 1], 0, (True, False)),
            # x^(L+2) is beyond the compared range, before and after the cut at L
            ("connected", [2, 1], 2, (True, True)),
            # an error in a disconnected coefficient breaks only the linear form
            ("disconnected", [3, 1], 0, (False, True)),
        ],
    )
    def test_theorem1_perturbed_coefficient(self, monkeypatch, which, parts, exponent, verdicts):
        W, L = 5, 8
        pair = dict(zip(("disconnected", "connected"), build_series_pair(W, L)))
        target = pair[which]
        mu = P(parts)
        s = target.body.coefficient(mu)
        assert s.trunc_order >= L + exponent
        bumped = s + LaurentSeries.monomial(RealTauPolynomial([0, 1]), L + exponent, s.trunc_order)
        assert bumped.coefficient(L + exponent) != s.coefficient(L + exponent)
        terms = dict(target.body.terms)
        terms[mu] = bumped
        pair[which] = MVSeries(PartitionSeries(terms, W), W, L)
        patched = (pair["disconnected"], pair["connected"])
        monkeypatch.setattr(hodge, "build_series_pair", lambda *args: patched)
        assert theorem1_verdicts(W, L) == verdicts

    def test_initial_condition_small(self):
        assert initial_condition_check(3, 8)

    def test_initial_condition_rejects_wrong_phase(self, monkeypatch):
        # negative control: the closed form with phase i^d, not i^(d+1)
        assert initial_condition_check(4, 8)
        closed_form = hodge.initial_condition_series
        monkeypatch.setattr(
            hodge, "initial_condition_series", lambda d, order: closed_form(d, order) * TP_I**3
        )
        assert not initial_condition_check(4, 8)

    def test_parity_pole_structure(self, series_pair_small):
        _, conn = series_pair_small
        assert parity_pole_check(conn)

    def test_disconnected_pole_order_bound(self, series_pair_small):
        star, _ = series_pair_small
        for mu in star.body.terms:
            assert star.coefficient(mu).min_exp >= -mu.size

    def test_log_matches_inclusion_exclusion(self, series_pair_small):
        # the alternating-sum expansion over ordered multiset decompositions
        # is an independent route to the connected coefficients
        star, conn = series_pair_small

        def ordered_decompositions(parts):
            if not parts:
                yield ()
                return
            for alpha in _sub_multisets(parts):
                if not alpha:
                    continue
                rest = _multiset_difference(parts, alpha)
                for tail in ordered_decompositions(rest):
                    yield (alpha,) + tail

        for d in range(1, 4):
            for mu in enumerate_partitions(d):
                total = None
                for tup in ordered_decompositions(mu.parts):
                    n = len(tup)
                    prod = star.coefficient(P(tup[0]))
                    for piece in tup[1:]:
                        prod = prod * star.coefficient(P(piece))
                    prod = prod * Fraction((-1) ** (n - 1), n)
                    total = prod if total is None else total + prod
                assert total.agrees_with(conn.coefficient(mu), up_to=8)


class TestExtraction:
    def test_out_of_range_rejected(self, series_pair_small):
        _, conn = series_pair_small
        with pytest.raises(ValueError, match="exceeds series weight"):
            extract_C_gmu(conn, 0, P([5]))
        with pytest.raises(ValueError, match="exceeds valid order"):
            extract_C_gmu(conn, 7, P([1]))

    def test_genus0_anchors(self, series_pair_small):
        _, conn = series_pair_small
        one = extract_C_gmu(conn, 0, P([1])).poly
        assert one == TauPolynomial([1])
        two = extract_C_gmu(conn, 0, P([2])).poly
        # i(2 tau + 1)/4
        assert two == TauPolynomial([Fraction(1, 4), Fraction(1, 2)]) * TP_I
        pair = extract_C_gmu(conn, 0, P([1, 1])).poly
        # -tau(tau+1)/4
        assert pair == (TP_TAU * (TP_TAU + 1)) * Fraction(-1, 4)

    def test_genus0_matches_definition_route(self, series_pair_small):
        _, conn = series_pair_small
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                assert extract_C_gmu(conn, 0, mu).poly == genus0_closed_form(mu)

    def test_genus0_anchor_rejects_wrong_prefactor_phase(self, series_pair_small, monkeypatch):
        # negative control: the prefactor head with phase i^(|mu|+l+1)
        _, conn = series_pair_small
        prefactor = hodge.prefactor_polynomial
        monkeypatch.setattr(hodge, "prefactor_polynomial", lambda mu: prefactor(mu) * TP_I)
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                assert extract_C_gmu(conn, 0, mu).poly != genus0_closed_form(mu), mu

    def test_degree_and_symmetry(self, series_pair_small):
        _, conn = series_pair_small
        for g in range(4):
            for d in range(1, 5):
                for mu in enumerate_partitions(d):
                    c = extract_C_gmu(conn, g, mu)
                    assert c.degree_ok(), (g, mu)
                    assert c.symmetry_ok(), (g, mu)

    def test_prefactor_examples(self):
        # single row of size 1: prefactor is -i^2 = 1
        assert prefactor_polynomial(P([1])) == TauPolynomial([1])
        # (2): -i^3 * (2 tau + 1) / 1! = i (2 tau + 1)
        assert prefactor_polynomial(P([2])) == (TP_TAU * 2 + 1) * TP_I

    def test_hodge_polynomial_genus0(self, series_pair_small):
        _, conn = series_pair_small
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                expected = Fraction(mu.size) ** (mu.length - 3)
                assert hodge_polynomial(0, mu, conn) == TauPolynomial.constant(expected)

    def test_one_point_genus1_against_expansion_oracle(self, series_pair_small):
        _, conn = series_pair_small
        oracle = _one_point_genus1_oracle()
        assert hodge_polynomial(1, P([1]), conn) == oracle

    def test_derivative_recursion(self, series_pair_small):
        _, conn = series_pair_small
        for g in range(3):
            for d in range(1, 5):
                for mu in enumerate_partitions(d):
                    assert cutjoin_derivative_check(conn, g, mu), (g, mu)

    def test_derivative_recursion_rejects_missing_i(self, series_pair_small, monkeypatch):
        # negative control: the sqrt(-1) of the evolution equation dropped
        _, conn = series_pair_small
        assert cutjoin_derivative_check(conn, 0, P([2]))
        monkeypatch.setattr(hodge, "TP_I", 1)
        assert not cutjoin_derivative_check(conn, 0, P([2]))


def _one_point_genus1_oracle() -> TauPolynomial:
    """Expand (1 - L)(-tau - 1 - L)(tau - L)/(1 - psi) keeping total degree
    at most one in the classes L and psi, then integrate with both one-point
    values equal to 1/24.  Entirely independent of the extraction pipeline."""

    def mul(x, y):
        out = {}
        for (a1, b1), c1 in x.items():
            for (a2, b2), c2 in y.items():
                a, b = a1 + a2, b1 + b2
                if a + b <= 1:
                    key = (a, b)
                    out[key] = out.get(key, TauPolynomial()) + c1 * c2
        return out

    one = {(0, 0): TauPolynomial([1])}
    L = {(1, 0): TauPolynomial([1])}
    psi = {(0, 1): TauPolynomial([1])}

    def sub(x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, TauPolynomial()) - v
        return out

    f1 = sub(one, L)
    f2 = sub({(0, 0): TauPolynomial([-1, -1])}, L)  # -tau - 1 - L
    f3 = sub({(0, 0): TP_TAU}, L)  # tau - L
    geom = {(0, 0): TauPolynomial([1]), (0, 1): TauPolynomial([1])}  # 1/(1-psi)
    product = mul(mul(mul(f1, f2), f3), geom)
    val = Fraction(1, 24)
    return (product.get((1, 0), TauPolynomial()) + product.get((0, 1), TauPolynomial())) * val


class TestTransferAndSine:
    def test_lambda_g_coefficients(self):
        assert lambda_g_coefficients(4) == [
            Fraction(1),
            Fraction(1, 24),
            Fraction(7, 5760),
        ]
        with pytest.raises(ValueError):
            lambda_g_coefficients(1)

    def test_kernel_examples(self):
        assert transfer_system_kernel(1) == [Fraction(1), Fraction(-1)]
        assert transfer_system_kernel(2) == [Fraction(1), Fraction(-2), Fraction(1)]

    def test_kernel_closed_form(self):
        for l in range(1, 11):
            expected = [Fraction((-1) ** k * comb(l, k)) for k in range(l + 1)]
            assert transfer_system_kernel(l) == expected


class TestCgmuPolynomial:
    def test_symmetry_detects_failure(self):
        bad = CgmuPolynomial(0, P([2]), TP_TAU)  # wrong parity under reflection
        assert not bad.symmetry_ok()

    def test_degree_bound_value(self):
        c = CgmuPolynomial(1, P([2, 1]), TauPolynomial([1]))
        assert c.degree_bound == 2 * 1 - 2 + 3 + 2
