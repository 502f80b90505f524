from fractions import Fraction
from math import comb

import pytest

from cutjoin.exact import (
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    RealTauPolynomial,
    TauPolynomial,
    sin_half_series,
    sinh_half_series,
)
from cutjoin import hodge
from cutjoin.genfun import (
    PartitionSeries,
    cut_join_linear,
    cut_join_nonlinear,
    ps_exp,
    ps_log,
)
from cutjoin.hodge import (
    CgmuPolynomial,
    MVSeries,
    Mismatch,
    _evolution_mismatch,
    _reflected,
    _sine_arguments,
    _x_scaled,
    build_disconnected,
    build_series_pair,
    cutjoin_derivative_check,
    extract_C_gmu,
    genus0_closed_form,
    hodge_polynomial,
    initial_condition_mismatch,
    initial_condition_series,
    kappa_exp_factor,
    lambda_g_coefficients,
    parity_pole_mismatch,
    prefactor_polynomial,
    theorem1_mismatches,
    transfer_system_kernel,
    two_sin_product,
    v_forms_agree,
    v_series,
)
from cutjoin.hurwitz import linear_hodge_factor
from cutjoin.partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    _sub_multisets,
)
from series_reference import (
    gaussian_coeffs,
    genus0_lambda_value,
    prefactor_coefficients,
    q_neg,
    q_power,
    series_agree,
    sub,
    tau_zero_lambda_value,
)

P = Partition
TAU = RealTauPolynomial([0, 1])


def v_series_by_products(nu, order):
    """V_nu as the reciprocal of the product of 2*sinh(h*x/2) over the hooks."""
    work = order + 2 * nu.size
    prod = LaurentSeries.one(work)
    for h in nu.hooks():
        prod = prod * (sinh_half_series(Fraction(h), work) * 2)
    return prod.reciprocal().truncate(order)


def two_sin_half(m):
    """2*sin(m*lambda/2) = i*(y^m - y^(-m)), one factor."""
    return QHalfLaurent(((m, 1), (-m, -1)), i_power=1)


def product_by_factors(args):
    """prod_m 2*sin(m*lambda/2), one QHalfLaurent product per factor."""
    out = QHalfLaurent.monomial(1, 0)
    for m in args:
        out = out * two_sin_half(m)
    return out


def sine_product_by_factors(nu):
    """V_nu's double-sine (numerator, denominator), factor by factor."""
    l, parts = nu.length, nu.parts
    num = [parts[a] - parts[b] + b - a for a in range(l) for b in range(a + 1, l)]
    den = [b - a for a in range(l) for b in range(a + 1, l)]
    den += [v - i + l for i in range(1, l + 1) for v in range(1, parts[i - 1] + 1)]
    return product_by_factors(num), product_by_factors(den)


class TestSineAmplitude:
    def test_two_sin_half(self):
        s = two_sin_product([1])  # i*(y - 1/y)
        assert s.terms == {1: 1, -1: -1} and s.i_power == 1
        assert two_sin_product([0]).terms == {}
        assert two_sin_product([]) == QHalfLaurent.monomial(1, 0)
        assert two_sin_product([-2]) == q_neg(two_sin_half(2))
        assert two_sin_product([3, 1, 1, 2]) == product_by_factors([3, 1, 1, 2])
        assert two_sin_product([2, 2, 2]) == q_power(two_sin_half(2), 3)

    def test_hook_form_examples(self):
        assert two_sin_product(P([1]).hooks()) == two_sin_half(1)
        assert two_sin_product(P([2]).hooks()) == two_sin_half(2) * two_sin_half(1)
        want = two_sin_half(3) * two_sin_half(1) * two_sin_half(1)
        assert two_sin_product(P([2, 1]).hooks()) == want

    def test_product_form_single_row(self):
        num, den = _sine_arguments(P([2]))
        assert two_sin_product(num) == QHalfLaurent.monomial(1, 0)
        assert two_sin_product(den) == two_sin_half(1) * two_sin_half(2)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_binomial_products_match_factor_by_factor(self, d):
        for nu in enumerate_partitions(d):
            num, den = _sine_arguments(nu)
            assert (two_sin_product(num), two_sin_product(den)) == sine_product_by_factors(nu), nu
            assert two_sin_product(nu.hooks()) == product_by_factors(nu.hooks()), nu

    def test_empty_partition_rejected(self):
        for form in (_sine_arguments, v_forms_agree):
            with pytest.raises(ValueError, match="nonempty"):
                form(EMPTY)

    def test_forms_agree(self):
        for d in range(1, 8):
            for nu in enumerate_partitions(d):
                assert v_forms_agree(nu), nu
                num_p, den_p = sine_product_by_factors(nu)
                assert num_p * product_by_factors(nu.hooks()) == den_p, nu

    @pytest.mark.parametrize("side", [0, 1])
    def test_forms_disagree_with_a_sine_argument_off_by_one(self, monkeypatch, side):
        real = hodge._sine_arguments

        def shifted(nu):
            args = real(nu)
            if args[side]:
                args[side][0] += 1
            return args

        monkeypatch.setattr(hodge, "_sine_arguments", shifted)
        for d in range(2, 7):
            for nu in enumerate_partitions(d):
                # a single row has no numerator factor to shift
                assert v_forms_agree(nu) is (side == 0 and nu.length == 1), nu

    def test_forms_disagree_with_a_hook_dropped(self, monkeypatch):
        real = Partition.hooks
        monkeypatch.setattr(Partition, "hooks", lambda nu: real(nu)[1:])
        for d in range(1, 7):
            for nu in enumerate_partitions(d):
                assert not v_forms_agree(nu), nu

    def test_forms_disagree_with_the_power_of_i_off_by_one(self, monkeypatch):
        real = QHalfLaurent.binomial_product
        calls = []

        def phase_shifted(exponents, low=0, i_power=0):
            calls.append(exponents)  # the first call is the numerator side
            return real(exponents, low, i_power + (len(calls) == 1))

        monkeypatch.setattr(QHalfLaurent, "binomial_product", staticmethod(phase_shifted))
        for d in range(1, 7):
            for nu in enumerate_partitions(d):
                calls.clear()
                assert not v_forms_agree(nu), nu
                assert len(calls) == 2

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
        assert series_agree(lhs, E.shift(1), 6)  # kappa/2 = 1

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
        # in x and P, where the body of each series lives: on the series as
        # built, valid beyond L, and on the pair cut at L, each compared on
        # every exponent both sides know
        star, conn = series_pair_small
        L = star.lambda_order
        built = build_disconnected(star.body.max_weight, L)
        for disconnected, connected in ((built, ps_log(built)), (star.body, conn.body)):
            rebuilt = ps_exp(connected)
            for mu in set(rebuilt.terms) | set(disconnected.terms):
                a = disconnected.coefficient(mu) or LaurentSeries.zero(L)
                b = rebuilt.coefficient(mu)
                if isinstance(b, int):
                    b = LaurentSeries.monomial(Fraction(b), 0, L)
                assert series_agree(a, b)

    def test_connected_p2_at_tau_zero(self, series_pair_small):
        _, conn = series_pair_small
        series = conn.at_tau_zero().coefficient(P([2]))
        target = initial_condition_series(2, 10)
        # 1/(4 sinh(x)) starts 1/4 * x^{-1}, which reads i/4 * lambda^{-1}
        assert target.coefficient(-1) == Fraction(1, 4)
        assert series_agree(series, target, 10)
        readout = conn.coefficient(P([2])).coefficient(-1)
        assert gaussian_coeffs(readout)[0] == GaussianRational(0, Fraction(1, 4))

    def test_theorem1_small(self):
        assert theorem1_mismatches(3, 8) == (None, None)

    def test_evolution_check_rejects_wrong_prefactor(self):
        # negative control: x/3 in place of x/2 breaks both forms
        star, conn = build_series_pair(3, 8)
        for series, omega in ((star, cut_join_linear), (conn, cut_join_nonlinear)):
            lhs = series.tau_derivative()
            assert _evolution_mismatch(lhs, _x_scaled(omega(series.body), Fraction(1, 2)), 8) is None
            wrong = _x_scaled(omega(series.body), Fraction(1, 3))
            assert _evolution_mismatch(lhs, wrong, 8) is not None

    def test_per_weight_truncation_orders(self, series_pair_small):
        # weight d is built to L + W - d, and the log keeps weight n valid to
        # at least L + W - n; each MVSeries coefficient is cut at L
        W, L = 4, 10
        star = build_disconnected(W, L)
        for mu, s in star.terms.items():
            assert s.trunc_order == L + W - mu.size, mu
        for mu, s in ps_log(star).terms.items():
            assert s.trunc_order >= L + W - mu.size, mu
        for series in series_pair_small:
            assert (series.body.max_weight, series.lambda_order) == (W, L)
            for mu, s in series.body.terms.items():
                assert s.trunc_order == L, mu
                assert series.coefficient(mu).trunc_order == L

    @pytest.mark.parametrize(
        "which, parts, exponent, verdicts",
        [
            # an error at x^L in a connected coefficient breaks only the nonlinear form
            ("connected", [2, 1], 0, (True, False)),
            # x^(L+2) is beyond the compared range, and the cut at L drops it
            ("connected", [2, 1], 2, (True, True)),
            # an error in a disconnected coefficient breaks only the linear form
            ("disconnected", [3, 1], 0, (False, True)),
        ],
    )
    def test_theorem1_perturbed_coefficient(self, monkeypatch, which, parts, exponent, verdicts):
        # the error goes into the series as built, valid beyond L, before
        # the pair is cut at L
        W, L = 5, 8
        star = build_disconnected(W, L)
        pair = {"disconnected": star, "connected": ps_log(star)}
        target = pair[which]
        mu = P(parts)
        s = target.coefficient(mu)
        assert s.trunc_order >= L + exponent
        bumped = s + LaurentSeries.monomial(RealTauPolynomial([0, 1]), L + exponent, s.trunc_order)
        assert bumped.coefficient(L + exponent) != s.coefficient(L + exponent)
        terms = dict(target.terms)
        terms[mu] = bumped
        pair[which] = PartitionSeries(terms, W)
        patched = (MVSeries(pair["disconnected"], L), MVSeries(pair["connected"], L))
        monkeypatch.setattr(hodge, "build_series_pair", lambda *args: patched)
        assert tuple(m is None for m in theorem1_mismatches(W, L)) == verdicts

    def test_initial_condition_small(self):
        assert initial_condition_mismatch(3, 8) is None

    def test_initial_condition_rejects_wrong_phase(self, monkeypatch):
        # negative control: 1/(2d sin(d x/2)) in place of 1/(2d sinh(d x/2)),
        # the closed form read in x as if x were lambda, its phase dropped
        assert initial_condition_mismatch(4, 8) is None
        monkeypatch.setattr(
            hodge,
            "initial_condition_series",
            lambda d, order: (sin_half_series(Fraction(d), order + 2) * (2 * d)).reciprocal(),
        )
        assert initial_condition_mismatch(4, 8) is not None

    def test_comparison_rejects_a_coefficient_valid_below_the_order(self):
        star, _ = build_series_pair(3, 8)
        lhs = star.tau_derivative()
        terms = dict(lhs.terms)
        terms[P([2, 1])] = terms[P([2, 1])].truncate(7)
        # equal up to 7, but a series valid only to 7 cannot agree up to 8
        assert _evolution_mismatch(lhs, PartitionSeries(terms, 3), 7) is None
        short = Mismatch(P([2, 1]), valid_to=7)
        assert _evolution_mismatch(lhs, PartitionSeries(terms, 3), 8) == short
        assert _evolution_mismatch(PartitionSeries(terms, 3), lhs, 8) == short

    def test_initial_condition_rejects_an_extra_top_term(self, monkeypatch):
        # one term at x^L on P_2
        assert initial_condition_mismatch(4, 8) is None
        closed_form = hodge.initial_condition_series

        def bumped(d, order):
            s = closed_form(d, order)
            return s + LaurentSeries.monomial(Fraction(1), order, order) if d == 2 else s

        monkeypatch.setattr(hodge, "initial_condition_series", bumped)
        assert initial_condition_mismatch(4, 8) is not None

    def test_initial_condition_rejects_a_multi_row_value_at_tau_zero(self, monkeypatch):
        W, L = 4, 8
        star, conn = build_series_pair(W, L)
        assert initial_condition_mismatch(W, L) is None
        terms = dict(conn.body.terms)
        s = terms[P([2, 1])]
        terms[P([2, 1])] = s + LaurentSeries.monomial(RealTauPolynomial([1]), 2, s.trunc_order)
        patched = (star, MVSeries(PartitionSeries(terms, W), L))
        monkeypatch.setattr(hodge, "build_series_pair", lambda *args: patched)
        # the first mismatch names the partition, x exponent, tau degree and
        # both values: 1 at tau = 0 against the closed form's absent term
        assert initial_condition_mismatch(W, L) == Mismatch(P([2, 1]), 2, 0, (1, 0))

    def test_parity_pole_structure(self, series_pair_small):
        _, conn = series_pair_small
        assert parity_pole_mismatch(conn) is None

    def test_parity_pole_structure_names_a_term_of_the_wrong_parity(self, series_pair_small):
        # 3 tau x^1 on P_(2,1), whose exponents are even: the first mismatch
        # is that term against the zero the structure allows there
        _, conn = series_pair_small
        terms = dict(conn.body.terms)
        s = terms[P([2, 1])]
        terms[P([2, 1])] = s + LaurentSeries.monomial(RealTauPolynomial([0, 3]), 1, s.trunc_order)
        patched = MVSeries(PartitionSeries(terms, conn.body.max_weight), conn.lambda_order)
        assert parity_pole_mismatch(patched) == Mismatch(P([2, 1]), 1, 1, (3, 0))

    def test_disconnected_pole_order_bound(self, series_pair_small):
        star, _ = series_pair_small
        for mu in star.body.terms:
            assert star.coefficient(mu).min_exp >= -mu.size

    def test_log_matches_inclusion_exclusion(self, series_pair_small):
        # the alternating-sum expansion over ordered multiset decompositions
        # is an independent route to the connected coefficients, in x and P
        star, conn = (s.body for s in series_pair_small)

        def ordered_decompositions(parts):
            if not parts:
                yield ()
                return
            for alpha, rest in _sub_multisets(parts):
                if not alpha:
                    continue
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
                assert series_agree(total, conn.coefficient(mu), 8)


class TestExtraction:
    def test_out_of_range_rejected(self, series_pair_small):
        _, conn = series_pair_small
        with pytest.raises(ValueError, match="exceeds series weight"):
            extract_C_gmu(conn, 0, P([5]))
        with pytest.raises(ValueError, match="exceeds valid order"):
            extract_C_gmu(conn, 7, P([1]))

    def test_genus0_anchors(self, series_pair_small):
        _, conn = series_pair_small
        one = extract_C_gmu(conn, 0, P([1]))
        assert one.real == 1 and one.poly == TauPolynomial([1])
        two = extract_C_gmu(conn, 0, P([2]))
        # (2 tau + 1)/4, which reads i(2 tau + 1)/4 at lambda^-1 p_2
        assert two.real == RealTauPolynomial([Fraction(1, 4), Fraction(1, 2)])
        assert gaussian_coeffs(two.poly) == (
            GaussianRational(0, Fraction(1, 4)), GaussianRational(0, Fraction(1, 2))
        )
        pair = extract_C_gmu(conn, 0, P([1, 1]))
        # tau(tau+1)/4, which reads -tau(tau+1)/4 at lambda^0 p_1^2
        assert pair.real == (TAU * (TAU + 1)) * Fraction(1, 4)
        assert pair.poly == TauPolynomial([0, Fraction(-1, 4), Fraction(-1, 4)])

    def test_genus0_matches_definition_route(self, series_pair_small):
        _, conn = series_pair_small
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                assert extract_C_gmu(conn, 0, mu).real == genus0_closed_form(mu)

    def test_genus0_anchor_rejects_wrong_prefactor_phase(self, series_pair_small, monkeypatch):
        # negative control: the prefactor with the sign of i^(|mu|+l+2), the
        # one phase error a rational prefactor can carry; the anchor and the
        # genus-0 division both fail on every shape
        _, conn = series_pair_small
        prefactor = hodge.prefactor_polynomial
        monkeypatch.setattr(hodge, "prefactor_polynomial", lambda mu: -prefactor(mu))
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                assert extract_C_gmu(conn, 0, mu).real != genus0_closed_form(mu), mu
                assert hodge_polynomial(0, mu, conn) != mu.size ** (mu.length - 3), mu

    def test_hodge_division_rejects_a_dropped_genus_sign(self, series_pair_small, monkeypatch):
        # negative control: (-1)^g * r / P_mu without its (-1)^g, injected as
        # an extraction that carries it; genus 0 is blind to it, genus 1 not
        _, conn = series_pair_small
        extract = hodge.extract_C_gmu

        def signed(R, g, mu):
            c = extract(R, g, mu)
            return c._replace(real=c.real * (-1) ** g)

        monkeypatch.setattr(hodge, "extract_C_gmu", signed)
        assert hodge_polynomial(0, P([2, 1]), conn) == Fraction(1, 3)
        assert hodge_polynomial(1, P([1]), conn) == Fraction(-1, 24)

    def test_hodge_division_raises_on_a_nonzero_remainder(self, series_pair_small, monkeypatch):
        # negative control: a prefactor that does not divide the extracted
        # polynomial must raise, naming the genus and the partition
        _, conn = series_pair_small
        monkeypatch.setattr(hodge, "prefactor_polynomial", lambda mu: RealTauPolynomial([1, 0, 1]))
        with pytest.raises(ArithmeticError, match="g=1, mu=2,1"):
            hodge_polynomial(1, P([2, 1]), conn)

    def test_degree_and_symmetry(self, series_pair_small):
        _, conn = series_pair_small
        for g in range(4):
            for d in range(1, 5):
                for mu in enumerate_partitions(d):
                    c = extract_C_gmu(conn, g, mu)
                    assert c.degree_ok(), (g, mu)
                    assert c.symmetry_ok(), (g, mu)

    def test_prefactor_examples(self):
        # single row of size 1: P = 1, read out as -i^2 = 1
        assert prefactor_polynomial(P([1])) == 1
        # (2): P = (2 tau + 1) / 1!, read out as -i^3 * (2 tau + 1) = i (2 tau + 1)
        assert prefactor_polynomial(P([2])) == TAU * 2 + 1
        assert gaussian_coeffs(hodge.readout(prefactor_polynomial(P([2])), -1, 2)) == (
            GaussianRational(0, 1), GaussianRational(0, 2)
        )

    def test_prefactor_matches_tau_arithmetic(self):
        for d in range(1, 9):
            for mu in enumerate_partitions(d):
                got = prefactor_polynomial(mu)
                assert got.coeffs == tuple(prefactor_coefficients(mu)), mu

    def test_hodge_polynomial_genus0(self, series_pair_small):
        _, conn = series_pair_small
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                expected = Fraction(mu.size) ** (mu.length - 3)
                got = hodge_polynomial(0, mu, conn)
                assert got.__class__ is RealTauPolynomial and got == expected

    def test_one_point_genus1_against_expansion_oracle(self, series_pair_small):
        _, conn = series_pair_small
        oracle = _one_point_genus1_oracle()
        assert hodge_polynomial(1, P([1]), conn) == oracle

    def test_genus1_against_the_cover_count_closed_form(self, series_pair_default):
        # at genus 1 Lambda(t) = t - lambda_1 and lambda_1^2 = 0, so the
        # integrand Lambda(1) Lambda(tau) Lambda(-1 - tau) is -tau(tau + 1)
        # + (tau^2 + tau + 1) lambda_1 over prod(1 - mu_i psi_i): the Hodge
        # polynomial is b - f tau - f tau^2, with f the ELSV side's linear
        # Hodge factor and b = |mu|^(l-1)/24 the lambda_1 integral alone
        _, conn = series_pair_default
        for d in range(1, 7):
            for mu in enumerate_partitions(d):
                b = Fraction(d ** (mu.length - 1), 24)
                f = linear_hodge_factor(1, mu)
                got = hodge_polynomial(1, mu, conn)
                assert got == RealTauPolynomial([b, -f, -f]), mu
                assert got != RealTauPolynomial([0, -f, -f]), mu

    def test_tau_constant_term_is_the_lambda_g_integral(self, series_pair_default):
        # at tau = 0 only lambda_g survives, and its integral against
        # 1/prod(1 - mu_i psi_i) is b_g |mu|^(2g-3+l) (Faber-Pandharipande)
        _, conn = series_pair_default
        b = lambda_g_coefficients(10)
        for g in range(1, 5):
            for d in range(1, 7):
                for mu in enumerate_partitions(d):
                    if 2 * g - 2 + mu.length > conn.lambda_order:
                        continue
                    constant = hodge_polynomial(g, mu, conn).coefficient(0)
                    power = Fraction(d) ** (2 * g - 3 + mu.length)
                    assert constant == b[g] * power, (g, mu)
                    assert constant != b[g + 1] * power, (g, mu)

    def test_derivative_recursion(self, series_pair_default):
        # every (g, mu) of the (6, 12) pair with |mu| <= 6 whose exponent
        # 2g-2+l(mu) the pair reaches
        _, conn = series_pair_default
        cases = _derivative_cases(conn)
        assert len(cases) == 186
        for g, mu in cases:
            assert cutjoin_derivative_check(conn, g, mu), (g, mu)

    @pytest.mark.parametrize("mutation", ["stray i^2", "join weight", "x^m read"])
    def test_derivative_recursion_rejects_missing_i(
        self, series_pair_default, monkeypatch, mutation
    ):
        # negative controls on the rational recursion, which carries no i:
        # the column times i^2 = -1, the one phase error a rational sum can
        # show; one join weight off by one; and the column read at x^m, the
        # exponent of r_{g,mu} itself, in place of x^(m-1); each fails on
        # some case
        from cutjoin import genfun, partitions

        _, conn = series_pair_default
        cases = _derivative_cases(conn)
        assert all(cutjoin_derivative_check(conn, g, mu) for g, mu in cases)
        if mutation == "stray i^2":
            column = genfun._cut_join_column
            monkeypatch.setattr(genfun, "_cut_join_column", lambda *args: -column(*args))
        elif mutation == "x^m read":
            read = genfun._column_coefficient
            monkeypatch.setattr(genfun, "_column_coefficient", lambda F, mu, k: read(F, mu, k + 1))
        else:
            real = partitions.cut_join_incoming

            def first_join_off_by_one(nu):
                joins, cuts, splits = real(nu)
                if joins:
                    joins = ((joins[0][0], joins[0][1] + 1), *joins[1:])
                return joins, cuts, splits

            monkeypatch.setattr(partitions, "cut_join_incoming", first_join_off_by_one)
        assert not all(cutjoin_derivative_check(conn, g, mu) for g, mu in cases)

    def test_derivative_and_branch_point_recursions_share_one_sum(
        self, series_pair_small, monkeypatch
    ):
        from cutjoin import partitions
        from cutjoin.hurwitz import hurwitz_cutjoin_check

        _, conn = series_pair_small
        assert cutjoin_derivative_check(conn, 0, P([2])) and hurwitz_cutjoin_check(0, P([2]))
        real = partitions.cut_join_incoming

        def first_split_off_by_one(nu):
            joins, cuts, splits = real(nu)
            if splits:
                (nu1, nu2, w), *rest = splits
                splits = ((nu1, nu2, w + 1), *rest)
            return joins, cuts, splits

        monkeypatch.setattr(partitions, "cut_join_incoming", first_split_off_by_one)
        assert not cutjoin_derivative_check(conn, 0, P([2]))
        assert not hurwitz_cutjoin_check(0, P([2]))

    def test_derivative_and_branch_point_recursions_read_the_join_weights(
        self, series_pair_small, monkeypatch
    ):
        from cutjoin import partitions
        from cutjoin.hurwitz import hurwitz_cutjoin_check

        _, conn = series_pair_small
        # (1,1) has no splits and no genus-0 cuts: its one term is the join (2)
        mu = P([1, 1])
        assert cutjoin_derivative_check(conn, 0, mu) and hurwitz_cutjoin_check(0, mu)
        real = partitions.cut_join_incoming

        def first_join_off_by_one(nu):
            joins, cuts, splits = real(nu)
            return ((joins[0][0], joins[0][1] + 1), *joins[1:]), cuts, splits

        monkeypatch.setattr(partitions, "cut_join_incoming", first_join_off_by_one)
        assert not cutjoin_derivative_check(conn, 0, mu)
        assert not hurwitz_cutjoin_check(0, mu)

    def test_derivative_recursion_forms_one_column_per_case(self, monkeypatch):
        # the derivative recursion of the extraction suite at (6, 12): one
        # column `_dot` per (g, mu), 33 in all, over 78 pairs, each join, cut
        # and unordered split of mu once, the genus splits g1 + g2 = g inside
        # its one Laurent product (per-genus sums formed 100 pairs); the
        # operands are cut at x^m, so no column is valid past x^m.  The
        # column of (1) is empty: it has no joins, cuts or splits.  The
        # wrapper of `exact._dot` records only the calls `_cut_join_column`
        # makes itself: exact's own nested calls, the scalings of split
        # factors and the final halving reach it too
        import sys

        from cutjoin import exact, genfun

        _, conn = build_series_pair(6, 12)
        cases = [(g, mu) for g in range(3) for d in range(1, 5) for mu in enumerate_partitions(d)]
        real = exact._dot
        columns = []

        def recording(pairs):
            out = real(pairs)
            if sys._getframe(1).f_code is genfun._cut_join_column.__code__:
                columns.append((len(pairs), out))
            return out

        monkeypatch.setattr(exact, "_dot", recording)
        for g, mu in cases:
            formed = len(columns)
            assert cutjoin_derivative_check(conn, g, mu), (g, mu)
            assert len(columns) == formed + 1
            column = columns[-1][1]
            assert mu == P([1]) or column.trunc_order <= 2 * g - 2 + mu.length, (g, mu)
        assert sum(n for n, _ in columns) == 78


def _derivative_cases(conn) -> list:
    """Every (g, mu) with |mu| <= 6 and 2g-2+l(mu) within the pair's order,
    genus by genus."""
    return [
        (g, mu)
        for g in range(conn.lambda_order // 2 + 2)
        for d in range(1, 7)
        for mu in enumerate_partitions(d)
        if 2 * g - 2 + mu.length <= conn.lambda_order
    ]


def _one_point_genus1_oracle() -> RealTauPolynomial:
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
                    out[key] = out.get(key, RealTauPolynomial()) + c1 * c2
        return out

    one = {(0, 0): RealTauPolynomial([1])}
    L = {(1, 0): RealTauPolynomial([1])}
    psi = {(0, 1): RealTauPolynomial([1])}

    def minus(x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = sub(out.get(k, RealTauPolynomial()), v)
        return out

    f1 = minus(one, L)
    f2 = minus({(0, 0): RealTauPolynomial([-1, -1])}, L)  # -tau - 1 - L
    f3 = minus({(0, 0): TAU}, L)  # tau - L
    geom = {(0, 0): RealTauPolynomial([1]), (0, 1): RealTauPolynomial([1])}  # 1/(1-psi)
    product = mul(mul(mul(f1, f2), f3), geom)
    val = Fraction(1, 24)
    zero = RealTauPolynomial()
    return (product.get((1, 0), zero) + product.get((0, 1), zero)) * val


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
        bad = CgmuPolynomial(0, P([2]), TAU)  # wrong parity under reflection
        assert not bad.symmetry_ok()

    def test_degree_bound_value(self):
        c = CgmuPolynomial(1, P([2, 1]), RealTauPolynomial([1]))
        assert c.degree_bound == 2 * 1 - 2 + 3 + 2

    def test_reflection_is_an_involution_read_at_points(self):
        # p(-tau-1) read at t is p read at -t-1, and reflecting twice is p
        for cs in ([], [3], [1, 2], [0, 1, 1], [Fraction(1, 2), -1, 0, Fraction(2, 3)]):
            p = RealTauPolynomial(cs)
            flipped = _reflected(p)
            assert _reflected(flipped) == p and flipped.degree == p.degree
            for t in (Fraction(0), Fraction(-3, 2), Fraction(5)):
                assert _at(flipped, t) == _at(p, -t - 1), (cs, t)


def _at(p, t):
    """p read at the rational t."""
    return sum(c * t**k for k, c in enumerate(p.coeffs))


class TestPhaseReadout:
    """The checks run on rational values in x and P; the phase i^(m+|mu|) is
    attached where a value is printed.  These tests read the printed values
    against the paper's lambda-form statements in tests/series_reference.py,
    and a readout with a shifted phase must fail there."""

    SHIFTED = {
        "i^(m+|mu|+1)": lambda real: lambda r, m, weight: real(r, m, weight + 1),
        "i^m": lambda real: lambda r, m, weight: real(r, m, 0),
    }

    @staticmethod
    def tau_zero_matches(conn):
        """Every p_d coefficient at tau = 0, read through MVSeries.coefficient,
        is -(i)^(d+1)/(2d sin(d lambda/2)); every multi-row one is zero."""
        L = conn.lambda_order
        for d in range(1, conn.body.max_weight + 1):
            for mu in enumerate_partitions(d):
                series = conn.coefficient(mu)
                want = tau_zero_lambda_value(d, L) if mu.length == 1 else {}
                for k in range(-d, L + 1):
                    c = series.coefficient(k)
                    got = gaussian_coeffs(c)[0] if c else GaussianRational(0)
                    if got != want.get(k, GaussianRational(0)):
                        return False
        return True

    @staticmethod
    def genus0_matches(conn):
        """Every lambda^(l-2) p_mu coefficient, read through
        extract_C_gmu(...).poly, is -(i)^(|mu|+l) * P_mu * |mu|^(l-3)."""
        return all(
            gaussian_coeffs(extract_C_gmu(conn, 0, mu).poly) == genus0_lambda_value(mu)
            for d in range(1, 5)
            for mu in enumerate_partitions(d)
        )

    def test_tau_zero_value_in_lambda(self, series_pair_small):
        _, conn = series_pair_small
        assert self.tau_zero_matches(conn)

    def test_genus0_anchor_in_lambda(self, series_pair_small):
        _, conn = series_pair_small
        assert self.genus0_matches(conn)

    @pytest.mark.parametrize("phase", SHIFTED)
    def test_tau_zero_value_rejects_a_shifted_readout_phase(
        self, series_pair_small, monkeypatch, phase
    ):
        _, conn = series_pair_small
        monkeypatch.setattr(hodge, "readout", self.SHIFTED[phase](hodge.readout))
        assert not self.tau_zero_matches(conn)

    @pytest.mark.parametrize("phase", SHIFTED)
    def test_genus0_anchor_rejects_a_shifted_readout_phase(
        self, series_pair_small, monkeypatch, phase
    ):
        _, conn = series_pair_small
        monkeypatch.setattr(hodge, "readout", self.SHIFTED[phase](hodge.readout))
        assert not self.genus0_matches(conn)
