from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from cutjoin import genfun, partitions
from cutjoin.cli import SUITES, RunConfig
from cutjoin.genfun import (
    PartitionSeries,
    character_cutjoin_identity,
    cut_join_linear,
    cut_join_nonlinear,
    ps_exp,
    ps_log,
)
from cutjoin.exact import RealTauPolynomial, _dot
from cutjoin.hodge import build_series_pair, cutjoin_derivative_check, theorem1_verdicts
from cutjoin.hurwitz import hurwitz_cutjoin_check
from cutjoin.partitions import EMPTY, Partition, enumerate_partitions
from series_reference import (
    d_dp,
    ps_monomial,
    ps_zero,
    ref_add,
    ref_merge,
    reference_linear,
    reference_nonlinear,
)

P = Partition

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
all_partitions = [mu for d in range(1, 6) for mu in enumerate_partitions(d)]
series_st = st.dictionaries(
    st.sampled_from(all_partitions), small_fractions, max_size=5
).map(lambda d: PartitionSeries(d, 6))

poly_coeffs = small_fractions | st.lists(small_fractions, min_size=1, max_size=3).map(
    RealTauPolynomial
)
capped_series_st = st.builds(
    PartitionSeries,
    st.dictionaries(st.sampled_from(all_partitions), poly_coeffs, max_size=4),
    st.integers(0, 6),
)
scalars = poly_coeffs | st.integers(-3, 3) | st.just(RealTauPolynomial())
ps_operands = capped_series_st | scalars


def mono(mu, c=Fraction(1), w=6):
    return ps_monomial(P(mu), c, w)


# -- plain references for sums, apart from `_dot`


def _as_terms(x):
    """(terms, cap) of a series; a scalar is the p_{} coefficient under no cap."""
    if isinstance(x, PartitionSeries):
        return list(x.terms.items()), x.max_weight
    return [(EMPTY, x)], None


def ref_series_sum(pairs):
    """sum A*B over pairs of series and scalars: every product term, merged
    one at a time under the least cap."""
    terms, caps = [], []
    for A, B in pairs:
        (left, cap_a), (right, cap_b) = _as_terms(A), _as_terms(B)
        caps += [c for c in (cap_a, cap_b) if c is not None]
        for m1, c1 in left:
            for m2, c2 in right:
                terms.append((Partition(m1.parts + m2.parts), c1 * c2))
    return ref_merge(terms, min(caps))


# -- reference algorithms: the whole-series forms the graded and capped
# -- algorithms in genfun replace; results must agree exactly (the operator
# -- references are in series_reference)


def reference_exp(F):
    """exp(F) = sum_k F^k / k!, each power formed at the full weight cap."""
    w = F.max_weight
    result = ps_monomial(EMPTY, 1, w)
    term = ps_monomial(EMPTY, 1, w)
    for k in range(1, w + 1):
        term = term * F * Fraction(1, k)
        if not term.terms:
            break
        result = result + term
    return result


def reference_log(G):
    """log(G) = sum_k (-1)^(k+1) (G - 1)^k / k, each power at the full cap."""
    w = G.max_weight
    H = PartitionSeries({m: c for m, c in G.terms.items() if m.size > 0}, w)
    result = ps_zero(w)
    power = ps_monomial(EMPTY, 1, w)
    for k in range(1, w + 1):
        power = power * H
        if not power.terms:
            break
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


def assert_same_series(got, want):
    """Equal caps and equal terms; Laurent coefficients compare their
    min_exp and truncation order too."""
    assert got.max_weight == want.max_weight
    assert got.terms.keys() == want.terms.keys()
    for mu, c in got.terms.items():
        assert c == want.terms[mu]
        if hasattr(c, "trunc_order"):
            assert (c.min_exp, c.trunc_order) == (want.terms[mu].min_exp, want.terms[mu].trunc_order)


class TestPartitionSeries:
    def test_product_merges_monomials(self):
        f = mono([1]) + mono([2])
        sq = f * f
        assert sq.coefficient(P([1, 1])) == 1
        assert sq.coefficient(P([2, 1])) == 2
        assert sq.coefficient(P([2, 2])) == 1

    def test_weight_truncation(self):
        f = mono([3], w=4)
        assert (f * f).terms == {}

    @given(series_st, series_st, series_st)
    @settings(max_examples=40)
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    # a zero scalar, int, Fraction and polynomial scalars, and an empty series
    @example([(mono([1], w=3), 0), (2, ps_zero(5))])
    @example([(mono([2], w=4), Fraction(1, 2)), (RealTauPolynomial([1, 1]), 3)])
    @example([(mono([1], Fraction(-1), w=2), 1), (mono([1], w=6), 1), (1, 1)])
    @given(st.lists(st.tuples(ps_operands, ps_operands), min_size=1, max_size=4).filter(
        lambda pairs: any(isinstance(x, PartitionSeries) for pair in pairs for x in pair)
    ))
    @settings(max_examples=60)
    def test_dot_is_the_left_to_right_sum(self, pairs):
        # series with different caps: the sum lives under the least one
        got = _dot(pairs)
        assert_same_series(got, ref_series_sum(pairs))
        for c in got.terms.values():
            assert c
            if isinstance(c, RealTauPolynomial):
                assert c.den > 0 and gcd(c.den, *c.nums) == 1 and c.nums[-1]

    @given(capped_series_st, capped_series_st, scalars)
    def test_sum_and_scalar_multiple(self, a, b, c):
        # + and the scalar * are _dot calls; the references are not
        assert_same_series(a + b, ref_add(a, b))
        assert_same_series(a * c, ref_merge([(m, x * c) for m, x in a.terms.items()], a.max_weight))

    def test_to_json_fixture_form(self):
        f = mono([2], Fraction(1, 3)) + mono([1])
        assert f.to_json() == {
            "max_weight": 6,
            "terms": [
                {"partition": [1], "coefficient": "1/1"},
                {"partition": [2], "coefficient": "1/3"},
            ],
        }

    def test_truthiness_sum_and_scalars(self):
        f = mono([2], Fraction(1, 3)) + mono([1])
        assert f and not ps_zero(6)
        assert f + f == f * 2
        assert f * Fraction(3) == mono([2]) + mono([1], Fraction(3))
        zero = f * 0
        assert zero.terms == {} and zero.max_weight == 6

    @given(series_st, st.integers(1, 4))
    def test_heisenberg_relation(self, f, i):
        # d/dp_i (p_i * F) - p_i * (dF/dp_i) = F, on terms whose product
        # with p_i stays under the weight cap
        g = PartitionSeries(
            {m: c for m, c in f.terms.items() if m.size + i <= f.max_weight},
            f.max_weight,
        )
        lhs = d_dp(g.mul_p(i), i) + d_dp(g, i).mul_p(i) * -1
        assert lhs == g


class TestExpLog:
    def test_exp_of_p1(self):
        e = ps_exp(mono([1], w=5))
        for k in range(6):
            from math import factorial

            assert e.coefficient(P([1] * k)) == Fraction(1, factorial(k))

    def test_exp_of_zero(self):
        e = ps_exp(ps_zero(4))
        assert e.coefficient(EMPTY) == 1 and len(e.terms) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError, match="constant term"):
            ps_exp(ps_monomial(EMPTY, Fraction(1), 4))
        with pytest.raises(ValueError, match="constant term 1"):
            ps_log(mono([1]))

    def test_log_exp_example(self):
        f = mono([1], Fraction(2, 3)) + mono([2], Fraction(-1, 5))
        assert ps_log(ps_exp(f)) == f

    @given(series_st)
    def test_roundtrip(self, f):
        assert ps_log(ps_exp(f)) == f


class TestOperators:
    def test_linear_examples(self):
        assert cut_join_linear(mono([2])) == mono([1, 1], Fraction(2))
        assert cut_join_linear(mono([1, 1])) == mono([2], Fraction(2))

    def test_linear_is_linear_and_weight_preserving(self):
        f, g = mono([2, 1]), mono([3])
        both = cut_join_linear(f + g * Fraction(5))
        assert both == cut_join_linear(f) + cut_join_linear(g) * Fraction(5)
        for mu, _ in cut_join_linear(f + g).terms.items():
            assert mu.size == 3

    def test_schur_eigenvector_example(self):
        # (1/2) Omega(s_(2)) = s_(2):  s_(2) = (p_1^2 + p_2)/2
        s2 = mono([1, 1], Fraction(1, 2)) + mono([2], Fraction(1, 2))
        assert cut_join_linear(s2) * Fraction(1, 2) == s2
        # and the sign flip for the transpose shape
        s11 = mono([1, 1], Fraction(1, 2)) + mono([2], Fraction(-1, 2))
        assert cut_join_linear(s11) * Fraction(1, 2) == s11 * Fraction(-1)

    def test_nonlinear_examples(self):
        assert cut_join_nonlinear(ps_zero(5)).terms == {}
        assert cut_join_nonlinear(mono([1])) == mono([2])

    @given(series_st)
    @settings(max_examples=30, deadline=None)
    def test_exp_conjugation(self, f):
        e = ps_exp(f)
        assert cut_join_linear(e) == e * cut_join_nonlinear(f)

    def test_character_identity(self):
        for d in range(1, 7):
            for nu in enumerate_partitions(d):
                assert character_cutjoin_identity(nu)


class TestAgainstReferences:
    @given(series_st)
    @settings(max_examples=30, deadline=None)
    def test_exp_log_nonlinear_random(self, f):
        assert ps_exp(f) == reference_exp(f)
        g = f + ps_monomial(EMPTY, 1, f.max_weight)
        assert ps_log(g) == reference_log(g)
        assert_same_series(cut_join_linear(f), reference_linear(f))
        assert_same_series(cut_join_nonlinear(f), reference_nonlinear(f))

    def test_exp_log_with_empty_middle_weights(self):
        # only weights 2 and 5 carry terms, so the series in the weight
        # variable has zero coefficients below, between and above them
        f = mono([2], Fraction(1, 2)) + mono([3, 2], Fraction(-3, 7))
        assert ps_exp(f) == reference_exp(f)
        g = f + ps_monomial(EMPTY, 1, f.max_weight)
        assert ps_log(g) == reference_log(g)
        assert ps_log(ps_exp(f)) == f

    def test_log_of_disconnected_series(self, series_pair_small):
        star, _ = series_pair_small
        assert ps_log(star.body) == reference_log(star.body)

    def test_exp_of_connected_series(self, series_pair_small):
        _, conn = series_pair_small
        assert ps_exp(conn.body) == reference_exp(conn.body)

    def test_linear_on_mv_series(self, series_pair_small):
        for series in series_pair_small:
            for F in (series.body, series.truncated):
                assert_same_series(cut_join_linear(F), reference_linear(F))

    def test_nonlinear_on_mv_series(self, series_pair_small):
        for series in series_pair_small:
            for F in (series.body, series.truncated):
                assert_same_series(cut_join_nonlinear(F), reference_nonlinear(F))

    def test_operators_on_a_series_with_no_terms(self):
        for op in (cut_join_linear, cut_join_nonlinear, reference_linear, reference_nonlinear):
            out = op(ps_zero(5))
            assert isinstance(out, PartitionSeries) and (out.terms, out.max_weight) == ({}, 5)
        # only a constant term: no derivative, so no operator term either
        out = cut_join_nonlinear(ps_monomial(EMPTY, 3, 4))
        assert (out.terms, out.max_weight) == ({}, 4)

    def test_nonlinear_forms_each_split_product_once_under_the_cap(self, monkeypatch):
        # every product the operator forms is of the coefficients of F at
        # nu1 and nu2 (the second scaled by an integer weight) with
        # |nu1| + |nu2| <= W, so the weight cap removes no term it formed;
        # the ordered split terms of one target are merged by unordered
        # {nu1, nu2}, so each product is formed once per target
        _, conn = build_series_pair(6, 12)
        F = conn.truncated
        w = F.max_weight
        at = {id(c): mu for mu, c in F.terms.items()}
        products = []

        def recorded(pairs):
            for a, b in pairs:
                assert id(a) in at
                if not isinstance(b, int):
                    products.append((at[id(a)], b))
            return _dot(pairs)

        monkeypatch.setattr(genfun, "_dot", recorded)
        cut_join_nonlinear(F)
        for nu1, b in products:
            assert _is_scaled_coefficient(b, F, w - nu1.size), nu1
        assert len(products) == 61


def _is_scaled_coefficient(b, F, room):
    """Whether the Laurent series b over tau-polynomials is a positive
    integer multiple of the coefficient of F at a partition of weight at
    most room; the multiple is the ratio of the leading rationals."""
    lead = b.coeffs[0].coeffs[-1]
    for nu, c in F.terms.items():
        if nu.size <= room and (c.min_exp, len(c.coeffs)) == (b.min_exp, len(b.coeffs)):
            k = lead / c.coeffs[0].coeffs[-1]
            if k.denominator == 1 and k > 0 and c * k == b:
                return True
    return False


@pytest.fixture
def perturb(monkeypatch):
    """Put one weight of the cut-and-join table off by one: add 1 to the
    first entry of column `which` (0 joins, 1 cuts, 2 splits) of every
    partition that has one.  The cache sits under the patched name, so the
    perturbed run reads no column cached before it and no later test reads a
    perturbed one."""
    real = partitions.cut_join_incoming

    def patch(which):
        def perturbed(mu):
            table = list(real(mu))
            if table[which]:
                (*key, weight), *rest = table[which]
                table[which] = ((*key, weight + 1), *rest)
            return tuple(table)

        monkeypatch.setattr(partitions, "cut_join_incoming", perturbed)

    return patch


class TestPerturbedTables:
    """Negative controls: one weight of the table off by one must fail the
    identities that read it."""

    def test_join_weight(self, perturb):
        assert theorem1_verdicts(4, 8) == (True, True)
        perturb(0)
        assert not all(
            character_cutjoin_identity(nu) for d in range(1, 5) for nu in enumerate_partitions(d)
        )
        assert not theorem1_verdicts(4, 8)[0]

    def test_merged_split_weight(self, perturb, series_pair_small):
        # the whole-series operator and both per-genus recursions read the
        # same merged split, so all of them fail
        _, conn = series_pair_small
        shapes = [mu for d in range(1, 5) for mu in enumerate_partitions(d)]
        grid = [(g, mu) for g in range(3) for mu in shapes]
        assert all(cutjoin_derivative_check(conn, g, mu) for g, mu in grid)
        assert all(hurwitz_cutjoin_check(g, mu) for g, mu in grid)
        perturb(2)
        assert theorem1_verdicts(4, 8) == (True, False)
        verdicts = {r.check_id: r.passed for r in SUITES["cutjoin-id"](RunConfig(seed=1))}
        assert not verdicts["cutjoin-id/random-conjugation"]
        assert verdicts["cutjoin-id/random-exp-log"]
        assert not all(cutjoin_derivative_check(conn, g, mu) for g, mu in grid)
        assert not all(hurwitz_cutjoin_check(g, mu) for g, mu in grid)

    def test_cut_weight_shows_in_the_schur_eigenvalue_check(self, perturb):
        # the eigenvalues come from the character table, not from the
        # weight rule, so a perturbed cut weight shows
        perturb(1)
        failed = {r.check_id for r in SUITES["cutjoin-id"](RunConfig()) if not r.passed}
        assert {f"cutjoin-id/d={d}" for d in range(2, 9)} <= failed
