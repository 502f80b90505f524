from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cutjoin.genfun import (
    PartitionSeries,
    character_cutjoin_identity,
    cut_join_linear,
    cut_join_nonlinear,
    ps_exp,
    ps_log,
)
from cutjoin.partitions import EMPTY, Partition, enumerate_partitions

P = Partition

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
all_partitions = [mu for d in range(1, 6) for mu in enumerate_partitions(d)]
series_st = st.dictionaries(
    st.sampled_from(all_partitions), small_fractions, max_size=5
).map(lambda d: PartitionSeries(d, 6))


def mono(mu, c=Fraction(1), w=6):
    return PartitionSeries.monomial(P(mu), c, w)


# -- reference algorithms: the whole-series forms the graded and capped
# -- algorithms in genfun replace; results must agree exactly


def reference_exp(F):
    """exp(F) = sum_k F^k / k!, each power formed at the full weight cap."""
    w = F.max_weight
    result = PartitionSeries.monomial(EMPTY, 1, w)
    term = PartitionSeries.monomial(EMPTY, 1, w)
    for k in range(1, w + 1):
        term = (term * F).scale(Fraction(1, k))
        if not term.terms:
            break
        result = result + term
    return result


def reference_log(G):
    """log(G) = sum_k (-1)^(k+1) (G - 1)^k / k, each power at the full cap."""
    w = G.max_weight
    H = PartitionSeries({m: c for m, c in G.terms.items() if m.size > 0}, w)
    result = PartitionSeries.zero(w)
    power = PartitionSeries.monomial(EMPTY, 1, w)
    for k in range(1, w + 1):
        power = power * H
        if not power.terms:
            break
        result = result + power.scale(Fraction((-1) ** (k + 1), k))
    return result


def reference_nonlinear(F):
    """Omega(F) plus the quadratic term with dF/dp_i * dF/dp_j formed at the
    full cap, leaving mul_p to drop what lands above it."""
    out = cut_join_linear(F)
    w = F.max_weight
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    derivs = {i: F.d_dp(i) for i in range(1, maxpart + 1)}
    for i in range(1, maxpart + 1):
        for j in range(1, maxpart + 1):
            if i + j > w:
                continue
            prod = derivs[i] * derivs[j]
            if prod.terms:
                out = out + prod.mul_p(i + j).scale(i * j)
    return out


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

    def test_to_json_fixture_form(self):
        f = mono([2], Fraction(1, 3)) + mono([1])
        assert f.to_json() == {
            "max_weight": 6,
            "terms": [
                {"partition": [1], "coefficient": "1/1"},
                {"partition": [2], "coefficient": "1/3"},
            ],
        }

    @given(series_st, st.integers(1, 4))
    def test_heisenberg_relation(self, f, i):
        # d/dp_i (p_i * F) - p_i * (dF/dp_i) = F, on terms whose product
        # with p_i stays under the weight cap
        g = PartitionSeries(
            {m: c for m, c in f.terms.items() if m.size + i <= f.max_weight},
            f.max_weight,
        )
        lhs = g.mul_p(i).d_dp(i) + g.d_dp(i).mul_p(i).scale(-1)
        assert lhs == g


class TestExpLog:
    def test_exp_of_p1(self):
        e = ps_exp(mono([1], w=5))
        for k in range(6):
            from math import factorial

            assert e.coefficient(P([1] * k)) == Fraction(1, factorial(k))

    def test_exp_of_zero(self):
        e = ps_exp(PartitionSeries.zero(4))
        assert e.coefficient(EMPTY) == 1 and len(e.terms) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError, match="constant term"):
            ps_exp(PartitionSeries.monomial(EMPTY, Fraction(1), 4))
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
        both = cut_join_linear(f + g.scale(Fraction(5)))
        assert both == cut_join_linear(f) + cut_join_linear(g).scale(Fraction(5))
        for mu, _ in cut_join_linear(f + g).terms.items():
            assert mu.size == 3

    def test_schur_eigenvector_example(self):
        # (1/2) Omega(s_(2)) = s_(2):  s_(2) = (p_1^2 + p_2)/2
        s2 = mono([1, 1], Fraction(1, 2)) + mono([2], Fraction(1, 2))
        assert cut_join_linear(s2).scale(Fraction(1, 2)) == s2
        # and the sign flip for the transpose shape
        s11 = mono([1, 1], Fraction(1, 2)) + mono([2], Fraction(-1, 2))
        assert cut_join_linear(s11).scale(Fraction(1, 2)) == s11.scale(Fraction(-1))

    def test_nonlinear_examples(self):
        assert cut_join_nonlinear(PartitionSeries.zero(5)).terms == {}
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
        g = f + PartitionSeries.monomial(EMPTY, 1, f.max_weight)
        assert ps_log(g) == reference_log(g)
        assert cut_join_nonlinear(f) == reference_nonlinear(f)

    def test_log_of_disconnected_series(self, series_pair_small):
        star, _ = series_pair_small
        assert ps_log(star.body) == reference_log(star.body)

    def test_exp_of_connected_series(self, series_pair_small):
        _, conn = series_pair_small
        assert ps_exp(conn.body) == reference_exp(conn.body)

    def test_nonlinear_on_mv_series(self, series_pair_small):
        for series in series_pair_small:
            assert cut_join_nonlinear(series.body) == reference_nonlinear(series.body)

    def test_nonlinear_drops_nothing_in_mul_p(self, series_pair_small, monkeypatch):
        # every operand reaching mul_p(k) is already capped at W - k, so the
        # weight cap removes no term formed by the operator
        plain = PartitionSeries.mul_p
        seen = []

        def checked(self, k):
            seen.append(k)
            assert all(mu.size + k <= self.max_weight for mu in self.terms)
            return plain(self, k)

        monkeypatch.setattr(PartitionSeries, "mul_p", checked)
        for series in series_pair_small:
            cut_join_nonlinear(series.body)
        assert seen
