import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cutjoin.genfun import PartitionSeries
from cutjoin.partitions import (
    EMPTY,
    Partition,
    cut_join_incoming,
    enumerate_partitions,
)
from series_reference import ps_monomial, reference_linear, reference_nonlinear, sub

partitions_st = st.integers(0, 8).map(
    lambda n: enumerate_partitions(n)
).flatmap(st.sampled_from)


def euler_partition_count(n: int) -> int:
    """Pentagonal-number recurrence; the independent counting oracle."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


class TestBasics:
    def test_canonical_and_validation(self):
        assert Partition([1, 3, 2]).parts == (3, 2, 1)
        with pytest.raises(ValueError):
            Partition([2, 0])
        assert EMPTY.size == 0 and EMPTY.length == 0

    def test_parse_and_str(self):
        assert Partition.parse("3,2,1") == Partition([3, 2, 1])
        assert Partition.parse("") == EMPTY
        assert str(Partition([3, 2, 1])) == "3,2,1"
        assert Partition([3, 1]).to_json() == [3, 1]

    def test_enumeration_examples(self):
        assert enumerate_partitions(0) == (EMPTY,)
        assert [p.parts for p in enumerate_partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        assert len(enumerate_partitions(10)) == 42

    def test_counts_against_euler_recurrence(self):
        for n in range(26):
            assert len(enumerate_partitions(n)) == euler_partition_count(n)

    @given(partitions_st)
    def test_transpose_involution(self, mu):
        assert mu.transpose().transpose() == mu

    def test_kappa_examples(self):
        assert Partition([1]).kappa() == 0
        assert Partition([2]).kappa() == 2
        assert Partition([1, 1]).kappa() == -2
        assert Partition([3, 1]).kappa() == 4

    def test_kappa_identities(self):
        for d in range(13):
            for mu in enumerate_partitions(d):
                tr = mu.transpose()
                assert mu.kappa() + tr.kappa() == 0
                assert mu.kappa() == 2 * (tr.n_weight() - mu.n_weight())

    def test_hooks_examples(self):
        assert sorted(Partition([1]).hooks()) == [1]
        assert sorted(Partition([2, 1]).hooks()) == [1, 1, 3]
        assert sorted(Partition([3, 2]).hooks()) == [1, 1, 2, 3, 4]

    def test_hook_sum_identity(self):
        for d in range(13):
            for nu in enumerate_partitions(d):
                expected = nu.n_weight() + nu.transpose().n_weight() + nu.size
                assert sum(nu.hooks()) == expected

    def test_hook_product_divides_factorial(self):
        for d in range(1, 11):
            for nu in enumerate_partitions(d):
                prod = 1
                for h in nu.hooks():
                    prod *= h
                assert factorial(d) % prod == 0

    def test_half_hook_kappa_relation(self):
        # sum(h)/2 - n(nu) = kappa/4 + |nu|/2
        for d in range(1, 13):
            for nu in enumerate_partitions(d):
                lhs = Fraction(sum(nu.hooks()), 2) - nu.n_weight()
                assert lhs == Fraction(nu.kappa(), 4) + Fraction(nu.size, 2)

    def test_n_weight(self):
        for k in range(1, 6):
            assert Partition([k]).n_weight() == 0
        assert Partition([2, 1]).n_weight() == 1
        assert Partition([1, 1, 1]).n_weight() == 3

    @given(partitions_st)
    def test_n_weight_column_form(self, eta):
        cols = eta.transpose()
        assert eta.n_weight() == sum(c * (c - 1) // 2 for c in cols)

    def test_z_and_aut(self):
        mu = Partition([2, 2, 1])
        assert mu.aut_order() == 2
        assert mu.z() == 2 * 4 * 1  # 2! * 2^2 * 1! * 1^1
        prod_parts = 1
        for p in mu:
            prod_parts *= p
        assert mu.z() == mu.aut_order() * prod_parts


class TestClassSizes:
    def test_enumeration_oracle(self):
        # count permutations of each cycle type directly, d <= 6
        for d in range(1, 7):
            counts = {}
            for perm in itertools.permutations(range(d)):
                seen = [False] * d
                cycle_type = []
                for i in range(d):
                    if seen[i]:
                        continue
                    n, j = 0, i
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        n += 1
                    cycle_type.append(n)
                key = Partition(cycle_type)
                counts[key] = counts.get(key, 0) + 1
            for mu in enumerate_partitions(d):
                assert counts[mu] * mu.z() == factorial(d)

    def test_centralizer_sum(self):
        for d in range(1, 11):
            assert sum(Fraction(1, mu.z()) for mu in enumerate_partitions(d)) == 1
            for mu in enumerate_partitions(d):
                assert factorial(d) % mu.z() == 0


class TestCutJoin:
    def test_incoming_transposes_the_operator(self):
        # the derivative form of Omega is the oracle (the genfun operator
        # reads this table): the weight of nu -> mu is the coefficient of
        # p_mu in Omega(p_nu)
        for d in range(1, 9):
            images = {
                nu: reference_linear(ps_monomial(nu, Fraction(1), d))
                for nu in enumerate_partitions(d)
            }
            for mu in enumerate_partitions(d):
                column = {nu: im.terms[mu] for nu, im in images.items() if mu in im.terms}
                joins_into, cuts_into, _ = cut_join_incoming(mu)
                assert len(dict(joins_into)) == len(joins_into), mu
                assert len(dict(cuts_into)) == len(cuts_into), mu
                assert dict(joins_into) == {
                    nu: w for nu, w in column.items() if nu.length == mu.length - 1
                }, mu
                assert dict(cuts_into) == {
                    nu: w for nu, w in column.items() if nu.length == mu.length + 1
                }, mu
                assert len(column) == len(joins_into) + len(cuts_into), mu

    def test_splits_polarise_the_quadratic_part(self):
        # the quadratic part Q of the derivative-form operators is the
        # oracle: the weight of the unordered split {nu1, nu2} of mu is the
        # coefficient of p_mu in Q(p_nu1 + p_nu2) - Q(p_nu1) - Q(p_nu2), or in
        # Q(p_nu) when nu1 = nu2 = nu
        w = 7

        def quadratic(*nus):
            F = PartitionSeries({nu: Fraction(1) for nu in nus}, w)
            return sub(reference_nonlinear(F), reference_linear(F))

        shapes = [nu for d in range(1, w) for nu in enumerate_partitions(d)]
        squares = {nu: quadratic(nu) for nu in shapes}
        expected = {mu: {} for d in range(1, w + 1) for mu in enumerate_partitions(d)}
        for a, nu1 in enumerate(shapes):
            for nu2 in shapes[a:]:
                if nu1.size + nu2.size > w:
                    continue
                if nu1 == nu2:
                    part = squares[nu1]
                else:
                    part = sub(sub(quadratic(nu1, nu2), squares[nu1]), squares[nu2])
                for mu, c in part.terms.items():
                    if mu.size == nu1.size + nu2.size:
                        expected[mu][frozenset((nu1, nu2))] = c
        for mu, column in expected.items():
            splits = cut_join_incoming(mu)[2]
            table = {frozenset((nu1, nu2)): weight for nu1, nu2, weight in splits}
            assert len(table) == len(splits), mu
            assert all(isinstance(weight, int) for *_, weight in splits), mu
            assert table == column, mu

    def test_incoming(self):
        assert cut_join_incoming(Partition([2])) == (
            (),
            ((Partition([1, 1]), 2),),
            ((Partition([1]), Partition([1]), 1),),
        )
        assert cut_join_incoming(Partition([1, 1])) == (((Partition([2]), 2),), (), ())
        assert cut_join_incoming(Partition([2, 1])) == (
            ((Partition([3]), 6),),
            ((Partition([1, 1, 1]), 6),),
            ((Partition([1, 1]), Partition([1]), 4),),
        )

    def test_merged_splits(self):
        # splitting a 3-row: the ordered (1, 2) and (2, 1) terms, weight 2
        # each, merge into one unordered pair
        assert cut_join_incoming(Partition([3]))[2] == ((Partition([2]), Partition([1]), 4),)
        # (3, 1): the part 3 splits with the 1 on either side, and the 1 has
        # nothing to split
        assert dict(
            (frozenset((nu1, nu2)), w) for nu1, nu2, w in cut_join_incoming(Partition([3, 1]))[2]
        ) == {
            frozenset((Partition([2, 1]), Partition([1]))): 4,
            frozenset((Partition([2]), Partition([1, 1]))): 8,
        }

    def test_incoming_rejects_the_empty_partition(self):
        with pytest.raises(ValueError):
            cut_join_incoming(EMPTY)
