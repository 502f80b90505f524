import time
from fractions import Fraction
from math import factorial

import pytest

from cutjoin import genfun
from cutjoin.hurwitz import (
    BudgetExceededError,
    branch_count,
    canonical_permutation,
    elsv_check,
    elsv_value,
    hurwitz_bruteforce,
    hurwitz_connected,
    hurwitz_cutjoin_check,
    hurwitz_disconnected,
    linear_hodge_factor,
    solve_hodge_from_hurwitz,
    transpositions,
)
from cutjoin.characters import character, dimension
from cutjoin.exact import LaurentSeries
from cutjoin.genfun import PartitionSeries, _column_coefficient
from cutjoin.partitions import Partition, enumerate_partitions
from series_reference import connected_cover_table

P = Partition


def enumerate_reference(r, mu, transitive_only=False):
    """Visit every r-tuple of transpositions one by one; for transitivity,
    union the moved points of each transposition and the cycles of sigma."""
    d = mu.size
    trans = transpositions(d)
    sigma = canonical_permutation(mu)
    sigma_cycles, seen = [], set()
    for i in range(d):
        if i not in seen:
            cyc = [i]
            while sigma[cyc[-1]] != i:
                cyc.append(sigma[cyc[-1]])
            seen.update(cyc)
            sigma_cycles.append(cyc)

    def transitive(tuples):
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        links = [[i for i in range(d) if t[i] != i] for t in tuples] + sigma_cycles
        for link in links:
            for x in link[1:]:
                parent[find(x)] = find(link[0])
        return len({find(x) for x in range(d)}) == 1

    count = 0
    stack = []

    def rec(depth, prod):
        nonlocal count
        if depth == r:
            if prod == sigma and (not transitive_only or transitive(stack)):
                count += 1
            return
        for t in trans:
            stack.append(t)
            rec(depth + 1, tuple(t[prod[i]] for i in range(d)))
            stack.pop()

    rec(0, tuple(range(d)))
    return Fraction(count, mu.z())


class TestBruteForce:
    def test_spec_anchors(self):
        assert hurwitz_bruteforce(3, P([2]), transitive_only=True) == Fraction(1, 2)
        assert hurwitz_bruteforce(2, P([3]), transitive_only=True) == 1
        assert hurwitz_bruteforce(2, P([1])) == 0  # no transpositions in S_1
        assert hurwitz_bruteforce(0, P([1]), transitive_only=True) == 1

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            hurwitz_bruteforce(8, P([4]), budget=10)

    def test_budget_guard_huge_exponent(self):
        with pytest.raises(BudgetExceededError, match=r"estimated 15\^1000000000 tuples"):
            hurwitz_bruteforce(10**9, P([6]))
        assert hurwitz_bruteforce(0, P([2]), budget=1) == 0
        with pytest.raises(BudgetExceededError):
            hurwitz_bruteforce(0, P([2]), budget=0)

    def test_budget_guard_counts_layers(self):
        # with at most one transposition there is at most one tuple, so only
        # the layer count r can exceed the budget
        with pytest.raises(BudgetExceededError, match=r"estimated 1000000000 layers"):
            hurwitz_bruteforce(10**9, P([2]))
        with pytest.raises(BudgetExceededError, match=r"estimated 5 layers exceeds the budget of 4"):
            hurwitz_bruteforce(5, P([1, 1]), budget=4)
        assert hurwitz_bruteforce(5, P([2]), budget=5) == Fraction(1, 2)
        assert hurwitz_bruteforce(5, P([1]), budget=5) == 0

    def test_negative_branch_count_rejected(self):
        with pytest.raises(ValueError, match="r >= 0"):
            hurwitz_bruteforce(-1, P([1]))

    @pytest.mark.parametrize("transitive_only", [False, True])
    def test_matches_reference_enumeration(self, transitive_only):
        cases = [(mu, r) for d in range(1, 5) for mu in enumerate_partitions(d) for r in range(7)]
        cases += [(mu, r) for mu in enumerate_partitions(5) for r in range(5)]
        for mu, r in cases:
            assert hurwitz_bruteforce(r, mu, transitive_only) == enumerate_reference(
                r, mu, transitive_only
            ), (mu, r)

    def test_transitivity_negative_control(self):
        # (t, t) for each of the 3 transpositions: a product of 1 in S_3, over z = 6
        assert hurwitz_bruteforce(2, P([1, 1, 1])) == Fraction(1, 2)
        assert hurwitz_bruteforce(2, P([1, 1, 1]), transitive_only=True) == 0

    def test_layers_stay_small(self):
        # 21^6 ~ 8.6e7 tuples; only the geodesic states to sigma survive
        start = time.perf_counter()
        value = hurwitz_bruteforce(6, P([7]), transitive_only=True, budget=10**8)
        assert time.perf_counter() - start < 1.0
        assert value == hurwitz_connected(0, P([7])) == 2401

    def test_transpositions_and_canonical_permutation(self):
        assert len(transpositions(4)) == 6
        assert canonical_permutation(P([3, 2])) == (1, 2, 0, 4, 3)


class TestCharacterFormula:
    def test_spec_values(self):
        assert hurwitz_disconnected(0, P([1, 1])) == Fraction(1, 2)
        assert hurwitz_disconnected(1, P([2])) == Fraction(1, 2)
        assert hurwitz_disconnected(2, P([3])) == 1

    def test_matches_bruteforce(self):
        for d in range(1, 4):
            for mu in enumerate_partitions(d):
                for r in range(6):
                    assert hurwitz_disconnected(r, mu) == hurwitz_bruteforce(r, mu)

    def test_matches_bruteforce_degrees_5_and_6(self):
        for d in (5, 6):
            for mu in enumerate_partitions(d):
                for r in range(6):
                    assert hurwitz_disconnected(r, mu) == hurwitz_bruteforce(r, mu), (mu, r)

    def test_parity_vanishing(self):
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                for r in range(7):
                    if (r - d - mu.length) % 2 != 0:
                        assert hurwitz_disconnected(r, mu) == 0

    def test_nonnegative(self):
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                for r in range(7):
                    assert hurwitz_disconnected(r, mu) >= 0

    @staticmethod
    def _fraction_sum(r, mu):
        """sum_nu dim(nu) * chi_nu(mu) * (kappa_nu/2)^r / (z_mu * d!), term by
        term in fractions."""
        d = mu.size
        total = sum(
            dimension(nu) * character(nu, mu) * Fraction(nu.kappa(), 2) ** r
            for nu in enumerate_partitions(d)
        )
        return total / (mu.z() * factorial(d))

    def test_integer_sum_equals_the_fraction_sum(self):
        for d in range(1, 7):
            for mu in enumerate_partitions(d):
                for r in range(13):
                    assert hurwitz_disconnected(r, mu) == self._fraction_sum(r, mu), (mu, r)

    def test_integer_sum_equals_the_fraction_sum_at_large_r(self):
        mu = P([3, 2, 1])
        assert hurwitz_disconnected(500, mu) == self._fraction_sum(500, mu)


class TestConnected:
    def test_anchors(self):
        assert hurwitz_connected(0, P([2])) == Fraction(1, 2)
        assert hurwitz_connected(0, P([3])) == 1
        assert hurwitz_connected(1, P([2])) == Fraction(1, 2)
        assert hurwitz_connected(0, P([2, 2])) == 12

    def test_negative_branch_count_is_zero(self):
        assert branch_count(0, P([1])) == 0
        assert hurwitz_connected(-1, P([1])) == 0

    def test_equals_the_log_of_rows_cut_at_one_order(self):
        # every |mu| <= 6 at g <= 4 against one table of the r-graded log,
        # whose x^r coefficient holds for every r up to its order 18
        table = connected_cover_table(6, 18)
        checked = 0
        for d in range(1, 7):
            for mu in enumerate_partitions(d):
                for g in range(5):
                    r = branch_count(g, mu)
                    if r >= 0:
                        expected = table.terms[mu].coefficient(r) * factorial(r)
                        assert hurwitz_connected(g, mu) == expected, (g, mu)
                        checked += 1
        assert checked == 145

    def test_equals_the_log_of_rows_near_the_branch_point_cap(self):
        mu = P([4, 4])
        r = branch_count(16, mu)
        assert r == 40
        expected = connected_cover_table(8, r).terms[mu].coefficient(r) * factorial(r)
        assert hurwitz_connected(16, mu) == expected

    def test_a_larger_r_at_a_built_degree_logs_nothing(self, monkeypatch):
        # one table per degree serves every branch count; a cover of type
        # (2, 1) is connected or a cover of type (2), of count 1/2 at odd r,
        # beside an unbranched sheet
        mu = P([2, 1])
        assert hurwitz_connected(0, mu) == 4
        logged = []
        log = genfun.ps_log
        monkeypatch.setattr(genfun, "ps_log", lambda G: logged.append(G) or log(G))
        assert hurwitz_connected(20, mu) == hurwitz_disconnected(43, mu) - Fraction(1, 2)
        assert logged == []

    def test_matches_transitive_bruteforce(self):
        for d in range(1, 4):
            for mu in enumerate_partitions(d):
                for g in range(3):
                    r = branch_count(g, mu)
                    if 0 <= r <= 5:
                        assert hurwitz_connected(g, mu) == hurwitz_bruteforce(
                            r, mu, transitive_only=True
                        )

    def test_matches_transitive_bruteforce_degrees_5_and_6(self):
        for d in (5, 6):
            for mu in enumerate_partitions(d):
                for r in range(6):
                    brute = hurwitz_bruteforce(r, mu, transitive_only=True)
                    twice_g = r + 2 - d - mu.length
                    if twice_g % 2:
                        assert brute == 0, (mu, r)
                    else:
                        assert hurwitz_connected(twice_g // 2, mu) == brute, (mu, r)


class TestElsv:
    def test_hodge_factor_values(self):
        assert linear_hodge_factor(0, P([3])) == Fraction(1, 9)
        assert linear_hodge_factor(0, P([2, 1])) == Fraction(1, 3)
        assert linear_hodge_factor(1, P([2])) == Fraction(1, 24)  # (d-1)/24
        assert linear_hodge_factor(1, P([3])) == Fraction(2, 24)
        assert linear_hodge_factor(1, P([1, 1])) == Fraction(1, 24)
        assert linear_hodge_factor(1, P([1, 1, 1])) == Fraction(1, 3)
        assert linear_hodge_factor(1, P([1] * 6)) == 575
        with pytest.raises(ValueError):
            linear_hodge_factor(2, P([1]))

    def test_values(self):
        assert elsv_value(0, P([3])) == 1
        assert elsv_value(0, P([2, 2])) == 12
        assert elsv_value(1, P([2])) == Fraction(1, 2)

    def test_checks(self):
        for d in range(1, 6):
            for mu in enumerate_partitions(d):
                assert elsv_check(0, mu), mu
        for d in range(1, 9):
            for mu in enumerate_partitions(d):
                assert elsv_check(1, mu), mu
        with pytest.raises(ValueError):
            elsv_check(2, P([2]))

    def test_genus1_against_transitive_bruteforce(self):
        # a route to the cover count that uses no characters
        for d in range(1, 5):
            for mu in enumerate_partitions(d):
                brute = hurwitz_bruteforce(branch_count(1, mu), mu, transitive_only=True)
                assert elsv_value(1, mu) == brute, mu

    def test_reverse_solve(self):
        assert solve_hodge_from_hurwitz([2, 3]) == {
            "psi": Fraction(1, 24),
            "lambda": Fraction(1, 24),
        }
        assert solve_hodge_from_hurwitz([2, 3, 4]) == {
            "psi": Fraction(1, 24),
            "lambda": Fraction(1, 24),
        }

    def test_reverse_solve_needs_two_degrees(self):
        with pytest.raises(ValueError, match="two degrees"):
            solve_hodge_from_hurwitz([2])


class TestCutJoinRecursion:
    def test_worked_examples(self):
        assert hurwitz_cutjoin_check(0, P([2]))
        assert hurwitz_cutjoin_check(0, P([3]))
        assert hurwitz_cutjoin_check(1, P([2]))

    def test_range(self):
        checked = 0
        for g in range(4):
            for d in range(1, 7):
                for mu in enumerate_partitions(d):
                    assert hurwitz_cutjoin_check(g, mu), (g, mu)
                    checked += branch_count(g, mu) >= 1
        assert checked == 115

    def test_raw_counts_fail_the_recursion(self):
        # the 1/r! is what absorbs the split binomial C(r - 1, r1): on the
        # r-graded log of h = H/r! the column gives r * h at (1, (2, 1)), and
        # on the raw counts H the same column misses r * H
        mu = P([2, 1])
        r = branch_count(1, mu)
        assert hurwitz_cutjoin_check(1, mu)
        h = connected_cover_table(mu.size, r)
        assert _column_coefficient(h, mu, r - 1) * Fraction(1, 2) == r * h.terms[mu].coefficient(r)
        raw = {
            nu: LaurentSeries(s.min_exp, [c * factorial(n) for n, c in s.items()], s.trunc_order)
            for nu, s in h.terms.items()
        }
        raw = PartitionSeries(raw, h.max_weight)
        assert raw.terms[mu].coefficient(r) == hurwitz_connected(1, mu)
        assert _column_coefficient(raw, mu, r - 1) * Fraction(1, 2) != r * hurwitz_connected(1, mu)
