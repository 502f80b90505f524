from fractions import Fraction

import pytest

from cutjoin.characters import (
    central_character_transposition,
    character,
    character_table,
    dimension,
    dimension_hook,
    principal_specialization_check,
    schur_in_p,
    schur_principal_specialization,
)
from cutjoin.exact import QHalfLaurent
from cutjoin.genfun import PartitionSeries
from cutjoin.partitions import Partition, enumerate_partitions
from series_reference import q_add, q_neg

P = Partition


def one_minus(half_exp):
    """1 - y**half_exp, by the test-side sum and negation."""
    one, power = QHalfLaurent.monomial(1, 0), QHalfLaurent.monomial(1, half_exp)
    return q_add(one, q_neg(power))

# S_3 by hand: rows (3), (2,1), (1,1,1); columns (3), (2,1), (1,1,1)
S3_TABLE = {
    ((3,), (3,)): 1, ((3,), (2, 1)): 1, ((3,), (1, 1, 1)): 1,
    ((2, 1), (3,)): -1, ((2, 1), (2, 1)): 0, ((2, 1), (1, 1, 1)): 2,
    ((1, 1, 1), (3,)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (1, 1, 1)): 1,
}


class TestCharacter:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size mismatch"):
            character(P([2]), P([3]))

    def test_trivial_and_sign(self):
        for d in range(1, 7):
            for mu in enumerate_partitions(d):
                assert character(P([d]), mu) == 1
                assert character(P([1] * d), mu) == (-1) ** (d - mu.length)

    def test_s3_by_hand(self):
        for (nu, mu), value in S3_TABLE.items():
            assert character(P(nu), P(mu)) == value

    def test_spec_anchors(self):
        assert character(P([2, 1]), P([3])) == -1
        assert character(P([2, 1]), P([1, 1, 1])) == 2

    def test_first_orthogonality(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d)
            for nu in parts:
                for rho in parts:
                    total = sum(
                        Fraction(character(nu, mu) * character(rho, mu), mu.z())
                        for mu in parts
                    )
                    assert total == (1 if nu == rho else 0)

    def test_second_orthogonality(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d)
            for mu in parts:
                for rho in parts:
                    total = sum(
                        character(nu, mu) * character(nu, rho) for nu in parts
                    )
                    assert total == (mu.z() if mu == rho else 0)

    def test_dimension_positive_and_hook_oracle(self):
        for d in range(1, 9):
            for nu in enumerate_partitions(d):
                dim = dimension(nu)
                assert dim > 0
                assert dim == dimension_hook(nu)

    def test_transpose_sign_twist(self):
        for d in range(1, 7):
            parts = enumerate_partitions(d)
            for nu in parts:
                for mu in parts:
                    assert character(nu.transpose(), mu) == (
                        (-1) ** (d - mu.length) * character(nu, mu)
                    )

    def test_table_shape(self):
        table = character_table(3)
        assert table == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))

    def test_degree_two_values(self):
        parts = enumerate_partitions(2)
        assert {(str(nu), str(mu)): character(nu, mu) for nu in parts for mu in parts} == {
            ("2", "2"): 1, ("2", "1,1"): 1, ("1,1", "2"): -1, ("1,1", "1,1"): 1,
        }


class TestCentralCharacter:
    def test_examples(self):
        assert central_character_transposition(P([2])) == 1
        assert central_character_transposition(P([1, 1])) == -1
        assert central_character_transposition(P([2, 1])) == 0
        assert central_character_transposition(P([1])) == 0

    def test_equals_half_kappa(self):
        for d in range(1, 9):
            for nu in enumerate_partitions(d):
                assert central_character_transposition(nu) == Fraction(nu.kappa(), 2)


class TestSchur:
    def test_examples(self):
        assert schur_in_p(P([1])) == {P([1]): Fraction(1)}
        assert schur_in_p(P([2])) == {
            P([1, 1]): Fraction(1, 2),
            P([2]): Fraction(1, 2),
        }
        assert schur_in_p(P([1, 1])) == {
            P([1, 1]): Fraction(1, 2),
            P([2]): Fraction(-1, 2),
        }

    def test_product_rule(self):
        # s_(1)^2 = s_(2) + s_(1,1) as p-polynomials
        s1 = PartitionSeries(schur_in_p(P([1])), 2)
        s2 = PartitionSeries(schur_in_p(P([2])), 2)
        s11 = PartitionSeries(schur_in_p(P([1, 1])), 2)
        assert s1 * s1 == s2 + s11

    def test_support_sizes(self):
        exp = schur_in_p(P([3, 1]))
        assert all(eta.size == 4 for eta in exp)


class TestPrincipalSpecialization:
    def test_shapes(self):
        num, den = schur_principal_specialization(P([1]))
        assert num == QHalfLaurent.monomial(1, 0)
        assert den == one_minus(2)
        num2, _ = schur_principal_specialization(P([2]))
        assert num2 == QHalfLaurent.monomial(1, 0)  # n(2) = 0
        num11, _ = schur_principal_specialization(P([1, 1]))
        assert num11 == QHalfLaurent.monomial(1, 2)  # n(1,1) = 1: one power of q

    def test_denominator_from_hooks(self):
        _, den = schur_principal_specialization(P([2]))
        assert den == one_minus(2) * one_minus(4)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_denominator_matches_factor_by_factor(self, d):
        for nu in enumerate_partitions(d):
            den = QHalfLaurent.monomial(1, 0)
            for h in nu.hooks():
                den = den * one_minus(2 * h)
            numerator = QHalfLaurent.monomial(1, 2 * nu.n_weight())
            assert schur_principal_specialization(nu) == (numerator, den), nu

    def test_series_cross_check(self):
        for d in range(1, 5):
            for nu in enumerate_partitions(d):
                assert principal_specialization_check(nu, 10)

    def test_series_cross_check_detects_an_extra_hook(self, monkeypatch):
        # an extra factor (1 - q^7) first shows at q^(n(nu) + 7) = q^8
        from cutjoin import characters

        real = characters.schur_principal_specialization

        def extra_hook(nu):
            num, den = real(nu)
            return num, den * one_minus(14)

        monkeypatch.setattr(characters, "schur_principal_specialization", extra_hook)
        assert not principal_specialization_check(P([3, 1]), 10)
        assert principal_specialization_check(P([3, 1]), 6)
