from fractions import Fraction

import pytest

from cutjoin import linalg


@pytest.mark.parametrize(
    "matrix, rhs, solution",
    [
        ([[0, 1], [1, 0]], [5, 7], [7, 5]),
        ([[2, -1], [3, -1], [4, -1]], [1, 2, 3], [1, 1]),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3], [1, 1, 1]], [1, 2, 3, 3], [1, 1, 1]),
        ([[2, -1], [3, -1]], [Fraction(1, 12), Fraction(1, 8)], [Fraction(1, 24), 0]),
    ],
)
def test_solve(matrix, rhs, solution):
    got = linalg.solve(matrix, rhs)
    assert got == solution
    assert all(isinstance(x, Fraction) for x in got)


@pytest.mark.parametrize(
    "matrix, rhs, message",
    [
        ([[2, -1], [3, -1], [4, -1]], [1, 2, 4], "inconsistent"),
        ([[1, 2], [2, 4]], [1, 2], "underdetermined"),
        ([[1, 2], [2, 4]], [1, 3], "inconsistent"),
        # both at once, a kernel of dimension 2: inconsistency is named first
        ([[1, 1, 1], [1, 1, 1]], [1, 2], "inconsistent"),
    ],
)
def test_solve_rejects(matrix, rhs, message):
    with pytest.raises(ValueError, match=f"{message} linear system"):
        linalg.solve(matrix, rhs)


def test_nullspace_is_the_kernel():
    matrix = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    basis = linalg.nullspace(matrix)
    assert len(basis) == 1
    assert all(sum(a * x for a, x in zip(row, basis[0])) == 0 for row in matrix)
