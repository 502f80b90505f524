"""Small exact linear algebra over the rationals (Gaussian elimination)."""

from __future__ import annotations

from fractions import Fraction


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Unique exact solution of a consistent full-column-rank system: the
    kernel vector of [A | -b], scaled so that its last entry is 1.

    Raises ValueError when the system is inconsistent (no kernel vector has
    a nonzero last entry) or underdetermined (the kernel has dimension > 1).
    """
    basis = nullspace([[*row, -b] for row, b in zip(matrix, rhs)])
    if not any(v[-1] for v in basis):
        raise ValueError("inconsistent linear system")
    if len(basis) > 1:
        raise ValueError("underdetermined linear system")
    v = basis[0]
    return [x / v[-1] for x in v[:-1]]
