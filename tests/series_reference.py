"""Whole-series forms of the cut-and-join operators, and the sums, negations
and powers of exact values that no command runs, for the tests.

The package reads each coefficient of an operator off one table, the
column `cutjoin.partitions.cut_join_incoming(mu)` of joins, cuts and merged
splits into mu.  The forms here build the derivative series instead, with
every product at the full weight cap, and add one term at a time, so they
share no table with the code they check: tests/test_partitions.py reads the
table's join and cut weights off `reference_linear` and its split weights
off the polarised quadratic part `reference_nonlinear - reference_linear`.
"""

from cutjoin.exact import QHalfLaurent
from cutjoin.genfun import PartitionSeries


def q_add(a, b):
    """a + b for QHalfLaurent values, merged term by term from their
    {exponent: coefficient} readouts.  A sum whose parts of phase i^0 and
    i^1 are both nonzero has no common phase and raises ValueError."""
    phases = {x.i_power for x in (a, b) if x}
    if len(phases) > 1:
        raise ValueError("a sum of terms with phases i^0 and i^1 has no common phase")
    return QHalfLaurent([*a.terms.items(), *b.terms.items()], phases.pop() if phases else 0)


def q_neg(a):
    """-a for a QHalfLaurent value, the sign put on every coefficient."""
    return QHalfLaurent({k: -c for k, c in a.terms.items()}, a.i_power)


def q_power(a, n):
    """a**n for a QHalfLaurent value and n >= 0, by repeated *."""
    out = QHalfLaurent.one()
    for _ in range(n):
        out = out * a
    return out


def tp_sub(a, b):
    """a - b for tau-polynomials (or a tau-polynomial and a rational), as
    a + (-b)."""
    return a + (-b)


def d_dp(F, i):
    """Formal partial derivative of a series with respect to p_i."""
    out = {}
    for mu, c in F.terms.items():
        m = mu.multiplicity(i)
        if m:
            # removing one part i is injective, so no two terms meet
            out[mu.remove_one(i)] = c * m
    return PartitionSeries(out, F.max_weight)


def ref_merge(terms, w):
    """The series of (partition, coefficient) terms, merged one at a time
    under the cap w: a repeated partition adds its coefficients, and a sum
    that vanishes drops the term."""
    data = {}
    for mu, c in terms:
        if mu.size > w or not c:
            continue
        if mu in data:
            s = data[mu] + c
            if not s:
                del data[mu]
            else:
                data[mu] = s
        else:
            data[mu] = c
    return PartitionSeries(data, w)


def ref_add(A, B):
    return ref_merge([*A.terms.items(), *B.terms.items()], min(A.max_weight, B.max_weight))


def reference_linear(F):
    """Omega(F) summed one term at a time."""
    w = F.max_weight
    out = PartitionSeries.zero(w)
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    for i in range(1, maxpart + 1):
        dFi = d_dp(F, i)
        if not dFi.terms:
            continue
        for j in range(1, maxpart + 1):
            second = d_dp(dFi, j)
            if second.terms:
                out = ref_add(out, second.mul_p(i + j) * (i * j))
    for s in range(2, maxpart + 1):
        dFs = d_dp(F, s)
        if not dFs.terms:
            continue
        for i in range(1, s):
            out = ref_add(out, dFs.mul_p(i).mul_p(s - i) * s)
    return out


def reference_nonlinear(F):
    """Omega(F) plus the quadratic term with dF/dp_i * dF/dp_j formed at the
    full cap, leaving mul_p to drop what lands above it, summed one term at
    a time."""
    out = reference_linear(F)
    w = F.max_weight
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    derivs = {i: d_dp(F, i) for i in range(1, maxpart + 1)}
    for i in range(1, maxpart + 1):
        for j in range(1, maxpart + 1):
            if i + j > w:
                continue
            prod = derivs[i] * derivs[j]
            if prod.terms:
                out = ref_add(out, prod.mul_p(i + j) * (i * j))
    return out
