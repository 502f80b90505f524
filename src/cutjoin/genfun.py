"""Partition-indexed generating functions and the cut-and-join operators.

A PartitionSeries is a finite sum  F = sum_mu c_mu p_mu  where p_mu is the
power-sum monomial of a partition and the coefficients live in an arbitrary
commutative ring (rationals, tau-polynomials or Laurent series over them).
Terms are truncated by total weight |mu|; the monomial p_mu carries weight
|mu| and both operators below preserve it.

The hot paths never form a term that the weight cap would discard.  exp and
log split a series into its weight pieces, the coefficients of a Laurent
series in a weight variable, and run the one Euler-operator recurrence of
`exact.series_exp`/`series_log` on it, whose products each land on exactly
one weight.  Each weight step of that recurrence is one `exact._dot`: the
coefficient pairs of all its series products are grouped by partition, then
by power of the Laurent variable, and each group is summed over one common
denominator and reduced once.  The cut-and-join operators form no
derivative series: each coefficient on p_mu is one `_dot` over the column
`partitions.cut_join_incoming(mu)`, (F[nu], integer weight) for the joins
and cuts nu into mu and, in the nonlinear one, one product F[nu1] * F[nu2]
per unordered split pair of mu.  That column sum is the one place the
operator is formed: the per-genus Hodge evolution reads one x-coefficient of
it (`_column_coefficient`), and the branch-point recursion of the cover
counts reads it on exponential sums (`hurwitz.hurwitz_cutjoin_check`).  The
tests compare all of them with the whole-series forms they replace, which
build every power, product or derivative at the full cap and add one term
at a time: the results are equal exactly, Laurent truncation orders
included.

The operator conventions are fixed once and for all: the double sum over i, j
runs over ordered pairs with the diagonal counted once, which is exactly the
convention under which the central-character identity
f_nu(transpositions) * s_nu = (1/2) * Omega(s_nu) holds term by term.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import inf

from . import characters, exact, partitions
from .exact import LaurentSeries
from .partitions import Partition, EMPTY


class PartitionSeries:
    """Finite map from partitions to ring coefficients with a weight cap."""

    __slots__ = ("terms", "max_weight")

    _RING_DEPTH = 3  # see exact._dot

    def __init__(self, terms: dict, max_weight: int):
        self.terms = {mu: c for mu, c in terms.items() if c and mu.size <= max_weight}
        self.max_weight = max_weight

    def coefficient(self, mu: Partition):
        """Coefficient of p_mu; integer 0 when absent."""
        return self.terms.get(mu, 0)

    def support(self) -> list[Partition]:
        return sorted(self.terms, key=lambda m: (m.size, m.parts))

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PartitionSeries):
            return NotImplemented
        return exact._dot(((self, 1), (other, 1)))

    def __neg__(self):
        return PartitionSeries._raw({m: -c for m, c in self.terms.items()}, self.max_weight)

    def __mul__(self, other):
        """The product of two series, or the series times a scalar of its
        coefficient ring."""
        return exact._dot(((self, other),))

    @staticmethod
    def _sum_of_products(pairs) -> "PartitionSeries":
        """sum A*B over pairs of series and scalars under the least cap: the
        coefficient pairs of every pair are grouped by the union partition,
        and each group is one `_dot`.  A scalar is the p_{} coefficient,
        under its partner's cap."""
        pairs = [(_series_terms(A), _series_terms(B)) for A, B in pairs]
        w = min(min(A[1], B[1]) for A, B in pairs)
        groups = defaultdict(list)
        for (left, _), (right, _) in pairs:
            right = [(m.size, m.parts, c) for m, c in right.items()]
            for m1, c1 in left.items():
                room = w - m1.size
                for size, parts, c2 in right:
                    if size <= room:
                        groups[tuple(sorted(m1.parts + parts, reverse=True))].append((c1, c2))
        return PartitionSeries({Partition(k): exact._dot(g) for k, g in groups.items()}, w)

    @classmethod
    def _raw(cls, terms: dict, max_weight: int) -> "PartitionSeries":
        s = object.__new__(cls)
        s.terms = terms
        s.max_weight = max_weight
        return s

    # -- formal calculus in the p-variables ---------------------------------

    def mul_p(self, i: int) -> "PartitionSeries":
        """Multiplication by the monomial p_i.  No operator calls it; the
        traced benchmark run patches it by name (perfbench/traced_cli.py
        METHODS), and tests/test_trace_hooks.py checks that it is there."""
        out = {}
        for mu, c in self.terms.items():
            if mu.size + i <= self.max_weight:
                out[mu.add_parts(i)] = c
        return PartitionSeries._raw(out, self.max_weight)

    def map_coefficients(self, f) -> "PartitionSeries":
        return PartitionSeries(
            {m: f(c) for m, c in self.terms.items()}, self.max_weight
        )

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PartitionSeries):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

    def __repr__(self):
        bits = [f"({self.terms[m]!r})*p[{m}]" for m in self.support()]
        return f"PartitionSeries({' + '.join(bits) or '0'}; w<={self.max_weight})"


def _series_terms(x) -> tuple:
    """(terms, cap) of a series; a scalar is the p_{} coefficient under no
    cap of its own, and a zero scalar has no terms."""
    if x.__class__ is PartitionSeries:
        return x.terms, x.max_weight
    return ({EMPTY: x} if x else {}), inf


def _weight_series(F: PartitionSeries, constant) -> LaurentSeries:
    """F as a series in a weight variable t: the coefficient of t^n (n >= 1)
    is the part of F of weight exactly n, and that of t^0 is `constant`."""
    w = F.max_weight
    pieces = [{} for _ in range(w + 1)]
    for mu, c in F.terms.items():
        pieces[mu.size][mu] = c
    return LaurentSeries(0, [constant, *(PartitionSeries._raw(p, w) for p in pieces[1:])], w)


def _at_weight_one(pieces, terms: dict, w: int) -> PartitionSeries:
    """A series in the weight variable read at t = 1: `terms` together with
    the terms of every nonzero weight piece."""
    for piece in pieces:
        if piece:
            terms.update(piece.terms)
    return PartitionSeries._raw(terms, w)


def ps_exp(F: PartitionSeries) -> PartitionSeries:
    """exp of a series with no constant term, truncated by weight.

    Graded by weight, F is a series in t with no t^0 term, and G = exp(F) is
    `series_exp` of it, whose Euler recurrence gives the weight-n part as

        n G_n = sum_{k=1..n} k F_k G_{n-k},    G_0 = 1.

    Every product on the right has weight exactly n, so the recurrence is
    exact at each weight and never forms a term above the cap.
    """
    if EMPTY in F.terms:
        raise ValueError(
            f"ps_exp requires a zero constant term, found {F.terms[EMPTY]!r}"
        )
    G = exact.series_exp(_weight_series(F, 0))
    return _at_weight_one(G.coeffs[1:], {EMPTY: 1}, F.max_weight)


def ps_log(G: PartitionSeries) -> PartitionSeries:
    """log of a series with constant term 1, truncated by weight.

    Graded by weight, G is a series in t with t^0 term 1, and F = log(G) is
    `series_log` of it, whose recurrence gives the weight-n part as

        n F_n = n G_n - sum_{k=1..n-1} k F_k G_{n-k}.

    Every product on the right has weight exactly n, so the recurrence is
    exact at each weight and never forms a term above the cap.
    """
    c0 = G.coefficient(EMPTY)
    if c0 != 1:
        raise ValueError(f"ps_log requires constant term 1, found {c0!r}")
    F = exact.series_log(_weight_series(G, 1))
    return _at_weight_one(F.coeffs, {}, G.max_weight)


def _cut_join_column(terms: dict, mu: Partition, quadratic: bool):
    """The coefficient on p_mu of the operator on F, from the coefficients
    `terms` of F: one `_dot` over (F[nu], w) for the joins and cuts of the
    column partitions.cut_join_incoming(mu) and, when quadratic,
    (F[nu1], w * F[nu2]) for its unordered splits; 0 when none is present."""
    joins, cuts, splits = partitions.cut_join_incoming(mu)
    pairs = [(terms[nu], w) for nu, w in joins + cuts if nu in terms]
    if quadratic:
        pairs += [
            (terms[nu1], terms[nu2] * w)
            for nu1, nu2, w in splits
            if nu1 in terms and nu2 in terms
        ]
    return exact._dot(pairs)


def _column_coefficient(F: PartitionSeries, mu: Partition, k: int):
    """The x^k coefficient of cut_join_nonlinear(F) on p_mu, for F a series
    of x-Laurent series each with a pole of order at most 1.

    The column reads F only at weights up to |mu|, and a product of two
    coefficients cut at x^(k+1) is still valid to x^k, so the operands are
    cut there first and no product forms a term beyond it.  On a series
    graded like the connected Hodge series (r_{g,mu} at x^(2g-2+l(mu))),
    every join, cut and split of mu lowers the exponent by exactly one, so
    the x^k coefficient, k one below p_mu's own exponent at genus g, is the
    genus-g Hodge derivative recursion's sum.
    """
    cut = {nu: s.truncate(k + 1) for nu, s in F.terms.items() if nu.size <= mu.size}
    column = _cut_join_column(cut, mu, True)
    return column.coefficient(k) if column else 0


def _read_off(F: PartitionSeries, weights, quadratic: bool) -> PartitionSeries:
    """The operator on F read one target p_mu at a time, over the partitions
    mu of the given weights, each one `_cut_join_column`."""
    out = {
        mu: _cut_join_column(F.terms, mu, quadratic)
        for d in sorted(weights)
        for mu in partitions.enumerate_partitions(d)
    }
    return PartitionSeries(out, F.max_weight)


def cut_join_linear(F: PartitionSeries) -> PartitionSeries:
    """Omega(F) = sum_{i,j>=1} [ i*j*p_{i+j} d2F/dp_i dp_j
    + (i+j)*p_i*p_j dF/dp_{i+j} ], without any scalar prefactor.

    The sum is over ordered pairs (diagonal once); callers supply their own
    prefactors such as x/2 (sqrt(-1)*lambda/2 in lambda).  Omega preserves
    weight, so it is read on the partitions of every weight d >= 1 that
    carries a term of F.
    """
    return _read_off(F, {mu.size for mu in F.terms} - {0}, False)


def cut_join_nonlinear(F: PartitionSeries) -> PartitionSeries:
    """The conjugated operator: Omega(F) plus the quadratic first-derivative
    terms sum_{i,j} i*j*p_{i+j} dF/dp_i dF/dp_j.

    Satisfies cut_join_linear(ps_exp(F)) = ps_exp(F) * cut_join_nonlinear(F)
    up to truncation, which is how the linear and nonlinear forms of the
    evolution equation correspond.

    A split of mu draws on nu1, nu2 with |nu1| + |nu2| = |mu|, so it is read
    on the weights of F and their sums up to the cap: none is formed above.
    """
    carried = {mu.size for mu in F.terms} - {0}
    w = F.max_weight
    return _read_off(F, carried | {a + b for a in carried for b in carried if a + b <= w}, True)


def character_cutjoin_identity(nu: Partition) -> bool:
    """Check f_nu(transpositions) * s_nu = (1/2) * Omega(s_nu) exactly.

    This is the eigenvector property of Schur functions under the cut-and-join
    operator, with eigenvalue the central character on transpositions; it is
    the combinatorial heart of the evolution equation.
    """
    if nu.size < 1:
        raise ValueError("requires a nonempty partition")
    s = PartitionSeries(characters.schur_in_p(nu), nu.size)
    f = characters.central_character_transposition(nu)
    lhs = s * f
    rhs = cut_join_linear(s) * Fraction(1, 2)
    return lhs == rhs
