"""Partition-indexed generating functions and the cut-and-join operators.

A PartitionSeries is a finite sum  F = sum_mu c_mu p_mu  where p_mu is the
power-sum monomial of a partition and the coefficients live in an arbitrary
commutative ring (rationals, tau-polynomials or Laurent series over them).
Terms are truncated by total weight |mu|; the monomial p_mu carries weight
|mu| and both operators below preserve it.

The hot paths never form a term that the weight cap would discard: exp and
log run the weight-graded recurrence of the Euler operator, whose products
each land on exactly one weight, and the quadratic part of the nonlinear
operator forms dF/dp_i * dF/dp_j under the cap W - i - j before multiplying by
p_{i+j}.  The tests compare both with the whole-series forms they replace,
which build every power or product at the full cap: the results are equal
exactly, Laurent truncation orders included.

The operator conventions are fixed once and for all: the double sum over i, j
runs over ordered pairs with the diagonal counted once, which is exactly the
convention under which the central-character identity
f_nu(transpositions) * s_nu = (1/2) * Omega(s_nu) holds term by term.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import central_character_transposition, schur_in_p
from .exact import _coeff_json, _eq_coeff, _is_zero
from .partitions import Partition, EMPTY


class PartitionSeries:
    """Finite map from partitions to ring coefficients with a weight cap."""

    __slots__ = ("terms", "max_weight")

    def __init__(self, terms, max_weight: int):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mu, c in items:
            if mu.size > max_weight or _is_zero(c):
                continue
            if mu in data:
                s = data[mu] + c
                if _is_zero(s):
                    del data[mu]
                else:
                    data[mu] = s
            else:
                data[mu] = c
        self.terms = data
        self.max_weight = max_weight

    @classmethod
    def zero(cls, max_weight: int) -> "PartitionSeries":
        return cls({}, max_weight)

    @classmethod
    def monomial(cls, mu: Partition, coeff, max_weight: int) -> "PartitionSeries":
        return cls({mu: coeff}, max_weight)

    def coefficient(self, mu: Partition):
        """Coefficient of p_mu; integer 0 when absent."""
        return self.terms.get(mu, 0)

    def support(self) -> list[Partition]:
        return sorted(self.terms, key=lambda m: (m.size, m.parts))

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PartitionSeries):
            return NotImplemented
        w = min(self.max_weight, other.max_weight)
        out = {m: c for m, c in self.terms.items() if m.size <= w}
        for m, c in other.terms.items():
            if m.size > w:
                continue
            if m in out:
                s = out[m] + c
                if _is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return PartitionSeries._raw(out, w)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PartitionSeries._raw({m: -c for m, c in self.terms.items()}, self.max_weight)

    def scale(self, scalar) -> "PartitionSeries":
        if _is_zero(scalar):
            return PartitionSeries.zero(self.max_weight)
        return PartitionSeries._raw(
            {m: c * scalar for m, c in self.terms.items()}, self.max_weight
        )

    def __mul__(self, other):
        if not isinstance(other, PartitionSeries):
            return NotImplemented
        w = min(self.max_weight, other.max_weight)
        out: dict[Partition, object] = {}
        for m1, c1 in self.terms.items():
            if m1.size > w:
                continue
            budget = w - m1.size
            for m2, c2 in other.terms.items():
                if m2.size > budget:
                    continue
                mu = Partition(m1.parts + m2.parts)
                prod = c1 * c2
                if mu in out:
                    s = out[mu] + prod
                    if _is_zero(s):
                        del out[mu]
                    else:
                        out[mu] = s
                else:
                    if not _is_zero(prod):
                        out[mu] = prod
        return PartitionSeries._raw(out, w)

    @classmethod
    def _raw(cls, terms: dict, max_weight: int) -> "PartitionSeries":
        s = object.__new__(cls)
        s.terms = terms
        s.max_weight = max_weight
        return s

    # -- formal calculus in the p-variables ---------------------------------

    def d_dp(self, i: int) -> "PartitionSeries":
        """Formal partial derivative with respect to p_i."""
        out: dict[Partition, object] = {}
        for mu, c in self.terms.items():
            m = mu.parts.count(i)
            if not m:
                continue
            target = mu.remove_one(i)
            contrib = c * m
            if target in out:
                out[target] = out[target] + contrib
            else:
                out[target] = contrib
        return PartitionSeries._raw(out, self.max_weight)

    def mul_p(self, i: int) -> "PartitionSeries":
        """Multiplication by the monomial p_i."""
        out = {}
        for mu, c in self.terms.items():
            if mu.size + i <= self.max_weight:
                out[mu.add_parts(i)] = c
        return PartitionSeries._raw(out, self.max_weight)

    def map_coefficients(self, f) -> "PartitionSeries":
        return PartitionSeries(
            {m: f(c) for m, c in self.terms.items()}, self.max_weight
        )

    def __eq__(self, other):
        if not isinstance(other, PartitionSeries):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(_eq_coeff(self.coefficient(k), other.coefficient(k)) for k in keys)

    def to_json(self):
        """Fixture form: sorted term list."""
        return {
            "max_weight": self.max_weight,
            "terms": [
                {"partition": mu.to_json(), "coefficient": _coeff_json(self.terms[mu])}
                for mu in self.support()
            ],
        }

    def __repr__(self):
        bits = [f"({self.terms[m]!r})*p[{m}]" for m in self.support()]
        return f"PartitionSeries({' + '.join(bits) or '0'}; w<={self.max_weight})"


def _graded(F: PartitionSeries) -> list[PartitionSeries]:
    """Split F by weight: entry n holds the terms of F of weight exactly n."""
    w = F.max_weight
    pieces = [{} for _ in range(w + 1)]
    for mu, c in F.terms.items():
        pieces[mu.size][mu] = c
    return [PartitionSeries._raw(p, w) for p in pieces]


def ps_exp(F: PartitionSeries) -> PartitionSeries:
    """exp of a series with no constant term, truncated by weight.

    With E the Euler operator (multiply the weight-n part by n), G = exp(F)
    satisfies E(G) = E(F) * G, so the weight-n part of G is

        n G_n = sum_{k=1..n} k F_k G_{n-k},    G_0 = 1.

    Every product on the right has weight exactly n, so the recurrence is
    exact at each weight and never forms a term above the cap.
    """
    if EMPTY in F.terms:
        raise ValueError(
            f"ps_exp requires a zero constant term, found {F.terms[EMPTY]!r}"
        )
    w = F.max_weight
    eF = [f.scale(k) for k, f in enumerate(_graded(F))]
    G = [PartitionSeries.monomial(EMPTY, 1, w)]
    result = G[0]
    for n in range(1, w + 1):
        acc = PartitionSeries.zero(w)
        for k in range(1, n + 1):
            if eF[k].terms and G[n - k].terms:
                acc = acc + eF[k] * G[n - k]
        G.append(acc.scale(Fraction(1, n)))
        result = result + G[n]
    return result


def ps_log(G: PartitionSeries) -> PartitionSeries:
    """log of a series with constant term 1, truncated by weight.

    With E the Euler operator (multiply the weight-n part by n), F = log(G)
    satisfies E(F) * G = E(G), so the weight-n part of F is

        n F_n = n G_n - sum_{k=1..n-1} k F_k G_{n-k}.

    Every product on the right has weight exactly n, so the recurrence is
    exact at each weight and never forms a term above the cap.
    """
    c0 = G.coefficient(EMPTY)
    if not _eq_coeff(c0, 1):
        raise ValueError(f"ps_log requires constant term 1, found {c0!r}")
    w = G.max_weight
    graded = _graded(G)
    eF = [PartitionSeries.zero(w)]
    result = PartitionSeries.zero(w)
    for n in range(1, w + 1):
        acc = graded[n].scale(n)
        for k in range(1, n):
            if eF[k].terms and graded[n - k].terms:
                acc = acc - eF[k] * graded[n - k]
        eF.append(acc)
        result = result + acc.scale(Fraction(1, n))
    return result


def cut_join_linear(F: PartitionSeries) -> PartitionSeries:
    """Omega(F) = sum_{i,j>=1} [ i*j*p_{i+j} d2F/dp_i dp_j
    + (i+j)*p_i*p_j dF/dp_{i+j} ], without any scalar prefactor.

    The sum is over ordered pairs (diagonal once); callers supply their own
    prefactors such as sqrt(-1)*lambda/2.
    """
    w = F.max_weight
    out = PartitionSeries.zero(w)
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    for i in range(1, maxpart + 1):
        dFi = F.d_dp(i)
        if not dFi.terms:
            continue
        for j in range(1, maxpart + 1):
            second = dFi.d_dp(j)
            if second.terms:
                out = out + second.mul_p(i + j).scale(i * j)
    for s in range(2, maxpart + 1):
        dFs = F.d_dp(s)
        if not dFs.terms:
            continue
        for i in range(1, s):
            out = out + dFs.mul_p(i).mul_p(s - i).scale(s)
    return out


def cut_join_nonlinear(F: PartitionSeries) -> PartitionSeries:
    """The conjugated operator: Omega(F) plus the quadratic first-derivative
    terms sum_{i,j} i*j*p_{i+j} dF/dp_i dF/dp_j.

    Satisfies cut_join_linear(ps_exp(F)) = ps_exp(F) * cut_join_nonlinear(F)
    up to truncation, which is how the linear and nonlinear forms of the
    evolution equation correspond.

    The product dF/dp_i * dF/dp_j is formed with the cap lowered to
    W - i - j: multiplying by p_{i+j} raises every weight by i + j, so the
    terms of the product above W - i - j are exactly the ones the cap W
    removes afterwards.  The kept terms come from the same pairs in the same
    order, so the result equals the one formed at full weight.
    """
    out = cut_join_linear(F)
    w = F.max_weight
    maxpart = max((mu.parts[0] for mu in F.terms if mu.parts), default=0)
    derivs = {i: F.d_dp(i) for i in range(1, maxpart + 1)}
    for i in range(1, maxpart + 1):
        if not derivs[i].terms:
            continue
        for j in range(1, maxpart + 1):
            if not derivs[j].terms:
                continue
            cap = w - i - j
            if cap < 0:
                continue
            prod = PartitionSeries(derivs[i].terms, cap) * PartitionSeries(
                derivs[j].terms, cap
            )
            if prod.terms:
                lifted = PartitionSeries._raw(prod.terms, w)
                out = out + lifted.mul_p(i + j).scale(i * j)
    return out


def character_cutjoin_identity(nu: Partition) -> bool:
    """Check f_nu(transpositions) * s_nu = (1/2) * Omega(s_nu) exactly.

    This is the eigenvector property of Schur functions under the cut-and-join
    operator, with eigenvalue the central character on transpositions; it is
    the combinatorial heart of the evolution equation.
    """
    if nu.size < 1:
        raise ValueError("requires a nonempty partition")
    expansion = schur_in_p(nu)
    s = PartitionSeries(expansion.terms, nu.size)
    f = central_character_transposition(nu)
    lhs = s.scale(f)
    rhs = cut_join_linear(s).scale(Fraction(1, 2))
    return lhs == rhs
