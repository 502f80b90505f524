"""Integer partitions and their combinatorics.

Partitions index everything downstream: conjugacy classes, irreducible
representations, power-sum monomials and cut/join moves.  A partition is
canonical (parts sorted in weakly decreasing order) from construction on, and
immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterable, NamedTuple

from .exact import _dot


class Partition:
    """Weakly decreasing sequence of positive integers; may be empty."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((int(p) for p in parts), reverse=True)
        if ps and ps[-1] <= 0:
            raise ValueError(f"partition parts must be positive, got {ps}")
        self.parts = tuple(ps)
        self._hash = hash(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the CLI text form, e.g. "3,2,1"; empty string is allowed."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        return self.parts.count(i)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def aut_order(self) -> int:
        """Order of the automorphism group: product of multiplicity factorials."""
        out = 1
        for m in self.multiplicities().values():
            out *= factorial(m)
        return out

    def z(self) -> int:
        """Centralizer order of a permutation with this cycle type."""
        out = 1
        for j, m in self.multiplicities().items():
            out *= factorial(m) * j**m
        return out

    def transpose(self) -> "Partition":
        if not self.parts:
            return self
        width = self.parts[0]
        cols = [0] * width
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def hooks(self) -> tuple[int, ...]:
        """Hook length of every cell, row by row."""
        tr = self.transpose().parts
        out = []
        for i, row in enumerate(self.parts):
            for j in range(row):
                out.append(row + tr[j] - i - j - 1)
        return tuple(out)

    def n_weight(self) -> int:
        """sum_i (i-1) * parts[i], the row-weighted size."""
        return sum(i * p for i, p in enumerate(self.parts))

    def kappa(self) -> int:
        """|mu| + sum_i (mu_i^2 - 2*i*mu_i); antisymmetric under transpose."""
        return self.size + sum(p * p - 2 * (i + 1) * p for i, p in enumerate(self.parts))

    def remove_one(self, part: int) -> "Partition":
        ps = list(self.parts)
        ps.remove(part)
        return Partition(ps)

    def add_parts(self, *new: int) -> "Partition":
        return Partition(self.parts + tuple(new))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Partition"):
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def to_json(self):
        return list(self.parts)


EMPTY = Partition()


@cache
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each once, in reverse-lexicographic order.

    The order is fixed so table and fixture output is byte-stable:
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + (first,))

    return tuple(Partition(ps) for ps in gen(n, n, ()))


# -- cut and join moves ----------------------------------------------------

CUT = "cut"
JOIN = "join"


class CutJoinNeighbor(NamedTuple):
    """One term of the cut-and-join operator applied to the monomial p_mu."""

    target: Partition
    kind: str
    coefficient: Fraction


def cut_join_neighbors(mu: Partition) -> list[CutJoinNeighbor]:
    """Expansion of (1/2) * Omega(p_mu) in the p-monomial basis.

    Omega is the operator sum_{i,j>=1} [ i*j*p_{i+j} d2/dp_i dp_j
    + (i+j)*p_i*p_j d/dp_{i+j} ] over ordered pairs.  Joining parts i and j
    contributes i*j*m_i*m_j (or i^2*m_i*(m_i-1)/2 on the diagonal); cutting a
    part s into i+j=s contributes s*m_s (or (s/2)*m_s when i=j).  The genfun
    operator acting on the monomial is the oracle for these coefficients.
    """
    if mu.size < 1:
        raise ValueError("cut_join_neighbors requires a nonempty partition")
    mult = mu.multiplicities()
    values = sorted(mult, reverse=True)
    out: list[CutJoinNeighbor] = []
    # joins: replace parts i, j by i+j
    for a, i in enumerate(values):
        for j in values[a:]:
            if i == j:
                if mult[i] < 2:
                    continue
                coeff = Fraction(i * i * mult[i] * (mult[i] - 1), 2)
                target = mu.remove_one(i).remove_one(i).add_parts(2 * i)
            else:
                coeff = Fraction(i * j * mult[i] * mult[j])
                target = mu.remove_one(i).remove_one(j).add_parts(i + j)
            out.append(CutJoinNeighbor(target, JOIN, coeff))
    # cuts: replace a part s by i, j with i+j=s
    for s in values:
        for i in range(1, s // 2 + 1):
            j = s - i
            coeff = Fraction(i * mult[s]) if i == j else Fraction(s * mult[s])
            target = mu.remove_one(s).add_parts(i, j)
            out.append(CutJoinNeighbor(target, CUT, coeff))
    merged: dict[tuple[Partition, str], Fraction] = {}
    for nb in out:
        key = (nb.target, nb.kind)
        merged[key] = merged.get(key, Fraction(0)) + nb.coefficient
    return sorted(
        (CutJoinNeighbor(t, k, c) for (t, k), c in merged.items()),
        key=lambda nb: (nb.kind, nb.target.parts),
    )


def cut_join_incoming(mu: Partition):
    """Edges of the cut/join graph oriented into mu, with operator weights.

    Returns two lists: (nu, w) over nu that cut down to mu (nu is a join of
    mu, w the cut coefficient of nu -> mu) and (nu, w) over nu that join up
    to mu (nu is a cut of mu, w the join coefficient of nu -> mu).
    """
    joins_of_mu: list[tuple[Partition, Fraction]] = []
    cuts_of_mu: list[tuple[Partition, Fraction]] = []
    for nb in cut_join_neighbors(mu):
        back = next(
            b.coefficient
            for b in cut_join_neighbors(nb.target)
            if b.target == mu and b.kind == (CUT if nb.kind == JOIN else JOIN)
        )
        if nb.kind == JOIN:
            joins_of_mu.append((nb.target, back))
        else:
            cuts_of_mu.append((nb.target, back))
    return joins_of_mu, cuts_of_mu


class SplitTerm(NamedTuple):
    """One ordered term of the quadratic part of the cut-and-join operator."""

    nu1: Partition
    i: int
    nu2: Partition
    j: int
    weight: int  # i * j * m_i(nu1) * m_j(nu2)


def split_contributions(mu: Partition) -> list[SplitTerm]:
    """Ordered pairs ((nu1, i), (nu2, j)) with (nu1-i) u (nu2-j) u {i+j} = mu.

    These index the d/dp_i(F) * d/dp_j(F) terms of the nonlinear operator
    whose product monomial lands on p_mu; cut_join_sum supplies the overall
    1/2, and its split factor any branch-point bookkeeping.
    """
    out: list[SplitTerm] = []
    seen_s = set()
    for s in mu.parts:
        if s in seen_s:
            continue
        seen_s.add(s)
        rest = mu.remove_one(s)
        for alpha in _sub_multisets(rest.parts):
            beta = _multiset_difference(rest.parts, alpha)
            for i in range(1, s):
                j = s - i
                nu1 = Partition(alpha + (i,))
                nu2 = Partition(beta + (j,))
                weight = i * j * nu1.parts.count(i) * nu2.parts.count(j)
                out.append(SplitTerm(nu1, i, nu2, j, weight))
    return out


def cut_join_sum(mu: Partition, g: int, value, split_factor=lambda g1, nu1, g2, nu2: 1):
    """The cut-and-join operator read on p_mu at genus g, from the genus-h
    coefficient value(h, nu) of every p_nu it draws on:

        sum_{nu joins of mu} w * value(g, nu)
      + sum_{nu cuts of mu} w * value(g - 1, nu)                       (g >= 1)
      + 1/2 sum_splits sum_{g1+g2=g} weight * f * value(g1, nu1) * value(g2, nu2)

    with w from cut_join_incoming and the split weights from
    split_contributions; f = split_factor(g1, nu1, g2, nu2), 1 by default,
    and a split with f = 0 reads no values.  The whole sum is one `_dot`
    over (value, weight) pairs.  This is the right-hand side both of the
    per-coefficient tau-evolution of the Hodge series (up to the factor
    sqrt(-1)) and of the branch-point recursion for cover counts.
    """
    joins_into, cuts_into = cut_join_incoming(mu)
    pairs = [(value(g, nu), w) for nu, w in joins_into]
    if g >= 1:
        pairs += [(value(g - 1, nu), w) for nu, w in cuts_into]
    half = Fraction(1, 2)
    for term in split_contributions(mu):
        for g1 in range(g + 1):
            g2 = g - g1
            f = split_factor(g1, term.nu1, g2, term.nu2)
            if f:
                pairs.append((value(g1, term.nu1), value(g2, term.nu2) * (half * term.weight * f)))
    return _dot(pairs)


def _sub_multisets(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct sub-multisets, each exactly once."""
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    values = sorted(mult, reverse=True)
    subs: list[tuple[int, ...]] = [()]
    for v in values:
        subs = [s + (v,) * k for s in subs for k in range(mult[v] + 1)]
    return [tuple(sorted(s, reverse=True)) for s in subs]


def _multiset_difference(whole: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    rest = list(whole)
    for x in sub:
        rest.remove(x)
    return tuple(rest)
