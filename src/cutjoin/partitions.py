"""Integer partitions and their combinatorics.

Partitions index everything downstream: conjugacy classes, irreducible
representations, power-sum monomials and cut/join moves.  A partition is
canonical (parts sorted in weakly decreasing order) from construction on, and
immutable.

The cut-and-join operator is read on p_mu one coefficient at a time, here
and in genfun's operators: the joins and cuts into mu (cut_join_incoming),
the quadratic splits (split_contributions) and their sum (cut_join_sum).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
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


def cut_join_incoming(mu: Partition):
    """Edges of the cut/join graph oriented into mu, with operator weights.

    Returns two lists of (nu, w), each sorted by nu, with w the coefficient
    of p_mu in (1/2) * Omega(p_nu) (Omega as in genfun.cut_join_linear), read
    off mu's own moves and the multiplicities m of nu.  The joins nu of mu
    merge parts i, j into s; cutting s back weighs s * m_s(nu), halved when
    i = j.  The cuts nu of mu split a part s into i + j; joining i, j back
    weighs i * j * m_i(nu) * m_j(nu), or i^2 * C(m_i(nu), 2) when i = j.
    Distinct moves of mu reach distinct nu, so no nu is listed twice.
    """
    if mu.size < 1:
        raise ValueError("cut_join_incoming requires a nonempty partition")
    values = sorted(set(mu.parts), reverse=True)
    joins_of_mu: list[tuple[Partition, Fraction]] = []
    for a, i in enumerate(values):
        for j in values[a:]:
            if i == j and mu.multiplicity(i) < 2:
                continue
            nu = mu.remove_one(i).remove_one(j).add_parts(i + j)
            weight = Fraction((i + j) * nu.multiplicity(i + j), 2 if i == j else 1)
            joins_of_mu.append((nu, weight))
    cuts_of_mu: list[tuple[Partition, Fraction]] = []
    for s in values:
        for i in range(1, s // 2 + 1):
            j = s - i
            nu = mu.remove_one(s).add_parts(i, j)
            m_i, m_j = nu.multiplicity(i), nu.multiplicity(j)
            pairs = comb(m_i, 2) if i == j else m_i * m_j
            cuts_of_mu.append((nu, Fraction(i * j * pairs)))
    return sorted(joins_of_mu), sorted(cuts_of_mu)


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
    for s in sorted(set(mu.parts), reverse=True):
        rest = mu.remove_one(s)
        for alpha in _sub_multisets(rest.parts):
            beta = _multiset_difference(rest.parts, alpha)
            for i in range(1, s):
                j = s - i
                nu1 = Partition(alpha + (i,))
                nu2 = Partition(beta + (j,))
                weight = i * j * nu1.multiplicity(i) * nu2.multiplicity(j)
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
