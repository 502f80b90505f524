"""Integer partitions and their combinatorics.

Partitions index everything downstream: conjugacy classes, irreducible
representations, power-sum monomials and cut/join moves.  A partition is
canonical (parts sorted in weakly decreasing order) from construction on, and
immutable.

The cut-and-join operator is read on p_mu one coefficient at a time.  Its
column at p_mu is one cached table, the integer weights of the joins, cuts
and unordered splits into mu (cut_join_incoming), which genfun's one column
sum reads.  The whole-series operators run that sum over every target, and
the per-genus Hodge evolution and cover-count recursion each read one
x-coefficient of it.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable


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


@cache
def cut_join_incoming(mu: Partition) -> tuple[tuple, tuple, tuple]:
    """The column of the cut-and-join operator at p_mu: (joins, cuts, splits),
    each weight an integer coefficient of p_mu.

    Omega = sum_{i,j} [ i*j*p_{i+j} d2/dp_i dp_j + (i+j)*p_i*p_j d/dp_{i+j} ]
    (genfun.cut_join_linear), over ordered pairs with the diagonal once.
    joins and cuts are (nu, w), each sorted by nu, with w the coefficient of
    p_mu in Omega(p_nu), read off mu's own moves and the multiplicities m of
    nu.  The joins nu of mu merge parts i, j into s; cutting s back weighs
    s * m_s(nu), doubled when i != j.  The cuts nu of mu split a part s into
    i + j; joining i, j back weighs 2 * i * j * m_i(nu) * m_j(nu), or
    i^2 * m_i(nu) * (m_i(nu) - 1) when i = j.  Distinct moves of mu reach
    distinct nu, so no nu is listed twice.

    splits are (nu1, nu2, w) over the unordered pairs {nu1, nu2} with
    (nu1 - i) u (nu2 - j) u {i + j} = mu, w the coefficient of p_mu in the
    quadratic part sum_{i,j} i*j*p_{i+j} dF/dp_i dF/dp_j at F = p_nu1 + p_nu2
    (the cross term when nu1 != nu2, at F = p_nu1 when nu1 = nu2): the sum
    of i * j * m_i(nu1) * m_j(nu2) over every ordered split reaching the pair.
    """
    if mu.size < 1:
        raise ValueError("cut_join_incoming requires a nonempty partition")
    values = sorted(set(mu.parts), reverse=True)
    joins = []
    for a, i in enumerate(values):
        for j in values[a:]:
            if i == j and mu.multiplicity(i) < 2:
                continue
            nu = mu.remove_one(i).remove_one(j).add_parts(i + j)
            joins.append((nu, (i + j) * nu.multiplicity(i + j) * (1 if i == j else 2)))
    cuts = []
    for s in values:
        for i in range(1, s // 2 + 1):
            j = s - i
            nu = mu.remove_one(s).add_parts(i, j)
            m_i, m_j = nu.multiplicity(i), nu.multiplicity(j)
            cuts.append((nu, i * j * (m_i * (m_i - 1) if i == j else 2 * m_i * m_j)))
    splits: dict[tuple[Partition, Partition], int] = {}
    for s in values:
        for alpha, beta in _sub_multisets(mu.remove_one(s).parts):
            for i in range(1, s):
                j = s - i
                nu1, nu2 = Partition(alpha + (i,)), Partition(beta + (j,))
                w = i * j * nu1.multiplicity(i) * nu2.multiplicity(j)
                key = (nu1, nu2) if nu2.parts <= nu1.parts else (nu2, nu1)
                splits[key] = splits.get(key, 0) + w
    return (
        tuple(sorted(joins)),
        tuple(sorted(cuts)),
        tuple((nu1, nu2, w) for (nu1, nu2), w in splits.items()),
    )


def _sub_multisets(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every distinct sub-multiset of parts with its complement, each pair
    once, both weakly decreasing: one pair per multiplicity vector."""
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for v in sorted(set(parts), reverse=True):
        m = parts.count(v)
        pairs = [(a + (v,) * k, b + (v,) * (m - k)) for a, b in pairs for k in range(m + 1)]
    return pairs
