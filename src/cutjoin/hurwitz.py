"""Branched-cover counts by characters and by brute force.

A cover count here is the number of r-tuples of transpositions in S_d whose
product is one fixed permutation of cycle type mu, divided by z_mu.  The
character route is one integer sum, the class-algebra sum grouped by content
value (`hurwitz_disconnected`); the brute-force route counts tuples without
characters, layer by layer over (product, blocks of joined points) states,
optionally keeping only the transitive ones.  The exponential formula
converts between the two normalizations (all covers vs connected covers):
each count of that one sum is r! [x^r] of a finite sum of exponentials
e^(kappa x/2), so one log per degree, of polynomials in y = e^x, serves every
r.  Both routes are required to agree wherever enumeration is feasible.

The branch-point recursion is read on h = H/r!: r * h_{g,mu} is half the
x^(r-1) coefficient of the nonlinear cut-and-join operator's column at p_mu
on the connected series, the column the Hodge series' tau evolution also
reads; on exponential sums both sides are power sums of the exponents.

The Hodge side of the ELSV formula is a closed form at genus 0,
|mu|^(l-3), and at genus 1, Vakil's formula in |mu|, l(mu) and the
elementary symmetric functions of the parts (`linear_hodge_factor`); both
are checked against the cover counts.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache
from math import factorial

from . import characters, genfun, linalg, partitions
from .exact import RealTauPolynomial
from .genfun import PartitionSeries
from .partitions import EMPTY, Partition

DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured work budget."""

    def __init__(self, estimate: str, budget: int):
        self.budget = budget
        super().__init__(f"estimated {estimate} exceeds the budget of {budget}")


def branch_count(g: int, mu: Partition) -> int:
    """r = 2g - 2 + |mu| + l(mu), the number of simple branch points."""
    return 2 * g - 2 + mu.size + mu.length


def transpositions(d: int) -> list[tuple[int, ...]]:
    """All transpositions of S_d as mapping tuples."""
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            perm = list(range(d))
            perm[a], perm[b] = b, a
            out.append(tuple(perm))
    return out


def canonical_permutation(mu: Partition) -> tuple[int, ...]:
    """A fixed permutation of cycle type mu: cycles laid out consecutively."""
    d = mu.size
    perm = list(range(d))
    start = 0
    for part in mu:
        for k in range(part):
            perm[start + k] = start + (k + 1) % part
        start += part
    return tuple(perm)


def hurwitz_bruteforce(
    r: int,
    mu: Partition,
    transitive_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Count r-tuples of transpositions multiplying to a fixed permutation
    sigma of type mu; exact count divided by z_mu.

    Each layer maps a state (product so far, blocks of the points joined so
    far, each labelled by its smallest point) to the number of prefixes
    reaching it; blocks are tracked only when transitive_only is set.  A
    state is dropped when its distance to sigma, d minus the cycles of
    sigma * product^-1, exceeds the steps left: a transposition moves that
    distance by exactly 1, so no counted tuple is lost, and a layer holds at
    most d! * Bell(d) states.  Transitive means the transpositions join all
    points into one block.  sigma's cycles need no joining in: a product
    equal to sigma lies in the group the transpositions generate, which maps
    every block to itself, so each cycle of sigma already lies in one block.
    The budget caps the tuple count |transpositions|^r, never visited one
    by one, and the layer count r, which binds only where there is at most
    one transposition and so at most one tuple.
    """
    d = mu.size
    if d < 1 or r < 0:
        raise ValueError(f"requires a nonempty partition and r >= 0, got r={r}")
    n = d * (d - 1) // 2  # transpositions, listed only once both budgets pass
    tuples = 1  # n^r, multiplied out only while it grows within the budget
    for _ in range(r):
        tuples *= n
        if tuples > budget or tuples <= 1:
            break
    if tuples > budget:
        raise BudgetExceededError(f"{n}^{r} tuples", budget)
    if r > budget:  # one layer per branch point, even with no tuple to visit
        raise BudgetExceededError(f"{r} layers", budget)
    sigma = canonical_permutation(mu)
    moves = [(t, *(i for i in range(d) if t[i] != i)) for t in transpositions(d)]

    @cache
    def distance(prod: tuple[int, ...]) -> int:
        rest = dict(zip(prod, sigma))  # sigma * prod^-1
        cycles = 0
        while rest:
            cycles += 1
            j = next(iter(rest))
            while j in rest:
                j = rest.pop(j)
        return d - cycles

    identity = tuple(range(d))
    layer = {(identity, identity if transitive_only else ()): 1}
    for left in reversed(range(r)):
        if not layer:  # all pruned; r itself may be huge
            break
        step = defaultdict(int)
        for (prod, blocks), count in layer.items():
            for t, a, b in moves:
                new = tuple(map(t.__getitem__, prod))
                if distance(new) > left:
                    continue
                if blocks and blocks[a] != blocks[b]:
                    lo, hi = sorted((blocks[a], blocks[b]))
                    step[new, tuple(lo if x == hi else x for x in blocks)] += count
                else:
                    step[new, blocks] += count
        layer = step
    one_block = (0,) * d if transitive_only else ()
    return Fraction(layer.get((sigma, one_block), 0), mu.z())


def hurwitz_disconnected(r: int, mu: Partition) -> Fraction:
    """Character-sum route for the all-covers count:
    (1/(z_mu * d!)) * sum_nu dim(nu) * chi_nu(mu) * (kappa_nu/2)^r, summed
    in integers as sum_k w_k k^r / (2^r z_mu d!) over `_kappa_weights`."""
    if mu.size < 1:
        raise ValueError("requires a nonempty partition")
    total = sum(w * k**r for k, w in _kappa_weights(mu).items())
    return Fraction(total, 2**r * mu.z() * factorial(mu.size))


@cache
def _kappa_weights(mu: Partition) -> dict[int, int]:
    """sum_nu dim(nu) * chi_nu(mu) over the nu of each content value kappa_nu,
    the nonzero sums only: the character sum of `hurwitz_disconnected`
    grouped by the base of its power."""
    weights = defaultdict(int)
    for nu in partitions.enumerate_partitions(mu.size):
        chi = characters.character(nu, mu)
        if chi:
            weights[nu.kappa()] += characters.dimension(nu) * chi
    return {k: w for k, w in weights.items() if w}


@cache
def _connected_log(d: int) -> PartitionSeries:
    """The connected cover series to degree d: the log (exponential formula)
    of sum_mu sum_k w_k y^(k/2) / (z_mu |mu|!) p_mu over `_kappa_weights`,
    the disconnected series at y = e^x, exact at every r at once (every
    kappa is even).  The coefficient of p_mu is stored times y^(|mu| d//2),
    which clears every negative exponent as |kappa|/2 <= |mu| (|mu| - 1)/2;
    the shift is linear in the weight, so products keep it."""
    shift = d // 2
    terms = {EMPTY: 1}
    for size in range(1, d + 1):
        for mu in partitions.enumerate_partitions(size):
            nums = [0] * (2 * size * shift + 1)
            for k, w in _kappa_weights(mu).items():
                nums[k // 2 + size * shift] = w
            terms[mu] = RealTauPolynomial._make(nums, mu.z() * factorial(size))
    return genfun.ps_log(PartitionSeries(terms, d))


def _power_sum(p, mu: Partition, r: int) -> Fraction:
    """r! [x^r] of a coefficient p = sum_j a_j y^j at p_mu of
    `_connected_log(|mu|)`: sum_j a_j (j - s)^r with s = |mu| (|mu| // 2)."""
    if not p:
        return Fraction(0)
    s = mu.size * (mu.size // 2)
    return Fraction(sum(a * (j - s) ** r for j, a in enumerate(p.nums)), p.den)


def hurwitz_connected(g: int, mu: Partition) -> Fraction:
    """Connected count at genus g; zero when the branch count is negative."""
    r = branch_count(g, mu)
    if r < 0:
        return Fraction(0)
    return _power_sum(_connected_log(mu.size).coefficient(mu), mu, r)


# -- genus 0 and 1 linear Hodge factors: closed forms (genus 1: Vakil 2001) --


def linear_hodge_factor(g: int, mu: Partition) -> Fraction:
    """The curve-space integral in the cover-count formula, at genus 0 or 1.

    Genus 0 is the closed form |mu|^(l-3), which also extends the definition
    below three points.  Genus 1 is
    (d^l - d^(l-1) - sum_{k=2..l} (k-2)! e_k(mu) d^(l-k)) / 24, with
    d = |mu| and l = l(mu), the closed form of Vakil's proof of the
    Goulden-Jackson genus-1 conjecture ("Genus 0 and 1 Hurwitz numbers:
    recursions, formulas, and graph-theoretic interpretations", 2001).
    """
    d, l = mu.size, mu.length
    if g == 0:
        return Fraction(d) ** (l - 3)
    if g != 1:
        raise ValueError(f"no independent evaluation available for genus {g}")
    e = [1]  # e_0, ..., e_l of the parts: the coefficients of prod_i (1 + mu_i t)
    for m in mu:
        e = [a + m * b for a, b in zip(e + [0], [0] + e)]
    tail = sum(factorial(k - 2) * e[k] * d ** (l - k) for k in range(2, l + 1))
    return Fraction(d**l - d ** (l - 1) - tail, 24)


def _elsv_prefactor(g: int, mu: Partition) -> Fraction:
    """r!/|Aut(mu)| * prod mu_i^mu_i / mu_i!, with r the branch count."""
    pref = Fraction(factorial(branch_count(g, mu)), mu.aut_order())
    for m in mu:
        pref *= Fraction(m**m, factorial(m))
    return pref


def elsv_value(g: int, mu: Partition) -> Fraction:
    """Hook-type prefactor times the closed-form linear Hodge factor:
    r!/|Aut(mu)| * prod mu_i^mu_i / mu_i! * (curve-space integral)."""
    return _elsv_prefactor(g, mu) * linear_hodge_factor(g, mu)


def elsv_check(g: int, mu: Partition) -> bool:
    """Exact equality of the cover count with its Hodge-side closed form."""
    if g > 1:
        raise ValueError("the Hodge side is only independently known for g <= 1")
    return elsv_value(g, mu) == hurwitz_connected(g, mu)


def solve_hodge_from_hurwitz(part_sizes: list[int]) -> dict[str, Fraction]:
    """Read the one-point genus-1 integrals back out of cover counts.

    For single-row mu = (m) the genus-1 relation is linear in the two unknown
    integrals x (psi) and y (Hodge class):  m*x - y = H / prefactor.
    Two or more degrees determine them; extra degrees must stay consistent.
    """
    if len(part_sizes) < 2:
        raise ValueError("need at least two degrees to determine two integrals")
    rows, rhs = [], []
    for m in part_sizes:
        mu = Partition([m])
        rows.append([Fraction(m), Fraction(-1)])
        rhs.append(hurwitz_connected(1, mu) / _elsv_prefactor(1, mu))
    sol = linalg.solve(rows, rhs)
    return {"psi": sol[0], "lambda": sol[1]}


def hurwitz_cutjoin_check(g: int, mu: Partition) -> bool:
    """The branch-point recursion r * h_{g,mu} = (1/2) Omega~(h)[x^(r-1) p_mu]
    on the connected cover series of h = H/r!: Goulden-Jackson's
    dH/dx = (1/2) Omega~(H) for H = sum H_{g,mu} x^r/r! p_mu ("Transitive
    factorizations into transpositions and holomorphic mappings on the
    sphere", 1997) at x^(r-1) p_mu, read off the one column of the operator:
    times (r-1)!, the r-th `_power_sum` of h_mu is half the (r-1)-th of it.
    On the raw counts each split would carry the ways C(r - 1, r1) =
    (r-1)!/(r1! r2!) to place r1 of the other branch points on its first
    component; the 1/r! absorbs that binomial into the values.  At r <= 0
    both sides are 0.
    """
    r = branch_count(g, mu)
    if r < 1:
        return True
    h = _connected_log(mu.size)
    column = genfun._cut_join_column(h.terms, mu, True)
    return _power_sum(h.coefficient(mu), mu, r) == _power_sum(column, mu, r - 1) / 2
