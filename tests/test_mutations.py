"""The mutation table: each row replaces one library function with a wrong
one and names the exact set of `verify` check ids that must then fail.

A row is (owner, attribute, mutate, failing): `mutate(real)` returns the
wrong function built from the real one, the test sets it as
`owner.attribute`, the owner being the module (or class) that defines it,
and runs every suite of `cli.SUITES` at the default configuration.  The run
must raise nothing and fail exactly `failing`, a non-empty set of check ids,
so a row shows both that the suites see the wrong value and which checks
see it.  Where `failing` is a dict, each failing check's detail must also
end with the text it maps to, the location the check names.  Every check
family, a check id without its `/<index>=<i>` suffix, is failed by some
row.

Every per-process cache of the package is cleared before and after every
row, through the originals saved here at import, since a row may replace a
cached function itself (tests/test_style.py checks that `CACHED` names
each `functools.cache` function of the package).
"""

import re
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

from cutjoin import characters, exact, genfun, hodge, hurwitz, partitions
from cutjoin.cli import SUITES, RunConfig
from cutjoin.exact import LaurentSeries
from cutjoin.hodge import CgmuPolynomial
from cutjoin.partitions import Partition

CACHED = (
    hodge.build_series_pair,
    hodge._log_sinh_coefficients,
    hodge._sinh_reciprocal,
    hurwitz._kappa_weights,
    partitions.cut_join_incoming,
    partitions.enumerate_partitions,
    characters.character_table,
    characters._mn,
)


def _clear_caches():
    for fn in CACHED:
        fn.cache_clear()
    hurwitz._tables.clear()


def _failures() -> dict[str, str]:
    """The detail of every failing check, by check id."""
    results = [r for suite in SUITES.values() for r in suite(RunConfig())]
    return {r.check_id: r.detail for r in results if not r.passed}


def _each(template: str, values) -> set[str]:
    return {template.format(i) for i in values}


def _character_bumped(real):
    # chi_(2,1,1)((2,2)) + 1: (2,1,1) is the representative of its conjugate
    # pair {(3,1), (2,1,1)} that build_disconnected reads characters of
    bumped = (Partition([2, 1, 1]), Partition([2, 2]))
    return lambda nu, mu: real(nu, mu) + ((nu, mu) == bumped)


def _table_entry_bumped(real):
    # chi_(3,1)((2,1,1)) + 1 in the degree-4 table
    def table(d):
        rows = [list(row) for row in real(d)]
        if d == 4:
            rows[1][2] += 1
        return tuple(map(tuple, rows))

    return table


def _kappa_shifted(real):
    # kappa -> kappa + 2 for kappa != 0: the empty partition's factor stays
    # 1, the constant term ps_log needs
    return lambda kappa, trunc: real(kappa + 2 if kappa else 0, trunc)


def _first_hook_bumped_at_12(real):
    def hooks(nu):
        out = real(nu)
        return (out[0] + 1, *out[1:]) if nu.size == 12 else out

    return hooks


def _conjugate_a_hook_at_12(real):
    # at size 12, the hook (13 - w, 1^(w-1)) for a first row of width w: of
    # the true conjugate's length, so `hooks` reads it without an index
    # error, and the true conjugate on hooks alone
    def transpose(nu):
        if nu.size != 12:
            return real(nu)
        w = nu.parts[0]
        return Partition([13 - w] + [1] * (w - 1))

    return transpose


def _genus1_tail_unweighted(real):
    # (k-2)! -> 1 in the genus-1 closed form adds
    # sum_k ((k-2)! - 1) e_k(mu) d^(l-k) / 24, nonzero from l(mu) = 4 on
    def linear_hodge_factor(g, mu):
        if g != 1:
            return real(g, mu)
        d, l = mu.size, mu.length
        e = [sum(map(prod, combinations(mu.parts, k))) for k in range(l + 1)]
        extra = sum((factorial(k - 2) - 1) * e[k] * d ** (l - k) for k in range(2, l + 1))
        return real(g, mu) + Fraction(extra, 24)

    return linear_hodge_factor


def _sinh_reciprocal_x3_bumped(real):
    # S(x) + x^3 at every order that reaches x^3
    def series(order):
        s = real(order)
        return s + LaurentSeries.monomial(Fraction(1), 3, order) if order >= 3 else s

    return series


def _column_weight_bumped(which: int):
    # every weight of the joins (0), cuts (1) or splits (2) of each column + 1
    def mutate(real):
        def incoming(mu):
            column = list(real(mu))
            column[which] = tuple((*move[:-1], move[-1] + 1) for move in column[which])
            return tuple(column)

        return incoming

    return mutate


# every check that reads the series pair and sees a wrong disconnected series
WRONG_SERIES = {
    "theorem1/linear",
    "theorem1/nonlinear",
    "theorem1/parity",
    "initial/sine-closed-form",
    "extraction/genus0-closed-form",
    "extraction/hodge-division-genus0",
    *_each("extraction/derivative-recursion/g={}", range(3)),
}
# every check that reads the log of a partition series: the connected Hodge
# series, the connected cover counts and the exp-log round trip.  A wrong
# `exact.series_log` also scales the sine amplitude's log-sinh coefficients,
# which no further check sees: the linear evolution holds for any amplitude
WRONG_LOG = {
    "theorem1/nonlinear",
    "initial/sine-closed-form",
    "extraction/genus0-closed-form",
    "extraction/hodge-division-genus0",
    "extraction/one-point-genus1",
    *_each("extraction/derivative-recursion/g={}", range(3)),
    "cutjoin-id/random-exp-log",
    "hurwitz/anchors",
    *_each("hurwitz/connected-vs-transitive/d={}", range(1, 5)),
    *_each("elsv/genus0/d={}", range(1, 6)),
    "elsv/genus1",
    "elsv/reverse-solve",
}
# every check that reads a column of the cut-and-join operator
COLUMN_READERS = {
    *_each("cutjoin-id/d={}", range(2, 9)),
    *_each("extraction/derivative-recursion/g={}", range(3)),
    "theorem1/linear",
    "theorem1/nonlinear",
}

ROWS = [
    pytest.param(
        Partition, "hooks", _first_hook_bumped_at_12,
        {"hooks/sum/d=12"},
        id="hooks-first-plus-one-at-size-12",
    ),
    pytest.param(
        Partition, "transpose", _conjugate_a_hook_at_12,
        {"hooks/sum/d=12", "hooks/transpose/d=12", "hooks/kappa/d=12", "hooks/kappa-rows/d=12"},
        id="transpose-a-hook-at-size-12",
    ),
    pytest.param(
        Partition, "kappa", lambda real: lambda nu: real(nu) + (nu.size == 12),
        {"hooks/kappa/d=12", "hooks/kappa-rows/d=12"},
        id="kappa-plus-one-at-size-12",
    ),
    pytest.param(
        Partition, "kappa", lambda real: lambda nu: -real(nu) if nu.size == 12 else real(nu),
        {"hooks/kappa-rows/d=12"},
        id="kappa-negated-at-size-12",
    ),
    pytest.param(
        characters, "central_character_transposition",
        lambda real: lambda nu: real(nu) + (nu.size == 9),
        {"characters/central/d=09"},
        id="central_character_transposition-plus-one-at-degree-9",
    ),
    pytest.param(
        characters, "dimension_hook", lambda real: lambda nu: real(nu) + (nu.size == 7),
        {"characters/dimension/d=07"},
        id="dimension_hook-plus-one-at-degree-7",
    ),
    pytest.param(
        characters, "character_table", _table_entry_bumped,
        {
            "characters/orthogonality-first/d=4",
            "characters/orthogonality-second/d=4",
            "characters/transpose-sign/d=4",
        },
        id="character_table-one-entry-at-degree-4",
    ),
    pytest.param(
        genfun, "ps_log", lambda real: lambda G: real(G) * 2,
        WRONG_LOG,
        id="ps_log-doubled",
    ),
    pytest.param(
        exact, "series_log", lambda real: lambda x: real(x) * 2,
        WRONG_LOG,
        id="series_log-doubled",
    ),
    pytest.param(
        genfun, "_cut_join_column", lambda real: lambda *args: -real(*args),
        COLUMN_READERS,
        id="cut_join_column-negated",
    ),
    pytest.param(
        partitions, "cut_join_incoming", _column_weight_bumped(0),
        COLUMN_READERS | {"cutjoin-id/random-conjugation"},
        id="cut_join_incoming-join-weights",
    ),
    pytest.param(
        partitions, "cut_join_incoming", _column_weight_bumped(1),
        (COLUMN_READERS - {"extraction/derivative-recursion/g=0"})
        | {"cutjoin-id/random-conjugation"},
        id="cut_join_incoming-cut-weights",
    ),
    pytest.param(
        partitions, "cut_join_incoming", _column_weight_bumped(2),
        {
            "cutjoin-id/random-conjugation",
            "theorem1/nonlinear",
            *_each("extraction/derivative-recursion/g={}", range(3)),
        },
        id="cut_join_incoming-split-weights",
    ),
    pytest.param(
        hurwitz, "hurwitz_bruteforce",
        lambda real: lambda *args, **kwargs: real(*args, **kwargs) + Fraction(1, 10**9),
        _each("hurwitz/character-vs-brute/d={}", range(1, 5))
        | _each("hurwitz/connected-vs-transitive/d={}", range(1, 5)),
        id="hurwitz_bruteforce-plus-a-billionth",
    ),
    pytest.param(
        hurwitz, "hurwitz_bruteforce",
        lambda real: lambda r, mu, *args, **kwargs: (
            real(r, mu, *args, **kwargs) + (mu == Partition([2, 1]))
        ),
        {"hurwitz/character-vs-brute/d=3", "hurwitz/connected-vs-transitive/d=3"},
        id="hurwitz_bruteforce-plus-one-at-2,1",
    ),
    pytest.param(
        characters, "character", _character_bumped,
        WRONG_SERIES
        | {
            "characters/orthogonality-first/d=4",
            "characters/orthogonality-second/d=4",
            "characters/transpose-sign/d=4",
            "characters/principal-specialization",
            "cutjoin-id/d=4",
            "hurwitz/character-vs-brute/d=4",
            "hurwitz/connected-vs-transitive/d=4",
            "hurwitz/parity",
            "elsv/genus0/d=4",
            "elsv/genus0/d=5",
            "elsv/genus1",
        },
        id="character-one-value",
    ),
    pytest.param(
        hodge, "kappa_exp_factor", _kappa_shifted,
        WRONG_SERIES,
        id="kappa_exp_factor-shifted",
    ),
    pytest.param(
        hurwitz, "linear_hodge_factor", _genus1_tail_unweighted,
        {"elsv/genus1"},
        id="linear_hodge_factor-genus1-tail-unweighted",
    ),
    pytest.param(
        hodge, "_sinh_reciprocal", _sinh_reciprocal_x3_bumped,
        {
            "initial/sine-closed-form",
            "extraction/genus0-closed-form",
            "extraction/hodge-division-genus0",
            "extraction/sine-reciprocal",
        },
        id="sinh_reciprocal-x3-plus-one",
    ),
    pytest.param(
        hodge, "lambda_g_coefficients",
        lambda real: lambda order: [(-1) ** g * b for g, b in enumerate(real(order))],
        {"extraction/sine-reciprocal"},
        id="lambda_g_coefficients-sign-dropped",
    ),
    pytest.param(
        CgmuPolynomial, "degree_ok", lambda real: lambda c: c.g != 3 and real(c),
        {"extraction/degree/g=3"},
        id="degree_ok-false-at-genus-3",
    ),
    pytest.param(
        hodge, "v_forms_agree", lambda real: lambda nu: nu != Partition([3, 2]) and real(nu),
        {"prop-v/d=05": "; first failure at 3,2"},
        id="v_forms_agree-false-at-3,2",
    ),
    pytest.param(
        CgmuPolynomial, "symmetry_ok", lambda real: lambda c: c.g != 2 and real(c),
        {"extraction/symmetry/g=2"},
        id="symmetry_ok-false-at-genus-2",
    ),
    pytest.param(
        hodge, "transfer_system_kernel", lambda real: lambda l: [-x for x in real(l)],
        _each("transfer/l={:02d}", range(1, 11)),
        id="transfer_system_kernel-negated",
    ),
    pytest.param(
        hodge, "transfer_system_kernel",
        lambda real: lambda l: real(l)[::-1] if l == 7 else real(l),
        {"transfer/l=07"},
        id="transfer_system_kernel-reversed-at-7",
    ),
]


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.mark.parametrize("owner, attribute, mutate, failing", ROWS)
def test_mutant_fails_exactly_its_checks(
    monkeypatch, clean_caches, owner, attribute, mutate, failing
):
    assert failing
    monkeypatch.setattr(owner, attribute, mutate(getattr(owner, attribute)))
    failures = _failures()
    assert set(failures) == set(failing)
    for check_id, ending in (failing.items() if isinstance(failing, dict) else ()):
        assert failures[check_id].endswith(ending)


def test_a_failing_evolution_check_names_its_first_mismatch(monkeypatch, clean_caches):
    # the detail of a failing theorem1 check names the partition, x exponent
    # and tau degree where the two sides first part, and both values
    monkeypatch.setattr(hodge, "kappa_exp_factor", _kappa_shifted(hodge.kappa_exp_factor))
    details = {r.check_id: r.detail for r in SUITES["theorem1"](RunConfig()) if not r.passed}
    scope = "weight<=6, order<=12; "
    assert details["theorem1/linear"] == scope + "first mismatch at p_(2) x^-1 tau^0: 0 != 1/2"
    # a pole below l(mu) - 2 against the zero the structure allows there
    assert details["theorem1/parity"] == scope + "first mismatch at p_(1,1,1) x^-1 tau^0: 1/36 != 0"


def _family(check_id: str) -> str:
    """A check id without its `/<index>=<i>` suffix."""
    return re.sub(r"/[a-z]=\d+$", "", check_id)


def test_every_family_is_failed_by_some_row():
    families = {_family(r.check_id) for suite in SUITES.values() for r in suite(RunConfig())}
    assert len(families) == 33
    seen = {_family(check_id) for row in ROWS for check_id in row.values[-1]}
    assert families - seen == set()


def test_every_suite_passes_after_the_table():
    # runs after the rows with the caches as they left them: no value built
    # under a mutant is still cached
    assert _failures() == {}
