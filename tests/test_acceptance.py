"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every assertion is exact (the project is exact-arithmetic
throughout); the only tolerances are the stated wall-clock budgets.

A criterion that a `verify` suite states runs that suite at the default
configuration and reads the verdicts of the check families it names, so each
identity, its range and its anchor values are written once, in the suite.
"""

import os
import subprocess
import sys
import time

from cutjoin.cli import SUITES, RunConfig
from cutjoin.exact import TauPolynomial
from cutjoin.hodge import build_series_pair, extract_C_gmu, hodge_polynomial
from cutjoin.hurwitz import hurwitz_cutjoin_check
from cutjoin.partitions import Partition, enumerate_partitions

from test_hodge import _one_point_genus1_oracle

P = Partition


def report(number: int, passed: bool, description: str) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{state}]: {description}")
    assert passed, f"criterion {number}: {description}"


def families_pass(suite: str, *families: str) -> bool:
    """Whether the `verify` suite, run at the default configuration, has a
    check in each named family and every check of those families passes.
    A check's family is its id without the `/<index>=<i>` tail of a family
    declared per degree, genus or length; a one-off check is its own family."""
    verdicts = {}
    for check in SUITES[suite](RunConfig()):
        head, _, tail = check.check_id.rpartition("/")
        verdicts.setdefault(head if "=" in tail else check.check_id, []).append(check.passed)
    return all(verdicts.get(family) and all(verdicts[family]) for family in families)


def test_01_hook_identities_and_sine_products():
    t0 = time.monotonic()
    ok = families_pass("hooks", "hooks/sum") and families_pass("prop-v", "prop-v")
    elapsed = time.monotonic() - t0
    report(
        1,
        ok and elapsed < 30,
        f"hook sums to |shape|<=12 and exact sine-product identity to "
        f"|shape|<=10 ({elapsed:.1f}s < 30s)",
    )


def test_02_character_engine():
    ok = families_pass(
        "characters",
        "characters/orthogonality-first",
        "characters/orthogonality-second",
        "characters/dimension",
        "characters/central",
    )
    report(
        2,
        ok,
        "orthogonality d<=8, hook dimensions d<=10, central character vs "
        "half-kappa |shape|<=10",
    )


def test_03_schur_eigenvector_identity():
    ok = families_pass("cutjoin-id", "cutjoin-id")
    report(3, ok, "f(transpositions) * s = (1/2) Omega(s) for all |shape|<=8")


def test_04_evolution_equation_full_size():
    t0 = time.monotonic()
    ok = families_pass("theorem1", "theorem1/linear", "theorem1/nonlinear")
    elapsed = time.monotonic() - t0
    report(
        4,
        ok and elapsed < 300,
        f"both evolution-equation forms exact at weight 6, order 12 "
        f"({elapsed:.1f}s < 300s)",
    )


def test_05_initial_condition():
    ok = families_pass("initial", "initial/sine-closed-form")
    report(
        5,
        ok,
        "connected series at tau=0 equals the sine closed form, rows d<=6 "
        "to order 12",
    )


def test_06_extraction_sanity():
    _, conn = build_series_pair(6, 12)
    ok = (
        families_pass(
            "extraction",
            "extraction/genus0-closed-form",
            "extraction/degree",
            "extraction/symmetry",
            "extraction/one-point-genus1",
        )
        and extract_C_gmu(conn, 0, P([1])).poly == TauPolynomial([1])
        and hodge_polynomial(1, P([1]), conn) == _one_point_genus1_oracle()
    )
    report(
        6,
        ok,
        "definition route equals extraction, degree/symmetry structure for "
        "g<=3 |mu|<=4, one-point genus-1 value matches the 1/24 oracle",
    )


def test_07_sine_reciprocal_coefficients():
    ok = families_pass("extraction", "extraction/sine-reciprocal")
    report(7, ok, "(x/2)/sin(x/2) coefficients 1, 1/24, 7/5760 exact")


def test_08_cover_count_oracle_equivalence():
    t0 = time.monotonic()
    ok = families_pass(
        "hurwitz",
        "hurwitz/character-vs-brute",
        "hurwitz/connected-vs-transitive",
        "hurwitz/anchors",
    )
    elapsed = time.monotonic() - t0
    report(
        8,
        ok and elapsed < 120,
        f"character route matches enumeration for d<=4, r<=6, both "
        f"normalizations, plus anchor values ({elapsed:.1f}s < 120s)",
    )


def test_09_cover_count_closed_form_and_reverse_solve():
    ok = families_pass("elsv", "elsv/genus0", "elsv/genus1", "elsv/reverse-solve")
    report(
        9,
        ok,
        "closed form exact for genus 0 |mu|<=5 and genus 1 rows 2,3,4; "
        "reverse solve recovers (1/24, 1/24)",
    )


def test_10_cover_count_recursion():
    ok = all(
        hurwitz_cutjoin_check(g, mu)
        for g in range(3)
        for d in range(1, 5)
        for mu in enumerate_partitions(d)
    )
    report(10, ok, "branch-point recursion exact for g<=2, |mu|<=4")


def test_11_transfer_kernel():
    ok = families_pass("transfer", "transfer")
    report(11, ok, "one-dimensional kernel equals alternating binomials, l<=10")


def test_12_determinism_and_total_runtime():
    env = dict(os.environ)
    env.pop("CUTJOIN_BUDGET", None)
    outputs, codes, times = [], [], []
    for _ in range(2):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "cutjoin", "verify", "--suite", "all"],
            capture_output=True,
            text=True,
            env=env,
        )
        times.append(time.monotonic() - t0)
        outputs.append(proc.stdout)
        codes.append(proc.returncode)
    ok = (
        codes == [0, 0]
        and outputs[0] == outputs[1]
        and len(outputs[0]) > 0
        and max(times) < 600
    )
    report(
        12,
        ok,
        f"verify --suite all passes twice with byte-identical reports "
        f"({times[0]:.0f}s, {times[1]:.0f}s, both < 600s)",
    )


def test_families_pass_needs_a_check_in_each_family():
    assert families_pass("elsv", "elsv/genus1")
    assert not families_pass("elsv", "elsv/genus1", "elsv/genus2")


def test_families_pass_fails_on_one_failing_check(monkeypatch):
    from cutjoin import hodge

    kernel = hodge.transfer_system_kernel

    def wrong_at_3(l):
        return kernel(l)[::-1] if l == 3 else kernel(l)

    monkeypatch.setattr(hodge, "transfer_system_kernel", wrong_at_3)
    failing = [r.check_id for r in SUITES["transfer"](RunConfig()) if not r.passed]
    assert failing == ["transfer/l=03"]
    assert not families_pass("transfer", "transfer")
