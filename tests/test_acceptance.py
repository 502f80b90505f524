"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every assertion is exact (the project is exact-arithmetic
throughout); the only tolerances are the stated wall-clock budgets.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

from cutjoin.characters import (
    central_character_transposition,
    character,
    dimension,
    dimension_hook,
)
from cutjoin.exact import TauPolynomial
from cutjoin.genfun import character_cutjoin_identity
from cutjoin.hodge import (
    build_series_pair,
    cutjoin_derivative_check,
    extract_C_gmu,
    genus0_closed_form,
    hodge_polynomial,
    initial_condition_check,
    lambda_g_coefficients,
    theorem1_verdicts,
    transfer_system_kernel,
    v_forms_agree,
)
from cutjoin.hurwitz import (
    branch_count,
    elsv_check,
    hurwitz_bruteforce,
    hurwitz_connected,
    hurwitz_cutjoin_check,
    hurwitz_disconnected,
    solve_hodge_from_hurwitz,
)
from cutjoin.partitions import Partition, enumerate_partitions

from test_hodge import _one_point_genus1_oracle

P = Partition


def report(number: int, passed: bool, description: str) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{state}]: {description}")
    assert passed, f"criterion {number}: {description}"


def test_01_hook_identities_and_sine_products():
    t0 = time.monotonic()
    hooks_ok = all(
        sum(nu.hooks()) == nu.n_weight() + nu.transpose().n_weight() + nu.size
        for d in range(13)
        for nu in enumerate_partitions(d)
    )
    forms_ok = all(
        v_forms_agree(nu) for d in range(1, 11) for nu in enumerate_partitions(d)
    )
    elapsed = time.monotonic() - t0
    report(
        1,
        hooks_ok and forms_ok and elapsed < 30,
        f"hook sums to |shape|<=12 and exact sine-product identity to "
        f"|shape|<=10 ({elapsed:.1f}s < 30s)",
    )


def test_02_character_engine():
    ortho = True
    for d in range(1, 9):
        parts = enumerate_partitions(d)
        for a in parts:
            for b in parts:
                first = sum(
                    Fraction(character(a, mu) * character(b, mu), mu.z())
                    for mu in parts
                )
                ortho &= first == (1 if a == b else 0)
                second = sum(
                    character(nu, a) * character(nu, b) for nu in parts
                )
                ortho &= second == (a.z() if a == b else 0)
    dims = all(
        dimension(nu) == dimension_hook(nu)
        for d in range(1, 11)
        for nu in enumerate_partitions(d)
    )
    central = all(
        central_character_transposition(nu) == Fraction(nu.kappa(), 2)
        for d in range(1, 11)
        for nu in enumerate_partitions(d)
    )
    report(
        2,
        ortho and dims and central,
        "orthogonality d<=8, hook dimensions d<=10, central character vs "
        "half-kappa |shape|<=10",
    )


def test_03_schur_eigenvector_identity():
    ok = all(
        character_cutjoin_identity(nu)
        for d in range(1, 9)
        for nu in enumerate_partitions(d)
    )
    report(3, ok, "f(transpositions) * s = (1/2) Omega(s) for all |shape|<=8")


def test_04_evolution_equation_full_size():
    t0 = time.monotonic()
    ok = theorem1_verdicts(6, 12) == (True, True)
    elapsed = time.monotonic() - t0
    report(
        4,
        ok and elapsed < 300,
        f"both evolution-equation forms exact at weight 6, order 12 "
        f"({elapsed:.1f}s < 300s)",
    )


def test_05_initial_condition():
    ok = initial_condition_check(6, 12)
    report(
        5,
        ok,
        "connected series at tau=0 equals the sine closed form, rows d<=6 "
        "to order 12",
    )


def test_06_extraction_sanity():
    _, conn = build_series_pair(6, 12)
    anchors = (
        extract_C_gmu(conn, 0, P([1])).real == genus0_closed_form(P([1]))
        and extract_C_gmu(conn, 0, P([2])).real == genus0_closed_form(P([2]))
        and extract_C_gmu(conn, 0, P([1, 1])).real == genus0_closed_form(P([1, 1]))
        and extract_C_gmu(conn, 0, P([1])).poly == TauPolynomial([1])
    )
    structure = all(
        extract_C_gmu(conn, g, mu).degree_ok()
        and extract_C_gmu(conn, g, mu).symmetry_ok()
        for g in range(4)
        for d in range(1, 5)
        for mu in enumerate_partitions(d)
    )
    one_point = hodge_polynomial(1, P([1]), conn) == _one_point_genus1_oracle()
    report(
        6,
        anchors and structure and one_point,
        "definition route equals extraction, degree/symmetry structure for "
        "g<=3 |mu|<=4, one-point genus-1 value matches the 1/24 oracle",
    )


def test_07_sine_reciprocal_coefficients():
    coeffs = lambda_g_coefficients(4)
    ok = coeffs == [Fraction(1), Fraction(1, 24), Fraction(7, 5760)]
    report(7, ok, "(x/2)/sin(x/2) coefficients 1, 1/24, 7/5760 exact")


def test_08_cover_count_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for d in range(1, 5):
        for mu in enumerate_partitions(d):
            for r in range(7):
                ok &= hurwitz_disconnected(r, mu) == hurwitz_bruteforce(r, mu)
            for g in range(0, 4):
                r = branch_count(g, mu)
                if 0 <= r <= 6:
                    ok &= hurwitz_connected(g, mu) == hurwitz_bruteforce(
                        r, mu, transitive_only=True
                    )
    anchors = (
        hurwitz_connected(0, P([2])) == Fraction(1, 2)
        and hurwitz_connected(0, P([3])) == 1
        and hurwitz_connected(1, P([2])) == Fraction(1, 2)
    )
    elapsed = time.monotonic() - t0
    report(
        8,
        ok and anchors and elapsed < 120,
        f"character route matches enumeration for d<=4, r<=6, both "
        f"normalizations, plus anchor values ({elapsed:.1f}s < 120s)",
    )


def test_09_cover_count_closed_form_and_reverse_solve():
    forward = all(
        elsv_check(0, mu) for d in range(1, 6) for mu in enumerate_partitions(d)
    ) and all(elsv_check(1, P([m])) for m in (2, 3, 4))
    reverse = solve_hodge_from_hurwitz([2, 3]) == {
        "psi": Fraction(1, 24),
        "lambda": Fraction(1, 24),
    }
    report(
        9,
        forward and reverse,
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
    from math import comb

    ok = all(
        transfer_system_kernel(l)
        == [Fraction((-1) ** k * comb(l, k)) for k in range(l + 1)]
        for l in range(1, 11)
    )
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
