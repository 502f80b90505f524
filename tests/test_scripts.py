"""Smoke tests of the exploration scripts: each runs at a small size and
prints exactly the table recorded for it."""

import hashlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, digest",
    [
        (
            "hodge_table.py",
            ("--max-genus", "1", "--max-size", "3"),
            "0bdf95c2f5ea51d4cfc11bb2c9d6ae47a754abbba5b2065e88776629f94cf9b7",
        ),
        (
            "hurwitz_table.py",
            ("--max-degree", "3"),
            "e17d64a7504e31707e44d618af137f953ebb111dbfd50b36bbc074fb0e5dbb28",
        ),
    ],
)
def test_script_output(script, args, digest):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "script, args, flag",
    [
        ("hodge_table.py", ("--max-genus", "7", "--max-size", "1"), "--lambda-order"),
        ("hurwitz_table.py", ("--max-degree", "30"), "--max-degree"),
        # a count past Python's int-to-string limit at the largest degree
        ("hurwitz_table.py", ("--max-branch", "5523"), "--max-branch"),
        ("hurwitz_table.py", ("--max-degree", "12", "--max-branch", "2358"), "--max-branch"),
        ("hurwitz_table.py", ("--max-branch", "-1"), "--max-branch"),
        ("hurwitz_table.py", ("--max-degree", "-3"), "--max-degree"),
        ("hurwitz_table.py", ("--budget", "-1"), "--budget"),
        ("hodge_table.py", ("--max-genus", "0", "--max-size", "0", "--lambda-order", "-2"),
         "--lambda-order"),
        ("hodge_table.py", ("--max-genus", "0", "--lambda-order", "25"), "--lambda-order"),
        ("hodge_table.py", ("--max-size", "13", "--lambda-order", "24"), "--max-size"),
        ("hodge_table.py", ("--max-size", "-1"), "--max-size"),
        ("hodge_table.py", ("--max-genus", "-1"), "--max-genus"),
    ],
)
def test_script_rejects_out_of_range_flags(script, args, flag):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, timeout=30
    )
    assert proc.returncode == 2
    assert flag in proc.stderr.decode()
    assert b"Traceback" not in proc.stderr and not proc.stdout


def test_hurwitz_table_marks_over_budget_cells():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "hurwitz_table.py"), "--max-degree", "3",
         "--budget", "10"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    out = proc.stdout.decode()
    assert "r=4: all=9/2  enum=over-budget  connected=4" in out
    assert "r=2: all=1/2  enum=1/2" in out and "MISMATCH" not in out


def test_hurwitz_table_marks_connected_counts_the_recursion_rejects(monkeypatch, capsys):
    # with the operator column negated, the branch-point recursion fails
    # wherever the connected count is nonzero, and holds at r = 0
    from cutjoin import genfun

    column = genfun._cut_join_column
    monkeypatch.setattr(genfun, "_cut_join_column", lambda *args: -column(*args))
    monkeypatch.setattr(sys, "argv", ["hurwitz_table.py", "--max-degree", "2"])
    runpy.run_path(str(SCRIPTS / "hurwitz_table.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "r=0: all=1  enum=1  connected=1\n" in out
    assert "r=1: all=1/2  enum=1/2  connected=1/2 MISMATCH\n" in out
    assert "<--" not in out
