"""The benchmark's own tests, kept out of the repository's test suite:

    python3 -m pytest -q perfbench/contract_checks.py

They cover the metric-name grammar, the output checks, a failing command
being counted in the failure ratio instead of crashing the run, and the
invariants of the traced run on a few short commands.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    HURWITZ_TIERS,
    REFERENCE,
    WORKLOADS,
    Command,
    Run,
    brute_check,
    check_output,
    connected_matches_brute,
    digest_check,
    draw_hurwitz_queries,
    verify_check,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fake(stdout: str, rc: int = 0) -> Run:
    return Run(rc, stdout.encode(), b"", 0.1, 0.1, 10.0)


def verify_output(suite: str, checks: int, failed: int = 0) -> str:
    lines = [{"record": "config", "command": "verify", "suite": suite}]
    lines += [{"record": "check", "check": f"c{i}", "pass": i >= failed} for i in range(checks)]
    lines.append({"record": "summary", "suite": suite, "checks": checks, "failed": failed})
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in lines)


def hurwitz_output(value: str) -> str:
    return json.dumps({"record": "hurwitz", "value": value}) + "\n"


# -- names -------------------------------------------------------------------


def test_metric_names_follow_the_grammar():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == ["verify-all", "series-w7"]
    assert set(WORKLOADS) == {"verify-all", "series-w7", "covers-chars"}
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in BENCH["per_layer"]] == [u for u, *_ in run.PER_LAYER.values()]
    assert "setup_s" in [m["name"] for m in BENCH["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_hurwitz_draw_is_seeded_and_one_query_per_tier():
    assert draw_hurwitz_queries(7) == draw_hurwitz_queries(7)
    for seed in range(20):
        assert [q in tier for q, tier in zip(draw_hurwitz_queries(seed), HURWITZ_TIERS)] == [True] * 3
    assert len({tuple(draw_hurwitz_queries(s)) for s in range(20)}) > 1
    commands = WORKLOADS["covers-chars"](3)
    assert len(commands) == 14
    assert [c.argv for c in commands] == [c.argv for c in WORKLOADS["covers-chars"](3)]


# -- output checks -----------------------------------------------------------


def test_verify_check():
    check = verify_check("transfer")
    n = REFERENCE["verify_checks"]["transfer"]
    assert check(fake(verify_output("transfer", n)), []) is None
    assert "summary" in check(fake(verify_output("transfer", n, failed=1)), [])
    assert "expected" in check(fake(verify_output("transfer", n - 1)), [])
    assert "exit code" in check(fake(verify_output("transfer", n), rc=1), [])


def test_digest_check():
    check = digest_check("char --degree 12")
    assert "sha256" in check(fake("{}\n"), [])
    assert "exit code" in check(fake("", rc=2), [])


def test_connected_value_must_equal_brute_force_value():
    brute = fake(hurwitz_output("5460/1"))
    assert brute_check(brute, []) is None
    assert connected_matches_brute(fake(hurwitz_output("5460/1")), [brute]) is None
    assert "!=" in connected_matches_brute(fake(hurwitz_output("5461/1")), [brute])
    assert "partner" in connected_matches_brute(fake(hurwitz_output("1/1")), [fake("", rc=3)])


def test_malformed_output_is_a_failure_not_a_crash():
    command = Command(("verify", "--suite", "transfer"), verify_check("transfer"))
    assert "unreadable output" in check_output(command, fake("not json\n"), [])
    assert "unreadable output" in check_output(command, fake(""), [])


# -- whole runs --------------------------------------------------------------


def test_failing_command_is_counted_in_the_fail_ratio():
    commands = [
        Command(("verify", "--suite", "transfer"), verify_check("transfer")),
        Command(("char", "--degree", "99"), digest_check("char --degree 12")),
    ]
    metrics, report = run.untraced(run.Spawner(), commands, seconds=0)
    assert report["attempted"] == 2
    assert len(report["failures"]) == 1 and "exit code 2" in report["failures"][0]
    assert metrics["pass_ratio"] == (0.5, "ratio")
    assert metrics["wall_s"][0] > 0 and metrics["setup_s"][0] > 0


SMALL = [
    Command(("mv-series", "--max-weight", "3", "--lambda-order", "6"), lambda r, p: None),
    Command(("verify", "--suite", "cutjoin-id"), verify_check("cutjoin-id")),
    Command(("hurwitz", "--genus", "0", "--partition", "3", "--method", "brute"), brute_check),
    Command(("hurwitz", "--genus", "0", "--partition", "3", "--method", "connected"),
            connected_matches_brute),
    Command(("verify", "--suite", "transfer"), verify_check("transfer")),
]
EXACT_COUNTS = [
    name for name in run.PER_LAYER
    if name.endswith((".calls", ".tuples", ".terms_out", ".terms", "_bits", "budget_exceeded"))
] + ["trace.spans"]


def test_traced_run_keeps_stdout_and_repeats_exact_counts():
    first, report = run.traced(run.Spawner(), "contract", SMALL)
    assert report["failures"] == []  # byte-identical stdout, self times >= 0, sums <= wall
    second, _ = run.traced(run.Spawner(), "contract", SMALL)
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["exact.GaussianRational.mul.calls"][0] > 0
    assert first["hurwitz.hurwitz_bruteforce.tuples"][0] == 3**2
    assert first["linalg.nullspace.s"][0] > 0
    assert first["hodge.connected.terms"][0] > 0
    module_s = sum(first[f"{m}.self_s"][0] for m in run.MODULES)
    assert 0 < module_s <= report["traced_wall_s"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-w7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_builds_commands(workload):
    commands = WORKLOADS[workload](1)
    assert commands and all(c.argv and callable(c.check) for c in commands)
