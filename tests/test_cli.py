import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cutjoin.cli import RunConfig, SUITES, cmd_verify, main

FIXTURE = Path(__file__).parent / "data" / "mv_series_w2_o6.jsonl"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CUTJOIN_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "cutjoin", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def main_lines(*args):
    buf = io.StringIO()
    stdout, sys.stdout = sys.stdout, buf
    try:
        code = main(list(args))
    finally:
        sys.stdout = stdout
    return code, buf.getvalue().splitlines()


class TestChar:
    def test_degree_two_table(self):
        code, lines = main_lines("char", "--degree", "2")
        assert code == 0
        rows = [json.loads(l) for l in lines if '"char-row"' in l]
        assert rows[0]["values"] == {"2": 1, "1,1": 1}
        assert rows[1]["values"] == {"2": -1, "1,1": 1}

    def test_degree_one(self):
        code, lines = main_lines("char", "--degree", "1")
        rows = [json.loads(l) for l in lines if '"char-row"' in l]
        assert code == 0 and rows[0]["values"] == {"1": 1}

    def test_degree_three_orthogonality(self):
        from fractions import Fraction

        code, lines = main_lines("char", "--degree", "3")
        rows = [json.loads(l) for l in lines if '"char-row"' in l]
        z = {"3": 3, "2,1": 2, "1,1,1": 6}
        for a in rows:
            for b in rows:
                total = sum(
                    Fraction(a["values"][k] * b["values"][k], z[k]) for k in z
                )
                assert total == (1 if a["irrep"] == b["irrep"] else 0)

    def test_out_of_range_is_usage_error(self):
        proc = run_cli("char", "--degree", "13")
        assert proc.returncode == 2

    def test_csv_format(self):
        code, lines = main_lines("char", "--degree", "2", "--format", "csv")
        assert code == 0
        assert lines[0] == "irrep,2,1,1"
        assert lines[1] == '"2",1,1'


class TestComputeCommands:
    def test_hurwitz_value(self):
        code, lines = main_lines("hurwitz", "--genus", "1", "--partition", "2")
        rec = json.loads(lines[-1])
        assert code == 0 and rec["value"] == "1/2" and rec["branch_points"] == 3

    def test_hurwitz_methods_agree(self):
        values = {}
        for method in ("char", "brute", "connected"):
            _, lines = main_lines(
                "hurwitz", "--genus", "0", "--partition", "3", "--method", method
            )
            values[method] = json.loads(lines[-1])["value"]
        assert values["brute"] == values["connected"] == "1/1"

    def test_hodge_value(self):
        code, lines = main_lines(
            "hodge", "--genus", "0", "--partition", "3,1",
            "--max-weight", "4", "--lambda-order", "6",
        )
        rec = json.loads(lines[-1])
        assert code == 0
        assert rec["polynomial"] == [{"re": "1/4", "im": "0/1"}]

    def test_budget_exceeded_exit_code(self):
        proc = run_cli(
            "hurwitz", "--genus", "2", "--partition", "4",
            "--method", "brute", "--budget", "10",
        )
        assert proc.returncode == 3
        assert "budget" in proc.stderr

    def test_env_budget_is_echoed(self):
        proc = run_cli(
            "hurwitz", "--genus", "0", "--partition", "2",
            env_extra={"CUTJOIN_BUDGET": "123456"},
        )
        config = json.loads(proc.stdout.splitlines()[0])
        assert config["budget"] == 123456 and config["budget_from_env"] is True

    def test_bad_partition_is_usage_error(self):
        proc = run_cli("hurwitz", "--genus", "0", "--partition", "zebra")
        assert proc.returncode == 2

    def test_truncation_exceeded_is_usage_error(self):
        proc = run_cli(
            "hodge", "--genus", "0", "--partition", "5", "--max-weight", "4"
        )
        assert proc.returncode == 2

    def test_negative_hodge_genus_is_usage_error(self):
        proc = run_cli("hodge", "--genus", "-1", "--partition", "1")
        assert proc.returncode == 2
        assert "--genus must be nonnegative" in proc.stderr
        assert proc.stdout == ""

    def test_malformed_env_budget_is_usage_error(self):
        proc = run_cli(
            "hurwitz", "--genus", "0", "--partition", "2",
            env_extra={"CUTJOIN_BUDGET": "abc"},
        )
        assert proc.returncode == 2
        assert "CUTJOIN_BUDGET" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2

    def test_suite_names_match_contract(self):
        assert set(SUITES) == {
            "hooks", "prop-v", "characters", "cutjoin-id", "theorem1",
            "initial", "extraction", "hurwitz", "elsv", "transfer",
        }

    def test_transfer_suite_passes(self):
        code, lines = main_lines("verify", "--suite", "transfer")
        assert code == 0
        summary = json.loads(lines[-1])
        assert summary["failed"] == 0 and summary["checks"] == 10

    def test_records_carry_identity_and_config_echo(self):
        code, lines = main_lines("verify", "--suite", "hooks")
        config = json.loads(lines[0])
        assert config["record"] == "config" and config["max_weight"] == 6
        checks = [json.loads(l) for l in lines if '"check"' in l]
        assert checks and all("identity" in c for c in checks)

    def test_deterministic_output(self):
        a = run_cli("verify", "--suite", "hooks")
        b = run_cli("verify", "--suite", "hooks")
        assert a.stdout == b.stdout and a.returncode == 0

    def test_failure_exit_code(self, capsys):
        # inject a failing pseudo-suite through the registry
        def broken(config):
            from cutjoin.cli import CheckResult

            return [CheckResult("broken/one", "always-false", False, "")]

        SUITES["_broken"] = broken
        try:
            code = cmd_verify(RunConfig(), "_broken", io.StringIO())
            assert code == 1
        finally:
            del SUITES["_broken"]

    def test_pretty_format(self):
        code, lines = main_lines(
            "verify", "--suite", "transfer", "--format", "pretty"
        )
        assert code == 0 and any("transfer/l=01" in l for l in lines)


class TestGoldenFixture:
    def test_mv_series_matches_frozen_output(self):
        proc = run_cli("mv-series", "--max-weight", "2", "--lambda-order", "6")
        assert proc.returncode == 0
        assert proc.stdout == FIXTURE.read_text()

    def test_fixture_is_valid_jsonl(self):
        for line in FIXTURE.read_text().splitlines():
            json.loads(line)
