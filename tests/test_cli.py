import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cutjoin.cli import RunConfig, SUITES, cmd_verify, main
from cutjoin.partitions import enumerate_partitions

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

    def test_huge_genus_brute_exceeds_budget(self):
        # 15^6005 tuples: far past the decimal-conversion limit for ints
        proc = run_cli(
            "hurwitz", "--genus", "3000", "--partition", "6", "--method", "brute"
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "15^6005 tuples exceeds the budget of 10000000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_connected_method_partition_size_limit(self, monkeypatch):
        from cutjoin import hurwitz

        args = ("hurwitz", "--genus", "0", "--partition", "13", "--method", "connected")
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--partition size 13 exceeds 12" in proc.stderr

        def no_table(*args):
            raise AssertionError("table built for a rejected partition")

        monkeypatch.setattr(hurwitz, "hurwitz_connected", no_table)
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2
        code, lines = main_lines(
            "hurwitz", "--genus", "0", "--partition", "20", "--method", "char"
        )
        assert code == 0 and json.loads(lines[-1])["partition"] == [20]

    def test_connected_method_genus_limit(self, monkeypatch, capsys):
        from cutjoin import hurwitz

        args = ("hurwitz", "--genus", "300", "--partition", "6", "--method", "connected")
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--genus 300 gives 605 branch points, above 60" in proc.stderr

        def no_table(*args):
            raise AssertionError("table built for a rejected genus")

        monkeypatch.setattr(hurwitz, "hurwitz_connected", no_table)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2 and time.perf_counter() - start < 1
        capsys.readouterr()
        monkeypatch.undo()
        # the cap itself is accepted, one more is not
        code, lines = main_lines("hurwitz", "--genus", "29", "--partition", "1,1")
        assert code == 0 and json.loads(lines[-1])["branch_points"] == 60
        with pytest.raises(SystemExit) as exc:
            main(["hurwitz", "--genus", "30", "--partition", "2"])
        assert exc.value.code == 2
        assert "gives 61 branch points, above 60" in capsys.readouterr().err

    def test_char_method_genus_limit(self, monkeypatch, capsys):
        # (kappa/2)^r at |mu| = 6 would print more digits than Python's
        # int-to-string limit, so the query is refused before the count
        from cutjoin import hurwitz

        def no_count(*args):
            raise AssertionError("count computed for a rejected genus")

        monkeypatch.setattr(hurwitz, "hurwitz_disconnected", no_count)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["hurwitz", "--genus", "3000", "--partition", "6", "--method", "char"])
        assert exc.value.code == 2 and time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "--genus 3000 gives 6005 branch points" in err and "4300 digits" in err
        monkeypatch.undo()
        # |mu| <= 2 never grows; |mu| = 6 at genus 1500 stays under the limit
        code, lines = main_lines("hurwitz", "--genus", "100000", "--partition", "2", "--method", "char")
        assert code == 0 and json.loads(lines[-1])["value"] == "1/2"
        code, lines = main_lines("hurwitz", "--genus", "1500", "--partition", "6", "--method", "char")
        assert code == 0 and json.loads(lines[-1])["branch_points"] == 3005

    def test_char_method_size_limit(self, monkeypatch, capsys):
        # 60 has 966467 partitions, each needing a character; 3000! has more
        # digits than Python will format, so the size is checked first
        from cutjoin import hurwitz

        def no_count(*args):
            raise AssertionError("count computed for a rejected partition")

        monkeypatch.setattr(hurwitz, "hurwitz_disconnected", no_count)
        for size in (60, 3000):
            start = time.perf_counter()
            with pytest.raises(SystemExit) as exc:
                main(["hurwitz", "--genus", "0", "--partition", str(size), "--method", "char"])
            assert exc.value.code == 2 and time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert f"--partition size {size} exceeds 30 for --method char" in err
            assert "limit" not in err and "Traceback" not in err
        monkeypatch.undo()
        code, lines = main_lines("hurwitz", "--genus", "0", "--partition", "30", "--method", "char")
        assert code == 0 and json.loads(lines[-1])["branch_points"] == 29

    def test_huge_genus_brute_exceeds_layer_budget(self, capsys):
        # one transposition, so one tuple, but 2*10^9 + 1 layers to walk
        start = time.perf_counter()
        code = main(["hurwitz", "--genus", "1000000000", "--partition", "2", "--method", "brute"])
        assert code == 3 and time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "estimated 2000000001 layers exceeds the budget of 10000000" in captured.err

    def test_large_degree_brute_is_refused_before_listing_transpositions(self, capsys):
        # 4498500 transpositions of length 3000 would take gigabytes to list
        start = time.perf_counter()
        code = main(["hurwitz", "--genus", "0", "--partition", "3000", "--method", "brute"])
        assert code == 3 and time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "estimated 4498500^2999 tuples exceeds the budget of 10000000" in captured.err

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

    @pytest.mark.parametrize(
        "genus, partition, message",
        [("0", "7", "exceeds --max-weight 6"), ("9", "1", "exceeds --lambda-order 12")],
    )
    def test_hodge_out_of_range_is_rejected_before_any_work(
        self, monkeypatch, genus, partition, message
    ):
        from cutjoin import hodge

        def no_series(*args):
            raise AssertionError("series built for a rejected query")

        monkeypatch.setattr(hodge, "build_series_pair", no_series)
        with pytest.raises(SystemExit) as exc:
            main(["hodge", "--genus", genus, "--partition", partition])
        assert exc.value.code == 2
        proc = run_cli("hodge", "--genus", genus, "--partition", partition)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in proc.stderr

    @pytest.mark.parametrize("command", ["mv-series", "hodge", "verify"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-weight", "0"], "--max-weight must be at least 1, got 0"),
            (["--lambda-order", "-3"], "--lambda-order must be nonnegative, got -3"),
            (["--max-weight", "13"], "--max-weight must be at most 12, got 13"),
            (["--lambda-order", "25"], "--lambda-order must be at most 24, got 25"),
            (["--max-weight", "20", "--lambda-order", "2"], "--max-weight must be at most 12"),
            (["--max-weight", "3", "--lambda-order", "400"], "--lambda-order must be at most 24"),
        ],
    )
    def test_series_range_is_usage_error(self, monkeypatch, capsys, command, flags, message):
        from cutjoin import hodge

        def no_series(*args):
            raise AssertionError("series built for a rejected range")

        monkeypatch.setattr(hodge, "build_series_pair", no_series)
        extra = ["--genus", "0", "--partition", "1"] if command == "hodge" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("command", ["mv-series", "hodge", "verify"])
    @pytest.mark.parametrize("weight, order", [("12", "24"), ("1", "24"), ("12", "8")])
    def test_series_range_caps_are_accepted(self, monkeypatch, command, weight, order):
        from cutjoin import cli

        seen = []

        def record(config, *args):
            seen.append((config.max_weight, config.lambda_order))
            return 0

        for name in ("cmd_mv_series", "cmd_hodge", "cmd_verify"):
            monkeypatch.setattr(cli, name, record)
        extra = ["--genus", "0", "--partition", "1"] if command == "hodge" else []
        assert main([command, *extra, "--max-weight", weight, "--lambda-order", order]) == 0
        assert seen == [(int(weight), int(order))]

    def test_out_of_range_series_flags_exit_promptly(self):
        start = time.perf_counter()
        proc = run_cli("mv-series", "--max-weight", "3", "--lambda-order", "400")
        assert time.perf_counter() - start < 20
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--lambda-order must be at most 24" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args", [["char", "--degree", "3"], ["hurwitz", "--genus", "0", "--partition", "2"]]
    )
    def test_series_range_ignored_where_unused(self, args):
        code, lines = main_lines(*args, "--max-weight", "0", "--lambda-order", "-3")
        assert code == 0 and len(lines) > 1

    def test_smallest_series_range_runs(self):
        code, lines = main_lines("mv-series", "--max-weight", "1", "--lambda-order", "0")
        assert code == 0
        assert [json.loads(l)["partition"] for l in lines[1:]] == [[], [1], [1]]

    def test_negative_budget_is_usage_error(self):
        for method in ("connected", "brute"):
            proc = run_cli(
                "hurwitz", "--genus", "0", "--partition", "2",
                "--method", method, "--budget", "-5",
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert "--budget must be nonnegative" in proc.stderr

    def test_negative_env_budget_is_usage_error(self):
        proc = run_cli(
            "hurwitz", "--genus", "0", "--partition", "2", "--method", "brute",
            env_extra={"CUTJOIN_BUDGET": "-5"},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "CUTJOIN_BUDGET must be nonnegative" in proc.stderr

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

    @pytest.mark.parametrize(
        "suite, max_weight, lambda_order, need",
        [("extraction", "2", "2", 6), ("all", "6", "7", 8), ("extraction", "3", "6", 7)],
    )
    def test_extraction_order_checked_before_any_work(
        self, monkeypatch, capsys, suite, max_weight, lambda_order, need
    ):
        from cutjoin import hodge

        def no_series(*args):
            raise AssertionError("series built for a rejected order")

        monkeypatch.setattr(hodge, "build_series_pair", no_series)
        with pytest.raises(SystemExit) as exc:
            main([
                "verify", "--suite", suite,
                "--max-weight", max_weight, "--lambda-order", lambda_order,
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"needs --lambda-order at least {need}" in captured.err

    def test_extraction_runs_at_its_smallest_order(self):
        code, lines = main_lines(
            "verify", "--suite", "extraction", "--max-weight", "2", "--lambda-order", "6"
        )
        summary = json.loads(lines[-1])
        assert code == 0 and summary["failed"] == 0 and summary["checks"] == 15

    def test_extraction_details_name_the_checked_range(self):
        # the shapes are clipped to min(4, --max-weight), and so is the detail
        _, lines = main_lines(
            "verify", "--suite", "extraction", "--max-weight", "2", "--lambda-order", "6"
        )
        details = [json.loads(l)["detail"] for l in lines if '"check"' in l]
        ranged = [d for d in details if "|mu| <=" in d]
        assert len(ranged) == 12 and all(d.endswith("|mu| <= 2") for d in ranged)
        assert "all |mu| <= 2" in ranged

    def test_characters_suite_detects_a_wrong_table_entry(self, monkeypatch):
        from cutjoin import cli
        from cutjoin.characters import character_table

        def perturbed(d):
            table = [list(row) for row in character_table(d)]
            if d == 4:
                table[1][2] += 1
            return tuple(map(tuple, table))

        monkeypatch.setattr(cli, "character_table", perturbed)
        failed = {r.check_id for r in cli._suite_characters(RunConfig()) if not r.passed}
        assert {
            "characters/orthogonality-first/d=4",
            "characters/orthogonality-second/d=4",
        } <= failed
        assert all(c.endswith("d=4") for c in failed)

    @staticmethod
    def _failing_ids():
        return {
            r.check_id
            for name in SUITES
            for r in SUITES[name](RunConfig())
            if not r.passed
        }

    def test_one_failing_shape_fails_only_its_degree(self, monkeypatch):
        from cutjoin import hodge
        from cutjoin.partitions import Partition

        real = hodge.v_forms_agree
        monkeypatch.setattr(
            hodge, "v_forms_agree", lambda nu: nu != Partition([3, 2]) and real(nu)
        )
        assert self._failing_ids() == {"prop-v/d=05"}

    def test_one_wrong_cover_count_fails_both_comparisons(self, monkeypatch):
        from cutjoin import hurwitz
        from cutjoin.partitions import Partition

        real = hurwitz.hurwitz_bruteforce

        def off_by_one(r, mu, *args, **kwargs):
            return real(r, mu, *args, **kwargs) + (mu == Partition([2, 1]))

        monkeypatch.setattr(hurwitz, "hurwitz_bruteforce", off_by_one)
        assert self._failing_ids() == {
            "hurwitz/character-vs-brute/d=3",
            "hurwitz/connected-vs-transitive/d=3",
        }

    def test_one_failing_genus_fails_only_its_symmetry_check(self, monkeypatch):
        from cutjoin.hodge import CgmuPolynomial

        real = CgmuPolynomial.symmetry_ok
        monkeypatch.setattr(CgmuPolynomial, "symmetry_ok", lambda c: c.g != 2 and real(c))
        assert self._failing_ids() == {"extraction/symmetry/g=2"}

    def test_one_wrong_kernel_fails_only_its_length(self, monkeypatch):
        from cutjoin import hodge

        real = hodge.transfer_system_kernel
        monkeypatch.setattr(
            hodge, "transfer_system_kernel", lambda l: real(l)[::-1] if l == 7 else real(l)
        )
        assert self._failing_ids() == {"transfer/l=07"}

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

    def test_mv_series_w5_digest(self):
        # the whole series core, log included, at (W, L) = (5, 10)
        proc = run_cli("mv-series", "--max-weight", "5", "--lambda-order", "10")
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "cb351a2c3904236e4e091b99b5b4915933bf55d5b7f8549a5d94df7420faeae3"

    def test_mv_series_w7_digest(self):
        # the exact stdout the series-w7 benchmark workload checks
        proc = run_cli("mv-series", "--max-weight", "7", "--lambda-order", "14")
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "dc06e309dcc2686beb588e8d80c067e8af014729d27b04456472d735a5e5adc0"

    def test_mv_series_w8_digest(self):
        proc = run_cli("mv-series", "--max-weight", "8", "--lambda-order", "16")
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "69bdfce8d63dfb796543d651cf876864208066499d47415996dc3a05206ec765"

    def test_verify_all_digest(self):
        # every suite's stdout at the default (6, 12), seed 1
        proc = run_cli("verify", "--suite", "all", "--seed", "1")
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "85fde22a72e16f09a4b089691f8625fde052869fe4f9a74ff7c995ac7aa3bf79"

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("verify", "--suite", "all", "--max-weight", "7", "--lambda-order", "14"),
                "00a5141b260d716d8a3805c91dc289bd2e41c6131ae0fe343fe65862522da9e0",
            ),
            (
                ("verify", "--suite", "all", "--format", "csv"),
                "12c3aaf4550768dbc446a8f1217e1240f0b2571e748b88499072219a454feada",
            ),
            (
                ("verify", "--suite", "all", "--format", "pretty", "--seed", "3"),
                "f531c6a197c2fefb4fbd15a9538f0db322fd688032306c78ba49203061951dac",
            ),
            (
                ("verify", "--suite", "extraction", "--max-weight", "2", "--lambda-order", "6"),
                "59edb807833fd28b4cb8f5fbfd042739d1ab55a8262ea8913d6597af668f5f88",
            ),
        ],
    )
    def test_verify_digests(self, args, digest):
        # check ids, identities, details and their order in every format
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    def test_hodge_grid_digest(self):
        # every `hodge` record for g <= 3, |mu| <= 4 at (W, L) = (4, 8),
        # the imaginary prefactors included, joined in this loop order
        buf = io.StringIO()
        stdout, sys.stdout = sys.stdout, buf
        try:
            for g in range(4):
                for d in range(1, 5):
                    for mu in enumerate_partitions(d):
                        code = main([
                            "hodge", "--genus", str(g),
                            "--partition", ",".join(map(str, mu.parts)),
                            "--max-weight", "4", "--lambda-order", "8",
                        ])
                        assert code == 0, (g, mu)
        finally:
            sys.stdout = stdout
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == "5e715e8db67525aa317ba1b1a7c6e2df466fb8075db44c74ef2cd61dd05f17bc"

    def test_fixture_is_valid_jsonl(self):
        for line in FIXTURE.read_text().splitlines():
            json.loads(line)


class TestGaussianReadoutOnly:
    """Gaussian rationals are only read out: no sum, product or negation of
    two of them runs while a command computes, and the field operations are
    gone.  No command multiplies two q-Laurent values or two phased
    tau-polynomials either: every check runs on rational values and the
    phase is attached where a value is printed.  The sums, negations and
    powers that no command runs are gone from the package."""

    DIGESTS = {
        ("verify", "--suite", "all", "--seed", "1"):
            "85fde22a72e16f09a4b089691f8625fde052869fe4f9a74ff7c995ac7aa3bf79",
        ("mv-series", "--max-weight", "5", "--lambda-order", "10"):
            "cb351a2c3904236e4e091b99b5b4915933bf55d5b7f8549a5d94df7420faeae3",
        ("hodge", "--genus", "2", "--partition", "2,1"):
            "87aa18c7510949a071417a8fd69b81ccdfbd271a14fdc814f39788b96c48a360",
    }

    def test_commands_run_without_gaussian_arithmetic(self, monkeypatch):
        from cutjoin import hodge
        from cutjoin.exact import GaussianRational, QHalfLaurent, TauPolynomial

        def forbidden(*args):
            raise AssertionError("Gaussian, q-Laurent or phased arithmetic outside a readout")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(GaussianRational, name, forbidden)
        # no command multiplies two q-Laurent values (the sine and hook
        # products are binomial products) or two phased tau-polynomials (a
        # phase is attached once, at the readout); `*` is kept on both for
        # the traced run
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(QHalfLaurent, name, forbidden)
            monkeypatch.setattr(TauPolynomial, name, forbidden)
        hodge.build_series_pair.cache_clear()
        try:
            for args, digest in self.DIGESTS.items():
                code, lines = main_lines(*args)
                assert code == 0, args
                text = "".join(line + "\n" for line in lines)
                assert hashlib.sha256(text.encode()).hexdigest() == digest, args
        finally:
            hodge.build_series_pair.cache_clear()

    def test_field_operations_are_gone(self):
        from cutjoin import exact
        from cutjoin.exact import (
            GaussianRational,
            LaurentSeries,
            QHalfLaurent,
            RealTauPolynomial,
            TauPolynomial,
            _dot,
        )
        from cutjoin.genfun import PartitionSeries

        for name in ("inverse", "__truediv__", "__pow__", "__sub__", "coerce", "i_power"):
            assert not hasattr(GaussianRational, name), name
        assert not hasattr(TauPolynomial, "evaluate")
        assert not hasattr(QHalfLaurent, "substitute")
        # sums, negations and powers no command runs live in the tests
        for name in ("__add__", "__sub__", "__neg__", "__pow__", "zero", "poly"):
            assert not hasattr(QHalfLaurent, name), name
        for name in ("__pow__", "__sub__", "__rsub__"):
            assert not hasattr(TauPolynomial, name), name
        for name in ("TP_ONE", "TP_I", "_TP_OPERANDS", "_times_y", "_y_shifted"):
            assert not hasattr(exact, name), name
        # a phased tau-polynomial is a print-time readout, no ring: its one
        # operation is the product the traced run patches by name
        for name in (
            "_sum_of_products", "_RING_DEPTH", "__add__", "__radd__", "__neg__",
            "derivative", "substitute", "divmod_poly",
        ):
            assert not hasattr(TauPolynomial, name), name
        phased = TauPolynomial.phased(RealTauPolynomial([0, 1]), 1)
        for pairs in ([(phased, 1)], [(RealTauPolynomial([1]), phased)], [(phased, phased)]):
            with pytest.raises(TypeError, match="TauPolynomial"):
                _dot(pairs)
        # the series differences and constructors no command runs live in
        # tests/series_reference.py
        for name in ("__sub__", "__rsub__"):
            assert not hasattr(LaurentSeries, name), name
        for name in ("__sub__", "__radd__", "zero", "monomial"):
            assert not hasattr(PartitionSeries, name), name
