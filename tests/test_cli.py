import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path
from types import FunctionType

import pytest

from cutjoin.cli import RunConfig, SUITES, cmd_verify, main
from cutjoin.partitions import enumerate_partitions

FIXTURE = Path(__file__).parent / "data" / "mv_series_w2_o6.jsonl"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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


def main_text(*args):
    buf = io.StringIO()
    stdout, sys.stdout = sys.stdout, buf
    try:
        code = main(list(args))
    finally:
        sys.stdout = stdout
    return code, buf.getvalue()


def main_lines(*args):
    code, text = main_text(*args)
    return code, text.splitlines()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# the stdout of `verify --suite all` in every format, by argv
VERIFY_ALL_DIGESTS = {
    ("verify", "--suite", "all", "--seed", "1"):
        "44bafaa4164205e29ded7dd098a15a0aefca358bfb06097ffc975777b430928d",
    ("verify", "--suite", "all"):
        "95630e3bb86bac30976b0eae4f6ed4cec0284abdba6cd3f7a0b6da2af0654282",
    ("verify", "--suite", "all", "--format", "csv"):
        "471c71bf2605412ab25f77bf40cba2f7fa275e51423238ec72ff5eb54ae8df1c",
    ("verify", "--suite", "all", "--format", "pretty", "--seed", "3"):
        "5beb2887e670bcbd720be1536cab00b3881037f53ea727c0a454f35035c64bf6",
}
# the same digests at other sizes and for one suite
VERIFY_DIGESTS = {
    **VERIFY_ALL_DIGESTS,
    ("verify", "--suite", "all", "--max-weight", "7", "--lambda-order", "14"):
        "f40b62a279fe73dac44a6e0867ac47092a4ca914b1c0a3d2deedc6c24e47770d",
    ("verify", "--suite", "extraction", "--max-weight", "2", "--lambda-order", "6"):
        "59edb807833fd28b4cb8f5fbfd042739d1ab55a8262ea8913d6597af668f5f88",
}


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
        # a connected count's numerator is at most the number of transitive
        # tuples, (d(d-1)/2)^r, so --method char's digit guard bounds it too:
        # at |mu| = 6 it admits genus 1823 and refuses 1824, before the count
        from cutjoin import hurwitz

        code, lines = main_lines("hurwitz", "--genus", "300", "--partition", "6")
        assert code == 0 and json.loads(lines[-1])["branch_points"] == 605
        args = ("hurwitz", "--genus", "1824", "--partition", "6", "--method", "connected")
        proc = run_cli(*args)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--genus 1824 gives 3653 branch points" in proc.stderr
        assert "--method connected count could exceed 4300 digits" in proc.stderr

        def no_count(*args):
            raise AssertionError("count computed for a rejected genus")

        monkeypatch.setattr(hurwitz, "hurwitz_connected", no_count)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        assert exc.value.code == 2 and time.perf_counter() - start < 1
        capsys.readouterr()
        monkeypatch.undo()
        code, lines = main_lines("hurwitz", "--genus", "1823", "--partition", "6")
        assert code == 0 and json.loads(lines[-1])["branch_points"] == 3651

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

    def test_check_counts_match_the_benchmark_reference(self):
        # the benchmark's reference pins every suite's check count at the
        # default (W, L), and the benchmark reads a change to it only as a
        # pass-ratio drop; so a change to a count fails here too.  The file
        # is read, never written.
        reference = json.loads(REFERENCE.read_text())["verify_checks"]
        counts = {}
        for suite in [*SUITES, "all"]:
            code, lines = main_lines("verify", "--suite", suite)
            summary = json.loads(lines[-1])
            assert code == 0 and summary["record"] == "summary", suite
            counts[suite] = summary["checks"]
        assert counts == reference

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


class TestClosedStdout:
    def test_closed_pipe_exits_141_with_nothing_on_stderr(self):
        # mv-series prints more than a pipe holds, so it is still writing
        # when the reader closes its end
        with subprocess.Popen(
            [sys.executable, "-m", "cutjoin", "mv-series"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert json.loads(proc.stdout.readline())["record"] == "config"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141

    def test_main_leaves_the_signal_handlers_alone(self):
        import signal

        before = signal.getsignal(signal.SIGPIPE)
        assert main_text("verify", "--suite", "transfer")[0] == 0
        assert signal.getsignal(signal.SIGPIPE) == before


def set_cpus(monkeypatch, n):
    """Let this process see n CPUs, whichever of the two counts it reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def count_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def forbid_forks(monkeypatch):
    def fork():
        raise AssertionError("a helper forked")

    monkeypatch.setattr(os, "fork", fork)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSuiteHelper:
    """`verify --suite all` runs the suites on this process and one forked
    helper; what it prints, its exit code and its stderr are those of
    a run on one process, and the helper is reaped before `main` returns."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_budget_error_is_reported_in_suite_order(self, monkeypatch, capsys, cpus):
        set_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        assert main(["verify", "--suite", "all", "--budget", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: estimated 3^3 tuples exceeds the budget of 10\n"
        assert len(forks) == cpus - 1
        assert_no_child_left()

    def test_budget_error_from_the_command_line(self):
        proc = run_cli("verify", "--suite", "all", "--budget", "10")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: estimated 3^3 tuples exceeds the budget of 10\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_raising_suite_in_suite_order_is_the_usage_error(
        self, monkeypatch, capsys, cpus
    ):
        # two suites raise; a run on one process reports the earlier one
        set_cpus(monkeypatch, cpus)
        for name in ("characters", "transfer"):
            def raising(config, name=name):
                raise ValueError(f"{name} raised")

            monkeypatch.setitem(SUITES, name, raising)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "all"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: characters raised\n")
        assert "Traceback" not in captured.err
        assert_no_child_left()

    def test_a_raising_suite_stops_the_pull_and_leaves_the_rest(self, monkeypatch):
        # a process stops at the suite that raised, whose error the parent
        # raises again in suite order; the tasks after it stay in the pipe
        from cutjoin import cli

        def raising(config):
            raise ValueError("prop-v raised")

        monkeypatch.setitem(SUITES, "prop-v", raising)
        r, w = os.pipe()
        os.write(w, bytes([0, 1, 2]))
        os.close(w)
        try:
            done = cli._pull(RunConfig(), [["hooks"], ["prop-v"], ["transfer"]], r)
            assert list(done) == ["hooks"]
            assert os.read(r, 8) == bytes([2])
        finally:
            os.close(r)

    def test_helper_runs_and_is_reaped(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        args = ("verify", "--suite", "all")
        code, text = main_text(*args)
        assert code == 0 and sha256(text) == VERIFY_ALL_DIGESTS[args]
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize("args", list(VERIFY_ALL_DIGESTS))
    def test_one_cpu_runs_every_suite_here(self, monkeypatch, args):
        set_cpus(monkeypatch, 1)
        forbid_forks(monkeypatch)
        code, text = main_text(*args)
        assert code == 0 and sha256(text) == VERIFY_ALL_DIGESTS[args]

    def test_single_suite_never_forks(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        forbid_forks(monkeypatch)
        for name in SUITES:
            code, lines = main_lines("verify", "--suite", name)
            assert code == 0 and json.loads(lines[-1])["failed"] == 0, name

    def test_no_helper_beside_another_thread(self, monkeypatch):
        # a forked copy of a process with threads may find their locks held
        import threading

        set_cpus(monkeypatch, 2)
        forbid_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            args = ("verify", "--suite", "all")
            code, text = main_text(*args)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0 and sha256(text) == VERIFY_ALL_DIGESTS[args]

    def test_failed_fork_runs_every_suite_here(self, monkeypatch):
        def fork():
            raise OSError("no process left")

        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        args = ("verify", "--suite", "all")
        code, text = main_text(*args)
        assert code == 0 and sha256(text) == VERIFY_ALL_DIGESTS[args]

    def test_results_of_a_failed_helper_are_dropped(self, monkeypatch):
        # the helper cannot write its results, so it exits 1 and this
        # process runs every suite the helper ran
        def dump(*args, **kwargs):
            raise OSError("results pipe closed")

        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        monkeypatch.setattr(json, "dump", dump)
        args = ("verify", "--suite", "all")
        code, text = main_text(*args)
        assert code == 0 and sha256(text) == VERIFY_ALL_DIGESTS[args]
        assert forks == [1]
        assert_no_child_left()

    def test_series_task_holds_exactly_the_suites_that_read_the_pair(self, monkeypatch):
        # every check of a series suite but the sine constants reads the
        # pair, and fails with the build's error; every other check passes
        from cutjoin import cli, hodge

        def no_series(*args):
            raise AssertionError("series built")

        monkeypatch.setattr(hodge, "build_series_pair", no_series)
        for name in SUITES:
            results = SUITES[name](RunConfig())
            if name in cli.SERIES_SUITES:
                assert [r.check_id for r in results if r.passed] == (
                    ["extraction/sine-reciprocal"] if name == "extraction" else []
                )
                assert all(
                    r.detail.endswith("; raised AssertionError: series built")
                    for r in results
                    if not r.passed
                ), name
            else:
                assert all(r.passed for r in results), name
        assert cli._ALL_TASKS[0] == list(cli.SERIES_SUITES)
        assert sorted(name for task in cli._ALL_TASKS for name in task) == sorted(SUITES)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_raising_series_build_fails_its_checks(self, monkeypatch, capsys, cpus):
        # the log of a disconnected series whose constant term is 2 raises
        # inside each check that reads the pair: exit 1, not a usage error
        from cutjoin import hodge

        set_cpus(monkeypatch, cpus)
        real = hodge.pair_exponential
        monkeypatch.setattr(hodge, "pair_exponential", lambda *args: real(*args) * 2)
        hodge.build_series_pair.cache_clear()
        try:
            code, lines = main_lines("verify", "--suite", "all")
        finally:
            hodge.build_series_pair.cache_clear()
        assert code == 1
        assert capsys.readouterr().err == ""
        records = [json.loads(line) for line in lines]
        failed = [r for r in records if r["record"] == "check" and not r["pass"]]
        assert len(failed) == 18 == records[-1]["failed"]
        assert all("; raised ValueError: ps_log requires constant term 1" in r["detail"]
                   for r in failed)
        assert_no_child_left()

    def test_cli_imports_no_process_pool(self):
        # the import is what every run waits for first; compare with a bare
        # interpreter, whose site hook may already load some modules
        def loaded(statement):
            code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            )
            return set(proc.stdout.split())

        new = loaded("import cutjoin.cli") - loaded("pass")
        heavy = ("multiprocessing", "concurrent.futures", "pickle", "subprocess")
        assert [m for m in new if m.startswith(heavy)] == []


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

    def test_mv_series_low_order_keeps_terms_zero_to_the_order(self):
        # at (6, 2) the connected p_{1^5} coefficient starts at lambda^3, so it
        # is zero up to L = 2; its record still prints, with no coefficients
        proc = run_cli("mv-series", "--max-weight", "6", "--lambda-order", "2")
        assert proc.returncode == 0
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        empty = [
            (r["series"], r["partition"])
            for r in records
            if r.get("record") == "series-term" and not r["coefficient"]["coeffs"]
        ]
        assert empty == [("connected", [1, 1, 1, 1, 1])]
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "7eb4e0e14c41fcbd0a226aa7ef7a33a488e89d12fa4133d21100758d82fbc3a1"

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

    @pytest.mark.parametrize("args", list(VERIFY_DIGESTS))
    def test_verify_digests(self, args):
        # check ids, identities, details and their order in every format
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert sha256(proc.stdout) == VERIFY_DIGESTS[args]

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
    """No command or script builds or reads a Gaussian rational: a phased
    value is printed straight from its rational polynomial and its phase,
    and the field operations are gone.  No command multiplies two q-Laurent
    values or two phased tau-polynomials either: every check runs on
    rational values and the phase is attached where a value is printed.  The
    sums, negations and powers that no command runs are gone from the
    package."""

    DIGESTS = {
        ("verify", "--suite", "all", "--seed", "1"):
            "44bafaa4164205e29ded7dd098a15a0aefca358bfb06097ffc975777b430928d",
        ("mv-series", "--max-weight", "5", "--lambda-order", "10"):
            "cb351a2c3904236e4e091b99b5b4915933bf55d5b7f8549a5d94df7420faeae3",
        ("hodge", "--genus", "2", "--partition", "2,1"):
            "87aa18c7510949a071417a8fd69b81ccdfbd271a14fdc814f39788b96c48a360",
    }
    HODGE_TABLE_DIGEST = "f30a9bd9a62580e2cdb24a9dc0be423cc5b74a908e300e9cadc5c60fc03c9f91"

    def test_commands_run_without_gaussian_arithmetic(self, monkeypatch):
        from cutjoin import exact, hodge
        from cutjoin.exact import GaussianRational, QHalfLaurent, TauPolynomial

        def forbidden(*args):
            raise AssertionError("a Gaussian rational, or q-Laurent or phased arithmetic, in a run")

        # every member of the class, its constructors, readout and hash
        # included, and the coercion into it
        members = [
            name
            for name, value in vars(GaussianRational).items()
            if isinstance(value, (FunctionType, classmethod))
        ]
        assert {"__init__", "_raw", "to_json", "__add__", "__mul__", "__eq__"} <= set(members)
        for name in members:
            monkeypatch.setattr(GaussianRational, name, forbidden)
        monkeypatch.setattr(exact, "_gr", forbidden)
        # no command multiplies two q-Laurent values (the sine and hook
        # products are binomial products) or two phased tau-polynomials (a
        # phase is attached once, at the readout); `*` is kept on both for
        # the traced run
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(QHalfLaurent, name, forbidden)
            monkeypatch.setattr(TauPolynomial, name, forbidden)
        monkeypatch.setattr(sys, "argv", ["hodge_table.py"])
        hodge.build_series_pair.cache_clear()
        try:
            for args, digest in self.DIGESTS.items():
                code, lines = main_lines(*args)
                assert code == 0, args
                text = "".join(line + "\n" for line in lines)
                assert hashlib.sha256(text.encode()).hexdigest() == digest, args
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                runpy.run_path(str(SCRIPTS / "hodge_table.py"), run_name="__main__")
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == self.HODGE_TABLE_DIGEST
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
        # a phased value is printed from its rational polynomial and phase;
        # its Gaussian readouts live in tests/series_reference.py
        for name in ("coeffs", "coefficient", "degree", "_readout"):
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
        for name in ("__sub__", "__rsub__", "agrees_with"):
            assert not hasattr(LaurentSeries, name), name
        for name in ("__sub__", "__radd__", "zero", "monomial", "to_json"):
            assert not hasattr(PartitionSeries, name), name
