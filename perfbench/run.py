"""cutjoin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command of the workload runs as a
fresh `python -m cutjoin` child process against `src/` of this checkout, one
child at a time (a closed loop with one client), so the per-process caches
start cold on every call as they do for a user.

--trace 0 measures the end-to-end metrics:
  setup_s      median time to spawn the interpreter and import cutjoin.cli,
               over 8 spawns before the passes and 8 after them
  wall_s       median wall seconds of one pass over the command list
  cpu_s        median user+sys CPU seconds of the children in one pass
  peak_rss_mb  median over passes of the largest child max-RSS in the pass
  pass_ratio   commands whose exit code and output check passed, over
               commands attempted (1 - fail_ratio; fail_ratio itself is 0 on
               a correct program and is printed in the report line)
Passes repeat while the next one is expected to end within --seconds; there
is always at least one.

--trace 1 runs each command once untraced and once under traced_cli.py, and
reports the per-layer metrics (self time per module, named function timings
and counters), the tracing overhead (traced minus untraced wall seconds) and
checks the trace invariants: byte-identical stdout, non-negative span self
times, module self times within the command's wall time.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is a report with the seed, the drawn
commands, failures and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from traced_cli import MODULES
from workloads import WORKLOADS, Command, Run, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0  # children still running then are killed, so a run ends within 180 s
SETUP_SAMPLES = 8  # per window; one window before the passes and one after

SUITES = (
    "hooks", "prop-v", "characters", "cutjoin-id", "theorem1",
    "initial", "extraction", "hurwitz", "elsv", "transfer",
)

# per-layer metric -> (unit, how it is read from the traced summaries):
#   ("self", fn) self seconds of a function, ("total", fn) inclusive seconds,
#   ("calls", fn) call count, ("module", m) self seconds of a module,
#   ("extra", key) a counter, ("connected", key) size of the connected series,
#   ("ratio", num, den) a ratio of two counters.
PER_LAYER: dict[str, tuple] = {}
for _m in MODULES:
    PER_LAYER[f"{_m}.self_s"] = ("s", "module", _m)
for _s in SUITES:
    PER_LAYER[f"cli.suite.{_s}.s"] = ("s", "total", f"cli.suite.{_s}")
PER_LAYER.update(
    {
        "hodge.build_disconnected.self_s": ("s", "self", "hodge.build_disconnected"),
        "hodge.v_series.s": ("s", "total", "hodge.v_series"),
        "hodge.kappa_exp_factor.s": ("s", "total", "hodge.kappa_exp_factor"),
        "hodge.v_forms_agree.s": ("s", "total", "hodge.v_forms_agree"),
        "hodge.tau_derivative.s": ("s", "total", "hodge.tau_derivative"),
        "hodge.cutjoin_derivative_check.s": ("s", "total", "hodge.cutjoin_derivative_check"),
        "hodge.connected.terms": ("count", "connected", "terms"),
        "hodge.connected.max_num_bits": ("bits", "connected", "max_num_bits"),
        "hodge.connected.max_den_bits": ("bits", "connected", "max_den_bits"),
        "genfun.ps_log.self_s": ("s", "self", "genfun.ps_log"),
        "genfun.ps_log.s": ("s", "total", "genfun.ps_log"),
        "genfun.ps_exp.self_s": ("s", "self", "genfun.ps_exp"),
        "genfun.cut_join_linear.self_s": ("s", "self", "genfun.cut_join_linear"),
        "genfun.cut_join_nonlinear.self_s": ("s", "self", "genfun.cut_join_nonlinear"),
        "genfun.cut_join_nonlinear.s": ("s", "total", "genfun.cut_join_nonlinear"),
        "genfun.series_mul.calls": ("count", "calls", "genfun.series_mul"),
        "genfun.series_mul.s": ("s", "total", "genfun.series_mul"),
        "genfun.series_mul.terms_out": ("count", "extra", "genfun.series_mul.terms_out"),
        "genfun.mul_p.kept_ratio": (
            "ratio", "ratio", "genfun.mul_p.terms_out", "genfun.mul_p.terms_in"
        ),
    }
)
for _op in ("LaurentSeries.mul", "LaurentSeries.reciprocal", "series_exp", "TauPolynomial.mul", "QHalfLaurent.mul"):
    PER_LAYER[f"exact.{_op}.calls"] = ("count", "calls", f"exact.{_op}")
    PER_LAYER[f"exact.{_op}.s"] = ("s", "total", f"exact.{_op}")
PER_LAYER.update(
    {
        "exact.GaussianRational.mul.calls": ("count", "calls", "exact.GaussianRational.mul"),
        "exact.GaussianRational.add.calls": ("count", "calls", "exact.GaussianRational.add"),
        "characters.character.calls": ("count", "calls", "characters.character"),
        "characters.character.s": ("s", "total", "characters.character"),
        "characters.character_table.s": ("s", "total", "characters.character_table"),
        "characters.schur_in_p.s": ("s", "total", "characters.schur_in_p"),
        "characters.principal_specialization_check.s": (
            "s", "total", "characters.principal_specialization_check"
        ),
        "partitions.cut_join_incoming.s": ("s", "total", "partitions.cut_join_incoming"),
        "partitions.split_contributions.s": ("s", "total", "partitions.split_contributions"),
        "hurwitz.hurwitz_bruteforce.s": ("s", "total", "hurwitz.hurwitz_bruteforce"),
        "hurwitz.hurwitz_bruteforce.tuples": (
            "count", "extra", "hurwitz.hurwitz_bruteforce.tuples"
        ),
        "hurwitz.hurwitz_bruteforce.hit_ratio": (
            "ratio", "ratio", "hurwitz.hurwitz_bruteforce.matches",
            "hurwitz.hurwitz_bruteforce.tuples",
        ),
        "hurwitz.hurwitz_disconnected.s": ("s", "total", "hurwitz.hurwitz_disconnected"),
        "hurwitz.hurwitz_connected.s": ("s", "total", "hurwitz.hurwitz_connected"),
        "hurwitz.budget_exceeded": ("count", "extra", "hurwitz.budget_exceeded"),
        "linalg.nullspace.s": ("s", "total", "linalg.nullspace"),
        "linalg.solve.s": ("s", "total", "linalg.solve"),
        "trace.spans": ("count", "spans", None),
    }
)
PER_LAYER["trace.overhead_s"] = ("s", "overhead", None)


class Spawner:
    """Runs children one at a time and kills any that would pass the deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "CUTJOIN_BUDGET"}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv: list[str]) -> Run:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Run(
            proc.returncode, out, err[0], wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        )

    def cutjoin(self, argv: tuple[str, ...]) -> Run:
        return self.run([sys.executable, "-m", "cutjoin", *argv])


def measure_setup(spawner: Spawner, samples: int) -> list[float]:
    """Wall times of spawning the interpreter and importing cutjoin.cli."""
    probe = [sys.executable, "-c", "import sys, cutjoin.cli; sys.stdout.write(cutjoin.cli.__file__)"]
    walls = []
    for _ in range(samples):
        run = spawner.run(probe)
        if run.rc != 0 or Path(run.stdout.decode()) != SRC / "cutjoin" / "cli.py":
            raise SystemExit(f"cutjoin.cli does not import from {SRC}: {run.stderr.decode()[-500:]}")
        walls.append(run.wall_s)
    return walls


def run_pass(spawner: Spawner, commands: list[Command]) -> tuple[list[Run], list[str]]:
    runs: list[Run] = []
    failures = []
    for command in commands:
        run = spawner.cutjoin(command.argv)
        reason = check_output(command, run, runs)
        if reason:
            failures.append(reason)
        runs.append(run)
    return runs, failures


def untraced(spawner: Spawner, commands: list[Command], seconds: int) -> tuple[dict, dict]:
    measure_setup(spawner, 1)  # warms the file cache
    setup = measure_setup(spawner, SETUP_SAMPLES)
    walls, cpus, rss, failures = [], [], [], []
    started = time.perf_counter()
    while True:
        runs, failed = run_pass(spawner, commands)
        failures.extend(failed)
        walls.append(sum(r.wall_s for r in runs))
        cpus.append(sum(r.cpu_s for r in runs))
        rss.append(max(r.rss_mb for r in runs))
        if time.perf_counter() - started + walls[-1] > seconds:
            break
    setup += measure_setup(spawner, SETUP_SAMPLES)  # a second window, after the passes
    attempted = len(walls) * len(commands)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    report = {"passes": len(walls), "pass_wall_s": walls, "attempted": attempted, "failures": failures}
    return metrics, report


def traced(spawner: Spawner, workload: str, commands: list[Command]) -> tuple[dict, dict]:
    """Each command untraced, then under the launcher; the launcher's summaries
    (spans included) stay in .perfbench/ for inspection."""
    WORK.mkdir(exist_ok=True)
    plain_runs, traced_runs, summaries, failures = [], [], [], []
    for index, command in enumerate(commands):
        plain = spawner.cutjoin(command.argv)
        reason = check_output(command, plain, plain_runs)
        plain_runs.append(plain)
        summary_path = WORK / f"trace-{workload}-{index:02d}.json"
        summary_path.unlink(missing_ok=True)
        launcher = [sys.executable, str(HERE / "traced_cli.py"), str(SRC), str(summary_path), "--"]
        run = spawner.run(launcher + list(command.argv))
        traced_runs.append(run)
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
        if summary is not None:
            summaries.append(summary)
        if reason is None:
            reason = trace_invariants(" ".join(command.argv), plain, run, summary)
        if reason:
            failures.append(reason)
    overhead = sum(r.wall_s for r in traced_runs) - sum(r.wall_s for r in plain_runs)
    metrics = layer_metrics(summaries, overhead)
    report = {"attempted": len(commands), "failures": failures,
              "traced_wall_s": sum(r.wall_s for r in traced_runs),
              "untraced_wall_s": sum(r.wall_s for r in plain_runs)}
    return metrics, report


def trace_invariants(name: str, plain: Run, run: Run, summary: dict | None) -> str | None:
    if run.rc != plain.rc:
        return f"{name}: traced exit code {run.rc}, untraced {plain.rc}: {run.stderr.decode()[-300:]}"
    if run.stdout != plain.stdout:
        return f"{name}: traced stdout differs from untraced stdout"
    if summary is None:
        return f"{name}: traced run wrote no summary"
    if summary["negative_self_spans"]:
        return f"{name}: {summary['negative_self_spans']} spans with negative self time"
    module_s = sum(summary["module_self_ns"].values()) / 1e9
    if module_s > run.wall_s:
        return f"{name}: module self times {module_s:.3f} s exceed wall {run.wall_s:.3f} s"
    return None


def layer_metrics(summaries: list[dict], overhead: float) -> dict:
    def function(name: str, field: str) -> int:
        return sum(s["functions"].get(name, {}).get(field, 0) for s in summaries)

    def extra(key: str) -> int:
        return sum(s["extra"][key] for s in summaries)

    metrics = {}
    for metric, (unit, kind, *args) in PER_LAYER.items():
        if kind == "module":
            value = sum(s["module_self_ns"][args[0]] for s in summaries) / 1e9
        elif kind == "self":
            value = function(args[0], "self_ns") / 1e9
        elif kind == "total":
            value = function(args[0], "total_ns") / 1e9
        elif kind == "calls":
            value = function(args[0], "calls")
        elif kind == "extra":
            value = extra(args[0])
        elif kind == "connected":
            value = max((c[args[0]] for s in summaries for c in s["connected"]), default=0)
        elif kind == "ratio":
            den = extra(args[1])
            value = extra(args[0]) / den if den else 0.0
        elif kind == "spans":
            value = sum(s["spans"] for s in summaries)
        else:
            value = overhead
        metrics[metric] = (value, unit)
    return metrics


def provenance(seed: int, commands: list[Command]) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "commands": [" ".join(c.argv) for c in commands],
        "git_commit": git_commit(ROOT),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cutjoin" / "cli.py").is_file():
        print(f"error: no cutjoin sources at {SRC}", file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload](args.seed)
    spawner = Spawner()
    if args.trace:
        metrics, report = traced(spawner, args.workload, commands)
    else:
        metrics, report = untraced(spawner, commands, args.seconds)
    failed = len(report["failures"])
    report.update(workload=args.workload, trace=args.trace,
                  fail_ratio={"value": failed / report["attempted"], "unit": "ratio"},
                  **provenance(args.seed, commands))
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
