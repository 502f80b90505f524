"""The benchmark's workloads: seeded command lists and their output checks.

Each workload is a list of `cutjoin` CLI invocations.  The program receives
only the generated argv; every command carries a check that reads its stdout
(and, for a cross-check, the output of the command before it) and returns a
failure reason or None.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# The seven cheap suites run one process each in covers-chars; theorem1,
# initial and extraction need the (6, 12) series and belong to verify-all.
COVERS_SUITES = ("prop-v", "hooks", "characters", "cutjoin-id", "hurwitz", "elsv", "transfer")

# Brute-force cover-count queries (genus, partition), in three tiers.  The
# queries within a tier enumerate the same number of tuples, or cost the same
# to within a few percent, so the draw changes which covers are counted but
# not the length of a pass.  Enumeration sizes run from 1.8e5 to 1e6 tuples.
HURWITZ_TIERS = (
    ((2, "4"), (1, "2,1,1")),  # 6^7 = 279936 tuples each
    ((4, "2,1"), (0, "6")),  # 3^11 = 177147 and 15^5 = 759375 tuples
    ((0, "3,1,1"), (0, "2,2,1")),  # 10^6 tuples each
)


class Run(NamedTuple):
    """One finished child process."""

    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


class Command(NamedTuple):
    argv: tuple[str, ...]
    check: Callable[[Run, list[Run]], str | None]


def _records(run: Run) -> list[dict]:
    return [json.loads(line) for line in run.stdout.decode().splitlines()]


def verify_check(suite: str) -> Callable[[Run, list[Run]], str | None]:
    """Exit 0, every check passes, and the check count is the recorded one."""
    expected = REFERENCE["verify_checks"][suite]

    def check(run: Run, _previous: list[Run]) -> str | None:
        if run.rc != 0:
            return f"verify --suite {suite}: exit code {run.rc}"
        records = _records(run)
        summary = records[-1]
        checks = [r for r in records if r.get("record") == "check"]
        if summary.get("record") != "summary" or summary.get("failed") != 0:
            return f"verify --suite {suite}: summary {summary}"
        if summary.get("checks") != expected or len(checks) != expected:
            return f"verify --suite {suite}: {len(checks)} checks, expected {expected}"
        if not all(r.get("pass") is True for r in checks):
            return f"verify --suite {suite}: a check record is not passing"
        return None

    return check


def digest_check(key: str) -> Callable[[Run, list[Run]], str | None]:
    """Exit 0 and stdout byte-identical to the output recorded at the seed."""
    expected = REFERENCE["stdout_sha256"][key]

    def check(run: Run, _previous: list[Run]) -> str | None:
        if run.rc != 0:
            return f"{key}: exit code {run.rc}"
        got = hashlib.sha256(run.stdout).hexdigest()
        if got != expected:
            return f"{key}: stdout sha256 {got}, expected {expected}"
        return None

    return check


def hurwitz_value(run: Run) -> Fraction:
    (record,) = [r for r in _records(run) if r.get("record") == "hurwitz"]
    return Fraction(record["value"])


def brute_check(run: Run, _previous: list[Run]) -> str | None:
    if run.rc != 0:
        return f"hurwitz --method brute: exit code {run.rc}"
    hurwitz_value(run)
    return None


def connected_matches_brute(run: Run, previous: list[Run]) -> str | None:
    """The character/exponential-formula route equals the enumeration."""
    if run.rc != 0:
        return f"hurwitz --method connected: exit code {run.rc}"
    brute = previous[-1]
    if brute.rc != 0:
        return "hurwitz --method connected: brute-force partner failed"
    if hurwitz_value(run) != hurwitz_value(brute):
        return f"hurwitz: connected {hurwitz_value(run)} != brute {hurwitz_value(brute)}"
    return None


def draw_hurwitz_queries(seed: int) -> list[tuple[int, str]]:
    rng = random.Random(seed)
    return [rng.choice(tier) for tier in HURWITZ_TIERS]


def verify_all(seed: int) -> list[Command]:
    return [Command(("verify", "--suite", "all", "--seed", str(seed)), verify_check("all"))]


def series_w7(seed: int) -> list[Command]:
    key = "mv-series --max-weight 7 --lambda-order 14"
    return [Command(tuple(key.split()), digest_check(key))]


def covers_chars(seed: int) -> list[Command]:
    commands = [Command(("char", "--degree", "12"), digest_check("char --degree 12"))]
    for suite in COVERS_SUITES:
        commands.append(
            Command(("verify", "--suite", suite, "--seed", str(seed)), verify_check(suite))
        )
    for genus, partition in draw_hurwitz_queries(seed):
        query = ("hurwitz", "--genus", str(genus), "--partition", partition, "--method")
        commands.append(Command(query + ("brute",), brute_check))
        commands.append(Command(query + ("connected",), connected_matches_brute))
    return commands


# covers-chars is not listed in BENCHMARK.json: a run holds about 25 s of
# it, and on a shared 2-core machine its spread over ten seeds (26% of the
# median) exceeded the bound.  It stays runnable by hand for its traced run.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "verify-all": verify_all,
    "series-w7": series_w7,
    "covers-chars": covers_chars,
}


def check_output(command: Command, run: Run, previous: list[Run]) -> str | None:
    """Apply a command's check; malformed output is a failure, not a crash."""
    try:
        return command.check(run, previous)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"{' '.join(command.argv)}: unreadable output ({type(exc).__name__}: {exc})"
