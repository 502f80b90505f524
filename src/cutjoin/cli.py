"""Command-line surface: compute commands, verification suites, and
machine-readable output.

Output is line-oriented JSON by default (one record per line, keys sorted) so
repeated runs under the same configuration are byte-identical and fixtures
diff cleanly; CSV and an aligned pretty format are available for tables.
Every run starts with a config-echo record and every numeric record names the
identity it instantiates.

The identities are defined in the library modules; `SUITES` maps each
`verify --suite` name to the function that states its checks.  A family of
checks indexed by a degree d, a genus g or a length l (one id
`family/<index>=<i>` per value) is declared once through `_per_degree`; a
one-off check is one call of `_check`, the one builder of a `CheckResult`.
The verdict of a check over partitions is the first one it fails on
(`_first`), which `_check` ends a failing detail with.  `_check` calls each
verdict, and an error raised there, but an exceeded budget, fails that check
alone, so a wrong library value exits 1 and exit 2 stays for bad input.

Like every module of the package, this one reads a library function as
`module.name` where it calls it (see the README).

`verify --suite all`, on a process that may run on two CPUs or more and
runs no other thread, forks one helper after the arguments are parsed.  Both
processes pull tasks from one pipe: the suites that read the series pair
(`SERIES_SUITES`) are one task, so the pair is built once, and every other
suite is a task of its own.  The helper sends back the results of the suites
it finished as JSON and never writes to stdout or stderr; then every suite
with no result runs in this process in suite order, so stdout, the exit code
and stderr are those of a run on one process, which is what one CPU or a
single suite gets.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded, 141 stdout closed by its reader (the code a shell reports for
SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache, partial
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, log10
from typing import Callable, NamedTuple

from . import characters, exact, genfun, hodge, hurwitz, partitions
from .exact import TauPolynomial
from .genfun import PartitionSeries
from .hurwitz import BudgetExceededError
from .partitions import Partition

BUDGET_ENV_VAR = "CUTJOIN_BUDGET"
MAX_TABLE_DEGREE = 12
# the series commands take --max-weight up to MAX_TABLE_DEGREE and
# --lambda-order up to MAX_LAMBDA_ORDER; at (12, 24) `mv-series` takes about
# 9.3 s and `verify --suite all` about 15 s (medians of 3 runs on 2 cores of
# a shared Intel Xeon, CPython 3.11.7)
MAX_LAMBDA_ORDER = 24
# `hurwitz --method char` reads the characters of every partition of |mu|;
# at |mu| = 30 every shape measured answers within 1.8 s on 2 cores
# (CPython 3.11), and |mu| = 40 takes 9.5 s at 2^20
MAX_CHAR_DEGREE = 30


class RunConfig(NamedTuple):
    max_weight: int = 6
    lambda_order: int = 12
    output_format: str = "json"
    seed: int = 0
    budget: int = hurwitz.DEFAULT_BUDGET
    budget_from_env: bool = False


class CheckResult(NamedTuple):
    check_id: str
    identity: str
    passed: bool
    detail: str


def _config_record(config: RunConfig, command: str, **extra) -> dict:
    rec = {"record": "config", "command": command}
    rec.update(config._asdict())
    rec.update(extra)
    return rec


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "csv":
        keys = sorted({k for rec in records for k in rec})
        out.write(",".join(keys) + "\n")
        for rec in records:
            out.write(",".join(_csv_cell(rec.get(k, "")) for k in keys) + "\n")
    else:
        for rec in records:
            bits = [f"{k}={rec[k]}" for k in sorted(rec)]
            out.write("  ".join(bits) + "\n")


def _csv_cell(value) -> str:
    text = json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


# -- compute commands ---------------------------------------------------------


def cmd_char(config: RunConfig, degree: int, out) -> int:
    parts = partitions.enumerate_partitions(degree)
    table = characters.character_table(degree)
    records = [_config_record(config, "char", degree=degree)]
    for nu, row in zip(parts, table):
        records.append(
            {
                "record": "char-row",
                "identity": "murnaghan-nakayama-character-table",
                "irrep": nu.to_json(),
                "values": {str(mu): v for mu, v in zip(parts, row)},
            }
        )
    if config.output_format == "csv":
        out.write("irrep," + ",".join(str(mu) for mu in parts) + "\n")
        for nu, row in zip(parts, table):
            out.write('"' + str(nu) + '",' + ",".join(str(v) for v in row) + "\n")
        return 0
    _emit(records, config.output_format, out)
    return 0


def cmd_hurwitz(config: RunConfig, genus: int, mu: Partition, method: str, out) -> int:
    r = hurwitz.branch_count(genus, mu)
    if method == "char":
        kind = "disconnected"
        value = hurwitz.hurwitz_disconnected(r, mu)
        identity = "transposition-factorization-character-sum"
    elif method == "brute":
        kind = "connected"
        value = hurwitz.hurwitz_bruteforce(r, mu, transitive_only=True, budget=config.budget)
        identity = "transitive-factorization-enumeration"
    else:
        kind = "connected"
        value = hurwitz.hurwitz_connected(genus, mu)
        identity = "connected-cover-count-exponential-formula"
    records = [
        _config_record(config, "hurwitz", genus=genus, partition=mu.to_json(), method=method),
        {
            "record": "hurwitz",
            "identity": identity,
            "genus": genus,
            "branch_points": r,
            "partition": mu.to_json(),
            "kind": kind,
            "method": method,
            "value": exact.fraction_str(value),
        },
    ]
    _emit(records, config.output_format, out)
    return 0


def cmd_hodge(config: RunConfig, genus: int, mu: Partition, out) -> int:
    _, conn = hodge.build_series_pair(config.max_weight, config.lambda_order)
    poly = hodge.hodge_polynomial(genus, mu, conn)
    # the prefactor carries the phase of the genus-0 term lambda^(l-2) p_mu
    prefactor = hodge.readout(hodge.prefactor_polynomial(mu), mu.length - 2, mu.size)
    records = [
        _config_record(config, "hodge", genus=genus, partition=mu.to_json()),
        {
            "record": "hodge-polynomial",
            "identity": "prefactor-isolated-hodge-polynomial",
            "genus": genus,
            "partition": mu.to_json(),
            "prefactor": prefactor.to_json(),
            "polynomial": TauPolynomial.phased(poly, 0).to_json(),
        },
    ]
    _emit(records, config.output_format, out)
    return 0


def cmd_mv_series(config: RunConfig, out) -> int:
    star, conn = hodge.build_series_pair(config.max_weight, config.lambda_order)
    records = [_config_record(config, "mv-series")]
    for name, series in (("disconnected", star), ("connected", conn)):
        for mu in series.body.support():
            coeff = series.coefficient(mu)
            records.append(
                {
                    "record": "series-term",
                    "identity": "character-sine-generating-series",
                    "series": name,
                    "partition": mu.to_json(),
                    "coefficient": coeff.to_json(),
                }
            )
    _emit(records, config.output_format, out)
    return 0


# -- verification suites ------------------------------------------------------


def _check(check_id: str, identity: str, verdict: Callable[[], object], scope: str) -> CheckResult:
    """One check from the value of verdict(): True, or None for no failure,
    passes; False fails; a failure's location fails and ends the detail, a
    partition (from `_first`) as `first failure at <partition>`, a series
    comparison's Mismatch or a named value's text (from `_first_wrong`) as
    itself.  An error verdict() raises fails the check, its detail ending
    `raised <Type>: <message>`, except an exceeded budget, which propagates."""
    try:
        found = verdict()
    except BudgetExceededError:
        raise
    except Exception as exc:
        found = f"raised {type(exc).__name__}: {exc}"
    if found is True or found is None:
        return CheckResult(check_id, identity, True, scope)
    if found is False:
        return CheckResult(check_id, identity, False, scope)
    where = f"first failure at {found}" if isinstance(found, Partition) else found
    return CheckResult(check_id, identity, False, f"{scope}; {where}")


def _per_degree(index: str, values: range, detail: str, families: list) -> list[CheckResult]:
    """One check per value i of the index (a degree d, a genus g or a length
    l) and per family (name, identity, verdict): the id is
    `name/<index>=<i>`, i zero-padded to the digits of the largest value so
    that ids sort by it; `_check` calls verdict(i); `{n}` in the detail is
    the number of partitions of i."""
    width = len(str(values[-1]))
    return [
        _check(
            f"{name}/{index}={i:0{width}d}",
            identity,
            partial(verdict, i),
            detail.format(n=len(partitions.enumerate_partitions(i))),
        )
        for i in values
        for name, identity, verdict in families
    ]


def _first(degrees: range, check: Callable[[Partition], bool]) -> Partition | None:
    """The verdict of a check that must pass on every partition of every
    degree in degrees: the first partition it fails on, by degree, or None."""
    return next((nu for nu in _shapes(degrees) if not check(nu)), None)


def _first_wrong(values) -> str | None:
    """The verdict of a check of (name, value, expected value) triples: the
    first value that differs, named with both values in the wording of
    `hodge.Mismatch`, or None."""
    for name, got, want in values:
        if got != want:
            return f"first mismatch at {name}: {got} != {want}"
    return None


def _every(check: Callable[[Partition], bool]) -> Callable[[int], Partition | None]:
    """The verdict, a function of d, of a check that must pass on every
    partition of d."""
    return lambda d: _first(range(d, d + 1), check)


def _first_wrong_term(pairs) -> str | None:
    """`_first_wrong` of (lhs, rhs) pairs of partition series: the first
    coefficient that differs, named by the pair's index and its partition."""
    return _first_wrong(
        (f"series {i} p_({mu})", lhs.coefficient(mu), rhs.coefficient(mu))
        for i, (lhs, rhs) in enumerate(pairs)
        for mu in (lhs + -rhs).support()
    )


def _shapes(degrees: range) -> list[Partition]:
    """Every partition of every degree in degrees, by degree."""
    return [nu for d in degrees for nu in partitions.enumerate_partitions(d)]


def _suite_hooks(config: RunConfig) -> list[CheckResult]:
    return _per_degree("d", range(1, 13), "{n} shapes", [
        ("hooks/sum", "hook-sum-identity", _every(
            lambda nu: sum(nu.hooks()) == nu.n_weight() + nu.transpose().n_weight() + nu.size
        )),
        ("hooks/transpose", "transpose-involution", _every(
            lambda nu: nu.transpose().transpose() == nu
        )),
        ("hooks/kappa", "kappa-antisymmetry", _every(
            lambda nu: nu.kappa() + nu.transpose().kappa() == 0
        )),
        ("hooks/kappa-rows", "kappa-equals-twice-row-imbalance", _every(
            lambda nu: nu.kappa() == 2 * (nu.transpose().n_weight() - nu.n_weight())
        )),
    ])


def _suite_prop_v(config: RunConfig) -> list[CheckResult]:
    return _per_degree("d", range(1, 11), "{n} shapes, cross-multiplied", [
        ("prop-v", "sine-product-equals-hook-product", _every(hodge.v_forms_agree)),
    ])


def _suite_characters(config: RunConfig) -> list[CheckResult]:
    verdicts = cache(characters.character_table_identities)  # all three, once per degree
    out = _per_degree("d", range(1, 9), "{n}^2 pairs", [
        ("characters/orthogonality-first", "first-orthogonality", lambda d: verdicts(d)[0]),
        ("characters/orthogonality-second", "second-orthogonality", lambda d: verdicts(d)[1]),
        ("characters/transpose-sign", "sign-twist-transpose", lambda d: verdicts(d)[2]),
    ])
    out += _per_degree("d", range(1, 11), "{n} irreps", [
        ("characters/dimension", "dimension-hook-formula", _every(
            lambda nu: characters.dimension(nu) == characters.dimension_hook(nu)
        )),
        ("characters/central", "central-character-equals-half-kappa", _every(
            lambda nu: characters.central_character_transposition(nu) == Fraction(nu.kappa(), 2)
        )),
    ])
    return out + [_check(
        "characters/principal-specialization",
        "principal-specialization",
        lambda: _first(range(1, 5), lambda nu: characters.principal_specialization_check(nu, 10)),
        "|shape| <= 4, q-order 10",
    )]


def _random_series(rng: random.Random, max_weight: int) -> PartitionSeries:
    terms = {}
    pool = _shapes(range(1, max_weight + 1))
    for mu in rng.sample(pool, k=min(5, len(pool))):
        terms[mu] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return PartitionSeries(terms, max_weight)


def _suite_cutjoin_id(config: RunConfig) -> list[CheckResult]:
    out = _per_degree("d", range(1, 9), "{n} irreps", [
        ("cutjoin-id", "schur-eigenvector-identity", _every(genfun.character_cutjoin_identity)),
    ])
    rng = random.Random(config.seed)
    logged = [_random_series(rng, 5) for _ in range(10)]
    conjugated = [_random_series(rng, 5) for _ in range(5)]
    return out + [
        _check(
            "cutjoin-id/random-exp-log",
            "exp-log-roundtrip",
            lambda: _first_wrong_term((genfun.ps_log(genfun.ps_exp(F)), F) for F in logged),
            f"10 seeded series, seed={config.seed}",
        ),
        _check(
            "cutjoin-id/random-conjugation",
            "operator-exp-conjugation",
            lambda: _first_wrong_term(
                (genfun.cut_join_linear(G), G * genfun.cut_join_nonlinear(F))
                for F in conjugated
                for G in [genfun.ps_exp(F)]
            ),
            f"5 seeded series, seed={config.seed}",
        ),
    ]


def _suite_theorem1(config: RunConfig) -> list[CheckResult]:
    # both forms from one call, which builds both operators' sides
    both = cache(lambda: hodge.theorem1_mismatches(config.max_weight, config.lambda_order))
    scope = f"weight<={config.max_weight}, order<={config.lambda_order}"
    return [
        _check("theorem1/linear", "tau-evolution-linear-form", lambda: both()[0], scope),
        _check("theorem1/nonlinear", "tau-evolution-nonlinear-form", lambda: both()[1], scope),
        _check("theorem1/parity", "parity-pole-structure", lambda: hodge.parity_pole_mismatch(
            hodge.build_series_pair(config.max_weight, config.lambda_order)[1]
        ), scope),
    ]


def _suite_initial(config: RunConfig) -> list[CheckResult]:
    return [
        _check(
            "initial/sine-closed-form",
            "tau-zero-sine-closed-form",
            lambda: hodge.initial_condition_mismatch(config.max_weight, config.lambda_order),
            f"rows d<={config.max_weight}, order<={config.lambda_order}",
        )
    ]


EXTRACTION_MAX_GENUS = 3
EXTRACTION_MAX_SIZE = 4


def _extraction_min_lambda_order(max_weight: int) -> int:
    """The smallest --lambda-order the extraction suite can run at: it reads
    lambda^(2g-2+l(mu)) up to the largest genus and the longest partition."""
    return 2 * EXTRACTION_MAX_GENUS - 2 + min(EXTRACTION_MAX_SIZE, max_weight)


def _suite_extraction(config: RunConfig) -> list[CheckResult]:
    max_size = min(EXTRACTION_MAX_SIZE, config.max_weight)
    sizes = range(1, max_size + 1)
    shape_range = f"|mu| <= {max_size}"
    conn = cache(lambda: hodge.build_series_pair(config.max_weight, config.lambda_order)[1])
    out = _per_degree("g", range(EXTRACTION_MAX_GENUS + 1), shape_range, [
        ("extraction/degree", "degree-bound", lambda g: _first(
            sizes, lambda mu: hodge.extract_C_gmu(conn(), g, mu).degree_ok()
        )),
        ("extraction/symmetry", "tau-reflection-symmetry", lambda g: _first(
            sizes, lambda mu: hodge.extract_C_gmu(conn(), g, mu).symmetry_ok()
        )),
    ])
    out += _per_degree("g", range(3), shape_range, [
        ("extraction/derivative-recursion", "derivative-recursion", lambda g: _first(
            sizes, lambda mu: hodge.cutjoin_derivative_check(conn(), g, mu)
        )),
    ])
    return out + [
        _check(
            "extraction/genus0-closed-form",
            "genus0-definition-vs-extraction",
            lambda: _first(sizes, lambda mu: (
                hodge.extract_C_gmu(conn(), 0, mu).real == hodge.genus0_closed_form(mu)
            )),
            f"all {shape_range}",
        ),
        _check(
            "extraction/hodge-division-genus0",
            "hodge-prefactor-division",
            lambda: _first(sizes, lambda mu: (
                hodge.hodge_polynomial(0, mu, conn()) == hurwitz.linear_hodge_factor(0, mu)
            )),
            "quotient is |mu|^(l-3), remainder zero",
        ),
        _check(
            "extraction/one-point-genus1",
            "one-point-genus1-value",
            lambda: _first_wrong([
                ("g=1 p_(1)", hodge.hodge_polynomial(1, Partition([1]), conn()), Fraction(1, 24))
            ]),
            "constant 1/24",
        ),
        _check(
            "extraction/sine-reciprocal",
            "sine-reciprocal-coefficients",
            lambda: _first_wrong(zip_longest(
                ("b_0", "b_1", "b_2"), hodge.lambda_g_coefficients(4)[:3],
                (1, Fraction(1, 24), Fraction(7, 5760)),
            )),
            "1, 1/24, 7/5760",
        ),
    ]


def _suite_hurwitz(config: RunConfig) -> list[CheckResult]:
    out = _per_degree("d", range(1, 5), "r <= 6", [
        ("hurwitz/character-vs-brute", "character-vs-bruteforce", _every(lambda mu: all(
            hurwitz.hurwitz_disconnected(r, mu)
            == hurwitz.hurwitz_bruteforce(r, mu, budget=config.budget)
            for r in range(7)
        ))),
        ("hurwitz/connected-vs-transitive", "connected-vs-transitive", _every(lambda mu: all(
            hurwitz.hurwitz_connected(g, mu)
            == hurwitz.hurwitz_bruteforce(
                hurwitz.branch_count(g, mu), mu, transitive_only=True, budget=config.budget
            )
            for g in range(4)
            if 0 <= hurwitz.branch_count(g, mu) <= 6
        ))),
    ])
    return out + [
        _check("hurwitz/anchors", "anchor-values", lambda: _first_wrong(
            (f"g={g} p_({d})", hurwitz.hurwitz_connected(g, Partition([d])), want)
            for g, d, want in ((0, 2, Fraction(1, 2)), (0, 3, 1), (1, 2, Fraction(1, 2)))
        ), "three fixed counts"),
        _check("hurwitz/parity", "parity-vanishing", lambda: _first(range(1, 5), lambda mu: all(
            hurwitz.hurwitz_disconnected(r, mu) == 0
            for r in range(7)
            if (r - mu.size - mu.length) % 2 != 0
        )), "odd-mismatch counts vanish"),
    ]


def _suite_elsv(config: RunConfig) -> list[CheckResult]:
    out = _per_degree("d", range(1, 6), "{n} partitions", [
        ("elsv/genus0", "cover-count-hodge-closed-form", _every(
            lambda mu: hurwitz.elsv_check(0, mu)
        )),
    ])
    return out + [
        _check(
            "elsv/genus1",
            "cover-count-hodge-closed-form",
            lambda: _first(range(1, 6), lambda mu: hurwitz.elsv_check(1, mu)),
            "all |mu| <= 5",
        ),
        _check(
            "elsv/reverse-solve",
            "reverse-solve-one-point-integrals",
            lambda: _first_wrong(
                (f"{name} from degrees {degrees}", solved[name], Fraction(1, 24))
                for degrees in ([2, 3], [2, 3, 4])
                for solved in [hurwitz.solve_hodge_from_hurwitz(degrees)]
                for name in ("psi", "lambda")
            ),
            "psi=lambda=1/24 from degrees 2,3 and 2,3,4",
        ),
    ]


def _suite_transfer(config: RunConfig) -> list[CheckResult]:
    return _per_degree("l", range(1, 11), "alternating binomials", [
        ("transfer", "falling-factorial-kernel", lambda l: _first_wrong(
            (f"k={k}", got, want) for k, (got, want) in enumerate(zip_longest(
                hodge.transfer_system_kernel(l), [(-1) ** k * comb(l, k) for k in range(l + 1)]
            ))
        )),
    ])


SUITES: dict[str, Callable[[RunConfig], list[CheckResult]]] = {
    "hooks": _suite_hooks,
    "prop-v": _suite_prop_v,
    "characters": _suite_characters,
    "cutjoin-id": _suite_cutjoin_id,
    "theorem1": _suite_theorem1,
    "initial": _suite_initial,
    "extraction": _suite_extraction,
    "hurwitz": _suite_hurwitz,
    "elsv": _suite_elsv,
    "transfer": _suite_transfer,
}


# theorem1, initial and extraction read the series pair: one task runs them
# together, so the pair is built once, in one process
SERIES_SUITES = ("theorem1", "initial", "extraction")
# the tasks of `verify --suite all`: the series suites first, then every other
# suite alone, in suite order
_ALL_TASKS = [list(SERIES_SUITES), *([name] for name in SUITES if name not in SERIES_SUITES)]


def _may_fork() -> bool:
    """Whether a helper may be forked: the platform forks, this process may
    run on two CPUs or more, and it runs no other thread, whose locks the
    helper could find held forever."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _pull(config: RunConfig, tasks: list[list[str]], fd: int) -> dict[str, list[CheckResult]]:
    """Run the tasks whose indices are read one byte at a time from the pipe
    fd, until it is empty or a suite raises; the results of every suite that
    finished, by name."""
    done = {}
    try:
        while index := os.read(fd, 1):
            for name in tasks[index[0]]:
                done[name] = SUITES[name](config)
    except Exception:
        pass  # the suite runs again in the parent, which raises in suite order
    return done


def _run_with_helper(config: RunConfig) -> dict[str, list[CheckResult]]:
    """Run the tasks of `verify --suite all` on this process and one forked
    helper, which pull them from one pipe; the results of every suite that
    finished, by name.

    The helper writes its results as JSON to a second pipe and leaves by
    os._exit, so it never writes to stdout or stderr nor runs exit handlers;
    its results count only if it exited with status 0.  It is reaped before
    this returns or raises."""
    task_r, task_w = os.pipe()
    os.write(task_w, bytes(range(len(_ALL_TASKS))))
    os.close(task_w)
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no helper: the caller runs every suite
        for fd in (task_r, result_r, result_w):
            os.close(fd)
        return {}
    if pid == 0:
        code = 1
        try:
            os.close(result_r)
            done = _pull(config, _ALL_TASKS, task_r)
            with open(result_w, "w") as results:
                json.dump(done, results)
            code = 0
        finally:
            os._exit(code)
    os.close(result_w)
    try:
        with open(result_r) as results:
            done = _pull(config, _ALL_TASKS, task_r)
            helper = results.read()
    except BaseException:  # an interrupt: stop the helper before reaping it
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
        os.close(task_r)
    if status == 0:
        done.update(
            (name, [CheckResult(*r) for r in rs]) for name, rs in json.loads(helper).items()
        )
    return done


def cmd_verify(config: RunConfig, suite: str, out) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    done = _run_with_helper(config) if suite == "all" and _may_fork() else {}
    # every suite with no result runs here, in suite order, so an error is the
    # one a run on one process raises
    for name in names:
        if name not in done:
            done[name] = SUITES[name](config)
    results = sorted((r for name in names for r in done[name]), key=lambda r: r.check_id)
    records = [_config_record(config, "verify", suite=suite)]
    for r in results:
        records.append(
            {
                "record": "check",
                "check": r.check_id,
                "identity": r.identity,
                "pass": r.passed,
                "detail": r.detail,
            }
        )
    failed = [r for r in results if not r.passed]
    records.append(
        {
            "record": "summary",
            "suite": suite,
            "checks": len(results),
            "failed": len(failed),
        }
    )
    _emit(records, config.output_format, out)
    return 1 if failed else 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutjoin",
        description="Exact combinatorics of cut-and-join identities: characters, "
        "sine generating series, Hodge polynomials and branched-cover counts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-weight", type=int, default=6, metavar="W")
    common.add_argument("--lambda-order", type=int, default=12, metavar="L")
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json"
    )
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=None, metavar="N")

    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", parents=[common], help="character table of a symmetric group")
    p_char.add_argument("--degree", type=int, required=True, metavar="D")

    p_hur = sub.add_parser("hurwitz", parents=[common], help="branched-cover counts")
    p_hur.add_argument("--genus", type=int, required=True)
    p_hur.add_argument("--partition", type=str, required=True)
    p_hur.add_argument(
        "--method", choices=("char", "brute", "connected"), default="connected"
    )

    p_hodge = sub.add_parser("hodge", parents=[common], help="isolated Hodge polynomial")
    p_hodge.add_argument("--genus", type=int, required=True)
    p_hodge.add_argument("--partition", type=str, required=True)

    sub.add_parser("mv-series", parents=[common], help="dump the generating series")

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument(
        "--suite", choices=tuple(SUITES) + ("all",), default="all"
    )
    return parser


def _resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    budget_from_env = False
    budget = args.budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                parser.error(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}")
            if budget < 0:
                parser.error(f"{BUDGET_ENV_VAR} must be nonnegative, got {env!r}")
            budget_from_env = True
        else:
            budget = hurwitz.DEFAULT_BUDGET
    elif budget < 0:
        parser.error(f"--budget must be nonnegative, got {budget}")
    return RunConfig(
        max_weight=args.max_weight,
        lambda_order=args.lambda_order,
        output_format=args.format,
        seed=args.seed,
        budget=budget,
        budget_from_env=budget_from_env,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone: what stdout still buffers goes to the null
        # device, so the interpreter's last flush neither fails nor reports
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _resolve_config(parser, args)
    if args.command in ("hodge", "mv-series", "verify"):
        if config.max_weight < 1:
            parser.error(f"--max-weight must be at least 1, got {config.max_weight}")
        if config.max_weight > MAX_TABLE_DEGREE:
            parser.error(
                f"--max-weight must be at most {MAX_TABLE_DEGREE}, got {config.max_weight}"
            )
        if config.lambda_order < 0:
            parser.error(f"--lambda-order must be nonnegative, got {config.lambda_order}")
        if config.lambda_order > MAX_LAMBDA_ORDER:
            parser.error(
                f"--lambda-order must be at most {MAX_LAMBDA_ORDER}, got {config.lambda_order}"
            )
    if args.command == "verify" and args.suite in ("extraction", "all"):
        need = _extraction_min_lambda_order(config.max_weight)
        if config.lambda_order < need:
            parser.error(
                f"--suite {args.suite} needs --lambda-order at least {need} "
                f"at --max-weight {config.max_weight}, got {config.lambda_order}"
            )
    out = sys.stdout
    try:
        if args.command == "char":
            if not 1 <= args.degree <= MAX_TABLE_DEGREE:
                parser.error(f"--degree must be in 1..{MAX_TABLE_DEGREE}")
            return cmd_char(config, args.degree, out)
        if args.command == "hurwitz":
            mu = _parse_partition(parser, args.partition)
            if args.genus < 0:
                parser.error("--genus must be nonnegative")
            if args.method != "brute":
                cap = MAX_CHAR_DEGREE if args.method == "char" else MAX_TABLE_DEGREE
                if mu.size > cap:
                    parser.error(
                        f"--partition size {mu.size} exceeds {cap} for --method {args.method}"
                    )
                r = hurwitz.branch_count(args.genus, mu)
                limit = count_digit_limit(r, mu.size)
                if limit:
                    parser.error(
                        f"--genus {args.genus} gives {r} branch points; the "
                        f"--method {args.method} count could exceed {limit} digits"
                    )
            return cmd_hurwitz(config, args.genus, mu, args.method, out)
        if args.command == "hodge":
            mu = _parse_partition(parser, args.partition)
            if args.genus < 0:
                parser.error("--genus must be nonnegative")
            if mu.size > config.max_weight:
                parser.error(f"|mu|={mu.size} exceeds --max-weight {config.max_weight}")
            m = 2 * args.genus - 2 + mu.length
            if m > config.lambda_order:
                parser.error(
                    f"lambda exponent 2g-2+l(mu)={m} exceeds --lambda-order {config.lambda_order}"
                )
            return cmd_hodge(config, args.genus, mu, out)
        if args.command == "mv-series":
            return cmd_mv_series(config, out)
        if args.command == "verify":
            return cmd_verify(config, args.suite, out)
        parser.error(f"unknown command {args.command}")
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    return 2


def count_digit_limit(r: int, d: int) -> int:
    """Python's int-to-string digit limit if the numerator of a cover count
    of degree d at r branch points could exceed it, else 0; read before the
    count is computed.

    A disconnected count is sum_nu dim(nu) * chi_nu(mu) * (kappa_nu/2)^r /
    (z_mu * d!), where kappa_nu/2 is an integer of size at most d(d-1)/2 and
    sum_nu |dim(nu) * chi_nu(mu)| <= sum_nu dim(nu)^2 = d!; a connected
    count's numerator is at most the number of transitive r-tuples of
    transpositions, at most (d(d-1)/2)^r.  For d <= 2 the bound does not
    grow with r.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = r * log10(max(d * (d - 1) // 2, 1)) + len(str(factorial(d))) + 1
    return limit if limit and digits > limit else 0


def _parse_partition(parser: argparse.ArgumentParser, text: str) -> Partition:
    try:
        mu = Partition.parse(text)
    except ValueError as exc:
        parser.error(f"bad partition {text!r}: {exc}")
    if mu.size < 1:
        parser.error("partition must be nonempty")
    return mu


if __name__ == "__main__":
    sys.exit(main())
