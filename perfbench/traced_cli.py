"""Run one `cutjoin` CLI command in this process with timing wrappers.

Usage:  python perfbench/traced_cli.py SRC_DIR SUMMARY_JSON -- <cutjoin argv>

The library is treated as a black box: nothing inside `src/cutjoin` knows it
is traced.  Before `cutjoin.cli.main(argv)` runs, every public module-level
function of the eight layer modules is wrapped, in every module namespace that
binds it (the package imports names with `from .x import y`, so a name has to
be patched where it is looked up, not only where it is defined), together with
a short list of methods and the `cli.SUITES` table.

Module-level functions outside `exact` record spans (name, start, end,
parent).  `exact` and the series-product methods are aggregate counters: they
take part in the self-time accounting but store no span.  Spans stay in memory
and are written to SUMMARY_JSON at exit together with the aggregates, so
stdout is exactly what the untraced CLI prints.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns

MODULES = ("cli", "hodge", "genfun", "exact", "characters", "partitions", "hurwitz", "linalg")

# (module, class, method, metric stem, timed)
METHODS = (
    ("genfun", "PartitionSeries", "__mul__", "genfun.series_mul", True),
    ("genfun", "PartitionSeries", "mul_p", "genfun.mul_p", True),
    ("hodge", "MVSeries", "tau_derivative", "hodge.tau_derivative", True),
    ("exact", "LaurentSeries", "__mul__", "exact.LaurentSeries.mul", True),
    ("exact", "LaurentSeries", "reciprocal", "exact.LaurentSeries.reciprocal", True),
    ("exact", "TauPolynomial", "__mul__", "exact.TauPolynomial.mul", True),
    ("exact", "QHalfLaurent", "__mul__", "exact.QHalfLaurent.mul", True),
    ("exact", "GaussianRational", "__mul__", "exact.GaussianRational.mul", False),
    ("exact", "GaussianRational", "__add__", "exact.GaussianRational.add", False),
)


class Stat:
    __slots__ = ("module", "calls", "self_ns", "total_ns", "depth")

    def __init__(self, module: str):
        self.module = module
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0  # outermost activations only, so recursion is not double counted
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        # one frame per open timed call: [child_ns]; the root frame absorbs top-level time
        self.stack: list[list[int]] = [[0]]
        self.current = -1  # index of the innermost open recorded span
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.extra = {
            "genfun.series_mul.terms_out": 0,
            "genfun.mul_p.terms_in": 0,
            "genfun.mul_p.terms_out": 0,
            "hurwitz.hurwitz_bruteforce.tuples": 0,
            "hurwitz.hurwitz_bruteforce.matches": 0,
            "hurwitz.budget_exceeded": 0,
        }
        self.series_pairs: list = []

    def stat(self, name: str, module: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(module)
        return self.stats[name]

    def timed(self, name: str, module: str, fn, record: bool):
        st = self.stat(name, module)
        stack = self.stack
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            frame = [0]
            stack.append(frame)
            if record:
                idx = len(tracer.span_start)
                parent = tracer.current
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent)
                tracer.span_end.append(0)
                tracer.current = idx
            t0 = perf_counter_ns()
            if record:
                tracer.span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                st.self_ns += dur - frame[0]
                st.depth -= 1
                if not st.depth:
                    st.total_ns += dur
                if record:
                    tracer.span_end[idx] = t1
                    tracer.current = parent

        return wrapper

    def counted(self, name: str, module: str, fn):
        st = self.stat(name, module)

        def wrapper(*args):
            st.calls += 1
            return fn(*args)

        return wrapper

    # -- output ------------------------------------------------------------

    def summary(self, rc: int) -> dict:
        n = len(self.span_start)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        negative = sum(
            1 for i in range(n) if self.span_end[i] - self.span_start[i] - child[i] < 0
        )
        module_self = {m: 0 for m in MODULES}
        for st in self.stats.values():
            module_self[st.module] += st.self_ns
        return {
            "rc": rc,
            "spans": n,
            "negative_self_spans": negative,
            "module_self_ns": module_self,
            "functions": {
                name: {"calls": st.calls, "self_ns": st.self_ns, "total_ns": st.total_ns}
                for name, st in sorted(self.stats.items())
            },
            "extra": self.extra,
            "connected": [connected_stats(conn) for _, conn in self.series_pairs],
            "span_records": [
                [self.names[self.span_name[i]], self.span_start[i], self.span_end[i], self.span_parent[i]]
                for i in range(n)
            ],
        }


def connected_stats(conn) -> dict:
    """Size of a connected series: nonzero rational components and the
    largest numerator and denominator bit-lengths among them."""
    terms = num_bits = den_bits = 0
    for series in conn.body.terms.values():
        for _, c in series.items():
            for poly_coeff in getattr(c, "coeffs", (c,)):
                for q in (getattr(poly_coeff, "re", poly_coeff), getattr(poly_coeff, "im", 0)):
                    if q:
                        terms += 1
                        num_bits = max(num_bits, abs(q.numerator).bit_length())
                        den_bits = max(den_bits, q.denominator.bit_length())
    return {"terms": terms, "max_num_bits": num_bits, "max_den_bits": den_bits}


def install(tracer: Tracer) -> None:
    import importlib

    import cutjoin

    mods = {m: importlib.import_module(f"cutjoin.{m}") for m in MODULES}
    wrapped = {}  # id(original) -> wrapper
    for m, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            stem = f"{m}.{name}"
            wrapped[id(obj)] = tracer.timed(stem, m, _with_counters(tracer, stem, obj), m != "exact")
    for mod in [cutjoin, *mods.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    cli = mods["cli"]
    for suite, fn in list(cli.SUITES.items()):
        cli.SUITES[suite] = tracer.timed(f"cli.suite.{suite}", "cli", fn, record=True)
    for m, cls_name, meth, stem, timed in METHODS:
        cls = getattr(mods[m], cls_name)
        fn = _with_counters(tracer, stem, vars(cls)[meth])
        if timed:
            setattr(cls, meth, tracer.timed(stem, m, fn, record=(m != "exact")))
        else:
            setattr(cls, meth, tracer.counted(stem, m, fn))


def _with_counters(tracer: Tracer, stem: str, fn):
    """Counters read from the arguments and results of a few calls."""
    extra = tracer.extra
    if stem == "hodge.build_series_pair":

        def build_series_pair(*args, **kwargs):
            pair = fn(*args, **kwargs)
            if all(p is not pair for p in tracer.series_pairs):
                tracer.series_pairs.append(pair)  # sized at exit, outside any span
            return pair

        return build_series_pair
    if stem == "hurwitz.hurwitz_bruteforce":
        budget_error = sys.modules["cutjoin.hurwitz"].BudgetExceededError

        def hurwitz_bruteforce(r, mu, *args, **kwargs):
            try:
                value = fn(r, mu, *args, **kwargs)
            except budget_error:
                extra["hurwitz.budget_exceeded"] += 1
                raise
            n = mu.size * (mu.size - 1) // 2
            extra["hurwitz.hurwitz_bruteforce.tuples"] += n**r if n else int(r == 0)
            extra["hurwitz.hurwitz_bruteforce.matches"] += int(value * mu.z())
            return value

        return hurwitz_bruteforce
    if stem == "genfun.series_mul":

        def series_mul(self, other):
            out = fn(self, other)
            if out is not NotImplemented:
                extra["genfun.series_mul.terms_out"] += len(out.terms)
            return out

        return series_mul
    if stem == "genfun.mul_p":

        def mul_p(self, i):
            out = fn(self, i)
            extra["genfun.mul_p.terms_in"] += len(self.terms)
            extra["genfun.mul_p.terms_out"] += len(out.terms)
            return out

        return mul_p
    return fn


def main() -> int:
    src, summary_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SRC_DIR SUMMARY_JSON -- <cutjoin argv>")
    sys.path.insert(0, src)
    tracer = Tracer()
    install(tracer)
    import cutjoin.cli

    try:
        rc = cutjoin.cli.main(argv)
    except SystemExit as exc:  # argparse errors
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    summary = tracer.summary(rc)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
