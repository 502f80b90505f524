"""The benchmark's traced run patches a few library methods by name; a
refactor that moves or renames one of them must fail here, not only in the
benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_methods():
    return _load("traced_cli").METHODS


@pytest.mark.parametrize("module, cls, method, stem, timed", _traced_methods())
def test_traced_method_is_defined_on_its_class(module, cls, method, stem, timed):
    owner = getattr(importlib.import_module(f"cutjoin.{module}"), cls)
    assert callable(vars(owner).get(method)), stem


def _resolves(name, stems, suites):
    """Whether the traced run times something under this name: a METHODS
    stem, a CLI suite, or a public module-level function of a layer module,
    which is what traced_cli.install wraps."""
    if name in stems:
        return True
    module, _, rest = name.partition(".")
    if module == "cli" and rest.startswith("suite."):
        return rest.removeprefix("suite.") in suites
    try:
        obj = getattr(importlib.import_module(f"cutjoin.{module}"), rest)
    except (ImportError, AttributeError):
        return False
    return (
        not rest.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == f"cutjoin.{module}"
    )


def test_per_layer_metric_names_resolve(monkeypatch):
    from cutjoin.cli import SUITES

    monkeypatch.syspath_prepend(str(PERFBENCH))
    per_layer = _load("run").PER_LAYER
    stems = {stem for *_, stem, _ in _traced_methods()}
    names = {
        spec[2] for spec in per_layer.values() if spec[1] in ("self", "total", "calls")
    }
    assert names
    unresolved = {name for name in names if not _resolves(name, stems, SUITES)}
    # the ordered split walk was folded into the cut_join_incoming table, and
    # the tau-exponential and the sine amplitude into the one exponential
    # `hodge.pair_exponential`; their metrics stay in the benchmark's fixed
    # list and now read 0
    assert unresolved == {
        "partitions.split_contributions",
        "hodge.v_series",
        "hodge.kappa_exp_factor",
    }
