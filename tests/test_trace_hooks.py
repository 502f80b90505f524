"""The benchmark's traced run patches a few library methods by name; a
refactor that moves or renames one of them must fail here, not only in the
benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _traced_methods():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.METHODS


@pytest.mark.parametrize("module, cls, method, stem, timed", _traced_methods())
def test_traced_method_is_defined_on_its_class(module, cls, method, stem, timed):
    owner = getattr(importlib.import_module(f"cutjoin.{module}"), cls)
    assert callable(vars(owner).get(method)), stem
