import os
from pathlib import Path

import pytest

from cutjoin.hodge import build_series_pair

# the CLI tests spawn `python -m cutjoin`; give those children the same
# source tree that the pytest `pythonpath` setting gives this process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def series_pair_small():
    """Disconnected/connected pair at a size big enough for every unit check
    (weight 4, lambda order 10) but much cheaper than the acceptance size."""
    return build_series_pair(4, 10)


@pytest.fixture(scope="session")
def series_pair_default():
    """The pair at the CLI's default size (6, 12), where genus 1 reaches
    every |mu| <= 6 and genus 4 every l(mu) <= 6."""
    return build_series_pair(6, 12)
