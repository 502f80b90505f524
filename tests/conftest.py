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
