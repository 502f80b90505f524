"""Source layout rules that no linter in the toolchain enforces."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutjoin"
MAX_COLUMNS = 99


def test_no_source_line_exceeds_the_column_limit():
    long_lines = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []
