"""Source layout rules that no linter in the toolchain enforces."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cutjoin"
SCRIPTS = ROOT / "scripts"
MAX_COLUMNS = 99


def test_no_source_line_exceeds_the_column_limit():
    long_lines = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


def _names_used(tree: ast.AST) -> set[str]:
    """Every identifier a syntax tree reads, imports or exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _names_defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level function, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def test_every_public_definition_is_used():
    # a public top-level function, class or constant must be named in the
    # package or a script outside its own definition; a package export counts
    used = set()
    for path in sorted(SCRIPTS.glob("*.py")):
        used |= _names_used(ast.parse(path.read_text()))
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _names_defined(stmt)
            defined += [f"{path.name}:{name}" for name in names if not name.startswith("_")]
            used |= _names_used(stmt) - names
    assert [d for d in defined if d.split(":")[1] not in used] == []
