"""Source layout rules that no linter in the toolchain enforces."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cutjoin"
SCRIPTS = ROOT / "scripts"
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
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


def _traced_method_names() -> set[str]:
    """The method names the benchmark's traced run patches by name."""
    tree = ast.parse(TRACED_CLI.read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _names_defined(stmt) == {"METHODS"}:
            return {method for _, _, method, _, _ in ast.literal_eval(stmt.value)}
    raise AssertionError("traced_cli.py defines no METHODS table")


def _class_names_used(cls: ast.ClassDef) -> set[str]:
    """The names a class statement uses outside each of its own methods."""
    used = set()
    for node in [*cls.bases, *cls.keywords, *cls.decorator_list]:
        used |= _names_used(node)
    for member in cls.body:
        own = {member.name} if isinstance(member, ast.FunctionDef) else set()
        used |= _names_used(member) - own
    return used - {cls.name}


def test_every_public_definition_is_used():
    # a public top-level function, class or constant, or a public method of
    # a class, must be named in the package or a script outside its own
    # definition; a package export counts, and so does a method the traced
    # benchmark run patches by name
    used = _traced_method_names()
    for path in sorted(SCRIPTS.glob("*.py")):
        used |= _names_used(ast.parse(path.read_text()))
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _names_defined(stmt)
            defined += [(f"{path.name}:{name}", name) for name in names if not name.startswith("_")]
            if isinstance(stmt, ast.ClassDef):
                defined += [
                    (f"{path.name}:{stmt.name}.{member.name}", member.name)
                    for member in stmt.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
                used |= _class_names_used(stmt)
            else:
                used |= _names_used(stmt) - names
    assert [label for label, name in defined if name not in used] == []
