"""Source layout rules that no linter in the toolchain enforces."""

import ast
import importlib
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
    """Every identifier a syntax tree reads; an import alone reads nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
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


class _MethodUses(ast.NodeVisitor):
    """The (class, name) of every attribute a tree reads.  `C.m` for a
    class C of the package, and `self.m` or `cls.m` inside the body of
    class C, are uses of C's method m alone; any other `x.m` has class None,
    a use of every method named m.  Inside a method m, a read of m that
    names no other class does not count."""

    def __init__(self, classes: set[str]):
        self.classes = classes
        self.owner = self.method = None
        self.uses = set()

    def visit_ClassDef(self, node):
        outer = self.owner, self.method
        self.owner, self.method = node.name, None
        self.generic_visit(node)
        self.owner, self.method = outer

    def visit_FunctionDef(self, node):
        outer = self.method
        if self.owner and not self.method:
            self.method = node.name
        self.generic_visit(node)
        self.method = outer

    def visit_Attribute(self, node):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        if base in self.classes:
            owner = base
        elif base in ("self", "cls") and self.owner:
            owner = self.owner
        else:
            owner = None
        if node.attr != self.method or owner not in (None, self.owner):
            self.uses.add((owner, node.attr))
        self.generic_visit(node)


def test_every_public_definition_is_used():
    # a public top-level function, class or constant must be read in the
    # package or a script outside its own definition, where an import alone
    # is no read; a public method of a class must be read as an attribute of
    # that class (see _MethodUses), or be one the traced benchmark run
    # patches by name
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = {s.name for tree in trees.values() for s in tree.body if isinstance(s, ast.ClassDef)}
    used = set()
    methods = _MethodUses(classes)
    for path in sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= _names_used(tree)
        methods.visit(tree)
    defined, method_defs = [], []
    for path, tree in trees.items():
        methods.visit(tree)
        for stmt in tree.body:
            names = _names_defined(stmt)
            defined += [(f"{path.name}:{name}", name) for name in names if not name.startswith("_")]
            if isinstance(stmt, ast.ClassDef):
                method_defs += [
                    (stmt.name, member.name)
                    for member in stmt.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
                used |= _class_names_used(stmt)
            else:
                used |= _names_used(stmt) - names
    traced = _traced_method_names()
    unused = [label for label, name in defined if name not in used]
    unused += [
        f"{cls}.{name}"
        for cls, name in method_defs
        if name not in traced and not {(cls, name), (None, name)} & methods.uses
    ]
    assert unused == []


def test_method_uses_credit_the_named_class_alone():
    # a dead method that shares its name with a live one is not used: B.zero
    # below is read only inside its own body, while A.zero is read through
    # the class and through self; an untyped x.one credits every `one`
    tree = ast.parse(
        "class A:\n"
        "    def zero(self): return A.zero\n"
        "    def half(self): return self.zero()\n"
        "class B:\n"
        "    def zero(self): return self.zero()\n"
        "    def one(self): return 1\n"
        "def f(x): return x.one()\n"
    )
    methods = _MethodUses({"A", "B"})
    methods.visit(tree)
    assert ("A", "zero") in methods.uses
    assert ("B", "zero") not in methods.uses
    assert (None, "zero") not in methods.uses
    assert (None, "one") in methods.uses


def _is_library_function(obj) -> bool:
    """A function (not a class) defined in a module of the package."""
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("cutjoin.")
    )


def _package_modules() -> list:
    """Every module of the package, its `__init__` included, but not
    `__main__`, which runs the command line when imported."""
    return [
        importlib.import_module(f"cutjoin.{path.stem}" if path.stem != "__init__" else "cutjoin")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__main__"
    ]


def test_no_module_binds_a_function_of_another():
    # every package module and every script reads a function of a package
    # module as `module.name` when it calls it, so a module attribute patched
    # after import is the function every caller reaches; only classes,
    # exceptions and constants are imported by name, and the package
    # `__init__` binds nothing
    modules = _package_modules()
    assert len(modules) == 9
    bound = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in vars(mod).items()
        if _is_library_function(obj) and obj.__module__ != mod.__name__
    ]
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cutjoin"):
                source = importlib.import_module(node.module)
                bound += [
                    f"{path.name}:{alias.name}"
                    for alias in node.names
                    if _is_library_function(getattr(source, alias.name))
                ]
    assert bound == []


def test_the_mutation_table_clears_every_cache_of_the_package():
    # a `functools.cache` function of a package module, or of a class one
    # defines, can keep a value computed under one mutation row for the rows
    # after it, so the table's fixture clears each of them
    from test_mutations import CACHED

    cached = set()
    for mod in _package_modules():
        owners = [mod, *(c for c in vars(mod).values() if isinstance(c, type))]
        cached |= {
            f"{fn.__module__}.{fn.__qualname__}"
            for owner in owners
            for fn in vars(owner).values()
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__
        }
    assert "cutjoin.hodge.build_series_pair" in cached
    assert cached == {f"{fn.__module__}.{fn.__qualname__}" for fn in CACHED}


def test_every_check_is_built_by_one_builder():
    # in cli.py a `CheckResult` is built from a verdict by `_check` alone,
    # and rebuilt from its fields where `_run_with_helper` decodes the
    # helper's JSON; no suite builds one by hand
    tree = ast.parse((SRC / "cli.py").read_text())
    builders = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult":
                decode = [type(arg) for arg in node.args] == [ast.Starred] and not node.keywords
                builders.append((stmt.name, decode))
    assert {name for name, _ in builders} == {"_check", "_run_with_helper"}
    assert [decode for name, decode in builders if name == "_run_with_helper"] == [True]


def test_no_suite_catches_an_error():
    # an error raised inside a check fails that check in `cli._check`, the
    # one place a library error is handled; no suite catches one itself
    tree = ast.parse((SRC / "cli.py").read_text())
    catching = [
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_suite_")
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try)))
    ]
    assert catching == []
