"""Every name a kernel module imports at module level is used in it, and no
function imports from a module that its file already imports at module
level (a function-local import is kept only to break an import cycle)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fintt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                names[alias.asname or alias.name] = stmt.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A forward reference such as Optional["Expr"].
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"



def sources(stmt) -> set:
    """The modules an import statement reads from, as (level, dotted name);
    ``from . import x`` reads from ``x``."""
    if isinstance(stmt, ast.Import):
        return {(0, alias.name) for alias in stmt.names}
    if stmt.module is None:
        return {(stmt.level, alias.name) for alias in stmt.names}
    return {(stmt.level, stmt.module)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_import_of_a_module_imported_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = (ast.Import, ast.ImportFrom)
    top = set().union(*(sources(s) for s in tree.body if isinstance(s, imports)))
    redundant = sorted(
        {
            f"{'.' * level}{name} (line {stmt.lineno})"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in ast.walk(fn)
            if isinstance(stmt, imports)
            for level, name in sources(stmt) & top
        }
    )
    assert not redundant, (
        f"{path.name} imports inside a function from modules it imports at module level: "
        f"{', '.join(redundant)}"
    )
