"""Every module of the package uses each name it imports, and every private
function or class it defines is read somewhere in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vilenkin"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name in ``__all__`` is read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {element.value for element in node.value.elts}
    return sorted(imported - used)


def test_modules_use_every_name_they_import():
    # the package's __init__ imports names only to re-export them
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def private_definitions(source: str) -> set[str]:
    """Module-level private functions and classes (one leading underscore)."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def names_read(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute (``module._name``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_private_definition_is_read_by_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    defined = set().union(*(private_definitions(source) for source in sources))
    read = set().union(*(names_read(source) for source in sources))
    assert sorted(defined - read) == []
