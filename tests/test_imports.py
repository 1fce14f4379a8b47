"""Every module of the package uses each name it imports, imports only at the
top, and every private function or class it defines is read somewhere in the
package.  The reference routes live in ``oracles`` apart from the routes they
check, and every public name is read by the package or kept on purpose."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vilenkin"

# public names that no package module reads, kept as library entry points; a
# new public name that nothing reads fails the test until it is added here
LIBRARY_ONLY = {
    "dumps_csv",
    "fejer_means_1d",
    "haar_integrate",
    "hardy_quasinorm",
    "loads_csv",
    "means_error",
    "partial_sum_2d",
    "rademacher",
    "rademacher_power_sum",
}


def sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
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
    return sorted(imported - used)


def test_modules_use_every_name_they_import():
    # the package's __init__ imports names only to re-export them
    found = {
        name: unused_imports(source) for name, source in sources().items() if name != "__init__.py"
    }
    assert found
    assert {name: names for name, names in found.items() if names} == {}


def test_no_import_inside_a_function():
    found = []
    for name, source in sources().items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def imported_modules(source: str) -> set[str]:
    """Package modules a module imports from (``from .x import ...``)."""
    return {
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_only_the_cli_and_the_package_root_import_the_oracles():
    importers = {
        name for name, source in sources().items() if "oracles" in imported_modules(source)
    }
    assert importers == {"cli.py", "__init__.py"}


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


def test_oracles_read_no_fast_route():
    fast = {
        "forward",
        "inverse",
        "convolve",
        "v_kernel_table",
        "_v_grids",
        "_lift",
        "_translations",
        "maximal_function_grid",
    }
    assert sorted(fast & names_read(sources()["oracles.py"])) == []


def test_atoms_reads_v_only_through_the_operators_engine():
    # which quotient a V kernel lives on, and how kernels share a convolution,
    # is decided in operators alone
    internals = {"v_kernel_table", "quotient", "_coset_means", "convolve"}
    assert sorted(internals & names_read(sources()["atoms.py"])) == []


def test_every_private_definition_is_read_by_the_package():
    texts = sources().values()
    defined = set().union(*(private_definitions(source) for source in texts))
    read = set().union(*(names_read(source) for source in texts))
    assert sorted(defined - read) == []


def test_every_public_name_is_read_by_the_package_or_kept_on_purpose():
    texts = sources()
    exported = {
        alias.asname or alias.name
        for node in ast.parse(texts.pop("__init__.py")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set().union(*(names_read(source) for source in texts.values()))
    oracles = {
        node.name
        for node in ast.parse(texts["oracles.py"]).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert sorted(exported - read - oracles - LIBRARY_ONLY) == []
    # and the kept set names no name that has gone or has gained a reader
    assert sorted(LIBRARY_ONLY - (exported - read)) == []
