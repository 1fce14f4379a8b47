"""Every module of the package uses each name it imports, imports only at the
top, and every private function or class it defines is read somewhere in the
package.  The reference routes live in ``oracles`` apart from the routes they
check, every public name is read by the package or kept on purpose, every
integer range is checked in ``group``, the test-function catalog converts
its string parameters in one place, and only the CLI reads or writes CSV."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vilenkin"

# public names that no package module reads, kept as library entry points, each
# for the reason given; a new public name that nothing reads fails the test
# until it is added here with its reason
LIBRARY_ONLY = {
    # the 1-D Fejer means, the one-dimensional case of the Marcinkiewicz means
    "fejer_means_1d",
    # the normalized Haar integral every mean and L^p norm is taken against
    "haar_integrate",
    # the H_p quasinorm that the p-atoms are normalized in
    "hardy_quasinorm",
    # |sigma_n f - f| at one point and order next to its majorant, for any n
    "means_error",
    # the rectangular partial sums S_{M,N} whose averages the means are
    "partial_sum_2d",
    # the generators r_k whose products are the Vilenkin characters
    "rademacher",
    # the one-factor coupling product r_{n,n}(x, 0) of the W kernel
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


def range_raises(source: str) -> list[int]:
    """Lines that raise a ValueError whose message says ``not in [``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "ValueError"
        ):
            text = "".join(
                part.value
                for arg in node.exc.args
                for part in ast.walk(arg)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if "not in [" in text:
                lines.append(node.lineno)
    return lines


def test_only_the_group_module_raises_a_range_error():
    # scalar orders, levels, depths, digits and centers go through
    # group.check_int, and arrays of points through check_points
    texts = sources()
    assert range_raises(texts.pop("group.py"))
    found = {name: lines for name, source in texts.items() if (lines := range_raises(source))}
    assert found == {}


def catalog_builders(source: str) -> set[str]:
    """Names given as ``"build"`` in the test-function catalog."""
    return {
        value.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "build" and isinstance(value, ast.Name)
    }


def test_no_catalog_builder_converts_its_own_parameters():
    # a string is parsed once, by build_test_function with the declared parser,
    # and a builder leaves its range checks to check_int, so that a fractional
    # value from a library caller is refused, not truncated
    source = sources()["testfunctions.py"]
    builders = catalog_builders(source)
    assert builders
    found = {
        node.name: sorted(
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in {"int", "float"}
        )
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in builders
    }
    assert set(found) == builders
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_only_the_cli_imports_csv():
    importers = {
        name
        for name, source in sources().items()
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "csv")
    }
    assert importers == {"cli.py"}
