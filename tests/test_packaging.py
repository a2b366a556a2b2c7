"""Packaging: the library imports exactly the runtime dependencies it declares,
only ``laurent.py`` reads the coefficients of a symbolic operator, and one
function builds the bracket report.

Every import statement in ``src/periodic_spectra/*.py``, function-local ones
included, is reduced to its top-level name; the standard library and the
package itself are dropped, and what remains must equal the ``dependencies``
of ``pyproject.toml``.  An undeclared import and a declared dependency that
nothing imports both fail.

The coefficients are stored in the term table of ``LaurentMatrix``; the other
modules read its facts.  An attribute read of ``.table`` or ``.coeffs``
outside ``laurent.py`` fails, except in
``walks.coefficient_residual``, which compares a trace series with walk sums.

Every bracket is assembled by ``bounds.bounds_for_kind``: a call of
``BoundsReport(`` in any other function, or an import of
``dataclasses.replace`` to rebuild a report, fails.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "periodic_spectra"


def imported_top_level_names():
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"periodic_spectra"}


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    # Distribution names of the declared dependencies equal their import names.
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def test_runtime_imports_are_the_declared_dependencies():
    assert imported_top_level_names() == declared_dependencies()



TABLE_ATTRIBUTES = {"table", "coeffs"}
# Functions outside laurent.py allowed to read those attributes: module -> function names.
TABLE_READERS = {"walks.py": {"coefficient_residual"}}


def nodes_by_function(path):
    """``(function, node)`` for every syntax node of the file at ``path``; the outermost enclosing function, or None."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function is None else function
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(path.read_text(encoding="utf-8")), None)


def table_reads(path):
    """``(function, attribute, line)`` of every read of a table attribute in the file at ``path``."""
    return [
        (function, node.attr, node.lineno)
        for function, node in nodes_by_function(path)
        if isinstance(node, ast.Attribute) and node.attr in TABLE_ATTRIBUTES
    ]


def test_only_laurent_reads_the_coefficients():
    stray = [
        (path.name, *read)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "laurent.py"
        for read in table_reads(path)
        if read[0] not in TABLE_READERS.get(path.name, set())
    ]
    assert stray == []
    # The guard sees what it looks for: the exception's read and laurent's own.
    assert ("coefficient_residual", "coeffs") in {read[:2] for read in table_reads(PACKAGE / "walks.py")}
    assert {attr for _, attr, _ in table_reads(PACKAGE / "laurent.py")} == TABLE_ATTRIBUTES


def test_one_function_builds_the_bracket_report():
    report_sites, replace_imports = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, node in nodes_by_function(path):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BoundsReport":
                report_sites.add((path.name, function))
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                replace_imports += [(path.name, a.name) for a in node.names if a.name == "replace"]
    assert report_sites == {("bounds.py", "bounds_for_kind")}
    assert replace_imports == []
