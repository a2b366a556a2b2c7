"""Packaging: the library imports exactly the runtime dependencies it declares.

Every import statement in ``src/periodic_spectra/*.py``, function-local ones
included, is reduced to its top-level name; the standard library and the
package itself are dropped, and what remains must equal the ``dependencies``
of ``pyproject.toml``.  An undeclared import and a declared dependency that
nothing imports both fail.
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

