"""Every third-party module the package imports, at the top of a module or
inside a function, is declared in ``pyproject.toml``: a lazy import that is
missing from an install would pass ``polsamp --help`` and fail only in the
command that reaches it."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polarity_sampling"


def _imported_top_level_modules():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {
        "polarity_sampling"}
    assert third_party == {"numpy", "orjson"}
    assert third_party <= declared
