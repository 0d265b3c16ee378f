"""Declared dependencies match what the code imports.

Every third-party top-level module imported under src/ (function-local
imports such as scipy.optimize included) is a [project] dependency, and
every dependency is imported there; tests/ and demos/ import only the
dependencies and the dev extra, and use every dev package.  Each module
is taken to share its distribution's name, as all of them do today.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"cavitybec"}


def _third_party_imports(*dirs):
    """Top-level names of the absolute imports in the .py files under dirs
    that are neither the standard library nor this package."""
    found = set()
    for path in (f for d in dirs for f in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.partition(".")[0] for name in names)
    return found - set(sys.stdlib_module_names) - FIRST_PARTY


def _declared(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
            for req in requirements}


def test_declared_dependencies_match_the_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    runtime = _declared(project["dependencies"])
    dev = _declared(project["optional-dependencies"]["dev"])
    assert _third_party_imports("src") == runtime == {"numpy", "scipy"}
    checks = _third_party_imports("tests", "demos")
    assert checks <= runtime | dev
    assert checks - runtime == dev == {"pytest", "hypothesis", "mpmath"}
