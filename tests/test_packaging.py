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


def _third_party_imports(*patterns):
    """Top-level names of the absolute imports in the files that the glob
    patterns match under the root that are neither the standard library
    nor this package."""
    found = set()
    for path in (f for pattern in patterns for f in ROOT.glob(pattern)):
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
    assert _third_party_imports("src/**/*.py") == runtime == {"numpy",
                                                              "scipy"}
    checks = _third_party_imports("tests/**/*.py", "demos/**/*.py")
    assert checks <= runtime | dev
    assert checks - runtime == dev == {"pytest", "hypothesis", "mpmath"}


def test_only_the_comb_fit_imports_scipy():
    # the Fock oracle is plain numpy; continuation._nnls is the one scipy
    # call site left in src/
    assert _third_party_imports("src/cavitybec/fockcheck.py") == {"numpy"}
    assert [path.name for path in sorted(ROOT.glob("src/**/*.py"))
            if "scipy" in _third_party_imports(
                str(path.relative_to(ROOT)))] == ["continuation.py"]
