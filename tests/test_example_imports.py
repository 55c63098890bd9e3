"""Every ``repro`` import in the examples and benchmark scripts resolves.

The scripts under ``examples/`` and ``benchmarks/bench_*.py`` run their
work at import time (none has a ``__main__`` guard), so they are parsed,
not executed: each ``from repro... import name`` must name an attribute
or a submodule of its module, and each ``import repro...`` an
importable module.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*REPO_ROOT.glob("examples/*.py"),
                  *REPO_ROOT.glob("benchmarks/bench_*.py")])


def _repro_imports(path: Path) -> list:
    """(line, module, name) of every ``repro`` import; name is None for
    a plain ``import``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            found += [(node.lineno, node.module, alias.name)
                      for alias in node.names]
    return found


def _resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_scripts_are_found():
    assert len(SCRIPTS) >= 10


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[p.relative_to(REPO_ROOT).as_posix()
                              for p in SCRIPTS])
def test_every_repro_import_resolves(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    missing = [f"{path.name}:{line}: from {module} import {name}"
               for line, module, name in imports
               if not _resolves(module, name)]
    assert missing == []
