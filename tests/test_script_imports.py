"""Every ``repro`` import in ``benchmarks/`` and ``examples/`` resolves.

The test suite collects only ``tests/``, so a benchmark or an example that
imports a name the package no longer has would otherwise break unseen.
The scan reads each script with :mod:`ast`, at module level and inside
functions, and resolves every ``import repro...`` and ``from repro...
import name`` without running the script.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Iterator, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_DIRS = ("benchmarks", "examples")


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _repro_imports(path: Path) -> Iterator[Tuple[int, str, Optional[str]]]:
    """``(line, module, name)`` per imported name; ``name`` is ``None`` for
    a plain ``import repro.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and _is_repro(node.module):
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def _resolves(module: str, name: Optional[str]) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_import_in_benchmarks_and_examples_resolves():
    broken = []
    for directory in SCRIPT_DIRS:
        scanned = 0
        for path in sorted((ROOT / directory).rglob("*.py")):
            for line, module, name in _repro_imports(path):
                scanned += 1
                if not _resolves(module, name):
                    shown = f"from {module} import {name}" if name else f"import {module}"
                    broken.append(f"{path.relative_to(ROOT)}:{line}: {shown}")
        assert scanned, f"no repro imports found under {directory}/"
    assert broken == []
