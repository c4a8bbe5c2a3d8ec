"""Every name a library module imports is used there or re-exported,
and every name a module lists in ``__all__`` is bound there.

A static scan with the standard library's ``ast``: an imported name
counts as used when the module loads it anywhere (annotations included,
also quoted ones) or lists it in ``__all__``; a package ``__init__``
imports names to re-export them.  Because an ``__all__`` string counts
as a use, a stale ``__all__`` entry needs its own check.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qzopt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_FILES = sorted(SRC.glob("*.py"))


def _imported(tree):
    """name bound by an import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations and __all__ entries
            try:
                names.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in sorted(_imported(tree).items())
            if name not in used]


def test_scan_finds_an_unused_import():
    src = "import math\nfrom .rng import substream\nimport numpy as np\n\nx = np.zeros(1)\n"
    assert unused_imports(src) == ["math (line 1)", "substream (line 2)"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []
    assert unused_imports("from a import B\n\ndef f(x: 'B') -> None: ...\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def unbound_exports(source: str) -> list[str]:
    """Names listed in a module's __all__ that no top-level statement binds."""
    tree = ast.parse(source)
    listed, bound = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__all__" in names:
                listed = [e.value for e in node.value.elts]
            bound |= names
    return [name for name in listed if name not in bound]


def test_scan_finds_an_unbound_export():
    src = "import os\nLIMIT = 3\n__all__ = ['LIMIT', 'f', 'os', 'STALE']\n\ndef f(): ...\n"
    assert unbound_exports(src) == ["STALE"]
    assert unbound_exports("x = 1\n") == []


@pytest.mark.parametrize("path", ALL_FILES, ids=[p.name for p in ALL_FILES])
def test_module_exports_are_bound(path):
    assert unbound_exports(path.read_text()) == []
