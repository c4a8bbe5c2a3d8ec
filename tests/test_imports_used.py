"""Every name a library module imports is used there or re-exported,
every name a module lists in ``__all__`` is bound there, and every name
the package re-exports is loaded by the library, a demo or the benchmark.

A static scan with the standard library's ``ast``: an imported name
counts as used when the module loads it anywhere (annotations included,
also quoted ones) or lists it in ``__all__``; a package ``__init__``
imports names to re-export them.  Because an ``__all__`` string counts
as a use, a stale ``__all__`` entry needs its own check.
"""
import ast
import os
import subprocess
import sys
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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore) that no code in
    ``sources`` (module name -> text) refers to outside their own definition.

    A reference is a loaded name, an attribute or an imported name; a
    function that only calls itself counts as unreferenced.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(mod, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]

    def refs(skip):
        for tree in trees.values():
            for top in tree.body:
                if top is skip:
                    continue
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                        yield node.id
                    elif isinstance(node, ast.Attribute):
                        yield node.attr
                    elif isinstance(node, ast.ImportFrom):
                        yield from (alias.name for alias in node.names)

    return [f"{mod}.{name} (line {node.lineno})" for mod, name, node in defined
            if name not in set(refs(node))]


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a": "_USED = 1\n_STALE = 2\n\ndef _loop(n):\n    return _loop(n - 1)\n\n"
             "def f():\n    return _USED\n",
        "b": "from .a import _helper\n\ndef g(m):\n    return m._attr()\n",
        "c": "def _helper(): ...\n\ndef _attr(): ...\n",
    }
    assert unreferenced_private_names(sources) == ["a._STALE (line 2)", "a._loop (line 4)"]


def test_private_names_are_referenced():
    assert unreferenced_private_names({p.stem: p.read_text() for p in ALL_FILES}) == []


def _binds(top, name) -> bool:
    """Whether the top-level statement defines name."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return top.name == name
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return any(isinstance(n, ast.Name) and n.id == name for t in targets for n in ast.walk(t))
    return False


def _loads(node) -> set[str]:
    """Names loaded and attributes read anywhere under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unloaded_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes of ``sources`` (module name ->
    text) that no live code loads.

    Every top-level statement but a private def is live (public defs, assignments,
    module code), and so is each private def that live code loads by name or as an
    attribute; an import is not a load.  So a helper that only an import, a dead
    helper or itself refers to is reported, which the reference scan above lets pass.
    """
    private, live = {}, []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                private.setdefault(node.name, []).append((mod, node))
            else:
                live.append(node)
    seen = set()
    while live:
        for name in _loads(live.pop()) & private.keys() - seen:
            seen.add(name)
            live += [node for _, node in private[name]]
    return sorted(f"{mod}.{name} (line {node.lineno})" for name, defs in private.items()
                  if name not in seen for mod, node in defs)


def test_scan_finds_an_unloaded_private_def():
    sources = {
        "a": "from .b import _imported\n\ndef _core(n):\n    return _rows(n)\n\n"
             "def _rows(n):\n    return _core(n - 1)\n\ndef _used():\n    return 1\n\n"
             "class _Spec: ...\n\nLIMIT = _used()\n",
        "b": "def _imported(): ...\n\ndef f(m):\n    return m._Spec()\n",
    }
    assert unloaded_private_defs(sources) == [
        "a._core (line 3)", "a._rows (line 6)", "b._imported (line 1)"]


def test_private_defs_are_loaded():
    assert unloaded_private_defs({p.stem: p.read_text() for p in ALL_FILES}) == []


def unloaded_exports(init: str, modules: dict[str, str], programs: list[str]) -> list[str]:
    """Names the package ``__init__`` re-exports (``from .mod import name``) that no
    code loads outside their own definition: no statement of ``modules`` (module
    name -> text) but the one defining the name, and none of the ``programs`` texts.

    A load is a loaded name or an attribute; imports and ``__all__`` strings are not.
    """
    program_loads = set().union(*(_loads(ast.parse(text)) for text in programs))
    tops = [(mod, top, _loads(top)) for mod, text in modules.items()
            for top in ast.parse(text).body]
    out = []
    for node in ast.parse(init).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for name in (alias.name for alias in node.names):
            if name in program_loads or any(
                    name in loads for mod, top, loads in tops
                    if not (mod == node.module and _binds(top, name))):
                continue
            out.append(name)
    return out


def test_scan_finds_an_unloaded_export():
    init = "from .a import used, loop, STALE, by_demo\nfrom .b import helper\n"
    modules = {
        "a": "STALE = 1\n__all__ = ['STALE']\n\ndef used(): ...\n\n"
             "def loop(n):\n    return loop(n - 1)\n\ndef by_demo(): ...\n",
        "b": "from .a import used\n\ndef helper():\n    return used()\n",
    }
    demo = "import pkg\nfrom pkg import helper\n\npkg.by_demo()\n"
    assert unloaded_exports(init, modules, [demo]) == ["loop", "STALE", "helper"]


# reference definitions: the tests check the batched fast paths against them, and no
# program path calls them
TEST_REFERENCES = ("eval_F", "g_delta", "sample_sphere")


def test_every_export_is_loaded_by_a_program():
    root = SRC.parent.parent
    programs = [p.read_text() for sub in ("demos", "perfbench")
                for p in sorted((root / sub).rglob("*.py"))]
    got = unloaded_exports((SRC / "__init__.py").read_text(),
                           {p.stem: p.read_text() for p in ALL_FILES}, programs)
    assert [name for name in got if name not in TEST_REFERENCES] == []


def test_import_path_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.45 s of CPU to import; only `qzopt circuit-demo` at d = 3
    # (its KS test) uses it
    probe = "import sys, qzopt, qzopt.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def _run_fresh(code, pythonpath):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, pythonpath))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_optimizer_run_loads_no_scipy():
    # a qgfm cell with its residual needs no closed-form f_delta, no quadratic exact
    # distance and no circuit-demo, the only calls that load scipy
    probe = (
        "import sys, qzopt, qzopt.cli\n"
        "from qzopt import harness\n"
        "cfg = harness.ExperimentConfig(algorithm='qgfm', problem='abs-linear', d=8,\n"
        "                               eps_grid=(0.6,), seeds=(0,), delta=0.3, noise_scale=0.1)\n"
        "row = harness.run_one(cfg, harness.build_spec(cfg), 0.6, 0)\n"
        "assert row.residual_halfwidth > 0, row\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _run_fresh(probe, [SRC.parent])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def module_level_imports(source: str) -> list[str]:
    """Modules imported by statements that run when the module loads: those
    outside any function body (class bodies and if/try blocks run)."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                out.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                out.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return out


def test_scan_finds_module_level_imports():
    src = ("import numpy as np\nfrom scipy import special\nfrom .rng import substream\n"
           "try:\n    import scipy.stats\nexcept ImportError:\n    pass\n"
           "class A:\n    import math\n\ndef f():\n    from scipy import optimize\n")
    assert module_level_imports(src) == ["numpy", "scipy", "scipy.stats", "math"]


@pytest.mark.parametrize("path", ALL_FILES, ids=[p.name for p in ALL_FILES])
def test_no_module_level_scipy_import(path):
    # scipy costs about 0.4 s and 40 MB per interpreter; import it where it is called
    assert [m for m in module_level_imports(path.read_text())
            if m.split(".")[0] == "scipy"] == []


def function_level_scipy_imports(source: str) -> set[str]:
    """scipy modules imported inside function bodies: ``from scipy import special``
    and ``from scipy.special import ndtri`` both count as ``scipy.special``."""
    out = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                out.update(a.name for a in node.names if a.name.split(".")[0] == "scipy")
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                out.update(f"scipy.{a.name}" for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level and (
                    node.module.split(".")[0] == "scipy"):
                out.add(node.module)
    return out


def test_scan_finds_function_level_scipy_imports():
    src = ("from scipy import linalg\nimport numpy as np\n\n"
           "def f():\n    from scipy import special, stats\n    import math\n\n"
           "class A:\n    def g(self):\n        import scipy.optimize\n"
           "        def h():\n            from scipy.integrate import quad\n"
           "            from .rng import substream\n")
    assert function_level_scipy_imports(src) == {
        "scipy.special", "scipy.stats", "scipy.optimize", "scipy.integrate"}
    assert function_level_scipy_imports("import numpy\n") == set()


# each scipy module is a deliberate cost (scipy.stats alone is about 0.5 s of CPU and
# 19 MB): a new one on any path must be added here on purpose
SCIPY_ALLOWED = {
    "cli": {"scipy.special", "scipy.stats"},
    "smoothing": {"scipy.special", "scipy.integrate"},
    "stationarity": {"scipy.optimize"},
}


def test_function_level_scipy_imports_are_the_allowed_set():
    got = {p.stem: function_level_scipy_imports(p.read_text()) for p in ALL_FILES}
    assert {mod: names for mod, names in got.items() if names} == SCIPY_ALLOWED


def test_old_numpy_fails_at_import(tmp_path):
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text('__version__ = "1.26.4"\n')
    proc = _run_fresh("import qzopt", [tmp_path, SRC.parent])
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines()[-1] == (
        "ImportError: qzopt needs numpy>=2.0; found numpy 1.26.4")
