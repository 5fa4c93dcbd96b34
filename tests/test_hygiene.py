"""Package hygiene: every name a module imports is used in that module,
every private module-level name and every tolerance constant is read, and
every function the benchmark tracer wraps exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heraldkit"
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    Names listed in __all__ count as used, so the re-exports of
    __init__.py are exempt.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of every module-level private name (_x, not dunder), and
    every name defined in the tolerances module, that no module reads.

    sources maps module names to their source.  A name counts as read where
    it is loaded, taken as an attribute (tol.NAME) or imported by name.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [
                (module, name) for name in names
                if module == "tolerances"
                or (name.startswith("_") and not name.startswith("__"))
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["os", "pi"]
    assert unused_imports("from .x import a\n__all__ = ['a']\n") == []


def test_unread_definitions_are_found():
    sources = {
        "a": "_used = 1\n_spare = 2\n__all__ = []\ndef _helper():\n    return _used\n",
        "b": "from . import tolerances as tol\nfrom .a import _helper\nprint(tol.LIMIT)\n",
        "tolerances": "LIMIT = 1\nSPARE: int = 2\n",
    }
    assert unread_definitions(sources) == ["a._spare", "tolerances.SPARE"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_private_names_and_tolerances_are_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_benchmark_tracer_installs_and_uninstalls():
    # bench/tracing.py wraps functions by name; a renamed one would crash
    # every traced benchmark run
    importlib.import_module("heraldkit.cli")
    spec = importlib.util.spec_from_file_location("heraldkit_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {(mod, fn): getattr(sys.modules[mod], fn) for mod, fn, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, fn), orig in originals.items():
            assert getattr(sys.modules[mod], fn).__wrapped__ is orig
    finally:
        tracer.uninstall()
    for (mod, fn), orig in originals.items():
        assert getattr(sys.modules[mod], fn) is orig
