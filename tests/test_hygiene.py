"""Package hygiene: every name a module imports is used in that module,
every private module-level name and every tolerance constant is read, every
package function and method is read somewhere in the repository, and
outside the tests unless it is listed as test-only, only the command line
raises ConfigError, every function the benchmark tracer wraps exists and
takes the arguments the tracer reads, no module imports scipy, and scheme
and imperfections mix the inputs in one function."""

import ast
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "heraldkit"
TRACING = ROOT / "bench" / "tracing.py"

# Package functions and methods that only tests read.  A function the
# tests need but nothing else reads belongs in the tests, so this list
# stays empty; one listed here is public API kept on purpose.
TEST_ONLY = []


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


def unread_members(package: dict[str, str], readers: list[str]) -> list[str]:
    """module.function of every module-level function of the package, and
    module.Class.method of every method of its classes (dunders exempt),
    that neither the reader sources nor the rest of the package read.

    package maps module names to their source; readers are sources outside
    it.  A function counts as read where it is loaded or imported by name,
    taken as an attribute, or named in a string (bench/tracing.py names the
    functions it wraps); a method only where it is loaded as an attribute.
    A member read only inside the bodies of unread members is unread too:
    the scan repeats with those bodies left out of the package until
    nothing more is found, so a chain of helpers under one unread function
    is listed whole.  Methods are matched by attribute name alone, so a
    method that shares its name with one read elsewhere is never listed
    (an unread DensityMatrix.normalized passed on the reads of
    FockVector.normalized).
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    functions, methods = [], []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                methods += [
                    f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    outside = _reads(ast.parse(source) for source in readers)
    unread: list[str] = []
    while True:
        kept = []
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    kept += node.decorator_list + node.bases + [
                        item for item in node.body
                        if not (isinstance(item, ast.FunctionDef)
                                and f"{module}.{node.name}.{item.name}" in unread)]
                elif not (isinstance(node, ast.FunctionDef) and f"{module}.{node.name}" in unread):
                    kept.append(node)
        names, attributes = _reads(kept)
        names |= outside[0]
        attributes |= outside[1]
        found = [f for f in functions if f.rsplit(".", 1)[1] not in names | attributes]
        found += [m for m in methods if m.rsplit(".", 1)[1] not in attributes]
        if sorted(found) == unread:
            return unread
        unread = sorted(found)


def _reads(trees) -> tuple[set[str], set[str]]:
    """The names and the attributes that the syntax trees read, for
    unread_members."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names, attributes


def without_reexports(source: str) -> str:
    """source without its relative imports and its __all__: what a package
    __init__ reads beyond the names it re-exports."""
    tree = ast.parse(source)
    tree.body = [
        node for node in tree.body
        if not (isinstance(node, ast.ImportFrom) and node.level)
        and not (isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    ]
    return ast.unparse(tree)


def config_error_raisers(sources: dict[str, str]) -> list[str]:
    """module:line of every `raise ConfigError` outside the cli module.

    Config paths are the command line's to know: the library raises
    ValueError and cli._construct adds the path.
    """
    return sorted(
        f"{module}:{node.lineno}"
        for module, source in sources.items() if module != "cli"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ConfigError"
    )


def scipy_imports(sources: dict[str, str]) -> list[str]:
    """module:line of every import statement, at any depth, that loads scipy
    or one of its modules.

    scipy is the tests' reference, not a dependency of the package.
    """
    return sorted(
        f"{module}:{node.lineno}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and not node.level
            and node.module.split(".")[0] == "scipy")
    )


def package_module_imports(sources: dict[str, str], modules: tuple[str, ...]) -> list[str]:
    """module:line of every import statement, at any depth, that loads one
    of the package modules named in modules, relatively (from .scheme
    import x, from . import scheme) or by the package's name."""
    def loaded(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Import):
            return [a.name.split(".")[1] for a in node.names
                    if a.name.startswith("heraldkit.")]
        if not isinstance(node, ast.ImportFrom):
            return []
        # the module path below the package: "" for "from . import x"
        if node.level == 1:
            inner = node.module or ""
        elif node.level == 0 and (node.module + ".").startswith("heraldkit."):
            inner = node.module[len("heraldkit."):]
        else:
            return []
        return [inner.split(".")[0]] if inner else [a.name for a in node.names]

    return sorted(
        f"{module}:{node.lineno}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if any(name in modules for name in loaded(node))
    )


def mixing_reads(sources: dict[str, str], walker: str) -> list[str]:
    """module:line of every read, in the sources, of fock's beam-splitter
    walk (_walk, by name or as an attribute) outside the module-level
    function named walker, and of beam_splitter_apply or
    project_quadrature anywhere: the public two-mode pipeline is for
    callers outside these modules."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            inside = isinstance(top, ast.FunctionDef) and top.name == walker
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in ("beam_splitter_apply", "project_quadrature") or (
                        name == "_walk" and not inside):
                    found.append(f"{module}:{node.lineno}")
    return sorted(found)


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


def test_unread_members_are_found():
    package = {
        "a": "def called():\n    pass\ndef traced():\n    pass\ndef spare():\n    pass\n"
             "class C:\n    def __init__(self):\n        self.stored = 1\n"
             "    def used(self):\n        return called()\n"
             "    def stored(self):\n        pass\n",
    }
    readers = ["WRAPPED = [('a', 'traced')]\nC().used()\n"]
    assert unread_members(package, readers) == ["a.C.stored", "a.spare"]


def test_unread_members_follow_chains():
    # a is read only by b, and b only by tests: both are listed, as is the
    # method read only by b; c, read elsewhere in the package, is not
    package = {
        "m": "def a():\n    pass\ndef b():\n    return a(), K().helper()\ndef c():\n    pass\n"
             "class K:\n    def helper(self):\n        return a()\n",
        "n": "from .m import c\nVALUE = c()\n",
    }
    assert unread_members(package, []) == ["m.K.helper", "m.a", "m.b"]


def test_reexports_are_not_reads():
    package = {"a": "def exported():\n    pass\ndef called():\n    pass\n"}
    init = "from .a import exported\n__all__ = ['exported']\nVERSION = called()\n"
    assert unread_members(package, [init]) == []
    assert unread_members(package, [without_reexports(init)]) == ["a.exported"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_private_names_and_tolerances_are_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_package_functions_and_methods_are_read():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in ("tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unread_members(package, readers) == []


def test_members_read_only_by_tests_are_listed():
    package = {path.stem: without_reexports(path.read_text()) if path.stem == "__init__"
               else path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted((ROOT / "bench").rglob("*.py"))]
    assert unread_members(package, readers) == TEST_ONLY


def test_config_error_raisers_are_found():
    raiser = "def f(v):\n    if v:\n        raise ConfigError('ga.x', 'bad')\n"
    sources = {"cli": raiser, "optimizer": raiser, "states": "raise ValueError('x')\n"}
    assert config_error_raisers(sources) == ["optimizer:3"]


def test_only_the_command_line_raises_config_error():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert config_error_raisers(sources) == []


def test_scipy_imports_are_found():
    sources = {
        "a": "import numpy\nimport scipy.special as sp\n",
        "b": "def f():\n    from scipy.optimize import minimize\n    return minimize\n",
        "c": "from . import scipy_like\nfrom .scipy import x\nimport scipyx\n",
    }
    assert scipy_imports(sources) == ["a:2", "b:2"]


def test_package_imports_no_scipy():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert scipy_imports(sources) == []


def test_package_module_imports_are_found():
    sources = {
        "a": "from . import tolerances as tol\nfrom .scheme import SPD\n",
        "b": "def f():\n    from . import scheme, states\n    return scheme\n",
        "c": "import heraldkit.optimizer\nfrom heraldkit import fock\n"
             "from heraldkit.imperfections import loss_channel\nfrom .states import x\n",
        "d": "import scheme\nfrom scheme import SPD\n",
    }
    assert package_module_imports(sources, ("scheme", "optimizer", "imperfections")) == [
        "a:2", "b:2", "c:1", "c:3"]


def test_fock_imports_no_layer_above_it():
    # fock holds the factorial tables that scheme and imperfections read,
    # so it must not import them back
    source = (SRC / "fock.py").read_text()
    assert package_module_imports({"fock": source}, ("scheme", "imperfections", "optimizer")) == []


def test_mixing_reads_are_found():
    sources = {
        "a": "from .fock import _walk\ndef _two_mode(v):\n    return _walk(v)\n"
             "def f(v):\n    return fock._walk(v)\n",
        "b": "def g(s):\n    return beam_splitter_apply(s)\nproject = project_quadrature\n"
             "class C:\n    def _two_mode(self, v):\n        return _walk(v)\n",
    }
    assert mixing_reads(sources, "_two_mode") == ["a:5", "b:2", "b:3", "b:6"]


def test_one_function_mixes_the_inputs():
    # scheme and imperfections reach the beam-splitter walk only through
    # scheme._two_mode, and never through the public two-mode pipeline
    sources = {module: (SRC / f"{module}.py").read_text() for module in ("scheme", "imperfections")}
    assert mixing_reads(sources, "_two_mode") == []


def _tracing():
    """bench/tracing.py, loaded after the package modules it wraps."""
    importlib.import_module("heraldkit.cli")
    spec = importlib.util.spec_from_file_location("heraldkit_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_and_uninstalls():
    # bench/tracing.py wraps functions by name; a renamed one would crash
    # every traced benchmark run
    tracing = _tracing()
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


def test_benchmark_tracer_reads_the_search_arguments(tmp_path):
    # the tracer counts generations from _run_restart's fourth argument (the
    # GA config) and polish evaluations from local_polish's result; a change
    # to either would crash or miscount only traced benchmark runs
    tracing = _tracing()
    cli = sys.modules["heraldkit.cli"]
    ga = {"population_size": 8, "generations": 4, "restarts": 2}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "target": {"family": "binomial", "p": 0.5, "M": 2},
        "cutoff": 12,
        "optimize": {"kind": "spd", "search_cutoff": 12, "polish_iters": 20, "ga": ga,
                     "bounds": {"T": [0.5, 0.5]}},
    }))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
    finally:
        tracer.uninstall()
    searched = ga["restarts"] * (ga["population_size"] + ga["generations"] * (
        ga["population_size"] - 2))
    evaluations = json.loads((tmp_path / "o" / "result.json").read_text())["evaluations"]
    assert tracer.generations == 8
    assert tracer.nfev == evaluations - searched - 1 > 0  # the polish's value-and-gradient calls
    assert all(math.isfinite(m["value"]) for m in tracer.per_layer(1).values())
