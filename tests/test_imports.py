"""Import hygiene of the package, read off its syntax trees: no module keeps
an import it does not use, and the package re-exports exactly its modules'
__all__."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(importlib.import_module("abundancy").__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level imports (not __future__'s)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported(tree) - used - _exported(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_the_package_exports_each_modules_all_and_loads_no_cli():
    package = importlib.import_module("abundancy")
    sources = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert sorted(node.module for node in sources) == ["arith", "index", "interval", "mersenne", "opn", "report"]
    for node in sources:
        assert node.level == 1 and [a.name for a in node.names] == ["*"], ast.unparse(node)
        module = importlib.import_module(f"abundancy.{node.module}")
        assert hasattr(module, "__all__"), f"{node.module} has no __all__"
        for name in module.__all__:
            assert getattr(package, name, None) is getattr(module, name), f"abundancy.{name} is not {node.module}'s"
    # the command line, with argparse and json, loads only when it runs
    probe = "import abundancy, sys; print('abundancy.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout == "False\n"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_report_draws(path):
    # report decides what each reproduction suite samples; the library is deterministic by construction
    imported = {
        (alias.name if isinstance(node, ast.Import) else node.module or "").split(".")[0]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert ("random" in imported) == (path.name == "report.py"), f"{path.name} imports {sorted(imported)}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if _exported(ast.parse(p.read_text()))], ids=lambda p: p.name
)
def test_every_name_in_all_is_bound(path):
    # a stale __all__ entry breaks `from abundancy.<module> import *` and any
    # getattr over the exported names
    module = importlib.import_module(f"abundancy.{path.stem}")
    unbound = sorted(name for name in module.__all__ if not hasattr(module, name))
    assert not unbound, f"{path.name} exports {unbound} and never binds them"


# the one private name a module may take from a sibling: the split log in
# index needs the scaled log kernel itself
SHARED_PRIVATE = {("index.py", "_ln_scaled")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    private = {
        (path.name, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("abundancy"))
        for alias in node.names
        if alias.name.startswith("_")
    } - SHARED_PRIVATE
    assert not private, f"{path.name} imports the private names {sorted(n for _, n in private)}"
