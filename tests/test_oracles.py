"""The oracles stay independent of the code they check."""

import ast
import inspect
from pathlib import Path

import energycoop

# Package modules that solve or plan; an oracle importing one would check
# that code against itself.
CHECKED = {f"energycoop.{name}"
           for name in ("lp", "offline", "greedy", "hybrid", "experiments")}


def _home(name):
    """Module that defines a name the package re-exports."""
    obj = getattr(energycoop, name)
    return obj.__name__ if inspect.ismodule(obj) else obj.__module__


def imported_modules(source):
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "energycoop":
            modules.update(_home(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return {".".join(m.split(".")[:2]) for m in modules}


def test_oracles_import_no_checked_module():
    source = Path(__file__).with_name("oracles.py").read_text()
    assert imported_modules(source) & CHECKED == set()


def test_import_scan_sees_each_form():
    source = ("import energycoop.lp\n"
              "from energycoop import offline, run_greedy\n"
              "from energycoop.hybrid import run_hybrid_stream\n"
              "import energycoop.experiments as studies\n"
              "from energycoop.model import ControlAction\n")
    assert imported_modules(source) & CHECKED == CHECKED
