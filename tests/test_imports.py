"""Imports: the CLI loads no XML, mail or network stack, and the package's
modules import one another without a cycle and without private names."""

from __future__ import annotations

import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "structprobe"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# top-level packages, with all their modules, and single modules the CLI must not load
BANNED_PACKAGES = ("xml", "http", "email")
BANNED_MODULES = ("ssl", "socket", "urllib.request")


def test_cli_import_loads_no_xml_mail_or_network_modules():
    code = "import sys, json, structprobe.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "structprobe.chart" in loaded
    banned = [
        name for name in loaded
        if name in BANNED_MODULES or name.split(".")[0] in BANNED_PACKAGES
    ]
    assert banned == []


def package_imports() -> list[tuple[str, str, str | None]]:
    """(importer, module, name) for each package module or name every import statement takes.

    ``name`` is None when the statement imports the module itself. Every
    statement counts, those inside functions and under TYPE_CHECKING too.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        importer = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head == "structprobe":
                        found.append((importer, rest.partition(".")[0] or "__init__", None))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0:
                    head, _, module = module.partition(".")
                    if head != "structprobe":
                        continue
                for alias in node.names:
                    if not module and alias.name in MODULES:  # from . import chart
                        found.append((importer, alias.name, None))
                    else:
                        found.append((importer, module.partition(".")[0] or "__init__", alias.name))
    return found


def test_package_modules_import_one_another_without_a_cycle():
    graph: dict[str, set[str]] = {module: set() for module in MODULES}
    for importer, module, _ in package_imports():
        graph[importer].add(module)
    assert {"grid", "probe"} <= graph["cli"] and "probe" in graph["metrics"]
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_no_module_imports_another_modules_private_name():
    private = [
        (importer, f"{module}.{name}")
        for importer, module, name in package_imports()
        if name is not None and name.startswith("_")
    ]
    assert private == []
