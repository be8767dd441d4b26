"""Imports: the CLI loads no XML, mail or network stack, the package's
modules import one another without a cycle and without private names, the
package exports the README's "Library API" list, and each call the README
writes with its parameters names them as the package does."""

from __future__ import annotations

import ast
import graphlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
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


def test_only_grid_reads_labels_and_embeddings_for_the_commands():
    # grid.read_split_labels, check_splits and load_splits are the one loader; the
    # package root only re-exports the readers
    readers = {"read_labels", "read_embeddings", "scan_embedding_headers"}
    importers = {
        (importer, name) for importer, _, name in package_imports()
        if name in readers and importer not in ("grid", "__init__")
    }
    assert importers == set()


def readme_library_api() -> list[str]:
    """The names in backticks in the README's "Library API" section."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_the_package_exports_exactly_the_readme_library_api():
    import structprobe

    exported = {
        name for name, value in vars(structprobe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = readme_library_api()
    assert len(listed) == len(set(listed))
    assert set(listed) == exported
    # removed copies of what evaluate_probe and construct_scene_tree compute, and the
    # wordpiece alignment no command used
    for module, name in (("metrics", "uuas"), ("metrics", "root_accuracy"),
                         ("scenetree", "find_highest_node"), ("embed_io", "AlignmentMap"),
                         ("embed_io", "align_wordpieces")):
        assert not hasattr(importlib.import_module(f"structprobe.{module}"), name)


def readme_calls() -> list[str]:
    """The package calls the README writes in backticks with their parameters.

    Each reads as one line without its ``structprobe.`` prefix, such as
    ``grid.load_splits(split_labels, emb, check=None)``; the standard library's are left out.
    """
    text = " ".join((SRC.parent / "README.md").read_text(encoding="utf-8").split())
    calls = re.findall(r"`(?:structprobe\.)?((?:\w+\.)?\w+\([^`]*\))`", text)
    return [call for call in calls if call.partition("(")[0].rpartition(".")[0] in MODULES | {""}]


def test_each_call_the_readme_writes_names_the_package_parameters_and_defaults():
    import structprobe

    calls = readme_calls()
    assert {
        "grid.rank_cells(task, splits, cfg, ranks, layer=None)",
        "grid.read_split_labels(paths)",
        "grid.check_splits(split_labels, emb)",
        "grid.load_splits(split_labels, emb, check=None)",
        "grid.run_layer_grid(manifest)",
        "metrics.uuas_counts(pred_dist, gold)",
        "tree_labels(tree, seq_id, exclude_deprels=())",
    } <= set(calls)
    for call in calls:
        name, _, params = call.removesuffix(")").partition("(")
        module, _, attr = name.rpartition(".")
        owner = importlib.import_module(f"structprobe.{module}") if module else structprobe
        actual = [
            p.name if p.default is inspect.Parameter.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(getattr(owner, attr)).parameters.values()
        ]
        written = params.split(", ")
        if written[0] == "...":  # the parameters written after "..." end the signature
            written = written[1:]
            actual = actual[len(actual) - len(written):]
        assert written == actual, call
