"""Every name a library module imports is used in that module, and every top-level
function and public class of the library is referenced somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gqn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_are_found():
    assert {"autodiff", "cli", "pipeline"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(module):
    assert _unused_imports(module.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom typing import Sequence\nx: Sequence\n"
    assert _unused_imports(source) == ["os (line 2)"]


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions, private ones too, and public classes whose name no module of
    ``sources`` mentions.

    A mention is a name, an attribute or an imported name (so a re-export from
    ``__init__.py`` counts); the ``def`` or ``class`` statement itself is not one.
    """
    defined, mentioned = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    or (isinstance(node, ast.ClassDef) and not node.name.startswith("_"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                mentioned.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in mentioned)


def test_every_public_function_and_class_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced(sources) == []


def test_unreferenced_function_is_reported():
    sources = {
        "ops": "def used():\n    pass\n\ndef dead():\n    pass\n\n"
               "def _private():\n    pass\n\nclass Shape:\n    def method(self):\n        pass\n",
        "user": "from .ops import used\nimport ops\n\ndef main():\n    return used, ops.Shape\n",
        "__init__": "from .user import main\n",
    }
    assert _unreferenced(sources) == ["ops._private", "ops.dead"]
