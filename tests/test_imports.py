"""Every name a module of the library, the tests, the demos or the tools imports is
used in that module, every top-level function and public class of the library is
referenced somewhere in it, no private function takes a parameter that every call
site fixes to one literal, no function takes a parameter it never reads, every
dataclass field is read, and every scatter-add runs through ``autodiff._scatter_add``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gqn"
ROOT = SRC.parent.parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
IMPORTERS = MODULES + sorted(p for folder in ("tests", "demos", "tools")
                             for p in (ROOT / folder).glob("*.py"))


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


@pytest.mark.parametrize("module", IMPORTERS, ids=[
    p.stem if p.parent == SRC else f"{p.parent.name}/{p.stem}" for p in IMPORTERS])
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


def _callee(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_scalar_literal(node) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return value is None or type(value) in (bool, int, float)


def _passed(call: ast.Call, i: int, name: str, n_positional: int, defaults: dict):
    """The node ``call`` passes for parameter ``i`` (called ``name``), its default when it
    passes none, or None when a ``*`` or ``**`` argument may carry it."""
    keyword = {kw.arg: kw.value for kw in call.keywords}
    if name in keyword:
        return keyword[name]
    star = next((j for j, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                len(call.args))
    if i < min(star, n_positional):
        return call.args[i]
    if None in keyword or (i < n_positional and star < len(call.args)):
        return None
    return defaults.get(name)


def _escaped(trees) -> set:
    """Names mentioned other than as the callee of a call: a table entry, a callback."""
    escaped = set()
    for tree in trees:
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        escaped.update(_callee(node) for node in ast.walk(tree) if id(node) not in callees)
    return escaped


def _constant_arguments(sources: dict[str, str]) -> list[str]:
    """Parameters of private top-level functions that every call site in ``sources`` passes
    as the same bool, None or number literal, a default counting as passed.

    A function mentioned other than as the callee of a call (a table entry, a
    callback) has call sites this cannot see, and is skipped. String literals
    do not count: a label that every site passes names the site, not a setting.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs, calls = {}, {}
    for module, tree in trees.items():
        defs.update((node.name, (module, node)) for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node.func), []).append(node)
    escaped, found = _escaped(trees.values()), []
    for name, (module, fn) in defs.items():
        if name in escaped or name not in calls:
            continue
        positional = fn.args.posonlyargs + fn.args.args
        defaults = dict(zip([p.arg for p in positional][len(positional) - len(fn.args.defaults):],
                            fn.args.defaults))
        defaults.update((p.arg, d) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults))
        for i, param in enumerate(positional + fn.args.kwonlyargs):
            passed = [_passed(call, i, param.arg, len(positional), defaults)
                      for call in calls[name]]
            if (all(node is not None and _is_scalar_literal(node) for node in passed)
                    and len({ast.dump(node) for node in passed}) == 1):
                found.append(f"{module}.{name}({param.arg})")
    return sorted(found)


def test_no_private_function_takes_a_constant_argument():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _constant_arguments(sources) == []


def test_constant_argument_is_reported():
    sources = {
        "ops": "def _scale(x, factor, clip=None, *, fast=False):\n    return x\n\n"
               "def _shift(x, by):\n    return x\n\ndef _label(x, name):\n    return x\n\n"
               "def _table(x, flag):\n    return x\n\nTABLE = {'t': _table}\n",
        "user": "from .ops import _label, _scale, _shift, _table\nimport ops\n\n"
                "def main(x, y, args):\n    _label(x, 'x')\n    _label(y, 'x')\n"
                "    _table(x, True)\n    _shift(x, 1)\n    _shift(*args)\n"
                "    return _scale(x, -2.0, fast=True) + ops._scale(y, -2.0, fast=y > 0)\n",
    }
    # a string, a callee in a table and an argument a star may carry are not reported
    assert _constant_arguments(sources) == ["ops._scale(clip)", "ops._scale(factor)"]


def _ignored_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters, ``self`` and ``cls`` aside, that their function's body never reads.

    Every function counts, methods and nested functions too, except one
    mentioned other than as a callee: its signature may be fixed by whoever
    calls it (a table of parsers, a callback), which this cannot see.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    escaped, found = _escaped(trees.values()), []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name in escaped:
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [f"{module}.{fn.name}({p.arg})" for p in params
                      if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(found)


def test_no_function_ignores_a_parameter():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _ignored_parameters(sources) == []


def test_ignored_parameter_is_reported():
    sources = {
        "ops": "def scale(x, factor, *args, clip=None, **kw):\n    factor = 2\n    return x\n\n"
               "def _parse(text, path):\n    return text\n\nTABLE = {'p': _parse}\n\n"
               "class Box:\n    def area(self, unit):\n        def inner(y):\n"
               "            return 1\n        return inner(unit)\n",
        "user": "from .ops import scale\n\ndef main(x):\n    return scale(x, 1), Box().area(x)\n",
    }
    # a parameter only assigned is not read; a function in a table is not reported
    assert _ignored_parameters(sources) == ["ops.inner(y)", "ops.scale(args)", "ops.scale(clip)",
                                            "ops.scale(factor)", "ops.scale(kw)"]


READERS = ("tests", "demos", "tools", "perfbench")  # read the library's fields too


def _unread_fields(library: dict[str, str], others: list[str]) -> list[str]:
    """Fields of the dataclasses of ``library`` that nothing reads.

    A field is read when a module of ``library`` or ``others`` loads it as an
    attribute (``obj.name``; storing one is not a read), or when a string
    constant of ``library`` names it, as a ``getattr`` table does. Annotated
    names in a class that is not a ``@dataclass`` are not fields.
    """
    fields, read = [], set()
    for module, source in library.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                    for d in node.decorator_list):
                fields += [(module, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        read.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str))
    for source in [*library.values(), *others]:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in fields if name not in read)


def test_every_dataclass_field_is_read():
    library = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for folder in READERS for p in sorted((ROOT / folder).rglob("*.py"))]
    assert _unread_fields(library, others) == []


def test_unread_field_is_reported():
    library = {
        "shapes": "from dataclasses import dataclass\nimport dataclasses\n\n"
                  "@dataclass(frozen=True)\nclass Box:\n    width: int\n    depth: int\n"
                  "    label: str\n    tag: str = ''\n\n    @property\n    def area(self):\n"
                  "        return self.width\n\n@dataclasses.dataclass\nclass Point:\n"
                  "    x: float\n\nclass Plain:\n    y: float\n\nNAMES = ('label',)\n",
    }
    others = ["def grow(box):\n    box.depth = 2\n", "def show(box):\n    return box.tag.upper()\n"]
    # a store is not a read, a string of the library is, and a plain class has no fields
    assert _unread_fields(library, others) == ["shapes.Box.depth", "shapes.Point.x"]


def _is_scatter(node) -> bool:
    """A use of ``add.at`` (``np.add.at``, ``numpy.add.at``, an imported ``add``), or a
    ``bincount`` call that takes weights."""
    if isinstance(node, ast.Attribute):
        return node.attr == "at" and _callee(node.value) == "add"
    return (isinstance(node, ast.Call) and _callee(node.func) == "bincount"
            and (len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords)))


def _scatter_uses(sources: dict[str, str]) -> list[str]:
    """Scatter-adds outside a top-level function named ``_scatter_add``, as
    ``module.statement:line``.

    ``_scatter_add`` runs the 1-D ``add.at`` over a flat index, which gives the
    bits of the 2-D call in a fraction of its time; every other scatter goes through it.
    """
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            name = getattr(stmt, "name", "<module>")
            if name == "_scatter_add":
                continue
            found += [f"{module}.{name}:{node.lineno}" for node in ast.walk(stmt)
                      if _is_scatter(node)]
    return sorted(found)


def test_every_scatter_add_runs_through_the_helper():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _scatter_uses(sources) == []


def test_add_at_outside_the_helper_is_reported():
    sources = {
        "ops": "import numpy as np\n\ndef _scatter_add(acc, cells, rows):\n"
               "    np.add.at(acc.reshape(-1), cells, rows)\n\n"
               "def gather(z, idx, g):\n    np.add.at(z, idx, g)\n\n"
               "class Grid:\n    def scatter(self, i, g):\n        scatter = np.add.at\n"
               "        scatter(self.z, i, g)\n\nnp.add.reduce([1.0])\n",
        "user": "import numpy\nfrom numpy import add\n\nnumpy.add.at([0.0], [0], 1.0)\n\n"
                "def grow(z):\n    add.at(z, [0], 1.0)\n",
    }
    # the helper's own call and another ufunc method are not reported
    assert _scatter_uses(sources) == ["ops.Grid:11", "ops.gather:7", "user.<module>:4",
                                      "user.grow:7"]


def test_weighted_bincount_outside_the_helper_is_reported():
    sources = {
        "ops": "import numpy as np\n\n"
               "def counts(cells):\n    return np.bincount(cells, minlength=4)\n\n"
               "def scatter(flat, g, m):\n    return np.bincount(flat, g, m)\n\n"
               "def scatter_kw(flat, g):\n    return np.bincount(flat, weights=g)\n",
        "user": "from numpy import bincount\n\ntotals = bincount([0, 1], [2.0, 3.0])\n",
    }
    # a count without weights is not a scatter
    assert _scatter_uses(sources) == ["ops.scatter:7", "ops.scatter_kw:10", "user.<module>:3"]
