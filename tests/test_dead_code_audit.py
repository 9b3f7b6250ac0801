"""Every function, class and method of the library is named somewhere else,
and the tests keep one reference structure.

The audit parses the files without importing them.  It covers each
top-level ``def`` and ``class`` in ``src/pcmcat`` and each method of a
top-level class, dunders aside.  A top-level name counts as used when a
name, an import alias, an attribute or an identifier-shaped string constant
names it anywhere in ``src/pcmcat``, ``tests``, ``perfbench`` or
``scripts``, outside its own definition.  A method counts as used only when
an attribute or a string constant names it: code reaches a method through
an object, and the benchmark's tracer names the methods it wraps by string.

No module under ``src/pcmcat`` reads an underscore attribute, through
anything but ``self`` or ``cls``, that it does not define itself: the module
that owns a structure is the one that reads its private state.

``tests/plain.py`` holds the plain searches the test modules share: each of
its top-level definitions must be reached from a test module, by name or
through a definition so reached.  No module under ``tests`` imports a test
module; what two of them share lives in ``plain.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/pcmcat", "tests", "perfbench", "scripts")


def _parse(root: Path, directory: str) -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted((root / directory).glob("*.py"))]


def definitions(trees: list[ast.Module]) -> list[tuple[str, str, ast.AST, bool]]:
    """(label, name, node, is a method) for each definition the audit covers."""
    out = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            out.append((node.name, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{item.name}", item.name, item, True) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def mentions(root: ast.AST) -> tuple[Counter, Counter]:
    """The names mentioned under ``root``: those that reach a top-level name
    (names, import aliases, attributes, strings) and those that reach a
    method (attributes, strings), each with its count."""
    anywhere, on_objects = Counter(), Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            anywhere[node.id] += 1
        elif isinstance(node, ast.alias):
            anywhere[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute):
            anywhere[node.attr] += 1
            on_objects[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            anywhere[node.value] += 1
            on_objects[node.value] += 1
    return anywhere, on_objects


def unused(defining: list[ast.Module], scanned: list[ast.Module]) -> list[str]:
    """The label of each covered definition named nowhere outside itself."""
    anywhere, on_objects = Counter(), Counter()
    for tree in scanned:
        tree_anywhere, tree_on_objects = mentions(tree)
        anywhere += tree_anywhere
        on_objects += tree_on_objects
    out = []
    for label, name, node, is_method in definitions(defining):
        own_anywhere, own_on_objects = mentions(node)
        if is_method and on_objects[name] <= own_on_objects[name] \
                or not is_method and anywhere[name] <= own_anywhere[name]:
            out.append(label)
    return out


def test_every_definition_in_the_library_is_named_outside_itself():
    scanned = [tree for directory in SCANNED for tree in _parse(ROOT, directory)]
    assert unused(_parse(ROOT, "src/pcmcat"), scanned) == []


def test_the_audit_flags_what_nothing_else_names():
    defining = [ast.parse(
        "def used(): ...\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def by_string(): ...\n"
        "class Box:\n"
        "    def __len__(self): ...\n"
        "    def read(self): ...\n"
        "    def by_name(self): ...\n"
        "    def traced(self): ...\n"
        "    def looped(self): return self.looped()\n"
    )]
    scanned = defining + [ast.parse(
        "from lib import used\n"
        "TARGETS = ('by_string', 'traced')\n"
        "Box().read()\n"
        "by_name = 1\n"
    )]
    assert unused(defining, scanned) == ["recursive", "Box.by_name", "Box.looped"]


def unreached(defining: ast.Module, scanned: list[ast.Module]) -> list[str]:
    """The top-level definitions of ``defining`` that nothing reaches: a
    definition is reached when ``scanned``, or the module-level code of
    ``defining``, names it, or when a reached definition other than itself does."""
    nodes = {node.name: node for node in defining.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    named = Counter()
    for tree in scanned:
        named += mentions(tree)[0]
    for node in defining.body:
        if node not in nodes.values():
            named += mentions(node)[0]
    reached, frontier = set(), [name for name in nodes if named[name]]
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier += [other for other in mentions(nodes[name])[0]
                         if other in nodes and other != name]
    return [name for name in nodes if name not in reached]


def imported_test_modules(modules: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Per module of ``modules``, by name, the test modules among them it imports."""
    tests = {name for name in modules if name.startswith("test_")}
    out = {}
    for name, tree in modules.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        if imported & tests:
            out[name] = sorted(imported & tests)
    return out


def test_every_plain_search_is_reached_from_a_test():
    tests = [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert unreached(ast.parse((ROOT / "tests" / "plain.py").read_text()), tests) == []


def test_no_module_under_tests_imports_a_test_module():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "tests").glob("*.py"))}
    assert imported_test_modules(modules) == {}


def test_the_plain_audit_flags_what_no_test_reaches():
    defining = ast.parse(
        "def named(): return helper()\n"
        "def helper(): return Box\n"
        "class Box: ...\n"
        "def chained(): return orphan()\n"
        "def orphan(): ...\n"
        "def looped(): return looped()\n"
        "def by_constant(): ...\n"
        "TABLE = (by_constant,)\n"
    )
    scanned = [ast.parse("from plain import named\n")]
    assert unreached(defining, scanned) == ["chained", "orphan", "looped"]


def test_the_import_rule_flags_a_test_module_imported_by_another():
    a, b, c = "test_a", "test_b", "test_c"
    modules = {name: ast.parse(text) for name, text in (
        (a, f"import plain\nfrom {b} import helper\n"),
        (b, f"import {a} as other, pytest\nfrom pcmcat.laws import minimize\n"),
        (c, "from plain import Recorder\n"),
        ("plain", f"from {c}.sub import x\n"),
    )}
    assert imported_test_modules(modules) == {a: [b], b: [a], "plain": [c]}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_reads(modules: dict[str, ast.Module]) -> list[str]:
    """``module: obj._name`` for each read of an underscore attribute through
    anything but ``self`` or ``cls`` that the reading module does not define:
    by assigning it on some object, or as a function, method or class name."""
    out = []
    for module, tree in modules.items():
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and _private(node.attr) and node.attr not in defined \
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                out.append(f"{module}: {ast.unparse(node)}")
    return out


def test_no_module_reads_another_modules_private_attributes():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "pcmcat").glob("*.py"))}
    assert foreign_private_reads(modules) == []


def test_the_ownership_rule_flags_a_read_of_anothers_private_state():
    modules = {name: ast.parse(text) for name, text in (
        ("owner", "class Table:\n"
                  "    def __init__(self):\n        self._rows = []\n"
                  "    def _row(self, k):\n        return self._rows[k]\n"
                  "def widen(a, b):\n    return a._rows + b._row(0) + b.__dict__\n"),
        ("reader", "def peek(table):\n"
                   "    own = table.rows, table.__class__\n"
                   "    return table._rows, table._row(0), self._cache\n"),
    )}
    assert foreign_private_reads(modules) == ["reader: table._rows", "reader: table._row"]
