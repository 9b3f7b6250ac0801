"""Every function, class and method of the library is named somewhere else.

The audit parses the files without importing them.  It covers each
top-level ``def`` and ``class`` in ``src/pcmcat`` and each method of a
top-level class, dunders aside.  A top-level name counts as used when a
name, an import alias, an attribute or an identifier-shaped string constant
names it anywhere in ``src/pcmcat``, ``tests``, ``perfbench`` or
``scripts``, outside its own definition.  A method counts as used only when
an attribute or a string constant names it: code reaches a method through
an object, and the benchmark's tracer names the methods it wraps by string.
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
