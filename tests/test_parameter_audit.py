"""Every defaulted parameter of a checker is set by some caller in the program.

A ``check_*``, ``run_*``, ``classify_*`` or ``validate_*`` function defined
at the top level of ``src/pcmcat`` may give a parameter a default only if a
call in ``src/pcmcat`` or ``perfbench/`` passes that parameter, by keyword
or by position.  A setting that only tests pass is a constant, named in its
checker's docstring.  Calls are matched by the called name, ``f(...)`` or
``module.f(...)``, and through simple assignments that bind a name to
checkers, such as ``suite = run_pcm_suite if ... else run_category_suite``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIXES = ("check_", "run_", "classify_", "validate_")


def _parse(root: Path, directory: str) -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted((root / directory).glob("*.py"))]


def defaulted_parameters(defining: list[ast.Module]) -> dict[str, list[tuple]]:
    """Checker name -> its defaulted parameters, each ``(position, name)``;
    the position of a keyword-only parameter is None."""
    out: dict[str, list[tuple]] = {}
    for tree in defining:
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith(PREFIXES)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
            params += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            if params:
                out.setdefault(node.name, []).extend(params)
    return out


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unset_parameters(defining: list[ast.Module], calling: list[ast.Module]) -> list[str]:
    """``checker(parameter)`` for each defaulted parameter no call passes."""
    params = defaulted_parameters(defining)
    aliases: dict[str, set[str]] = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                bound = {_called_name(n) for n in ast.walk(node.value)} & params.keys()
                if bound:
                    aliases.setdefault(node.targets[0].id, set()).update(bound)
    passed: set[tuple[str, str]] = set()
    for tree in calling:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node.func)
            targets = aliases.get(name, set()) | ({name} & params.keys())
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for target in targets:
                for position, param in params[target]:
                    by_position = position is not None and (starred or position < len(node.args))
                    if by_position or param in keywords or None in keywords:
                        passed.add((target, param))
    return [f"{checker}({param})" for checker, plist in sorted(params.items())
            for _, param in plist if (checker, param) not in passed]


def test_every_defaulted_checker_parameter_has_a_caller_in_the_program():
    src = _parse(ROOT, "src/pcmcat")
    assert unset_parameters(src, src + _parse(ROOT, "perfbench")) == []


def test_the_audit_flags_a_default_only_tests_could_set():
    defining = [ast.parse(
        "def check_a(x, n=1, *, m=2): ...\n"
        "def run_b(x, k=3): ...\n"
        "def run_c(x, j=4): ...\n"
        "def helper(x, h=5): ...\n"
    )]
    calling = defining + [ast.parse(
        "check_a(0, 1)\n"
        "suite = run_b if flag else run_c\n"
        "suite(0, k=7)\n"
    )]
    assert unset_parameters(defining, calling) == ["check_a(m)", "run_c(j)"]
