"""Every pcmcat name the benchmark's workloads use exists, and takes the
keywords they pass.

``perfbench/workloads.py`` calls pcmcat through module attributes such as
``laws.run_pcm_suite(..., family_size=3)``.  A change that renames or drops
one of them, or a parameter passed to one by keyword, would otherwise show
only as a failed benchmark run.  The file is read as source, not imported.
"""

import ast
import inspect
from pathlib import Path

from pcmcat import category, cauchy, cli, family, fincat, laws, pcm

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MODULES = {module.__name__.rsplit(".", 1)[1]: module
           for module in (category, cauchy, cli, family, fincat, laws, pcm)}


def _module_attribute(node) -> tuple[str, str] | None:
    """(module, attribute) when ``node`` reads an attribute off a pcmcat module."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in MODULES:
        return node.value.id, node.attr
    return None


def unknown_names(tree: ast.Module) -> list[str]:
    """``module.attribute`` for each attribute read that the module lacks, and
    ``module.attribute(keyword=)`` for each keyword its callee does not take."""
    unknown = []
    for node in ast.walk(tree):
        read = _module_attribute(node)
        if read is not None and not hasattr(MODULES[read[0]], read[1]):
            unknown.append(".".join(read))
        called = _module_attribute(node.func) if isinstance(node, ast.Call) else None
        if called is None or not hasattr(MODULES[called[0]], called[1]):
            continue
        params = inspect.signature(getattr(MODULES[called[0]], called[1])).parameters
        if any(param.kind is param.VAR_KEYWORD for param in params.values()):
            continue
        unknown += [f"{'.'.join(called)}({keyword.arg}=)" for keyword in node.keywords
                    if keyword.arg is not None and keyword.arg not in params]
    return unknown


def test_the_workloads_use_only_names_pcmcat_has():
    tree = ast.parse(WORKLOADS.read_text())
    reads = {_module_attribute(node) for node in ast.walk(tree)} - {None}
    assert {("laws", "run_pcm_suite"), ("category", "check_strong_distributivity"),
            ("cauchy", "check_associativity"), ("cli", "main")} <= reads
    assert unknown_names(tree) == []


def test_a_missing_name_and_an_unknown_keyword_are_flagged():
    planted = ast.parse(
        "laws.no_such_checker(pcm)\n"
        "laws.run_pcm_suite(carrier, family_size=3, size=4)\n"
        "category.check_strong_distributivity(cat, max_family=3, trials=40, seed=0)\n"
        "cli.main(argv, out=out, err=err)\n"
    )
    assert sorted(unknown_names(planted)) == ["laws.no_such_checker", "laws.run_pcm_suite(size=)"]
