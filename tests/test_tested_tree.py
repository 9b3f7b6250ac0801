"""pytest tests the ``pcmcat`` that ``PYTHONPATH`` names, and says which in its header."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def header_tree(pythonpath: str | None) -> str:
    """The ``pcmcat:`` line of the header of a pytest run with ``pythonpath``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider",
         "tests/test_golden_demo.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    return next(line for line in run.stdout.splitlines() if line.startswith("pcmcat: "))


def test_pytest_tests_the_copy_that_pythonpath_names(tmp_path):
    shutil.copytree(ROOT / "src" / "pcmcat", tmp_path / "src" / "pcmcat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert header_tree(str(tmp_path / "src")) == f"pcmcat: {tmp_path.resolve() / 'src' / 'pcmcat'}"


def test_pytest_tests_this_checkout_when_pythonpath_names_no_pcmcat(tmp_path):
    assert header_tree(str(tmp_path)) == f"pcmcat: {ROOT / 'src' / 'pcmcat'}"
