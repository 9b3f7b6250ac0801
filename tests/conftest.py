"""The tests import the ``pcmcat`` that ``PYTHONPATH`` names, else this checkout's.

When no ``PYTHONPATH`` entry holds ``pcmcat/__init__.py``, this checkout's
``src`` goes first on ``sys.path``; the pytest header names the tested tree.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if not any((Path(entry) / "pcmcat" / "__init__.py").is_file()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    sys.path.insert(0, str(SRC))


def pytest_report_header(config):
    import pcmcat

    return f"pcmcat: {Path(pcmcat.__file__).resolve().parent}"
