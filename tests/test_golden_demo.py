"""``scripts/cauchy_demo.py``, run in-process, against its committed golden output."""

import contextlib
import io
import runpy
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_cauchy_demo_output_matches_golden():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "scripts" / "cauchy_demo.py"), run_name="__main__")
    golden = Path(__file__).parent / "golden" / "scripts" / "cauchy_demo.out"
    assert out.getvalue() == golden.read_text()
