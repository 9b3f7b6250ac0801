"""`product`, `series`, `substitute` and `validate` output, byte for byte, against goldens.

Each line of ``golden/cli/MANIFEST`` is ``<stem> <exit code> <argv...>``;
``<stem>.out`` holds the exact stdout of ``pcmcat <argv...>`` run from the
repository root, and ``<stem>.err`` its stderr when that is not empty.  The
battery holds valid inputs only; the refusals are pinned in ``test_cli.py``.
"""

import io
from pathlib import Path

import pytest

from pcmcat.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli"
CASES = [line.split() for line in (GOLDEN / "MANIFEST").read_text().splitlines()]


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def test_every_command_and_the_rational_bases_are_covered():
    commands = {argv[0] for _, _, *argv in CASES}
    assert commands == {"product", "series", "substitute", "validate"}
    products = [argv for _, _, *argv in CASES if argv[0] == "product"]
    for base in ("matrix:2", "rational"):
        assert any(argv[argv.index("--base") + 1] == base for argv in products)


@pytest.mark.parametrize("stem, code, argv", [(s, c, a) for s, c, *a in CASES],
                         ids=[stem for stem, *_ in CASES])
def test_cli_output_matches_golden(stem, code, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    got = main(list(argv), out=out, err=err)
    assert got == int(code)
    assert out.getvalue() == _read(GOLDEN / f"{stem}.out")
    assert err.getvalue() == _read(GOLDEN / f"{stem}.err")
