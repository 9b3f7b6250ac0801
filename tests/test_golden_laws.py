"""`pcmcat laws` output and exit codes, byte for byte, against committed goldens.

Each line of ``golden/laws/MANIFEST`` is ``<base> <family size> <exit code>
<file>``; the file holds the exact stdout of
``pcmcat laws --base <base> --family-size <family size> --seed 0``.
"""

import io
from pathlib import Path

import pytest

from pcmcat.cli import main

GOLDEN = Path(__file__).parent / "golden" / "laws"
CASES = [line.split() for line in (GOLDEN / "MANIFEST").read_text().splitlines()]


def test_the_battery_covers_every_builtin_base_at_three_and_four():
    from pcmcat.category import BUILTIN_BASES

    for size in ("3", "4"):
        assert {base for base, f, _, _ in CASES if f == size} == set(BUILTIN_BASES)


@pytest.mark.parametrize("base, size, code, filename", CASES,
                         ids=[f"{base}-F{size}" for base, size, _, _ in CASES])
def test_laws_output_matches_golden(base, size, code, filename):
    out, err = io.StringIO(), io.StringIO()
    got = main(["laws", "--base", base, "--family-size", size, "--seed", "0"], out=out, err=err)
    assert (got, err.getvalue()) == (int(code), "")
    assert out.getvalue() == (GOLDEN / filename).read_text()
