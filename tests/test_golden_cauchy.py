"""Convolution subcommands' output and exit codes, byte for byte, against committed goldens.

Each line of ``golden/cauchy/MANIFEST`` is ``<stem> <exit code> <argv...>``;
``<stem>.out`` holds the exact stdout of ``pcmcat <argv...>`` run from the
repository root, and ``<stem>.err`` its stderr when that is not empty.  Index
files are named by paths relative to the root because ``cauchy describe``
prints the index name.
"""

import io
from pathlib import Path

import pytest

from pcmcat.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cauchy"
CASES = [line.split() for line in (GOLDEN / "MANIFEST").read_text().splitlines()]


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def test_describe_covers_every_composition_carrying_base_on_three_indexes():
    from pcmcat.category import BUILTIN_BASES

    described = {(argv[3], argv[5]) for _, _, *argv in CASES if argv[:2] == ["cauchy", "describe"]}
    bases = {base for base in BUILTIN_BASES if not base.startswith("unitball:")}
    indexes = {"cyclic:2", "cyclic:3", "tests/data/two_object.fincat"}
    assert described == {(base, index) for base in bases for index in indexes}


def test_every_embedding_and_a_refused_sum_are_covered():
    whichs = {argv[2] for _, _, *argv in CASES if argv[0] == "embed"}
    assert whichs == {"sigma", "eta", "gamma", "star"}
    refused = [stem for stem, code, *argv in CASES if argv[0] == "sum" and code == "3"]
    assert refused and all(_read(GOLDEN / f"{stem}.out") == "NOT SUMMABLE\n" for stem in refused)


@pytest.mark.parametrize("stem, code, argv", [(s, c, a) for s, c, *a in CASES],
                         ids=[stem for stem, *_ in CASES])
def test_cauchy_output_matches_golden(stem, code, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    got = main(list(argv), out=out, err=err)
    assert got == int(code)
    assert out.getvalue() == _read(GOLDEN / f"{stem}.out")
    assert err.getvalue() == _read(GOLDEN / f"{stem}.err")
