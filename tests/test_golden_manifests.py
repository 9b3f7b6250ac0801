"""Every file under ``golden/laws``, ``golden/cauchy`` and ``golden/cli`` is named
by its directory's ``MANIFEST``, so a golden no case reads cannot linger.

``golden/laws/MANIFEST`` names each file in its last column; the other two
name a stem per line, whose ``<stem>.out`` and ``<stem>.err`` a case reads.
"""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _named(directory: str) -> set[str]:
    lines = [line.split() for line in (GOLDEN / directory / "MANIFEST").read_text().splitlines()]
    if directory == "laws":
        return {fields[-1] for fields in lines}
    return {f"{fields[0]}{suffix}" for fields in lines for suffix in (".out", ".err")}


@pytest.mark.parametrize("directory", ["laws", "cauchy", "cli"])
def test_every_golden_file_is_named_by_its_manifest(directory):
    files = {path.name for path in (GOLDEN / directory).iterdir()} - {"MANIFEST"}
    assert files - _named(directory) == set()
