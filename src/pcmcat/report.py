"""Check reports and their line-oriented text form."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Callable

FAIL = "FAIL"
PASS = "PASS"


_PLACES = Decimal("1e-12")


def format_complex(re: Decimal, im: Decimal) -> str:
    """Render a complex value as ``a+bi`` with 12 fixed fractional digits,
    rounded half to even.  The current decimal context must hold every digit
    of both parts to 12 places."""
    re = re.quantize(_PLACES, ROUND_HALF_EVEN) + 0  # -0 + 0 is 0: no "-0.000..."
    im = im.quantize(_PLACES, ROUND_HALF_EVEN) + 0
    return f"{re:.12f}{im:+.12f}i"


def serialize(obj) -> str:
    """Deterministic compact text for witnesses (families, partitions, elements)."""
    if isinstance(obj, (list, tuple)):
        return "[" + ";".join(serialize(x) for x in obj) + "]"
    if hasattr(obj, "entries"):  # IndexedFamily
        inner = ",".join(f"{label}={serialize(value)}" for label, value in obj.entries)
        return "{" + inner + "}"
    if hasattr(obj, "blocks"):  # Partition
        inner = "|".join("{" + ",".join(block) + "}" for block in obj.blocks)
        return "[" + inner + "]"
    return str(obj)


@dataclass
class Report:
    """Outcome of one law check; FAIL is the only failing verdict."""

    name: str
    verdict: str
    witness: object = None
    detail: str = ""
    recheck: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict != FAIL

    def line(self) -> str:
        text = f"CHECK {self.name} {self.verdict}"
        if self.witness is not None:
            text += f" witness={serialize(self.witness)}"
        if self.detail:
            text += f"  # {self.detail}"
        return text


def passing(name: str, detail: str = "") -> Report:
    return Report(name, PASS, detail=detail)


def failing(name: str, witness, detail: str = "", recheck=None) -> Report:
    return Report(name, FAIL, witness=witness, detail=detail, recheck=recheck)
