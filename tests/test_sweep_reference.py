"""The partition-law sweep against the sweep that rechecked every subfamily.

``ReferenceSubsetSums`` and ``reference_wpa`` below are the sweep as it was
when each subfamily was cut with ``subfamily`` and summed with ``Pcm.sum``,
and every family of block sums went through ``Pcm.sum``.  Membership is
checked once, when the table's total goes through ``Pcm.sum``; after that
the sweep must ask the oracle the same families in the same order and give
the same reports, and check membership only of block sums on a partial
carrier.
"""

import dataclasses
import random

import pytest

from pcmcat import laws
from pcmcat.errors import CarrierMismatchError
from pcmcat.family import IndexedFamily, families_over, family_of, subfamily
from pcmcat.laws import check_wpa, partition_table, run_pcm_suite
from pcmcat.pcm import INT_ADD, Summable, make_finite_families_pcm
from pcmcat.report import failing, passing
from test_laws_reference import CARRIERS, SUITE_CARRIERS, random_families

# --------------------------------------------------------------------------
# reference versions
# --------------------------------------------------------------------------


class ReferenceSubsetSums:
    """``pcm.sum`` of each subfamily, each computed on first use."""

    def __init__(self, pcm, fam, total=None):
        self.pcm, self.fam = pcm, fam
        self.labels = sorted(set(fam.labels))
        self.bit = {label: 1 << rank for rank, label in enumerate(self.labels)}
        self.total = pcm.sum(fam) if total is None else total
        self.slots = {(1 << len(self.labels)) - 1: self.total}

    def __getitem__(self, mask):
        result = self.slots.get(mask)
        if result is None:
            keep = [label for label, bit in self.bit.items() if mask & bit]
            result = self.slots[mask] = self.pcm.sum(subfamily(self.fam, keep))
        return result

    def partition(self, index):
        return laws.enumerate_partitions(self.labels)[index]


def reference_wpa(pcm, fam, sums):
    name = f"wpa[{pcm.name}]"
    total = sums.total
    if not isinstance(total, Summable):
        return passing(name, detail="family not summable; vacuous")
    for index, (_, masks) in enumerate(partition_table(len(sums.labels))):
        regrouped = laws._regrouped(sums, masks)
        if regrouped is None:
            return failing(name, (fam, sums.partition(index)), detail="block not summable")
        result = pcm.sum(regrouped)
        if not isinstance(result, Summable):
            return failing(name, (fam, sums.partition(index)), detail="block sums not summable")
        if not pcm.close(result.value, total.value):
            return failing(name, (fam, sums.partition(index)),
                           detail="block sums disagree with total")
    return passing(name)


# --------------------------------------------------------------------------
# a carrier that logs its oracle and membership calls
# --------------------------------------------------------------------------


class Log:
    def __init__(self):
        self.families: list[IndexedFamily] = []
        self.members: list = []


def logged(pcm):
    log = Log()

    def oracle(fam):
        log.families.append(fam)
        return pcm.oracle(fam)

    def contains(value):
        log.members.append(value)
        return pcm.contains(value)

    return dataclasses.replace(pcm, oracle=oracle, contains=contains), log


def _outcomes(reports):
    return [(r.line(), r.witness, r.verdict, r.detail) for r in reports]


def _is_block_sums(fam):
    return all(label in laws._BLOCK_LABELS for label in fam.labels)


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pcm", SUITE_CARRIERS, ids=lambda pcm: pcm.name)
def test_the_suite_asks_the_oracle_what_the_reference_asked(pcm, monkeypatch):
    new_pcm, new = logged(pcm)
    new_reports = run_pcm_suite(new_pcm, family_size=3, trials=20, seed=5)
    monkeypatch.setattr(laws, "_SubsetSums", ReferenceSubsetSums)
    monkeypatch.setattr(laws, "check_wpa", reference_wpa)
    old_pcm, old = logged(pcm)
    old_reports = run_pcm_suite(old_pcm, family_size=3, trials=20, seed=5)
    assert _outcomes(new_reports) == _outcomes(old_reports)
    assert new.families == old.families
    assert len(new.members) <= len(old.members)


@pytest.mark.parametrize("pcm", CARRIERS, ids=lambda pcm: pcm.name)
def test_membership_is_checked_on_the_family_and_block_sums_only(pcm):
    """After the table's total, the sweep checks no subfamily entry: on a
    total carrier it checks nothing, on a partial one only block sums."""
    rng = random.Random(f"sweep:{pcm.name}")
    families = list(families_over(pcm.grid[:5], 3)) + list(random_families(pcm, rng))
    for fam in families:
        probe, log = logged(pcm)
        sums = laws._SubsetSums(probe, fam)
        assert log.members == list(fam.values)
        del log.members[:], log.families[:]
        wpa = laws.check_wpa(probe, fam, sums)
        sub = laws.check_subfamilies(probe, fam, sums)
        blocks = [value for asked in log.families if _is_block_sums(asked)
                  for value in asked.values]
        assert log.members == ([] if pcm.total else blocks), fam
        reference = ReferenceSubsetSums(pcm, fam)
        assert _outcomes([wpa, sub]) == _outcomes([
            reference_wpa(pcm, fam, reference), laws.check_subfamilies(pcm, fam, reference)])


def test_an_out_of_carrier_block_sum_still_raises_on_a_partial_carrier():
    """A partial carrier's block sums are checked: a pair summing outside the
    carrier is caught when its sum becomes an entry of the regrouped family."""
    base = make_finite_families_pcm(INT_ADD)

    def oracle(fam):
        total = sum(fam.values)
        return Summable(float(total) if len(fam) == 2 else total)

    planted = dataclasses.replace(base, name="pairs-sum-to-floats", oracle=oracle, total=False)
    fam = family_of([1, 2, 3])
    with pytest.raises(CarrierMismatchError, match="entry 'b0' = 3.0 is outside the carrier"):
        check_wpa(planted, fam)
    with pytest.raises(CarrierMismatchError, match="entry 'b0' = 3.0 is outside the carrier"):
        reference_wpa(planted, fam, ReferenceSubsetSums(planted, fam))
