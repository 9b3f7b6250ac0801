"""The partition-law sweep against the sweep that rechecked every subfamily.

``ReferenceSubsetSums``, ``reference_wpa`` and ``reference_full_pa`` below
are the sweep as it was when each subfamily was cut with ``subfamily`` and
summed with ``Pcm.sum``, and every family of block sums, built one partition
at a time by ``_regrouped``, went through ``Pcm.sum``.  Membership is
checked once: by the suite, on its grid before the sweep, or when a table's
total goes through ``Pcm.sum``; after that the sweep must ask the oracle the
same families in the same order and give the same reports, and check
membership only of block sums on a partial carrier.
"""

import dataclasses
import itertools
import random

import pytest

from pcmcat import laws
from pcmcat.category import PcmCategory, check_strong_distributivity
from pcmcat.errors import CarrierMismatchError
from pcmcat.family import (
    EXHAUSTIVE_PARTITION_LIMIT,
    IndexedFamily,
    families_over,
    family_of,
    subfamily,
)
from pcmcat.laws import (
    SIGMA_COMPATIBLE,
    WPA_ONLY,
    check_reindexing,
    check_wpa,
    partition_table,
    run_pcm_suite,
)
from pcmcat.pcm import INT_ADD, Summable, make_finite_families_pcm, summable_families
from pcmcat.report import Report, failing, passing
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


def _regrouped(sums, masks):
    """The family of block sums b0, b1, ..., or None at the first refused block."""
    block_sums = []
    for label, mask in zip(laws._BLOCK_LABELS, masks):
        result = sums[mask]
        if not isinstance(result, Summable):
            return None
        block_sums.append((label, result.value))
    return IndexedFamily(tuple(block_sums))


def reference_wpa(pcm, fam, sums):
    name = f"wpa[{pcm.name}]"
    total = sums.total
    if not isinstance(total, Summable):
        return passing(name, detail="family not summable; vacuous")
    for index, (_, masks) in enumerate(partition_table(len(sums.labels))):
        regrouped = _regrouped(sums, masks)
        if regrouped is None:
            return failing(name, (fam, sums.partition(index)), detail="block not summable")
        result = pcm.sum(regrouped)
        if not isinstance(result, Summable):
            return failing(name, (fam, sums.partition(index)), detail="block sums not summable")
        if not pcm.close(result.value, total.value):
            return failing(name, (fam, sums.partition(index)),
                           detail="block sums disagree with total")
    return passing(name)


def reference_full_pa(pcm, fam, sums):
    name = f"full-pa[{pcm.name}]"
    if isinstance(sums.total, Summable):
        wpa = reference_wpa(pcm, fam, sums)
        if not wpa.passed:
            return Report(name, "FAIL", wpa.witness, detail=wpa.detail)
        return Report(name, SIGMA_COMPATIBLE)
    for index, (_, masks) in enumerate(partition_table(len(sums.labels))):
        regrouped = _regrouped(sums, masks)
        if regrouped is not None and isinstance(pcm.sum(regrouped), Summable):
            return Report(name, WPA_ONLY, witness=(fam, sums.partition(index)))
    return Report(name, SIGMA_COMPATIBLE)


def reference_check_full_pa(pcm, fam, total=None):
    """``check_full_pa`` as the reference sweep computed it."""
    return reference_full_pa(pcm, fam, ReferenceSubsetSums(pcm, fam, total))


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
    monkeypatch.setattr(laws, "check_full_pa", reference_check_full_pa)
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


LARGE_CARRIERS = tuple(pcm for pcm in CARRIERS if pcm.name in (
    "finite-families[(Z,+)]", "partial-fns[3]", "pairs-refused", "order-dependent"))


def large_families(pcm, rng):
    """Per size 7 and 8, the first summable and the first refused family among
    ten seeded draws, each entry the grid's first element or a random one with
    even odds; labels from c0..c15, so entry and sorted order differ."""
    pool = [f"c{k}" for k in range(16)]
    for size in (7, 8):
        kept = {}
        for _ in range(10):
            labels = rng.sample(pool, size)
            fam = IndexedFamily(tuple(
                (label, rng.choice(pcm.grid) if rng.random() < 0.5 else pcm.grid[0])
                for label in labels))
            kept.setdefault(isinstance(pcm.sum(fam), Summable), fam)
        yield from kept.values()


def _block_values(log):
    return [value for asked in log.families if _is_block_sums(asked) for value in asked.values]


@pytest.mark.parametrize("pcm", LARGE_CARRIERS, ids=lambda pcm: pcm.name)
def test_the_sweep_matches_the_reference_on_families_of_seven_and_eight(pcm):
    """Per family: the wpa and subfamily sweeps on one table, then check_full_pa
    on its own; each phase checks membership of the family and, on a partial
    carrier, of the block sums only."""
    rng = random.Random(f"large:{pcm.name}")
    for fam in large_families(pcm, rng):
        new_pcm, new = logged(pcm)
        old_pcm, old = logged(pcm)
        sums = laws._SubsetSums(new_pcm, fam)
        reference = ReferenceSubsetSums(old_pcm, fam)
        new_reports = [laws.check_wpa(new_pcm, fam, sums),
                       laws.check_subfamilies(new_pcm, fam, sums)]
        old_reports = [reference_wpa(old_pcm, fam, reference),
                       laws.check_subfamilies(old_pcm, fam, reference)]
        assert new.members == list(fam.values) + ([] if pcm.total else _block_values(new)), fam
        assert new.families == old.families, fam
        swept = len(old.families)
        del new.members[:], new.families[:]
        new_reports.append(laws.check_full_pa(new_pcm, fam))
        old_reports.append(reference_full_pa(old_pcm, fam, ReferenceSubsetSums(old_pcm, fam)))
        assert new.members == list(fam.values) + ([] if pcm.total else _block_values(new)), fam
        assert new.families == old.families[swept:], fam
        assert _outcomes(new_reports) == _outcomes(old_reports), fam


@pytest.mark.parametrize("n", range(EXHAUSTIVE_PARTITION_LIMIT + 1))
def test_the_per_size_tables_follow_the_partition_table_and_combinations(n):
    labels = [f"b{k}" for k in range(EXHAUSTIVE_PARTITION_LIMIT)]
    assert laws._labelled_masks(n) == tuple(
        tuple(zip(labels, masks)) for _, masks in partition_table(n))
    assert laws._subset_positions(n) == tuple(
        keep for size in range(n + 1) for keep in itertools.combinations(range(n), size))


# --------------------------------------------------------------------------
# each checker checks its grid once
# --------------------------------------------------------------------------


def test_the_suite_checks_as_many_members_at_family_size_3_as_at_5():
    """Families drawn from the checked grid go straight to the oracle, so the
    membership checks do not grow with the number of families swept."""
    counts = []
    for family_size in (3, 5):
        probe, log = logged(make_finite_families_pcm(INT_ADD))
        run_pcm_suite(probe, family_size=family_size, trials=20, seed=5)
        counts.append(len(log.members))
    assert counts[0] == counts[1]


def _bad_grid():
    """An integer carrier whose grid, not its samples, holds a non-member."""
    return make_finite_families_pcm(INT_ADD, family_grid=(0, 1, "x", 2))


def _one_object(pcm):
    return PcmCategory("bad-grid", ["*"], lambda x, y: pcm,
                       lambda g, f: g * f, lambda x: 1)


BAD_GRID = "entry 'grid\\[2\\]' = x is outside the carrier"


def test_a_non_member_of_the_grid_raises_before_the_sweep_asks_the_oracle():
    before, asked_before = logged(_bad_grid())
    laws.check_unary(before)
    laws.check_zero_laws(before)
    probe, log = logged(_bad_grid())
    with pytest.raises(CarrierMismatchError, match=BAD_GRID):
        run_pcm_suite(probe, family_size=3, trials=20, seed=5)
    assert log.families == asked_before.families


@pytest.mark.parametrize("run", [
    lambda pcm: check_reindexing(pcm, trials=20, seed=5),
    lambda pcm: next(summable_families(pcm, 3)),
    lambda pcm: check_strong_distributivity(_one_object(pcm), max_family=3, trials=20),
], ids=["check_reindexing", "summable_families", "check_strong_distributivity"])
def test_a_non_member_of_the_grid_raises_before_any_oracle_call(run):
    probe, log = logged(_bad_grid())
    with pytest.raises(CarrierMismatchError, match=BAD_GRID):
        run(probe)
    assert log.families == []
