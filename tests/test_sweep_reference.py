"""The partition-law sweep against the sweep that rechecked every subfamily.

``ReferenceSubsetSums``, ``reference_wpa`` and ``reference_full_pa`` below
are the sweep as it was when each subfamily was cut with ``subfamily`` and
summed with ``Pcm.sum``, and every family of block sums, built one partition
at a time by ``_regrouped``, went through ``Pcm.sum``.  Membership is
checked once: on the grid, when the carrier is built, or when a table's
total goes through ``Pcm.sum``; after that a checker given one family must
ask the oracle the same families in the same order as the reference and
give the same reports, and check membership only of block sums on a
partial carrier.  ``reference_run_pcm_suite`` is the suite as it was with
one table per family: the suite must ask the oracle what it asked, in the
same order, except that a family total or subfamily whose input (labels
and objects, in order) the suite's sweeps already asked is not asked again.
"""

import dataclasses
import io
import itertools
import random
from fractions import Fraction

import pytest

from pcmcat import cli, laws
from pcmcat.category import Matrix, resolve_base
from pcmcat.errors import CarrierMismatchError
from pcmcat.family import (
    EXHAUSTIVE_PARTITION_LIMIT,
    IndexedFamily,
    families_over,
    family_of,
    subfamily,
)
from pcmcat.laws import (
    NONPOSITIVE,
    POSITIVE,
    SIGMA_COMPATIBLE,
    WPA_ONLY,
    check_reindexing,
    check_unary,
    check_wpa,
    check_zero_laws,
    partition_table,
    run_pcm_suite,
)
from pcmcat.pcm import (
    INT_ADD,
    NOT_SUMMABLE,
    Pcm,
    Summable,
    make_finite_families_pcm,
    make_k_bounded_pcm,
    summable_families,
)
from pcmcat.report import Report, failing, passing
from test_laws_reference import (
    CARRIERS,
    SUITE_CARRIERS,
    _mutant,
    _order_dependent,
    random_families,
)
from test_laws_reference import reference_run_pcm_suite as plain_run_pcm_suite

# --------------------------------------------------------------------------
# reference versions
# --------------------------------------------------------------------------


class ReferenceSubsetSums:
    """``pcm.sum`` of each subfamily, each computed on first use; each
    subfamily it asks is appended to ``asked``, when given."""

    def __init__(self, pcm, fam, total=None, asked=None):
        self.pcm, self.fam = pcm, fam
        self.labels = sorted(set(fam.labels))
        self.bit = {label: 1 << rank for rank, label in enumerate(self.labels)}
        self.total = pcm.sum(fam) if total is None else total
        self.slots = {(1 << len(self.labels)) - 1: self.total}
        self.asked = [] if asked is None else asked

    def __getitem__(self, mask):
        result = self.slots.get(mask)
        if result is None:
            keep = [label for label, bit in self.bit.items() if mask & bit]
            sub = subfamily(self.fam, keep)
            self.asked.append(sub)
            result = self.slots[mask] = self.pcm.sum(sub)
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
        if result.value != total.value:
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


def reference_run_pcm_suite(pcm, asked, family_size, trials, seed):
    """The suite with one subset-sum table per family, the wpa sweep handing
    its totals to the full-pa and positivity sweeps in a list.  Each family
    total and subfamily its sweeps ask is appended to ``asked``."""
    reports = [check_unary(pcm), check_zero_laws(pcm)]
    wpa_report, sub_report = passing(f"wpa[{pcm.name}]"), passing(f"subfamilies[{pcm.name}]")
    wpa_passed, totals = 0, []
    grid = pcm.grid
    for fam in families_over(grid, family_size):
        asked.append(fam)
        sums = ReferenceSubsetSums(pcm, fam, pcm.oracle(fam), asked)
        if len(fam) <= 4:
            totals.append(sums.total)
        report = reference_wpa(pcm, fam, sums)
        if not report.passed:
            wpa_report = report
            break
        wpa_passed += 1
        if len(fam) <= 4:
            sub = laws.check_subfamilies(pcm, fam, sums)
            if not sub.passed:
                sub_report = sub
                break
    reports += [wpa_report, sub_report, check_reindexing(pcm, trials=trials, seed=seed)]

    def total(index, fam):
        if index < len(totals):
            return totals[index]
        asked.append(fam)
        return pcm.sum(fam)

    full_pa = Report(f"full-pa[{pcm.name}]", SIGMA_COMPATIBLE, detail="on tested families")
    for index, fam in enumerate(families_over(grid, min(4, family_size))):
        result = total(index, fam)
        if index < wpa_passed and isinstance(result, Summable):
            continue
        report = reference_full_pa(pcm, fam, ReferenceSubsetSums(pcm, fam, result, asked))
        if report.verdict != SIGMA_COMPATIBLE:
            full_pa = report
            break
    reports.append(full_pa)
    positivity = Report(f"positivity[{pcm.name}]", POSITIVE, detail="on tested families")
    z = pcm.zero
    for index, fam in enumerate(families_over(grid, 3)):
        result = total(index, fam)
        if isinstance(result, Summable) and result.value == z and \
                any(v != z for v in fam.values):
            positivity = Report(positivity.name, NONPOSITIVE, witness=fam)
            break
    reports.append(positivity)
    return reports


def without_repeats(families, asked):
    """``families`` without each of ``asked`` whose input, the same labels on
    the same objects in the same order, an earlier one of ``asked`` had."""
    sweep = {id(fam) for fam in asked}
    seen, kept = set(), []
    for fam in families:
        if id(fam) in sweep:
            key = tuple((label, id(value)) for label, value in fam.entries)
            if key in seen:
                continue
            seen.add(key)
        kept.append(fam)
    return kept


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

    probe = dataclasses.replace(pcm, oracle=oracle, contains=contains)
    del log.members[:]  # the grid check that building the probe made
    return probe, log


def _outcomes(reports):
    return [(r.line(), r.witness, r.verdict, r.detail) for r in reports]


def _is_block_sums(fam):
    return all(label in laws._BLOCK_LABELS for label in fam.labels)


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pcm", SUITE_CARRIERS, ids=lambda pcm: pcm.name)
def test_the_suite_asks_the_oracle_what_the_reference_asked(pcm):
    """Once each: the reference's log with each repeated family total or
    subfamily removed, every other query (block sums, unary, zero and
    reindexing) kept, all in the reference's order."""
    assert len({id(value) for value in pcm.grid}) == len(pcm.grid)
    # each logged carrier's zero is computed here, before its suite
    new_pcm, new = logged(pcm)
    new_pcm.zero
    new_reports = run_pcm_suite(new_pcm, family_size=3, trials=20, seed=5)
    old_pcm, old = logged(pcm)
    old_pcm.zero
    asked = []
    old_reports = reference_run_pcm_suite(old_pcm, asked, family_size=3, trials=20, seed=5)
    assert _outcomes(new_reports) == _outcomes(old_reports)
    assert new.families == without_repeats(old.families, asked)
    assert len(new.members) <= len(old.members)


@pytest.mark.parametrize("pcm", CARRIERS, ids=lambda pcm: pcm.name)
def test_membership_is_checked_on_the_family_and_block_sums_only(pcm):
    """After the table's total, the sweep checks no subfamily entry: on a
    total carrier it checks nothing, on a partial one only block sums."""
    rng = random.Random(f"sweep:{pcm.name}")
    families = list(families_over(pcm.grid[:5], 3)) + list(random_families(pcm, rng))
    for fam in families:
        probe, log = logged(pcm)
        sums = laws._SubsetSums.alone(probe, fam)
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
        sums = laws._SubsetSums.alone(new_pcm, fam)
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
# the suite asks each sweep input once, and only inputs that are identical
# --------------------------------------------------------------------------


def sweep_log(pcm, family_size, monkeypatch):
    """The families ``run_pcm_suite`` asks the oracle outside ``check_unary``,
    ``check_zero_laws`` and ``check_reindexing``, less the block sums.  The
    empty family is left out: it is also the block sums of the empty family's
    one partition."""
    probe, log = logged(pcm)
    probe.zero  # computed here, so that positivity asks no zero
    outside = []
    for name in ("check_unary", "check_zero_laws", "check_reindexing"):
        def run(*args, _real=getattr(laws, name), **kwargs):
            start = len(log.families)
            report = _real(*args, **kwargs)
            outside.extend(range(start, len(log.families)))
            return report

        monkeypatch.setattr(laws, name, run)
    run_pcm_suite(probe, family_size=family_size, trials=20, seed=5)
    outside = set(outside)
    return [fam for k, fam in enumerate(log.families)
            if k not in outside and len(fam) and not _is_block_sums(fam)]


def distinct_inputs(grid, family_size):
    """Each non-empty subfamily of each family of ``families_over``, once, as
    its (label, grid position) pairs in entry order."""
    position = {id(value): k for k, value in enumerate(grid)}
    inputs = set()
    for fam in families_over(grid, family_size):
        for size in range(1, len(fam) + 1):
            for keep in itertools.combinations(fam.entries, size):
                inputs.add(tuple((label, position[id(value)]) for label, value in keep))
    return inputs


def _positions(grid, families):
    position = {id(value): k for k, value in enumerate(grid)}
    return sorted(tuple((label, position[id(value)]) for label, value in fam.entries)
                  for fam in families)


def _one_hom(base):
    target = resolve_base(base)
    return target.hom_pcm(target.objects[0], target.objects[0])


@pytest.mark.parametrize("base, family_size", [("int", 5), ("pfn:2", 4)])
def test_the_suite_asks_each_family_total_and_subfamily_once(base, family_size, monkeypatch):
    """A lawful carrier's sweeps reach every subfamily of every family (wpa
    on the summable ones, full-pa on the rest); each is asked once."""
    pcm = _one_hom(base)
    assert len({id(value) for value in pcm.grid}) == len(pcm.grid)
    asked = sweep_log(pcm, family_size, monkeypatch)
    assert _positions(pcm.grid, asked) == sorted(distinct_inputs(pcm.grid, family_size))


def _equal_but_distinct(base, value):
    """The base's carrier on the grid (zero, value, a copy of value built apart)."""
    pcm = _one_hom(base)
    return dataclasses.replace(pcm, family_grid=(pcm.zero, value(), value()))


@pytest.mark.parametrize("pcm", [
    _equal_but_distinct("rational", lambda: Fraction(1, 2)),
    _equal_but_distinct("matrix:2", lambda: Matrix.of([[Fraction(1), Fraction(1, 2)],
                                                       [Fraction(0), Fraction(1)]])),
], ids=["fractions", "matrices"])
def test_equal_but_distinct_grid_elements_are_each_asked(pcm, monkeypatch):
    zero, one, other = pcm.grid
    assert one == other and one is not other
    asked = sweep_log(pcm, 3, monkeypatch)
    assert _positions(pcm.grid, asked) == sorted(distinct_inputs(pcm.grid, 3))
    singles = {id(fam.value("i0")) for fam in asked if fam.labels == ("i0",)}
    assert singles == {id(zero), id(one), id(other)}


def _label_weighted():
    """Integers where the entry labelled i1 counts twice: a lawful-looking
    carrier whose sums depend on the labels as well as the values."""
    base = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, -1, 2))

    def oracle(fam):
        return Summable(sum(value * (2 if label == "i1" else 1) for label, value in fam.entries))

    return _mutant(base, "label-weighted", oracle)


@pytest.mark.parametrize("family_size", [3, 4, 5])
@pytest.mark.parametrize("pcm", [_order_dependent(), _label_weighted()],
                         ids=lambda pcm: pcm.name)
def test_label_and_order_sensitive_oracles_get_the_plain_search_reports(pcm, family_size):
    new = run_pcm_suite(pcm, family_size=family_size, trials=20, seed=5)
    old = plain_run_pcm_suite(pcm, family_size=family_size, trials=20, seed=5)
    assert _outcomes(new) == _outcomes(old)


# --------------------------------------------------------------------------
# a carrier checks its grid once, when it is built
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


def test_the_checkers_that_draw_from_the_grid_check_no_member_of_it():
    """On a total carrier every family these checkers ask is drawn from the
    grid, or is a family of block sums, so none of them checks a member."""
    probe, log = logged(make_finite_families_pcm(INT_ADD))
    check_reindexing(probe, trials=20, seed=5)
    list(summable_families(probe, 3))
    laws.classify_full_pa(probe, 3)
    laws.check_positivity(probe)
    assert log.families and log.members == []


@pytest.mark.parametrize("base", ["int", "unitball:1:l1"])
def test_pcmcat_laws_checks_the_grid_once(base, monkeypatch):
    """Counted as the membership checks whose entries are labelled grid[k]."""
    checks, real = [], Pcm._check_members

    def spy(self, entries, label=lambda key: key):
        if label(0) == "grid[0]":
            checks.append(self.name)
        return real(self, entries, label)

    monkeypatch.setattr(Pcm, "_check_members", spy)
    cli.main(["laws", "--base", base, "--family-size", "3"], out=io.StringIO(), err=io.StringIO())
    assert len(checks) == 1


BAD_GRID = "entry 'grid\\[2\\]' = x is outside the carrier"


def _refusing_oracle(asked):
    def oracle(fam):
        asked.append(fam)
        return NOT_SUMMABLE

    return oracle


@pytest.mark.parametrize("build", [
    lambda oracle: Pcm("bad-grid", INT_ADD.contains, oracle, family_grid=(0, 1, "x", 2)),
    lambda oracle: Pcm("bad-samples", INT_ADD.contains, oracle, sample_elements=(0, 1, "x")),
    lambda oracle: dataclasses.replace(make_finite_families_pcm(INT_ADD), oracle=oracle,
                                       family_grid=(0, 1, "x", 2)),
    lambda oracle: make_k_bounded_pcm(INT_ADD, 2, family_grid=(0, 1, "x", 2)),
], ids=["family_grid", "sample_elements", "replace", "builder"])
def test_a_non_member_of_the_grid_raises_when_the_carrier_is_built(build):
    """The grid is the family grid, else the samples; the first non-member
    raises, labelled by its position, before any oracle call."""
    asked = []
    with pytest.raises(CarrierMismatchError, match=BAD_GRID):
        build(_refusing_oracle(asked))
    assert asked == []


def test_a_non_member_of_the_samples_outside_a_family_grid_is_not_checked():
    """Only the grid is checked when the carrier is built; a sample element
    enters through ``Pcm.sum`` when a checker sums it."""
    pcm = Pcm("stray-sample", INT_ADD.contains, make_finite_families_pcm(INT_ADD).oracle,
              sample_elements=(0, 1, "x"), family_grid=(0, 1))
    with pytest.raises(CarrierMismatchError, match="entry 'i0' = x is outside the carrier"):
        check_unary(pcm)
