"""Brute-force law checkers: axioms, classifiers, and counterexample shrinking.

Everything here works by enumeration over desk-scale grids.  Checks are
one-sided where the axioms are: a family the oracle refuses never witnesses
a partition-law failure, only the classifier records what the refusal rules
out.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence

from .errors import NotFailingError
from .family import (
    EXHAUSTIVE_PARTITION_LIMIT,
    IndexedFamily,
    Partition,
    enumerate_partitions,
    families_over,
    family_of,
    make_family,
    partition_table,
    random_family,
    reindex,
    subfamily,  # noqa: F401 -- perfbench/tracing.py wraps laws.subfamily
)
from .pcm import NotSummable, Pcm, Summable
from .report import Report, failing, passing

SIGMA_COMPATIBLE = "SIGMA_MONOID_COMPATIBLE"
WPA_ONLY = "WPA_ONLY"
POSITIVE = "POSITIVE"
NONPOSITIVE = "NONPOSITIVE"


def check_unary(pcm: Pcm, samples: tuple | None = None) -> Report:
    """Singleton families must be summable, with the member as their sum."""
    name = f"unary[{pcm.name}]"
    for x in samples if samples is not None else pcm.sample_elements:
        result = pcm.sum(family_of([x]))
        if not isinstance(result, Summable) or not pcm.close(result.value, x):
            return failing(name, family_of([x]))
    return passing(name)


def check_zero_laws(pcm: Pcm, samples: tuple | None = None) -> Report:
    """The empty family sums to zero; zeros pad any element without effect."""
    name = f"zero[{pcm.name}]"
    empty = pcm.sum(make_family([]))
    if not isinstance(empty, Summable):
        return failing(name, make_family([]), detail="empty family refused")
    z = empty.value
    for size in (1, 3, 5):
        result = pcm.sum(family_of([z] * size))
        if not isinstance(result, Summable) or not pcm.close(result.value, z):
            return failing(name, family_of([z] * size), detail="zeros do not sum to zero")
    for x in samples if samples is not None else pcm.sample_elements:
        padded = pcm.sum(family_of([x, z, z]))
        if not isinstance(padded, Summable) or not pcm.close(padded.value, x):
            return failing(name, family_of([x, z, z]), detail="zero padding changes the sum")
    return passing(name)


# Labels of the regrouped family of block sums; a partition has at most
# EXHAUSTIVE_PARTITION_LIMIT blocks.
_BLOCK_LABELS = tuple(f"b{k}" for k in range(EXHAUSTIVE_PARTITION_LIMIT))


class _SubsetSums:
    """The oracle's sum of each subfamily of one family, each computed on first use.

    A subfamily is keyed by the bitmask of its labels' ranks among the
    family's sorted labels; the full mask holds the family total.  ``total``
    must be ``pcm.sum(fam)``, and is computed here unless the caller passes
    it in: that sum checked every entry's membership, so each subfamily,
    built from the mask with its entries in family order, goes straight to
    ``pcm.oracle``.
    """

    def __init__(self, pcm: Pcm, fam: IndexedFamily,
                 total: Summable | NotSummable | None = None):
        self.pcm, self.fam = pcm, fam
        self.labels = sorted(set(fam.labels))
        self.bit = {label: 1 << rank for rank, label in enumerate(self.labels)}
        self.total = pcm.sum(fam) if total is None else total
        self.slots = {(1 << len(self.labels)) - 1: self.total}

    def __getitem__(self, mask: int) -> Summable | NotSummable:
        result = self.slots.get(mask)
        if result is None:
            bit = self.bit
            entries = tuple(entry for entry in self.fam.entries if mask & bit[entry[0]])
            result = self.slots[mask] = self.pcm.oracle(IndexedFamily(entries))
        return result

    def partition(self, index: int) -> Partition:
        """Entry ``index`` of the family's partition table, as a witness."""
        return enumerate_partitions(self.labels)[index]


def _regrouped(sums: _SubsetSums, masks: tuple[int, ...]) -> IndexedFamily | None:
    """The family of block sums b0, b1, ..., or None at the first refused block."""
    block_sums = []
    for label, mask in zip(_BLOCK_LABELS, masks):
        result = sums[mask]
        if not isinstance(result, Summable):
            return None
        block_sums.append((label, result.value))
    return IndexedFamily(tuple(block_sums))


def check_wpa(pcm: Pcm, fam: IndexedFamily, sums: _SubsetSums | None = None) -> Report:
    """One-way partition law for a single family, over all of its partitions.

    ``sums`` is the family's subset-sum table, when the caller has one.
    """
    name = f"wpa[{pcm.name}]"
    sums = _SubsetSums(pcm, fam) if sums is None else sums
    total = sums.total
    if not isinstance(total, Summable):
        return passing(name, detail="family not summable; vacuous")
    # block sums of a total carrier are members (Pcm.total): no check for them
    sum_blocks = pcm.oracle if pcm.total else pcm.sum
    for index, (_, masks) in enumerate(partition_table(len(sums.labels))):
        regrouped = _regrouped(sums, masks)
        if regrouped is None:
            return failing(name, (fam, sums.partition(index)), detail="block not summable")
        result = sum_blocks(regrouped)
        if not isinstance(result, Summable):
            return failing(name, (fam, sums.partition(index)), detail="block sums not summable")
        if not pcm.close(result.value, total.value):
            return failing(name, (fam, sums.partition(index)),
                           detail="block sums disagree with total")
    return passing(name)


def check_subfamilies(pcm: Pcm, fam: IndexedFamily,
                      sums: _SubsetSums | None = None) -> Report:
    """Every subfamily of a summable family must be summable.

    ``sums`` is the family's subset-sum table, when the caller has one.
    """
    name = f"subfamilies[{pcm.name}]"
    sums = _SubsetSums(pcm, fam) if sums is None else sums
    if not isinstance(sums.total, Summable):
        return passing(name, detail="family not summable; vacuous")
    labels, bit = fam.labels, sums.bit
    for size in range(len(labels) + 1):
        for keep in itertools.combinations(labels, size):
            mask = 0
            for label in keep:
                mask |= bit[label]
            if not isinstance(sums[mask], Summable):
                return failing(name, (fam, keep), detail="subfamily refused")
    return passing(name)


def check_full_pa(pcm: Pcm, fam: IndexedFamily, total: Summable | NotSummable | None = None,
                  wpa_passed: bool = False) -> Report:
    """Two-way partition law for one family; FAILs only in the converse direction.

    Verdict names whether the tested data is compatible with the two-way law
    (the one-way direction is check_wpa's job).  ``total`` is ``pcm.sum(fam)``
    when the caller has it, and ``wpa_passed`` says the family already passed
    check_wpa.
    """
    name = f"full-pa[{pcm.name}]"
    total = pcm.sum(fam) if total is None else total
    if isinstance(total, Summable):
        if not wpa_passed:
            wpa = check_wpa(pcm, fam, _SubsetSums(pcm, fam, total))
            if not wpa.passed:
                return Report(name, "FAIL", wpa.witness, detail=wpa.detail)
        return Report(name, SIGMA_COMPATIBLE)
    sums = _SubsetSums(pcm, fam, total)
    for index, (_, masks) in enumerate(partition_table(len(sums.labels))):
        regrouped = _regrouped(sums, masks)
        if regrouped is not None and isinstance(pcm.sum(regrouped), Summable):
            # blocks and block sums are admitted but the whole family is
            # not: the two-way law fails here
            return Report(name, WPA_ONLY, witness=(fam, sums.partition(index)))
    return Report(name, SIGMA_COMPATIBLE)


def _family_totals(pcm: Pcm, grid: tuple, max_size: int, totals: Sequence):
    """Each family of ``families_over(grid, max_size)`` with ``pcm.sum`` of it.

    ``totals`` holds the sums of a prefix of the same family order, already
    computed; only the families past it are summed here.
    """
    for index, fam in enumerate(families_over(grid, max_size)):
        yield fam, totals[index] if index < len(totals) else pcm.sum(fam)


def classify_full_pa(pcm: Pcm, max_size: int = 4, wpa_passed: int = 0,
                     totals: Sequence = ()) -> Report:
    """Aggregate check_full_pa over the family grid.

    The first ``wpa_passed`` families of the grid already passed check_wpa,
    and ``totals`` may hold the sums of a prefix of the families, in their
    order, which are then not summed again.
    """
    name = f"full-pa[{pcm.name}]"
    for index, (fam, total) in enumerate(_family_totals(pcm, pcm.grid, max_size, totals)):
        report = check_full_pa(pcm, fam, total, wpa_passed=index < wpa_passed)
        if report.verdict != SIGMA_COMPATIBLE:
            return report
    return Report(name, SIGMA_COMPATIBLE, detail="on tested families")


def check_positivity(pcm: Pcm, samples: tuple | None = None, max_size: int = 3,
                     totals: Sequence = ()) -> Report:
    """Does a zero total force every member to be zero, on tested families?

    ``totals`` may hold the sums of a prefix of the families, in their order,
    which are then not summed again.
    """
    name = f"positivity[{pcm.name}]"
    grid = samples if samples is not None else pcm.grid
    z = pcm.zero
    for fam, result in _family_totals(pcm, tuple(grid), max_size, totals):
        if not isinstance(result, Summable) or not pcm.close(result.value, z):
            continue
        if any(not pcm.close(v, z) for v in fam.values):
            return Report(name, NONPOSITIVE, witness=fam)
    return Report(name, POSITIVE, detail="on tested families")


def check_reindexing(pcm: Pcm, trials: int = 200, max_size: int = 5,
                     seed: int = 0) -> Report:
    """Summability and sums must be invariant under label bijections."""
    name = f"reindex[{pcm.name}]"
    rng = random.Random(f"{seed}:reindex:{pcm.name}")
    grid = pcm.grid
    for k in range(trials):
        fam = random_family(grid, max_size, rng)
        fresh = [f"n{k}.{j}" for j in range(len(fam))]
        rng.shuffle(fresh)
        relabeled = reindex(fam, dict(zip(fam.labels, fresh)))
        before, after = pcm.sum(fam), pcm.sum(relabeled)
        if isinstance(before, Summable) != isinstance(after, Summable):
            return failing(name, fam, detail="summability changed under relabeling")
        if isinstance(before, Summable) and not pcm.close(before.value, after.value):
            return failing(name, fam, detail="sum changed under relabeling")
    return passing(name)


def run_pcm_suite(pcm: Pcm, family_size: int = 4, trials: int = 200,
                  seed: int = 0) -> list[Report]:
    """The whole per-instance battery, in a fixed order."""
    reports = [check_unary(pcm), check_zero_laws(pcm)]
    wpa_name = f"wpa[{pcm.name}]"
    sub_name = f"subfamilies[{pcm.name}]"
    wpa_report, sub_report = passing(wpa_name), passing(sub_name)
    # One subset-sum table per family serves both sweeps.  The full-pa and
    # positivity sweeps walk a prefix of the same family order (sizes up to 4
    # and 3): they get the count of families that passed wpa and the totals
    # of the families up to size 4, not the tables.
    wpa_passed = 0
    totals = []
    for fam in families_over(pcm.grid, family_size):
        sums = _SubsetSums(pcm, fam)
        if len(fam) <= 4:
            totals.append(sums.total)
        report = check_wpa(pcm, fam, sums)
        if not report.passed:
            wpa_report = report
            break
        wpa_passed += 1
        if len(fam) <= 4:
            sub = check_subfamilies(pcm, fam, sums)
            if not sub.passed:
                sub_report = sub
                break
    reports.append(wpa_report)
    reports.append(sub_report)
    reports.append(check_reindexing(pcm, trials=trials, seed=seed))
    reports.append(classify_full_pa(pcm, min(4, family_size), wpa_passed, totals))
    reports.append(check_positivity(pcm, totals=totals))
    return reports


def run_category_suite(cat, family_size: int = 4, trials: int = 200,
                       seed: int = 0) -> list[Report]:
    """Per-hom axiom batteries plus the composition laws."""
    from .category import check_strong_distributivity, derived_laws

    reports: list[Report] = []
    for x, y in itertools.product(cat.objects, repeat=2):
        reports.extend(
            run_pcm_suite(cat.hom_pcm(x, y), family_size=family_size,
                          trials=trials, seed=seed)
        )
    reports.append(
        check_strong_distributivity(cat, max_family=family_size, trials=trials, seed=seed)
    )
    reports.extend(derived_laws(cat))
    return reports


# --------------------------------------------------------------------------
# independent convolution oracle
# --------------------------------------------------------------------------


def oracle_convolution(
    scalar_mul: Callable,
    scalar_add: Callable,
    scalar_zero,
    monoid_table: dict[tuple[str, str], str],
    alpha: dict[str, object],
    beta: dict[str, object],
) -> dict[str, object]:
    """Double-loop product of coefficient maps over a finite monoid.

    Deliberately independent of the factorization-index path used by the
    composition code: it walks all (q, p) pairs and accumulates with plain
    scalar operations.
    """
    elements = sorted({m for pair in monoid_table for m in pair})
    out = {m: scalar_zero for m in elements}
    for q in elements:
        for p in elements:
            target = monoid_table[(q, p)]
            out[target] = scalar_add(out[target], scalar_mul(alpha[q], beta[p]))
    return out


# --------------------------------------------------------------------------
# counterexample shrinking
# --------------------------------------------------------------------------


def _drop_entry(fam: IndexedFamily, index: int) -> IndexedFamily:
    return IndexedFamily(fam.entries[:index] + fam.entries[index + 1 :])


def minimize(report: Report) -> Report:
    """Greedily drop family entries from a FAIL witness while it still fails.

    The report must carry a ``recheck`` callback returning True when a
    candidate witness still exhibits the failure.
    """
    if report.passed:
        raise NotFailingError("cannot minimize a passing report")
    if report.recheck is None or report.witness is None:
        raise NotFailingError("report carries no re-checkable witness")
    witness = report.witness
    single = isinstance(witness, IndexedFamily)
    fams = [witness] if single else list(witness)
    changed = True
    while changed:
        changed = False
        for which, fam in enumerate(fams):
            for k in range(len(fam)):
                candidate = list(fams)
                candidate[which] = _drop_entry(fam, k)
                packed = candidate[0] if single else tuple(candidate)
                if report.recheck(packed):
                    fams = candidate
                    changed = True
                    break
            if changed:
                break
    final = fams[0] if single else tuple(fams)
    return Report(report.name, report.verdict, witness=final,
                  detail=report.detail + " (minimized)", recheck=report.recheck)
