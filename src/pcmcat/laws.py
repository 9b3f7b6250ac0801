"""Brute-force law checkers: axioms, classifiers, and counterexample shrinking.

Everything here works by enumeration over desk-scale grids.  Checks are
one-sided where the axioms are: a family the oracle refuses never witnesses
a partition-law failure, only the classifier records what the refusal rules
out.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, reduce
from operator import or_
from typing import Iterator

from .errors import NotAMonoidError, NotFailingError
from .family import (
    EXHAUSTIVE_PARTITION_LIMIT,
    IndexedFamily,
    Partition,
    enumerate_partitions,
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


def check_unary(pcm: Pcm) -> Report:
    """Each sample element's singleton family must be summable, with it as sum."""
    name = f"unary[{pcm.name}]"
    for x in pcm.sample_elements:
        result = pcm.sum(family_of([x]))
        if not isinstance(result, Summable) or result.value != x:
            return failing(name, family_of([x]))
    return passing(name)


def check_zero_laws(pcm: Pcm) -> Report:
    """The empty family sums to zero; zeros pad each sample element without effect."""
    name = f"zero[{pcm.name}]"
    empty = pcm.sum(make_family([]))
    if not isinstance(empty, Summable):
        return failing(name, make_family([]), detail="empty family refused")
    z = empty.value
    for size in (1, 3, 5):
        result = pcm.sum(family_of([z] * size))
        if not isinstance(result, Summable) or result.value != z:
            return failing(name, family_of([z] * size), detail="zeros do not sum to zero")
    for x in pcm.sample_elements:
        padded = pcm.sum(family_of([x, z, z]))
        if not isinstance(padded, Summable) or padded.value != x:
            return failing(name, family_of([x, z, z]), detail="zero padding changes the sum")
    return passing(name)


# Labels of the regrouped family of block sums; a partition has at most
# EXHAUSTIVE_PARTITION_LIMIT blocks.
_BLOCK_LABELS = tuple(f"b{k}" for k in range(EXHAUSTIVE_PARTITION_LIMIT))


@lru_cache(maxsize=None)
def _labelled_masks(n: int) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Each partition of ``partition_table(n)``, in its order, as (label, mask) per block."""
    return tuple(tuple(zip(_BLOCK_LABELS, masks)) for _, masks in partition_table(n))


@lru_cache(maxsize=EXHAUSTIVE_PARTITION_LIMIT + 1)
def _subset_positions(n: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of the positions 0..n-1, by size, in ``itertools.combinations`` order."""
    return tuple(keep for size in range(n + 1) for keep in itertools.combinations(range(n), size))


@lru_cache(maxsize=1024)
def _subset_masks(labels: tuple[str, ...], ranked: tuple[str, ...]) -> tuple[int, ...]:
    """Per subset of ``_subset_positions(len(labels))``, in its order, the mask
    of its labels' ranks in ``ranked``."""
    bits = [1 << ranked.index(label) for label in labels]
    return tuple(reduce(or_, [bits[p] for p in keep], 0) for keep in _subset_positions(len(labels)))


@lru_cache(maxsize=None)
def _entry_bits(n: int) -> tuple[int, ...]:
    """Entry j's rank bit in a sweep family of n: labels i0, i1, ... sort in entry order."""
    return tuple(1 << j for j in range(n))


@lru_cache(maxsize=None)
def _spreads(bits: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Per mask over ``bits``, the fields of the entries it selects: entry j,
    whose bit is ``bits[j]``, owns the ``width`` bits from bit ``j * width``."""
    spreads = [0] * (1 << len(bits))
    field = (1 << width) - 1
    for j, bit in enumerate(bits):
        for mask in range(1 << len(bits)):
            if mask & bit:
                spreads[mask] |= field << (j * width)
    return tuple(spreads)


class _SweepMemo(dict):
    """The oracle's answer to each input of one suite's sweeps, each asked once.

    The sweeps draw their families from ``families``, which labels entry j
    with the j-th label, so each family total or subfamily they ask is fixed
    by small integers: which label positions it keeps and, per kept position,
    the grid position of its entry, the object's last index in the grid.  Its
    key packs them: field j, ``width`` bits from bit ``j * width``, holds 1 +
    that grid position, or 0 where position j is not kept.  A family's
    ``code`` is the key of its total, and ``code & spread[mask]`` that of a
    subfamily.  Equal keys are the identical oracle input, the same labels on
    the same objects in the same order, so the memo assumes only that the
    oracle is a function: no value is hashed or compared, equal but distinct
    grid elements key apart, and so do relabelled inputs.  Families of block
    sums are not kept.  ``_SubsetSums.alone`` builds a memo of one family,
    over that family's values.
    """

    def __init__(self, pcm: Pcm, grid: tuple):
        self.pcm, self.grid = pcm, grid
        self.width = len(grid).bit_length()
        # an object's grid position is its last index, found by identity
        position = {id(value): k for k, value in enumerate(grid, 1)}
        self._positions = [position[id(value)] for value in grid]  # per grid index

    def code(self, indices) -> int:
        """The key of the total of the family whose entry j is ``grid[indices[j]]``."""
        code, positions, width = 0, self._positions, self.width
        for j, index in enumerate(indices):
            code |= positions[index] << (j * width)
        return code

    def families(self, max_size: int) -> Iterator[tuple[IndexedFamily, int]]:
        """Each family of ``families_over(grid, max_size)``, in order, with its code."""
        grid = self.grid
        labels = [f"i{k}" for k in range(max_size)]
        for size in range(max_size + 1):
            for combo in itertools.combinations_with_replacement(range(len(grid)), size):
                yield IndexedFamily(tuple(zip(labels, [grid[k] for k in combo]))), self.code(combo)

    def total(self, fam: IndexedFamily, code: int) -> Summable | NotSummable:
        result = self.get(code)
        if result is None:
            result = self[code] = self.pcm.oracle(fam)
        return result


class _SubsetSums(list):
    """The oracle's sum of each subfamily of one family, each read from a memo.

    A list of 2**n slots: slot ``mask`` holds the sum of the subfamily whose
    labels' ranks among ``labels``, the family's sorted labels, are the bits
    of ``mask``, or None until ``fill`` computes it; the full mask holds the
    total.  ``fam`` is a family of ``memo``, and ``code`` the key of its
    total; a sweep family passes no ``labels`` (``_entry_bits``).  ``fill``
    reads a slot's answer from the memo, so a subfamily another family of the
    same sweep already had is not asked again; on a miss it asks ``pcm.oracle``
    the subfamily built from the mask, its entries in family order.  Every
    entry is a member: it comes from a grid, checked when the carrier was
    built, or from a family whose total went through ``pcm.sum`` (``alone``).
    """

    def __init__(self, memo: _SweepMemo, fam: IndexedFamily, code: int,
                 labels: tuple[str, ...] | None = None):
        self.pcm, self.memo, self.fam, self.code = memo.pcm, memo, fam, code
        if labels is None:
            self.labels, self.bits = fam.labels, _entry_bits(len(fam))
        else:
            rank = {label: r for r, label in enumerate(labels)}
            self.labels, self.bits = labels, tuple([1 << rank[label] for label in fam.labels])
        self.spread = _spreads(self.bits, memo.width)
        self.total = memo.total(fam, code)
        super().__init__([None] * ((1 << len(self.labels)) - 1) + [self.total])

    @classmethod
    def alone(cls, pcm: Pcm, fam: IndexedFamily) -> "_SubsetSums":
        """The table of ``fam`` checked on its own: a one-family memo over its
        values, seeded with ``pcm.sum(fam)``, which checks every entry."""
        memo = _SweepMemo(pcm, fam.values)
        code = memo.code(range(len(fam)))
        memo[code] = pcm.sum(fam)
        return cls(memo, fam, code, tuple(sorted(set(fam.labels))))

    def fill(self, mask: int) -> Summable | NotSummable:
        key = self.code & self.spread[mask]
        result = self.memo.get(key)
        if result is None:
            entries = tuple([entry for bit, entry in zip(self.bits, self.fam.entries)
                             if mask & bit])
            result = self.memo[key] = self.pcm.oracle(IndexedFamily(entries))
        self[mask] = result
        return result

    def partition(self, index: int) -> Partition:
        """Entry ``index`` of the family's partition table, as a witness."""
        return enumerate_partitions(self.labels)[index]


def check_wpa(pcm: Pcm, fam: IndexedFamily, sums: _SubsetSums | None = None) -> Report:
    """One-way partition law for a single family, over all of its partitions.

    ``sums`` is the family's subset-sum table, when the caller has one.
    """
    name = f"wpa[{pcm.name}]"
    sums = _SubsetSums.alone(pcm, fam) if sums is None else sums
    total = sums.total
    if not isinstance(total, Summable):
        return passing(name, detail="family not summable; vacuous")
    # block sums of a total carrier are members (Pcm.total): no check for them
    sum_blocks = pcm.oracle if pcm.total else pcm.sum
    value = total.value
    for index, blocks in enumerate(_labelled_masks(len(sums.labels))):
        block_sums = []
        for label, mask in blocks:
            result = sums[mask]
            if result is None:
                result = sums.fill(mask)
            if not isinstance(result, Summable):
                return failing(name, (fam, sums.partition(index)), detail="block not summable")
            block_sums.append((label, result.value))
        result = sum_blocks(IndexedFamily(tuple(block_sums)))
        if not isinstance(result, Summable):
            detail = "block sums not summable"
        elif result.value != value:
            detail = "block sums disagree with total"
        else:
            continue
        return failing(name, (fam, sums.partition(index)), detail=detail)
    return passing(name)


def check_subfamilies(pcm: Pcm, fam: IndexedFamily,
                      sums: _SubsetSums | None = None) -> Report:
    """Every subfamily of a summable family must be summable.

    ``sums`` is the family's subset-sum table, when the caller has one.
    """
    name = f"subfamilies[{pcm.name}]"
    sums = _SubsetSums.alone(pcm, fam) if sums is None else sums
    if not isinstance(sums.total, Summable):
        return passing(name, detail="family not summable; vacuous")
    labels = fam.labels
    for keep, mask in zip(_subset_positions(len(labels)),
                          _subset_masks(labels, tuple(sums.labels))):
        result = sums[mask]
        if result is None:
            result = sums.fill(mask)
        if not isinstance(result, Summable):
            return failing(name, (fam, tuple(labels[p] for p in keep)),
                           detail="subfamily refused")
    return passing(name)


def check_full_pa(pcm: Pcm, fam: IndexedFamily, sums: _SubsetSums | None = None) -> Report:
    """Two-way partition law for one family; FAILs only in the converse direction.

    Verdict names whether the tested data is compatible with the two-way law
    (the one-way direction is check_wpa's job).  ``sums`` is the family's
    subset-sum table, when the caller has one.
    """
    name = f"full-pa[{pcm.name}]"
    sums = _SubsetSums.alone(pcm, fam) if sums is None else sums
    if isinstance(sums.total, Summable):
        wpa = check_wpa(pcm, fam, sums)
        if not wpa.passed:
            return Report(name, "FAIL", wpa.witness, detail=wpa.detail)
        return Report(name, SIGMA_COMPATIBLE)
    for index, blocks in enumerate(_labelled_masks(len(sums.labels))):
        block_sums = []
        for label, mask in blocks:
            result = sums[mask]
            if result is None:
                result = sums.fill(mask)
            if not isinstance(result, Summable):
                break
            block_sums.append((label, result.value))
        else:
            if isinstance(pcm.sum(IndexedFamily(tuple(block_sums))), Summable):
                # blocks and block sums are admitted but the whole family
                # is not: the two-way law fails here
                return Report(name, WPA_ONLY, witness=(fam, sums.partition(index)))
    return Report(name, SIGMA_COMPATIBLE)


def classify_full_pa(pcm: Pcm, max_size: int = 4, wpa_passed: int = 0,
                     memo: _SweepMemo | None = None) -> Report:
    """Aggregate check_full_pa over the family grid.

    The first ``wpa_passed`` families of the grid passed check_wpa, so those
    that are summable are skipped.  ``memo`` is the suite's memo over
    ``pcm.grid``, when the caller has one.
    """
    name = f"full-pa[{pcm.name}]"
    memo = _SweepMemo(pcm, pcm.grid) if memo is None else memo
    for index, (fam, code) in enumerate(memo.families(max_size)):
        if index < wpa_passed and isinstance(memo.total(fam, code), Summable):
            continue
        report = check_full_pa(pcm, fam, _SubsetSums(memo, fam, code))
        if report.verdict != SIGMA_COMPATIBLE:
            return report
    return Report(name, SIGMA_COMPATIBLE, detail="on tested families")


def check_positivity(pcm: Pcm, memo: _SweepMemo | None = None) -> Report:
    """Does a zero total force every member to be zero, on tested families?

    Families of at most 3 members are drawn from ``pcm.grid``.  ``memo`` is
    the suite's memo over ``pcm.grid``, when the caller has one.  A carrier
    that refuses the empty family has no zero, so no total is zero: POSITIVE,
    vacuously (``zero[...]`` reports the refusal).
    """
    name = f"positivity[{pcm.name}]"
    memo = _SweepMemo(pcm, pcm.grid) if memo is None else memo
    try:
        z = pcm.zero
    except NotAMonoidError:
        return Report(name, POSITIVE, detail="empty family refused; vacuous")
    for fam, code in memo.families(3):
        result = memo.total(fam, code)
        if not isinstance(result, Summable) or result.value != z:
            continue
        if any(v != z for v in fam.values):
            return Report(name, NONPOSITIVE, witness=fam)
    return Report(name, POSITIVE, detail="on tested families")


def check_reindexing(pcm: Pcm, trials: int = 200, seed: int = 0) -> Report:
    """Summability and sums must be invariant under label bijections and
    under the order of the entries.

    Each family, of at most 5 members, is drawn from the grid, checked when
    the carrier was built, so it goes straight to the oracle.  Its entries
    are relabelled along a random bijection and then put in a random order,
    drawn from an rng of their own, so the families drawn do not depend on
    the shuffles.  On a mismatch one more oracle call, on the relabelled
    family in its original order, tells which change broke the sum: the
    detail names ``relabeling`` or ``reordering``.
    """
    name = f"reindex[{pcm.name}]"
    rng = random.Random(f"{seed}:reindex:{pcm.name}")
    order_rng = random.Random(f"{seed}:reorder:{pcm.name}")
    grid = pcm.grid
    for k in range(trials):
        fam = random_family(grid, 5, rng)
        fresh = [f"n{k}.{j}" for j in range(len(fam))]
        rng.shuffle(fresh)
        # the fresh labels are distinct, so they relabel along a bijection
        entries = list(zip(fresh, fam.values))
        order_rng.shuffle(entries)
        # Summable and NotSummable compare as values: equal answers are equal
        before, after = pcm.oracle(fam), pcm.oracle(IndexedFamily(tuple(entries)))
        if before != after:
            what = "sum" if type(before) is type(after) else "summability"
            relabeled = reindex(fam, dict(zip(fam.labels, fresh)))
            change = "relabeling" if pcm.oracle(relabeled) != before else "reordering"
            return failing(name, fam, detail=f"{what} changed under {change}")
    return passing(name)


def run_pcm_suite(pcm: Pcm, family_size: int = 4, trials: int = 200,
                  seed: int = 0) -> list[Report]:
    """The whole per-instance battery, in a fixed order."""
    reports = [check_unary(pcm), check_zero_laws(pcm)]
    wpa_name = f"wpa[{pcm.name}]"
    sub_name = f"subfamilies[{pcm.name}]"
    wpa_report, sub_report = passing(wpa_name), passing(sub_name)
    # One memo serves the wpa and subfamily sweep, then the full-pa and
    # positivity sweeps, which walk a prefix of the same family order (sizes
    # up to 4 and 3): each family total and each subfamily is asked of the
    # oracle once per suite, when first reached, and the full-pa sweep also
    # gets the count of families that passed wpa.  The grid was checked when
    # the carrier was built, so every family and subfamily goes straight to
    # the oracle.  A refused total passes both checkers vacuously, so it gets
    # no table.
    wpa_passed = 0
    memo = _SweepMemo(pcm, pcm.grid)
    for fam, code in memo.families(family_size):
        if not isinstance(memo.total(fam, code), Summable):
            wpa_passed += 1
            continue
        sums = _SubsetSums(memo, fam, code)
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
    reports.append(classify_full_pa(pcm, min(4, family_size), wpa_passed, memo))
    reports.append(check_positivity(pcm, memo=memo))
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
