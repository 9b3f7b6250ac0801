"""The partition-law checkers against plain reference versions.

The reference functions below enumerate every partition and sum every block
of every partition afresh, as the checkers did before each subfamily's sum
was computed once per family.  The checkers must agree with them report for
report: the same verdict, detail and witness, on shipped carriers and on
deliberately broken ones.
"""

import collections
import itertools
import random

import pytest

from pcmcat.category import shipped_pcm_instances
from pcmcat.errors import TooLargeError
from pcmcat.family import (
    EXHAUSTIVE_PARTITION_LIMIT,
    IndexedFamily,
    Partition,
    enumerate_partitions,
    families_over,
    family_of,
    subfamily,
)
from pcmcat.laws import (
    SIGMA_COMPATIBLE,
    WPA_ONLY,
    check_full_pa,
    check_positivity,
    check_reindexing,
    check_subfamilies,
    check_unary,
    check_wpa,
    check_zero_laws,
    classify_full_pa,
    run_pcm_suite,
)
from pcmcat.pcm import (
    INT_ADD,
    NOT_SUMMABLE,
    PartialFn,
    Pcm,
    Summable,
    all_partial_fns,
    make_finite_families_pcm,
    make_k_bounded_pcm,
    make_partial_fn_pcm,
)
from pcmcat.report import Report, failing, passing

# --------------------------------------------------------------------------
# reference versions
# --------------------------------------------------------------------------


def reference_enumerate_partitions(labels):
    labels = sorted(set(labels))
    n = len(labels)
    if n > EXHAUSTIVE_PARTITION_LIMIT:
        raise TooLargeError(
            f"{n} labels exceeds the exhaustive bound {EXHAUSTIVE_PARTITION_LIMIT}; "
            "use sample_partition"
        )
    if n == 0:
        return [Partition(())]
    partitions = []
    code = [0] * n

    def grow(i, max_used):
        if i == n:
            blocks = [[] for _ in range(max_used + 1)]
            for label, block_id in zip(labels, code):
                blocks[block_id].append(label)
            partitions.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        for block_id in range(max_used + 2):
            code[i] = block_id
            grow(i + 1, max(max_used, block_id))

    grow(1, 0)
    return partitions


def reference_check_wpa(pcm, fam):
    name = f"wpa[{pcm.name}]"
    total = pcm.sum(fam)
    if not isinstance(total, Summable):
        return passing(name, detail="family not summable; vacuous")
    for part in reference_enumerate_partitions(fam.labels):
        block_sums = []
        for k, block in enumerate(part.blocks):
            result = pcm.sum(subfamily(fam, block))
            if not isinstance(result, Summable):
                return failing(name, (fam, part), detail="block not summable")
            block_sums.append((f"b{k}", result.value))
        regrouped = pcm.sum(IndexedFamily(tuple(block_sums)))
        if not isinstance(regrouped, Summable):
            return failing(name, (fam, part), detail="block sums not summable")
        if regrouped.value != total.value:
            return failing(name, (fam, part), detail="block sums disagree with total")
    return passing(name)


def reference_check_subfamilies(pcm, fam):
    name = f"subfamilies[{pcm.name}]"
    if not isinstance(pcm.sum(fam), Summable):
        return passing(name, detail="family not summable; vacuous")
    labels = fam.labels
    for size in range(len(labels) + 1):
        for keep in itertools.combinations(labels, size):
            if not isinstance(pcm.sum(subfamily(fam, keep)), Summable):
                return failing(name, (fam, keep), detail="subfamily refused")
    return passing(name)


def reference_check_full_pa(pcm, fam):
    name = f"full-pa[{pcm.name}]"
    if isinstance(pcm.sum(fam), Summable):
        wpa = reference_check_wpa(pcm, fam)
        if not wpa.passed:
            return Report(name, "FAIL", wpa.witness, detail=wpa.detail)
        return Report(name, SIGMA_COMPATIBLE)
    for part in reference_enumerate_partitions(fam.labels):
        block_sums = []
        for k, block in enumerate(part.blocks):
            result = pcm.sum(subfamily(fam, block))
            if not isinstance(result, Summable):
                break
            block_sums.append((f"b{k}", result.value))
        else:
            regrouped = pcm.sum(IndexedFamily(tuple(block_sums)))
            if isinstance(regrouped, Summable):
                return Report(name, WPA_ONLY, witness=(fam, part))
    return Report(name, SIGMA_COMPATIBLE)


def reference_classify_full_pa(pcm, max_size=4):
    name = f"full-pa[{pcm.name}]"
    for fam in families_over(pcm.grid, max_size):
        report = reference_check_full_pa(pcm, fam)
        if report.verdict != SIGMA_COMPATIBLE:
            return report
    return Report(name, SIGMA_COMPATIBLE, detail="on tested families")


def reference_run_pcm_suite(pcm, family_size=4, trials=200, seed=0):
    reports = [check_unary(pcm), check_zero_laws(pcm)]
    wpa_report, sub_report = passing(f"wpa[{pcm.name}]"), passing(f"subfamilies[{pcm.name}]")
    for fam in families_over(pcm.grid, family_size):
        report = reference_check_wpa(pcm, fam)
        if not report.passed:
            wpa_report = report
            break
        if len(fam) <= 4:
            sub = reference_check_subfamilies(pcm, fam)
            if not sub.passed:
                sub_report = sub
                break
    reports.append(wpa_report)
    reports.append(sub_report)
    reports.append(check_reindexing(pcm, trials=trials, seed=seed))
    reports.append(reference_classify_full_pa(pcm, max_size=min(4, family_size)))
    reports.append(check_positivity(pcm))
    return reports


# --------------------------------------------------------------------------
# planted broken oracles
# --------------------------------------------------------------------------


def _mutant(base, name, oracle):
    return Pcm(name=name, contains=base.contains, oracle=oracle,
               sample_elements=base.sample_elements, family_grid=base.family_grid)


def _kbounded_off_by_one():
    """2-bounded integers whose fold starts one entry late."""
    base = make_k_bounded_pcm(INT_ADD, 2, family_grid=(0, 1, -1, 2, -2))

    def oracle(fam):
        if sum(1 for _, value in fam.entries if value != 0) > 2:
            return NOT_SUMMABLE
        return Summable(sum(value for _, value in fam.entries[1:]))

    return _mutant(base, "kbounded-off-by-one", oracle)


def _pfn_overlapping_domains():
    """Partial functions whose sum admits overlapping domains; the first entry wins."""
    base = make_partial_fn_pcm(2, family_grid=all_partial_fns(2)[:6])

    def oracle(fam):
        union = {}
        for _, f in fam.entries:
            for x, y in sorted(f.graph):
                union.setdefault(x, y)
        return Summable(PartialFn.of(union))

    return _mutant(base, "pfn-overlap-admitted", oracle)


def _order_dependent():
    """Integers folded by acc * 2 + value, so the entry order matters."""
    base = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, -1, 2))

    def oracle(fam):
        total = 0
        for _, value in fam.entries:
            total = total * 2 + value
        return Summable(total)

    return _mutant(base, "order-dependent", oracle)


def _pairs_refused():
    """Integers where every family of exactly two entries is refused."""
    base = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, 2))

    def oracle(fam):
        return NOT_SUMMABLE if len(fam) == 2 else Summable(sum(fam.values))

    return _mutant(base, "pairs-refused", oracle)


def _block_labels_refused():
    """Integers where a family with a label starting with b is refused."""
    base = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, -1))

    def oracle(fam):
        if any(label.startswith("b") for label in fam.labels):
            return NOT_SUMMABLE
        return Summable(sum(fam.values))

    return _mutant(base, "block-labels-refused", oracle)


def _empty_refused():
    """Integers where only the empty family is refused."""
    base = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, 2))

    def oracle(fam):
        return Summable(sum(fam.values)) if len(fam) else NOT_SUMMABLE

    return _mutant(base, "empty-refused", oracle)


MUTANTS = (_kbounded_off_by_one(), _pfn_overlapping_domains(), _order_dependent(),
           _pairs_refused(), _block_labels_refused())
SUITE_CARRIERS = shipped_pcm_instances() + MUTANTS
# The reference suites read pcm.zero, which raises on a carrier without a zero.
CARRIERS = SUITE_CARRIERS + (_empty_refused(),)


def random_families(pcm, rng, per_size=3, max_size=6):
    """Seeded families of sizes 0..max_size: grid values with repeats, and
    labels drawn from c0..c15, so their entry order and sorted order differ."""
    pool = [f"c{k}" for k in range(16)]
    for size in range(max_size + 1):
        for _ in range(per_size):
            labels = rng.sample(pool, size)
            yield IndexedFamily(tuple((label, rng.choice(pcm.grid)) for label in labels))


def _outcome(report):
    return report.line(), report.witness, report.verdict, report.detail


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(EXHAUSTIVE_PARTITION_LIMIT + 1))
def test_enumerate_partitions_equals_reference(n):
    labels = [f"c{k}" for k in range(n)]
    random.Random(n).shuffle(labels)
    assert enumerate_partitions(labels) == reference_enumerate_partitions(labels)


def test_enumerate_partitions_refuses_beyond_the_limit_like_the_reference():
    labels = [f"c{k}" for k in range(EXHAUSTIVE_PARTITION_LIMIT + 1)]
    with pytest.raises(TooLargeError) as new:
        enumerate_partitions(labels)
    with pytest.raises(TooLargeError) as old:
        reference_enumerate_partitions(labels)
    assert str(new.value) == str(old.value)


def test_checkers_match_reference_on_random_families():
    seen = collections.Counter()
    for index, pcm in enumerate(CARRIERS):
        rng = random.Random(f"reference:{index}")
        for fam in random_families(pcm, rng):
            for new, old in ((check_wpa, reference_check_wpa),
                             (check_subfamilies, reference_check_subfamilies),
                             (check_full_pa, reference_check_full_pa)):
                report = new(pcm, fam)
                assert _outcome(report) == _outcome(old(pcm, fam)), (pcm.name, fam)
                seen[report.name.split("[")[0], report.verdict, report.detail] += 1
    # every outcome of the three checkers is exercised
    for outcome in (
        ("wpa", "PASS", ""),
        ("wpa", "PASS", "family not summable; vacuous"),
        ("wpa", "FAIL", "block not summable"),
        ("wpa", "FAIL", "block sums not summable"),
        ("wpa", "FAIL", "block sums disagree with total"),
        ("subfamilies", "PASS", ""),
        ("subfamilies", "FAIL", "subfamily refused"),
        ("full-pa", SIGMA_COMPATIBLE, ""),
        ("full-pa", WPA_ONLY, ""),
        ("full-pa", "FAIL", "block sums disagree with total"),
    ):
        assert seen[outcome] >= 3, outcome


@pytest.mark.parametrize("pcm", CARRIERS, ids=lambda pcm: pcm.name)
def test_classify_full_pa_matches_reference(pcm):
    assert _outcome(classify_full_pa(pcm, max_size=3)) == \
        _outcome(reference_classify_full_pa(pcm, max_size=3))


@pytest.mark.parametrize("pcm", SUITE_CARRIERS, ids=lambda pcm: pcm.name)
def test_run_pcm_suite_matches_reference(pcm):
    new = run_pcm_suite(pcm, family_size=3, trials=20, seed=5)
    old = reference_run_pcm_suite(pcm, family_size=3, trials=20, seed=5)
    assert [_outcome(r) for r in new] == [_outcome(r) for r in old]


def test_every_mutant_is_caught_by_the_suite():
    for pcm in MUTANTS:
        reports = run_pcm_suite(pcm, family_size=3, trials=20)
        assert any(not r.passed or r.verdict == WPA_ONLY for r in reports), pcm.name


def _counting(pcm):
    calls = [0]

    def oracle(fam):
        calls[0] += 1
        return pcm.oracle(fam)

    return _mutant(pcm, pcm.name, oracle), calls


def test_wpa_sums_each_subfamily_once():
    pcm, calls = _counting(make_finite_families_pcm(INT_ADD))
    fam = family_of([1, 2, 3, 4, 5])
    assert check_wpa(pcm, fam).passed
    # the total, 30 other nonempty subfamilies, and one regrouping per partition
    assert calls[0] == 1 + 30 + 52 <= 84
    calls[0] = 0
    assert reference_check_wpa(pcm, fam).passed
    assert calls[0] == 204
