"""The partition-law checkers and the carrier suite against the plain searches.

The checkers must agree with ``plain`` report for report (the same verdict,
detail and witness) on shipped carriers and on deliberately broken ones.
Given one family, a checker asks the oracle the families the plain search
asks with each subfamily summed once, in the same order; the suite asks what
the plain suite asks, each family total and subfamily once per suite.
Membership is checked once: on the grid, when the carrier is built, or when
a table's total goes through ``Pcm.sum``; after that only block sums on a
partial carrier are checked.  The sweep draws its families from grid
indices (``laws._SweepMemo``), and they must be the plain enumeration's.
"""

import collections
import dataclasses
import io
import itertools
import random
from fractions import Fraction

import pytest

import plain
from plain import Recorder, outcome
from pcmcat import cli, laws
from pcmcat.category import Matrix, resolve_base, shipped_pcm_instances
from pcmcat.errors import CarrierMismatchError, TooLargeError
from pcmcat.family import EXHAUSTIVE_PARTITION_LIMIT, IndexedFamily, enumerate_partitions, family_of
from pcmcat.laws import (
    SIGMA_COMPATIBLE,
    WPA_ONLY,
    check_full_pa,
    check_reindexing,
    check_subfamilies,
    check_unary,
    check_wpa,
    classify_full_pa,
    partition_table,
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
    summable_families,
)

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


def _label_weighted():
    """Integers where the entry labelled i1 counts twice: a lawful-looking
    carrier whose sums depend on the labels as well as the values."""
    base = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, -1, 2))

    def oracle(fam):
        return Summable(sum(value * (2 if label == "i1" else 1) for label, value in fam.entries))

    return _mutant(base, "label-weighted", oracle)


MUTANTS = (_kbounded_off_by_one(), _pfn_overlapping_domains(), _order_dependent(),
           _pairs_refused(), _block_labels_refused())
SUITE_CARRIERS = shipped_pcm_instances() + MUTANTS
# The suites read pcm.zero, which raises on a carrier without a zero.
CARRIERS = SUITE_CARRIERS + (_empty_refused(),)


def random_families(pcm, rng, per_size=3, max_size=6):
    """Seeded families of sizes 0..max_size: grid values with repeats, and
    labels drawn from c0..c15, so their entry order and sorted order differ."""
    pool = [f"c{k}" for k in range(16)]
    for size in range(max_size + 1):
        for _ in range(per_size):
            labels = rng.sample(pool, size)
            yield IndexedFamily(tuple((label, rng.choice(pcm.grid)) for label in labels))


def _is_block_sums(fam):
    return all(label in laws._BLOCK_LABELS for label in fam.labels)


def _block_values(rec):
    return [value for fam in rec.calls("sum") if _is_block_sums(fam) for value in fam.values]


# --------------------------------------------------------------------------
# the checkers, one family at a time
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(EXHAUSTIVE_PARTITION_LIMIT + 1))
def test_enumerate_partitions_equals_reference(n):
    labels = [f"c{k}" for k in range(n)]
    random.Random(n).shuffle(labels)
    assert enumerate_partitions(labels) == plain.partitions(labels)


def test_enumerate_partitions_refuses_beyond_the_limit_like_the_reference():
    labels = [f"c{k}" for k in range(EXHAUSTIVE_PARTITION_LIMIT + 1)]
    got = outcome(enumerate_partitions, labels)
    assert got[:2] == ("raise", TooLargeError)
    assert got == outcome(plain.partitions, labels)


def test_checkers_match_reference_on_random_families():
    seen = collections.Counter()
    for index, pcm in enumerate(CARRIERS):
        rng = random.Random(f"reference:{index}")
        for fam in random_families(pcm, rng):
            for law, new, old in (("wpa", check_wpa, plain.wpa),
                                  ("subfamilies", check_subfamilies, plain.subfamilies),
                                  ("full-pa", check_full_pa, plain.full_pa)):
                got = outcome(new, pcm, fam)
                assert got == outcome(old, pcm, fam), (pcm.name, fam)
                seen[law, got[3], got[4]] += 1
    # every outcome of the three checkers is exercised
    for shown in (
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
        assert seen[shown] >= 3, shown


@pytest.mark.parametrize("pcm", CARRIERS, ids=lambda pcm: pcm.name)
def test_classify_full_pa_matches_reference(pcm):
    assert outcome(classify_full_pa, pcm, max_size=3) == \
        outcome(plain.classify_full_pa, pcm, max_size=3)


def test_wpa_sums_each_subfamily_once():
    counts = []
    for wpa in (check_wpa, plain.wpa):
        rec = Recorder()
        assert wpa(rec.pcm(make_finite_families_pcm(INT_ADD)), family_of([1, 2, 3, 4, 5])).passed
        counts.append(len(rec.calls("sum")))
    # the total, 30 other nonempty subfamilies, and one regrouping per partition;
    # the plain search sums every block of every partition afresh
    assert counts == [1 + 30 + 52, 204]


@pytest.mark.parametrize("pcm", CARRIERS, ids=lambda pcm: pcm.name)
def test_membership_is_checked_on_the_family_and_block_sums_only(pcm):
    """After the table's total, the sweep checks no subfamily entry: on a
    total carrier it checks nothing, on a partial one only block sums."""
    rng = random.Random(f"sweep:{pcm.name}")
    for fam in list(plain.families(pcm.grid[:5], 3)) + list(random_families(pcm, rng)):
        rec = Recorder()
        probe = rec.pcm(pcm)
        sums = laws._SubsetSums.alone(probe, fam)
        assert rec.calls("member") == list(fam.values)
        rec.log.clear()
        got = [outcome(check_wpa, probe, fam, sums), outcome(check_subfamilies, probe, fam, sums)]
        assert rec.calls("member") == ([] if pcm.total else _block_values(rec)), fam
        once = plain.Once(pcm)
        assert got == [outcome(plain.wpa, pcm, fam, once), outcome(plain.subfamilies, pcm, fam, once)]


def test_an_out_of_carrier_block_sum_still_raises_on_a_partial_carrier():
    """A partial carrier's block sums are checked: a pair summing outside the
    carrier is caught when its sum becomes an entry of the regrouped family."""
    base = make_finite_families_pcm(INT_ADD)

    def oracle(fam):
        total = sum(fam.values)
        return Summable(float(total) if len(fam) == 2 else total)

    planted = dataclasses.replace(base, name="pairs-sum-to-floats", oracle=oracle, total=False)
    fam = family_of([1, 2, 3])
    got = outcome(check_wpa, planted, fam)
    assert got == ("raise", CarrierMismatchError,
                   "pairs-sum-to-floats: entry 'b0' = 3.0 is outside the carrier")
    assert got == outcome(plain.wpa, planted, fam)


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


@pytest.mark.parametrize("pcm", LARGE_CARRIERS, ids=lambda pcm: pcm.name)
def test_the_sweep_matches_the_reference_on_families_of_seven_and_eight(pcm):
    """Per family: the wpa and subfamily sweeps on one table, then check_full_pa
    on its own; each phase checks membership of the family and, on a partial
    carrier, of the block sums only."""
    rng = random.Random(f"large:{pcm.name}")
    for fam in large_families(pcm, rng):
        new, old = Recorder(), Recorder()
        new_pcm, old_pcm = new.pcm(pcm), old.pcm(pcm)
        sums, once = laws._SubsetSums.alone(new_pcm, fam), plain.Once(old_pcm)
        got = [outcome(check_wpa, new_pcm, fam, sums),
               outcome(check_subfamilies, new_pcm, fam, sums)]
        want = [outcome(plain.wpa, old_pcm, fam, once), outcome(plain.subfamilies, old_pcm, fam, once)]
        for phase in range(2):
            assert new.calls("member") == list(fam.values) + (
                [] if pcm.total else _block_values(new)), fam
            assert new.calls("sum") == old.calls("sum"), fam
            new.log.clear(), old.log.clear()
            if phase == 0:
                got.append(outcome(check_full_pa, new_pcm, fam))
                want.append(outcome(plain.full_pa, old_pcm, fam, plain.Once(old_pcm)))
        assert got == want, fam


@pytest.mark.parametrize("n", range(EXHAUSTIVE_PARTITION_LIMIT + 1))
def test_the_per_size_tables_follow_the_partition_table_and_combinations(n):
    labels = [f"b{k}" for k in range(EXHAUSTIVE_PARTITION_LIMIT)]
    assert laws._labelled_masks(n) == tuple(
        tuple(zip(labels, masks)) for _, masks in partition_table(n))
    assert laws._subset_positions(n) == tuple(
        keep for size in range(n + 1) for keep in itertools.combinations(range(n), size))


# --------------------------------------------------------------------------
# the suite
# --------------------------------------------------------------------------


@pytest.mark.parametrize("pcm", SUITE_CARRIERS, ids=lambda pcm: pcm.name)
def test_the_suite_asks_the_oracle_what_the_reference_asked(pcm):
    """The same reports, and the same oracle log: the plain suite's, where each
    family total and subfamily is asked once and every other query (block
    sums, unary, zero and reindexing) is kept, all in first-asked order."""
    assert len({id(value) for value in pcm.grid}) == len(pcm.grid)
    runs = []
    for suite in (run_pcm_suite, plain.run_pcm_suite):
        rec = Recorder()
        probe = rec.pcm(pcm)
        probe.zero  # computed here, before the suite
        runs.append((outcome(suite, probe, family_size=3, trials=20, seed=5), rec))
    (got, new), (want, old) = runs
    assert got == want
    assert new.calls("sum") == old.calls("sum")
    assert len(new.calls("member")) <= len(old.calls("member"))


@pytest.mark.parametrize("family_size", [3, 4, 5])
@pytest.mark.parametrize("pcm", [_order_dependent(), _label_weighted()],
                         ids=lambda pcm: pcm.name)
def test_label_and_order_sensitive_oracles_get_the_plain_search_reports(pcm, family_size):
    assert outcome(run_pcm_suite, pcm, family_size=family_size, trials=20, seed=5) == \
        outcome(plain.run_pcm_suite, pcm, family_size=family_size, trials=20, seed=5)


def test_every_mutant_is_caught_by_the_suite():
    for pcm in MUTANTS:
        reports = run_pcm_suite(pcm, family_size=3, trials=20)
        assert any(not r.passed or r.verdict == WPA_ONLY for r in reports), pcm.name


def sweep_log(pcm, family_size, monkeypatch):
    """The families ``run_pcm_suite`` asks the oracle outside ``check_unary``,
    ``check_zero_laws`` and ``check_reindexing``, less the block sums.  The
    empty family is left out: it is also the block sums of the empty family's
    one partition."""
    rec = Recorder()
    probe = rec.pcm(pcm)
    probe.zero  # computed here, so that positivity asks no zero
    outside = set()
    for name in ("check_unary", "check_zero_laws", "check_reindexing"):
        def run(*args, _real=getattr(laws, name), **kwargs):
            start = len(rec.log)
            report = _real(*args, **kwargs)
            outside.update(range(start, len(rec.log)))
            return report

        monkeypatch.setattr(laws, name, run)
    run_pcm_suite(probe, family_size=family_size, trials=20, seed=5)
    return [fam for k, (kind, _, fam) in enumerate(rec.log)
            if kind == "sum" and k not in outside and len(fam) and not _is_block_sums(fam)]


def distinct_inputs(grid, family_size):
    """Each non-empty subfamily of each family of ``plain.families``, once, as
    its (label, grid position) pairs in entry order."""
    position = {id(value): k for k, value in enumerate(grid)}
    inputs = set()
    for fam in plain.families(grid, family_size):
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


EQUAL_BUT_DISTINCT = (
    _equal_but_distinct("rational", lambda: Fraction(1, 2)),
    _equal_but_distinct("matrix:2", lambda: Matrix.of([[Fraction(1), Fraction(1, 2)],
                                                       [Fraction(0), Fraction(1)]])),
)


@pytest.mark.parametrize("pcm", EQUAL_BUT_DISTINCT, ids=["fractions", "matrices"])
def test_equal_but_distinct_grid_elements_are_each_asked(pcm, monkeypatch):
    zero, one, other = pcm.grid
    assert one == other and one is not other
    asked = sweep_log(pcm, 3, monkeypatch)
    assert _positions(pcm.grid, asked) == sorted(distinct_inputs(pcm.grid, 3))
    singles = {id(fam.value("i0")) for fam in asked if fam.labels == ("i0",)}
    assert singles == {id(zero), id(one), id(other)}


# --------------------------------------------------------------------------
# the sweep's families, built from grid indices
# --------------------------------------------------------------------------

HALF = Fraction(1, 2)


def _repeated_objects():
    """Grids that hold one object at two indices: small ints are one object,
    and ``HALF`` is one object beside an equal copy built apart."""
    ints = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, 0))
    fractions = dataclasses.replace(_one_hom("rational"),
                                    family_grid=(Fraction(0), HALF, Fraction(1, 2), HALF))
    return ints, fractions


@pytest.mark.parametrize("max_size", range(6))
@pytest.mark.parametrize("pcm", shipped_pcm_instances() + EQUAL_BUT_DISTINCT + _repeated_objects(),
                         ids=lambda pcm: f"{pcm.name}:{len(pcm.grid)}")
def test_the_memo_yields_the_families_of_families_over_with_identity_codes(pcm, max_size):
    """Each family is the plain enumeration's, the same labels on the identical
    objects; its code holds, in field j, 1 + the last grid index of the
    object at entry j, so an object the grid holds twice keys alike."""
    grid = pcm.grid
    width, last = len(grid).bit_length(), {id(value): k for k, value in enumerate(grid, 1)}
    swept = list(laws._SweepMemo(pcm, grid).families(max_size))
    reference = list(plain.families(grid, max_size))
    assert len(swept) == len(reference)
    for (fam, code), want in zip(swept, reference):
        assert fam.labels == want.labels
        assert all(a is b for a, b in zip(fam.values, want.values)), want
        assert code == sum(last[id(v)] << (j * width) for j, v in enumerate(want.values)), want


def test_a_repeated_object_keys_alike_at_both_indices():
    pcm, _ = _repeated_objects()
    memo = laws._SweepMemo(pcm, pcm.grid)
    _, (zero_first, first), (_, one), (zero_last, last) = memo.families(1)
    assert zero_first.values[0] is zero_last.values[0]
    assert first == last != one


@pytest.mark.parametrize("pcm", _repeated_objects(), ids=["ints", "fractions"])
def test_the_suite_asks_each_identical_input_once_on_a_grid_with_a_repeated_object(
        pcm, monkeypatch):
    asked = sweep_log(pcm, 3, monkeypatch)
    assert _positions(pcm.grid, asked) == sorted(distinct_inputs(pcm.grid, 3))


@pytest.mark.parametrize("n", range(EXHAUSTIVE_PARTITION_LIMIT + 1))
def test_sweep_labels_sort_in_entry_order(n):
    """So a sweep family's entry j has rank j among its sorted labels."""
    labels = [f"i{k}" for k in range(n)]
    assert sorted(labels) == labels
    assert laws._entry_bits(n) == tuple(1 << labels.index(label) for label in sorted(labels))


# --------------------------------------------------------------------------
# a carrier checks its grid once, when it is built
# --------------------------------------------------------------------------


def test_the_suite_checks_as_many_members_at_family_size_3_as_at_5():
    """Families drawn from the checked grid go straight to the oracle, so the
    membership checks do not grow with the number of families swept."""
    counts = []
    for family_size in (3, 5):
        rec = Recorder()
        run_pcm_suite(rec.pcm(make_finite_families_pcm(INT_ADD)), family_size=family_size,
                      trials=20, seed=5)
        counts.append(len(rec.calls("member")))
    assert counts[0] == counts[1]


def test_the_checkers_that_draw_from_the_grid_check_no_member_of_it():
    """On a total carrier every family these checkers ask is drawn from the
    grid, or is a family of block sums, so none of them checks a member."""
    rec = Recorder()
    probe = rec.pcm(make_finite_families_pcm(INT_ADD))
    check_reindexing(probe, trials=20, seed=5)
    list(summable_families(probe, 3))
    laws.classify_full_pa(probe, 3)
    laws.check_positivity(probe)
    assert rec.calls("sum") and rec.calls("member") == []


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
