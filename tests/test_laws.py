import dataclasses
from fractions import Fraction

import pytest

from pcmcat.errors import NotFailingError
from pcmcat.family import Partition, enumerate_partitions, family_of
from pcmcat.pcm import (
    INT_ADD,
    NOT_SUMMABLE,
    Cyclotomic,
    Pcm,
    Summable,
    make_abs_convergence_pcm,
    make_finite_families_pcm,
    make_k_bounded_pcm,
    make_partial_fn_pcm,
    make_partial_injection_pcm,
    make_relations_pcm,
)
from pcmcat.category import check_strong_distributivity, k_bounded_category
from pcmcat.laws import (
    NONPOSITIVE,
    POSITIVE,
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
    minimize,
    run_pcm_suite,
)

INT_FF = make_finite_families_pcm(INT_ADD)


def test_unary_passes_on_shipped_instance():
    assert check_unary(INT_FF).passed


def test_unary_fails_on_mutated_oracle():
    broken = Pcm(
        name="broken",
        contains=INT_FF.contains,
        oracle=lambda fam: NOT_SUMMABLE if len(fam) == 1 else INT_FF.oracle(fam),
        sample_elements=INT_FF.sample_elements,
    )
    assert not check_unary(broken).passed


def test_unary_vacuous_on_empty_sample():
    """A carrier with no sample elements, whose oracle refuses every family."""
    bare = Pcm(name="bare", contains=INT_FF.contains, oracle=lambda fam: NOT_SUMMABLE)
    assert bare.sample_elements == ()
    assert check_unary(bare).passed


def test_wpa_int_triple_all_partitions_agree():
    fam = family_of([1, 2, 3])
    assert len(enumerate_partitions(fam.labels)) == 5
    assert check_wpa(INT_FF, fam).passed


def test_wpa_complex_exactly():
    pcm = make_abs_convergence_pcm()
    fam = family_of([Cyclotomic.of(12, 1), Cyclotomic.of(12, -1), Cyclotomic.root(12, 3),
                     Cyclotomic.of(12, Fraction(1, 3), Fraction(-2, 5))])
    assert check_wpa(pcm, fam).passed


def test_wpa_vacuous_for_unsummable_family():
    pcm = make_k_bounded_pcm(INT_ADD, 1)
    report = check_wpa(pcm, family_of([1, 2]))
    assert report.passed
    assert "vacuous" in report.detail


def test_subfamilies_of_summable_families():
    pcm = make_k_bounded_pcm(INT_ADD, 2)
    assert check_subfamilies(pcm, family_of([1, 2, 0])).passed


def test_full_pa_compatible_for_partial_fns():
    pcm = make_partial_fn_pcm(2)
    assert classify_full_pa(pcm, max_size=3).verdict == SIGMA_COMPATIBLE


def test_full_pa_k1_bounded_pair_is_not_a_counterexample():
    # blocks are summable but the block-sum family {1,1} is refused, so the
    # two-way law's premise fails and nothing is witnessed
    pcm = make_k_bounded_pcm(INT_ADD, 1)
    report = check_full_pa(pcm, family_of([1, 1]))
    assert report.verdict == SIGMA_COMPATIBLE


def test_full_pa_k2_bounded_has_witness():
    pcm = make_k_bounded_pcm(INT_ADD, 2)
    report = check_full_pa(pcm, family_of([1, 1, -2]))
    assert report.verdict == WPA_ONLY
    fam, part = report.witness
    assert fam.values == (1, 1, -2)
    assert isinstance(part, Partition)


def test_full_pa_int_compatible_at_desk_scale():
    assert classify_full_pa(INT_FF, max_size=4).verdict == SIGMA_COMPATIBLE


def test_positivity_fails_on_int_with_inverse_pair():
    report = check_positivity(INT_FF)
    assert report.verdict == NONPOSITIVE
    assert set(report.witness.values) == {1, -1}


def test_positivity_holds_for_relations_and_partial_fns():
    assert check_positivity(make_relations_pcm(2, 2)).verdict == POSITIVE
    assert check_positivity(make_partial_fn_pcm(2)).verdict == POSITIVE
    assert check_positivity(make_partial_injection_pcm(2, "disjoint")).verdict == POSITIVE


def test_reindexing_invariance():
    assert check_reindexing(INT_FF, trials=100).passed
    assert check_reindexing(make_k_bounded_pcm(INT_ADD, 1), trials=100).passed


def test_zero_laws():
    assert check_zero_laws(INT_FF).passed
    assert check_zero_laws(make_relations_pcm(2, 2)).passed


def test_zero_laws_fail_where_three_zeros_are_refused():
    at_most_two = Pcm(name="at-most-two", contains=INT_FF.contains,
                      oracle=lambda fam: NOT_SUMMABLE if len(fam) > 2 else INT_FF.oracle(fam),
                      sample_elements=(0, 1))
    assert check_zero_laws(at_most_two).line() == (
        "CHECK zero[at-most-two] FAIL witness={i0=0,i1=0,i2=0}  # zeros do not sum to zero")


def test_run_pcm_suite_is_all_pass_for_int():
    for report in run_pcm_suite(INT_FF, family_size=3, trials=50):
        assert report.passed, report.line()


def _int_refusing(name, refused, grid=(0, 1, 2)):
    """Integers on ``grid``, refusing each family ``refused`` picks."""
    def oracle(fam):
        return NOT_SUMMABLE if refused(fam) else INT_FF.oracle(fam)

    return Pcm(name, INT_FF.contains, oracle, sample_elements=grid)


def test_the_suite_reports_on_a_carrier_that_refuses_the_empty_family():
    """It has no zero: zero fails, subfamilies fails on the empty subfamily,
    and positivity, which reads the zero, is vacuous."""
    pcm = _int_refusing("empty-refused", lambda fam: len(fam) == 0)
    lines = [report.line() for report in run_pcm_suite(pcm, family_size=3, trials=20)]
    assert lines == [
        "CHECK unary[empty-refused] PASS",
        "CHECK zero[empty-refused] FAIL witness={}  # empty family refused",
        "CHECK wpa[empty-refused] PASS",
        "CHECK subfamilies[empty-refused] FAIL witness=[{i0=0};[]]  # subfamily refused",
        "CHECK reindex[empty-refused] PASS",
        "CHECK full-pa[empty-refused] SIGMA_MONOID_COMPATIBLE  # on tested families",
        "CHECK positivity[empty-refused] POSITIVE  # empty family refused; vacuous",
    ]


def test_a_sum_that_depends_on_entry_order_fails_reindexing():
    """The table 2 + 2 = 0, folded in entry order: (2, 2, 1) sums to 1, while
    (1, 2, 2) is refused, since 1 + 2 is undefined.  Relabelling alone keeps
    each entry in its place, so only the shuffle of the entries shows it."""
    def fold(fam):
        total = 0
        for _, value in fam.entries:
            if total == 0 or value == 0:
                total = total or value
            elif (total, value) == (2, 2):
                total = 0
            else:
                return NOT_SUMMABLE
        return Summable(total)

    pcm = Pcm("two-plus-two", INT_FF.contains, fold, sample_elements=(0, 1, 2))
    assert fold(family_of([2, 2, 1])) == Summable(1)
    assert fold(family_of([1, 2, 2])) is NOT_SUMMABLE
    report = check_reindexing(pcm)
    assert not report.passed
    assert report.detail.endswith("changed under reordering"), report.detail


def test_a_sum_that_depends_on_labels_fails_reindexing_under_relabeling():
    """A sum that reads its labels is broken by the relabelling, whatever the order."""
    pcm = Pcm("label-count", INT_FF.contains,
              lambda fam: Summable(sum(len(label) for label in fam.labels)),
              sample_elements=(0, 1, 2))
    assert check_reindexing(pcm).detail == "sum changed under relabeling"


def test_a_refused_zero_padded_one_fails_wpa_before_subfamilies_meets_it():
    """Every non-empty subfamily is a block of some partition, and the wpa
    sweep asks it first: so subfamilies can fail only on the empty subfamily."""
    pcm = _int_refusing("padded-one-refused", lambda fam: sorted(fam.values) == [0, 1],
                        grid=(1, 0, 2))
    wpa, sub = run_pcm_suite(pcm, family_size=3, trials=20)[2:4]
    assert wpa.line() == ("CHECK wpa[padded-one-refused] FAIL "
                          "witness=[{i0=1,i1=1,i2=0};[{i0,i2}|{i1}]]  # block not summable")
    assert sub.line() == "CHECK subfamilies[padded-one-refused] PASS"


def test_minimize_shrinks_strong_distributivity_witness():
    cat = k_bounded_category(2)
    report = check_strong_distributivity(cat, max_family=3, trials=10)
    assert not report.passed
    # a size-3 witness on the same hom: each family's zero can go, its two 1s stay
    wide = (family_of([1, 0, 1]), family_of([0, 1, 1]))
    assert report.recheck(wide)
    small = minimize(dataclasses.replace(report, witness=wide))
    fam_f, fam_g = small.witness
    assert fam_f.values == (1, 1) and fam_g.values == (1, 1)
    assert small.recheck(small.witness)


def test_minimize_rejects_passing_report():
    from pcmcat.report import passing

    with pytest.raises(NotFailingError):
        minimize(passing("nothing"))


def test_minimize_rejects_a_failing_report_without_a_recheck():
    from pcmcat.report import failing

    with pytest.raises(NotFailingError, match="^report carries no re-checkable witness$"):
        minimize(failing("no-recheck", family_of([1])))


def test_minimize_keeps_already_minimal_witness():
    cat = k_bounded_category(2)
    report = check_strong_distributivity(cat, trials=10)
    small = minimize(report)
    assert tuple(f.values for f in small.witness) == ((1, 1), (1, 1))
