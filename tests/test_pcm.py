import dataclasses
import enum
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmcat import pcm as pcm_module
from pcmcat.errors import (
    CarrierMismatchError,
    NotAMonoidError,
    NotCommutativeError,
)
from pcmcat.family import family_of, make_family
from pcmcat.pcm import (
    COMPLEX_SAMPLE,
    INT_ADD,
    NOT_SUMMABLE,
    RATIONAL_ADD,
    Cyclotomic,
    Monoid,
    PartialFn,
    PcmHom,
    Relation,
    Residue,
    Summable,
    Vec,
    check_hom,
    compose_homs,
    identity_hom,
    make_abs_convergence_pcm,
    make_finite_families_pcm,
    make_k_bounded_pcm,
    make_partial_fn_pcm,
    make_partial_injection_pcm,
    make_relations_pcm,
    make_unit_ball_pcm,
    mod_add,
)

INT_FF = make_finite_families_pcm(INT_ADD)


def test_int_sum_with_inverse_pair():
    assert INT_FF.sum(make_family([("a", 1), ("b", -1)])) == Summable(0)


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [0, 7, -(2**70), Level.LOW])
def test_the_int_carrier_admits_ints_and_int_subclasses(value):
    assert pcm_module._is_int(value)
    assert INT_ADD.contains(value)


@pytest.mark.parametrize("value", [True, False, 1.0, Fraction(1), "1", None])
def test_the_int_carrier_refuses_bools_floats_and_fractions(value):
    assert not pcm_module._is_int(value)
    assert not INT_ADD.contains(value)


def test_int_sum_example():
    fam = make_family([("a", 2), ("b", 3), ("c", -5)])
    assert INT_FF.sum(fam) == Summable(0)


def test_rational_sum():
    pcm = make_finite_families_pcm(RATIONAL_ADD)
    fam = make_family([("a", Fraction(1, 2)), ("b", Fraction(1, 3))])
    assert pcm.sum(fam) == Summable(Fraction(5, 6))


def test_mod4_sum():
    pcm = make_finite_families_pcm(mod_add(4))
    fam = make_family([("a", Residue(2, 4)), ("b", Residue(2, 4))])
    assert pcm.sum(fam) == Summable(Residue(0, 4))


def test_residue_arithmetic_reduces_and_stays_frozen():
    for n in (1, 2, 5, 12):
        residues = [Residue(k, n) for k in range(-n, 2 * n)]
        for x, y in itertools.product(residues, repeat=2):
            for got, want in ((x + y, Residue(x.value + y.value, n)),
                              (x * y, Residue(x.value * y.value, n))):
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
                assert 0 <= got.value < n
        assert mod_add(n).sum(residues) == Residue(sum(k for k in range(-n, 2 * n)), n)
    with pytest.raises(dataclasses.FrozenInstanceError):
        (Residue(2, 5) + Residue(4, 5)).value = 0


def test_carrier_mismatch_is_rejected():
    with pytest.raises(CarrierMismatchError):
        INT_FF.sum(make_family([("a", Fraction(1, 2))]))


def test_zero_elements():
    assert INT_FF.zero == 0
    assert make_relations_pcm(2, 2).zero == Relation(frozenset())
    assert make_partial_fn_pcm(2).zero == PartialFn.of({})


def test_k_bounded_singleton():
    pcm = make_k_bounded_pcm(INT_ADD, 1)
    assert pcm.sum(family_of([5])) == Summable(5)


def test_k_bounded_rejects_two_nonzero():
    pcm = make_k_bounded_pcm(INT_ADD, 1)
    assert pcm.sum(family_of([5, 1])) is NOT_SUMMABLE


def test_k_bounded_ignores_zero_entries():
    pcm = make_k_bounded_pcm(INT_ADD, 2)
    assert pcm.sum(family_of([1, 1, 0])) == Summable(2)


def test_partial_fn_disjoint_sum():
    pcm = make_partial_fn_pcm(2)
    fam = family_of([PartialFn.of({0: 1}), PartialFn.of({1: 0})])
    assert pcm.sum(fam) == Summable(PartialFn.of({0: 1, 1: 0}))


def test_partial_fn_overlapping_domains_refused():
    pcm = make_partial_fn_pcm(2)
    fam = family_of([PartialFn.of({0: 1}), PartialFn.of({0: 0})])
    assert pcm.sum(fam) is NOT_SUMMABLE


def test_partial_injection_overlap_agreeing():
    pcm = make_partial_injection_pcm(3, "overlap")
    fam = family_of([PartialFn.of({0: 1}), PartialFn.of({0: 1, 1: 2})])
    assert pcm.sum(fam) == Summable(PartialFn.of({0: 1, 1: 2}))


def test_partial_injection_overlap_disagreeing():
    pcm = make_partial_injection_pcm(3, "overlap")
    fam = family_of([PartialFn.of({0: 1}), PartialFn.of({0: 2})])
    assert pcm.sum(fam) is NOT_SUMMABLE


def test_partial_injection_union_must_stay_injective():
    pcm = make_partial_injection_pcm(2, "overlap")
    fam = family_of([PartialFn.of({0: 1}), PartialFn.of({1: 1})])
    assert pcm.sum(fam) is NOT_SUMMABLE


def test_relations_sum_is_union():
    pcm = make_relations_pcm(2, 2)
    fam = family_of([Relation.of([(0, 0)]), Relation.of([(0, 1), (1, 1)])])
    assert pcm.sum(fam) == Summable(Relation.of([(0, 0), (0, 1), (1, 1)]))


def test_complex_cancellation():
    pcm = make_abs_convergence_pcm()
    fam = family_of([Cyclotomic.of(12, 1), Cyclotomic.root(12, 6)])  # 1 + exp(i pi)
    assert pcm.sum(fam) == Summable(Cyclotomic.of(12, 0))


def test_complex_doubling():
    pcm = make_abs_convergence_pcm()
    i = Cyclotomic.root(12, 3)
    assert pcm.sum(family_of([i, i])) == Summable(Cyclotomic.of(12, 0, 0, 0, 2))


def test_complex_refuses_a_float_or_another_field():
    pcm = make_abs_convergence_pcm()
    for outside in (1 + 0j, Cyclotomic.of(5, 1)):
        with pytest.raises(CarrierMismatchError, match="outside the carrier"):
            pcm.sum(family_of([Cyclotomic.of(12, 1), outside]))


def test_complex_samples_print_as_the_float_samples_did():
    assert [str(x) for x in COMPLEX_SAMPLE] == [
        "0.000000000000+0.000000000000i", "1.000000000000+0.000000000000i",
        "-1.000000000000+0.000000000000i", "0.000000000000+1.000000000000i",
        "0.000000000000-1.000000000000i", "0.500000000000+0.500000000000i",
        "-0.500000000000+0.866025403784i",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 30])
def test_cyclotomic_powers_follow_the_exponents(n):
    """zeta_n**a * zeta_n**b = zeta_n**(a+b), zeta_n**n = 1, and the n roots
    sum to 0 (to 1 for n = 1): each exactly, on canonical coordinates."""
    roots = [Cyclotomic.root(n, k) for k in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        assert roots[a] * roots[b] == roots[(a + b) % n]
    assert Cyclotomic.root(n, n) == Cyclotomic.of(n, 1)
    assert sum(roots[1:], roots[0]) == Cyclotomic.of(n, int(n == 1))
    assert len(set(roots)) == n
    for k, r in enumerate(roots):
        angle = 2 * math.pi * k / n
        assert abs(complex(r) - complex(math.cos(angle), math.sin(angle))) < 1e-12


def test_cyclotomic_values_are_canonical():
    """Equal values built different ways have equal fields, so equal hashes."""
    half = Fraction(1, 2)
    built = [
        Cyclotomic.of(12, half, 0, 0, half),
        Cyclotomic([1, 0, 0, 1], 2, 12),
        Cyclotomic([-3, 0, 0, -3], -6, 12),
        Cyclotomic([1] + [0] * 14 + [1], 2, 12),  # zeta**15 = zeta**3
        Cyclotomic([1, 1, 0, 0, 0, 1], 2, 12),  # zeta + zeta**5 = i, reduced modulo Phi_12
        Cyclotomic([1, -1] + [0] * 11 + [1], 2, 12) + Cyclotomic.of(12, 0, 0, 0, half),
    ]
    assert all(value == built[0] and hash(value) == hash(built[0]) for value in built)
    assert built[0].num == (1, 0, 0, 1) and built[0].den == 2
    assert Cyclotomic([0, 0, 0, 0], 7, 12) == Cyclotomic.of(12, 0)
    assert Cyclotomic.of(12, 0).den == 1
    assert Cyclotomic.of(12, half) != Cyclotomic.of(12, half + Fraction(1, 10**12))
    with pytest.raises(ValueError):
        Cyclotomic([1], 0, 12)


def test_mixing_cyclotomic_fields_raises():
    with pytest.raises(CarrierMismatchError, match="mixed cyclotomic fields"):
        Cyclotomic.of(12, 1) + Cyclotomic.of(4, 1)
    with pytest.raises(CarrierMismatchError, match="mixed cyclotomic fields"):
        Cyclotomic.of(12, 1) * Cyclotomic.of(6, 1)
    with pytest.raises(CarrierMismatchError, match="mixed cyclotomic fields"):
        Cyclotomic.of(12, 1) + 1


def test_unit_ball_l1_boundary():
    pcm = make_unit_ball_pcm(1, "l1")
    fam = family_of([Vec.of(Fraction(1, 2)), Vec.of(Fraction(1, 2))])
    assert pcm.sum(fam) == Summable(Vec.of(1))


def test_unit_ball_l1_overweight():
    pcm = make_unit_ball_pcm(1, "l1")
    fam = family_of([Vec.of(Fraction(1, 2)), Vec.of(Fraction(2, 3))])
    assert pcm.sum(fam) is NOT_SUMMABLE


def test_unit_ball_linf_singleton():
    pcm = make_unit_ball_pcm(2, "linf")
    v = Vec.of(Fraction(1, 2), Fraction(-1, 2))
    assert pcm.sum(family_of([v])) == Summable(v)


def test_unit_ball_l2_exact_boundary():
    pcm = make_unit_ball_pcm(2, "l2")
    # two vectors of l2 norm exactly 1/2
    v = Vec.of(Fraction(3, 10), Fraction(4, 10))
    assert isinstance(pcm.sum(family_of([v, v])), Summable)
    assert pcm.sum(family_of([v, v, v])) is NOT_SUMMABLE


def test_unit_ball_l2_irrational_norms():
    pcm = make_unit_ball_pcm(2, "l2")
    # each norm is sqrt(1/2), and their sum sqrt(2) exceeds 1
    v = Vec.of(Fraction(1, 2), Fraction(1, 2))
    assert isinstance(pcm.sum(family_of([v])), Summable)
    assert pcm.sum(family_of([v, v])) is NOT_SUMMABLE


@pytest.mark.parametrize(
    "radicands,bound,expected",
    [
        ([1, 1], 2, 0),
        ([2, 2], 2, 1),
        ([2], 2, -1),
        ([], 1, -1),
        ([8], 3, -1),
        ([50], 7, 1),
    ],
)
def test_sqrt_sum_sign(radicands, bound, expected):
    assert pcm_module._sqrt_sum_sign(radicands, bound) == expected


def test_check_hom_identity_passes():
    assert check_hom(identity_hom(INT_FF)).passed


def test_check_hom_doubling_passes():
    doubling = PcmHom(INT_FF, INT_FF, lambda x: 2 * x)
    assert check_hom(doubling).passed


def test_check_hom_from_bounded_into_mod2():
    mod2 = make_finite_families_pcm(mod_add(2))
    h = PcmHom(make_k_bounded_pcm(INT_ADD, 1), mod2, lambda x: Residue(x, 2))
    assert check_hom(h).passed


def test_check_hom_composition_of_passing_homs_passes():
    mod2 = make_finite_families_pcm(mod_add(2))
    doubling = PcmHom(INT_FF, INT_FF, lambda x: 2 * x)
    reduce = PcmHom(INT_FF, mod2, lambda x: Residue(x, 2))
    assert check_hom(doubling).passed and check_hom(reduce).passed
    assert check_hom(compose_homs(reduce, doubling)).passed


def test_check_hom_detects_broken_map():
    broken = PcmHom(INT_FF, INT_FF, lambda x: x * x)
    report = check_hom(broken)
    assert not report.passed
    assert report.witness is not None


def test_unary_sum_over_all_shipped_samples():
    for pcm in (
        INT_FF,
        make_finite_families_pcm(RATIONAL_ADD),
        make_k_bounded_pcm(INT_ADD, 1),
        make_partial_fn_pcm(2),
        make_partial_injection_pcm(2, "overlap"),
        make_relations_pcm(2, 2),
        make_abs_convergence_pcm(),
        make_unit_ball_pcm(1, "l1"),
    ):
        for x in pcm.sample_elements:
            result = pcm.sum(family_of([x]))
            assert isinstance(result, Summable)
            assert result.value == x


@given(st.lists(st.integers(-20, 20), max_size=8))
@settings(max_examples=60, deadline=None)
def test_int_oracle_matches_builtin_sum(values):
    assert INT_FF.sum(family_of(values)) == Summable(sum(values))


@given(st.lists(st.integers(-3, 3), max_size=6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_k_bounded_summability_rule(values, k):
    pcm = make_k_bounded_pcm(INT_ADD, k)
    result = pcm.sum(family_of(values))
    nonzero = sum(1 for v in values if v != 0)
    if nonzero <= k:
        assert result == Summable(sum(values))
    else:
        assert result is NOT_SUMMABLE


# --------------------------------------------------------------------------
# monoid validation, once per Monoid object
# --------------------------------------------------------------------------

BUILDERS = (make_finite_families_pcm, lambda monoid: make_k_bounded_pcm(monoid, 2))

CONCATENATION = Monoid(name="(str,+)", unit="", op=lambda a, b: a + b,
                       contains=lambda x: isinstance(x, str), sample=("", "a", "b"))
DISTANCE = Monoid(name="(N,|a-b|)", unit=0, op=lambda a, b: abs(a - b),
                  contains=lambda x: isinstance(x, int), sample=(0, 1, 2, 3))


@pytest.mark.parametrize("build", BUILDERS)
def test_a_non_commutative_monoid_is_refused_on_every_build(build):
    for _ in range(2):
        with pytest.raises(NotCommutativeError, match="op"):
            build(CONCATENATION)


@pytest.mark.parametrize("build", BUILDERS)
def test_a_non_associative_monoid_is_refused_on_every_build(build):
    for _ in range(2):
        with pytest.raises(NotAMonoidError, match="associativity fails") as error:
            build(DISTANCE)
        assert not isinstance(error.value, NotCommutativeError)


def test_a_monoid_runs_its_trials_on_its_first_build_only():
    trials = []

    def op(a, b):
        trials.append((a, b))
        return a + b

    counted = Monoid(name="counted", unit=0, op=op, contains=lambda x: isinstance(x, int),
                     sample=(0, 1, 2))
    make_finite_families_pcm(counted)
    assert len(trials) >= 1000
    trials.clear()
    make_finite_families_pcm(counted)
    make_k_bounded_pcm(counted, 1)
    assert trials == []


def test_the_second_build_of_rational_add_runs_no_trials(monkeypatch):
    make_finite_families_pcm(RATIONAL_ADD)
    calls = []
    monkeypatch.setattr(pcm_module, "validate_monoid", lambda *args, **kw: calls.append(args))
    make_finite_families_pcm(RATIONAL_ADD)
    make_k_bounded_pcm(RATIONAL_ADD, 1)
    assert calls == []


# pairwise coprime denominators, so the common denominator is their product
COPRIME = (1, 2, 3, 5, 7, 11, 13, 1_000_003, 999_983)


def _random_member(monoid, rng):
    if monoid is INT_ADD:
        return rng.randint(-50, 50)
    if monoid is RATIONAL_ADD:
        return Fraction(rng.randint(-50, 50), rng.choice(COPRIME))
    return Residue(rng.randint(0, 100), monoid.unit.modulus)


@pytest.mark.parametrize("monoid", [INT_ADD, RATIONAL_ADD, mod_add(2), mod_add(5), mod_add(7)],
                         ids=lambda m: m.name)
def test_each_fold_matches_the_pairwise_fold(monoid):
    rng = random.Random(f"fold:{monoid.name}")
    pcm = make_finite_families_pcm(monoid)
    bounded = make_k_bounded_pcm(monoid, 8)
    for size in range(9):
        for _ in range(40):
            values = [_random_member(monoid, rng) for _ in range(size)]
            want = functools.reduce(monoid.op, values, monoid.unit)
            for got in (monoid.fold(values), pcm.oracle(family_of(values)).value,
                        bounded.oracle(family_of(values)).value):
                assert (got, type(got), repr(got)) == (want, type(want), repr(want))


@pytest.mark.parametrize("fold, message", [
    (lambda values: sum(values) + 1, "fold of no values is not the unit"),
    (lambda values: sum(values[:2]), "fold disagrees with op"),
], ids=["empty", "triple"])
def test_a_fold_that_disagrees_with_op_is_refused(fold, message):
    wrong = Monoid(name="(Z,+) wrong fold", unit=0, op=lambda a, b: a + b,
                   contains=lambda x: isinstance(x, int), sample=(0, 1, -1), fold=fold)
    for build in BUILDERS:
        with pytest.raises(NotAMonoidError, match=message):
            build(wrong)


def test_mod_add_is_one_monoid_per_modulus():
    assert mod_add(4) is mod_add(4)
    assert mod_add(4) is not mod_add(5)
