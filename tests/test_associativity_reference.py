"""The associativity checker against the plain triple loop.

Both evaluate the triples in list order.  ``plain.associativity`` composes
``h.g`` and ``g.f`` afresh for every triple, where the checker keeps each
composite of two sample arrows in one memo for the call.  The checker must
agree with it case for case: the same report line, detail and witness, or
the same exception type and message.  The planted mutants make the earliest
failing or raising triple decide, which a memo hit must not change.
"""

import dataclasses

import pytest

import plain
from plain import Recorder, outcome
from pcmcat.category import PcmCategory, from_semiring, memoized_compose, resolve_base
from pcmcat.cauchy import cauchy_product, check_associativity
from pcmcat.fincat import cyclic_category, trivial_category, two_object_five_arrow_category

CHECKS = (check_associativity, plain.associativity)

# --------------------------------------------------------------------------
# cases
# --------------------------------------------------------------------------

INDEXES = {
    "Z2": cyclic_category(2),
    "Z3": cyclic_category(3),
    "five-arrow": two_object_five_arrow_category(),
}
BASES = ("int", "mod:5", "rational", "matrix:2", "rel:2", "kbounded:2")
SEEDS = (0, 7)
# Cases with at most 512 triples of sample arrows, so the exhaustive branch
# runs: each base over the one-arrow index (4 or 5 sample arrows), and the
# two bases whose hom over Z2 has 7 sample arrows (343 triples).
EXHAUSTIVE_CASES = [(base, trivial_category()) for base in BASES] + [
    ("kbounded:1", INDEXES["Z2"]),
    ("pfn:2", INDEXES["Z2"]),
]


def _mutant_int(wrong=None, raising=None, grid=None) -> PcmCategory:
    """The int base with a product one off on the pair ``wrong``, raising on
    ``raising``, and its hom's grid replaced by ``grid`` when given."""
    base = from_semiring("int")
    hom = base.hom_pcm("*", "*")
    if grid is not None:
        hom = dataclasses.replace(hom, family_grid=grid)

    def multiply(g, f):
        if (g, f) == raising:
            raise ArithmeticError(f"planted raise on {g}*{f}")
        return g * f + (1 if (g, f) == wrong else 0)

    return PcmCategory("int-mutant", base.objects, lambda x, y: hom, multiply,
                       base.identity, base.arrow_hom)


# A product of two sample coefficients goes wrong; one of two composite
# coefficients raises.  Either alone decides every case it is planted in.
MUTANTS = {
    "wrong": dict(wrong=(3, -1)),
    "raising": dict(raising=(4, 2)),
    "both": dict(wrong=(3, -1), raising=(4, 2)),
}


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index_name", INDEXES)
@pytest.mark.parametrize("base", BASES)
def test_sampled_branch_matches_reference(base, index_name, seed):
    got, want = (outcome(check, cauchy_product(resolve_base(base), INDEXES[index_name]),
                         seed=seed) for check in CHECKS)
    assert got == want


@pytest.mark.parametrize("base, index", EXHAUSTIVE_CASES,
                         ids=[f"{base}[{index.name}]" for base, index in EXHAUSTIVE_CASES])
def test_exhaustive_branch_matches_reference(base, index):
    got, want = (outcome(check, cauchy_product(resolve_base(base), index)) for check in CHECKS)
    assert got == want
    assert got[0] == "ok" and "exhaustive over" in got[4]


@pytest.mark.parametrize("seed", SEEDS)
def test_nested_convolution_matches_reference(seed):
    got, want = (outcome(check, cauchy_product(cauchy_product(resolve_base("int"), INDEXES["Z2"]),
                                               INDEXES["Z3"]), seed=seed) for check in CHECKS)
    assert got == want
    assert got[1] == "CHECK associativity[int[Z2][Z3]] PASS  # 500 sampled triples"


def test_kbounded_over_z3_raises_the_same_refusal():
    got, want = (outcome(check, cauchy_product(resolve_base("kbounded:2"), INDEXES["Z3"]))
                 for check in CHECKS)
    assert got == want
    assert got[0] == "raise" and "not summable in 2-bounded" in got[2]


def _mutant_cases():
    for index in INDEXES.values():
        for seed in range(8):
            yield index, dict(seed=seed), None
    # 5 sample arrows over the one-arrow index, 125 triples: the exhaustive
    # branch, with the planted factors 3, -1 and 2 in the grid
    yield trivial_category(), {}, (3, -1, 2)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_planted_mutants_match_reference(mutant):
    kinds = set()
    for index, kwargs, grid in _mutant_cases():
        got, want = (outcome(check, cauchy_product(_mutant_int(**MUTANTS[mutant], grid=grid), index),
                             **kwargs) for check in CHECKS)
        assert got == want
        kinds.add("raises" if got[0] == "raise" else got[3])
    # The single mutants decide every case; planted together, the earliest
    # triple decides, and it is a failure in some cases and a raise in others.
    assert kinds == {"wrong": {"FAIL"}, "raising": {"raises"},
                     "both": {"FAIL", "raises"}}[mutant]


# --------------------------------------------------------------------------
# the memo of sample-pair composites
# --------------------------------------------------------------------------


def test_matrix_over_z3_reports_the_reference_witness_with_fewer_base_products():
    """matrix:2[Z3] at seed 0, with its base compositions logged: the checker
    gives the reference's report and witness, and since it convolves each
    pair of sample arrows once, its base composes less often."""
    plain_rec, rec = Recorder(), Recorder()
    expected = plain.associativity(
        cauchy_product(plain_rec.category(resolve_base("matrix:2")), INDEXES["Z3"]))
    report = check_associativity(
        cauchy_product(rec.category(resolve_base("matrix:2")), INDEXES["Z3"]))
    assert (report.line(), report.witness) == (expected.line(), expected.witness)
    assert report.detail == "500 sampled triples"
    assert 0 < len(rec.calls("compose")) < len(plain_rec.calls("compose"))


def test_a_composition_that_raises_is_not_memoized():
    base = _mutant_int(**MUTANTS["raising"])
    rec, memo = Recorder(), {}
    compose = memoized_compose(rec.composing(base.compose), memo)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"planted raise on 4\*2"):
            compose(4, 2)
        assert memo == {}
    assert compose(2, 4) == compose(2, 4) == 8
    assert [product for _, _, product in memo.values()] == [8]
    # the raising pair was composed on each call, the stored one once
    assert rec.calls("compose") == [(4, 2), (4, 2), (2, 4)]


def test_non_commutative_order_4_monoids_match_reference():
    """int[M] for each of the 16 non-commutative monoids of order 4, up to
    isomorphism, where g.f and f.g differ: the checker composes through its
    memo and must still give the reference's verdict, though a pair of sample
    arrows recurs as h.g in one triple and as g.f in another."""
    representatives = []
    for table in plain.monoids_by_backtracking(4):
        if not any(plain.isomorphic(table, rep, 4) for rep in representatives):
            representatives.append(table)
    non_commutative = [table for table in representatives
                       if any(table[a, b] != table[b, a] for a, b in table)]
    assert len(non_commutative) == 16
    for table in non_commutative:
        got, want = (outcome(check, cauchy_product(resolve_base("int"), plain.as_index(table, 4)))
                     for check in CHECKS)
        assert got == want
        assert got[1] == "CHECK associativity[int[M4]] PASS  # 500 sampled triples"
