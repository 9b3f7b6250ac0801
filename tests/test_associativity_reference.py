"""The grouped associativity checker against the plain triple loop.

``plain.associativity`` evaluates each triple in list order and composes
``h.g`` and ``g.f`` afresh for every one, where the checker groups the
triples by their middle arrow.  The grouped checker must agree with it case
for case: the same report line, detail and witness, or the same exception
type and message.  The planted mutants make the earliest failing or raising
triple decide, which grouping reorders.
"""

import dataclasses

import pytest

import plain
from plain import Recorder, outcome
from pcmcat.category import PcmCategory, from_semiring, resolve_base
from pcmcat.cauchy import CauchyCategory, cauchy_product, check_associativity
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
# the group memo of base products
# --------------------------------------------------------------------------


def test_each_base_product_is_composed_once_per_middle_arrow_group():
    """matrix:2[Z3] at seed 0: within one group, that is under one memo, no
    pair of factor identities is composed twice; over the whole check the
    base composes at most 40 % as often as the plain triple loop makes it."""
    plain_rec, rec = Recorder(), Recorder()
    expected = plain.associativity(
        cauchy_product(plain_rec.category(resolve_base("matrix:2")), INDEXES["Z3"]))
    cc = cauchy_product(rec.category(resolve_base("matrix:2")), INDEXES["Z3"])
    memos, spans = [], []  # every memo seen, kept alive; each compose's log span and memo

    def compose(g, f, *, products):
        if not memos or memos[-1] is not products:
            assert all(memo is not products for memo in memos)  # a group runs unbroken
            memos.append(products)
        start = len(rec.log)
        arrow = CauchyCategory.compose(cc, g, f, products=products)
        spans.append((start, len(rec.log), len(memos)))
        return arrow

    cc.compose = compose
    report = check_associativity(cc)
    assert (report.line(), report.witness) == (expected.line(), expected.witness)
    log = rec.calls("compose")
    groups = [group for start, end, group in spans
              for kind, _, _ in rec.log[start:end] if kind == "compose"]
    assert report.detail == "500 sampled triples" and len(groups) == len(log)
    # ``log`` holds every factor, so no two of them share an identity
    pairs = [(group, id(g), id(f)) for group, (g, f) in zip(groups, log)]
    assert len(set(pairs)) == len(pairs)
    assert len(memos) > 1 and len(log) <= 0.4 * len(plain_rec.calls("compose"))


def test_a_base_product_that_raises_is_not_memoized():
    cc = cauchy_product(_mutant_int(**MUTANTS["raising"]), trivial_category())
    obj = cc.objects[0]
    four, two = (cc.make_arrow(obj, obj, {"id_*": value}) for value in (4, 2))
    products = {}
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"planted raise on 4\*2"):
            cc.compose(four, two, products=products)
        assert products == {}
    assert cc.compose(two, four, products=products) == cc.make_arrow(obj, obj, {"id_*": 8})
    assert [product for _, _, product in products.values()] == [8]


def test_non_commutative_order_4_monoids_match_reference():
    """int[M] for each of the 16 non-commutative monoids of order 4, up to
    isomorphism, where g.f and f.g differ: the grouped checker composes
    through its memos and must still give the reference's verdict.  The small
    ints a product gives are shared objects, so a memo is hit across arrows
    as well as within one."""
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
