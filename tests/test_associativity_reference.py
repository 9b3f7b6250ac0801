"""The grouped associativity checker against the one that walks its triples in order.

``reference_check_associativity`` below is ``check_associativity`` as it was
before the triples were grouped by their middle arrow: it evaluates each
triple in list order and composes ``h.g`` and ``g.f`` afresh for every one.
The grouped checker must agree with it case for case: the same report line,
detail and witness, or the same exception type and message.  The planted
mutants make the earliest failing or raising triple decide, which grouping
reorders.
"""

import itertools
import random

import pytest

from pcmcat.category import PcmCategory, from_semiring, resolve_base
from pcmcat.cauchy import cauchy_product, check_associativity
from pcmcat.fincat import cyclic_category, two_object_five_arrow_category
from pcmcat.report import failing, passing

# --------------------------------------------------------------------------
# the reference
# --------------------------------------------------------------------------


def reference_check_associativity(cc, exhaustive_limit=512, sampled=500, seed=0):
    name = f"associativity[{cc.name}]"
    paths = []
    total = 0
    for o1, o2, o3, o4 in itertools.product(cc.objects, repeat=4):
        fs = cc.hom_pcm(o1, o2).sample_elements
        gs = cc.hom_pcm(o2, o3).sample_elements
        hs = cc.hom_pcm(o3, o4).sample_elements
        if fs and gs and hs:
            paths.append((fs, gs, hs, cc.hom_pcm(o1, o4).close))
            total += len(fs) * len(gs) * len(hs)

    def holds(h, g, f, close):
        return close(cc.compose(cc.compose(h, g), f), cc.compose(h, cc.compose(g, f)))

    if total <= exhaustive_limit:
        for fs, gs, hs, close in paths:
            for h, g, f in itertools.product(hs, gs, fs):
                if not holds(h, g, f, close):
                    return failing(name, (h, g, f))
        return passing(name, detail=f"exhaustive over {total} triples")
    rng = random.Random(f"{seed}:assoc:{cc.name}")
    for _ in range(sampled):
        fs, gs, hs, close = rng.choice(paths)
        h, g, f = rng.choice(hs), rng.choice(gs), rng.choice(fs)
        if not holds(h, g, f, close):
            return failing(name, (h, g, f))
    return passing(name, detail=f"{sampled} sampled triples")


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
# Above every total here, so the exhaustive branch runs.  Exhaustive runs
# are kept to the Z2 index: over Z3 and five-arrow they take 5-15 s each.
EXHAUSTIVE = 10**6


def _mutant_int(wrong=None, raising=None) -> PcmCategory:
    """The int base with a product one off on the pair ``wrong``, raising on ``raising``."""
    base = from_semiring("int")

    def multiply(g, f):
        if (g, f) == raising:
            raise ArithmeticError(f"planted raise on {g}*{f}")
        return g * f + (1 if (g, f) == wrong else 0)

    return PcmCategory("int-mutant", base.objects, base.hom_pcm, multiply,
                       base.identity, base.arrow_hom)


# A product of two sample coefficients goes wrong; one of two composite
# coefficients raises.  Either alone decides every case it is planted in.
MUTANTS = {
    "wrong": dict(wrong=(3, -1)),
    "raising": dict(raising=(4, 2)),
    "both": dict(wrong=(3, -1), raising=(4, 2)),
}


def _outcome(check, cc, **kwargs):
    try:
        report = check(cc, **kwargs)
    except Exception as exc:  # the exception is part of the outcome
        return ("raises", type(exc), str(exc))
    return ("report", report.line(), report.detail, report.witness)


def _agree(make_cc, **kwargs):
    """Both checkers on fresh instances; the shared outcome."""
    expected = _outcome(reference_check_associativity, make_cc(), **kwargs)
    assert _outcome(check_associativity, make_cc(), **kwargs) == expected
    return expected


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index_name", INDEXES)
@pytest.mark.parametrize("base", BASES)
def test_sampled_branch_matches_reference(base, index_name, seed):
    _agree(lambda: cauchy_product(resolve_base(base), INDEXES[index_name]), seed=seed)


@pytest.mark.parametrize("base", BASES)
def test_exhaustive_branch_matches_reference(base):
    outcome = _agree(lambda: cauchy_product(resolve_base(base), INDEXES["Z2"]),
                     exhaustive_limit=EXHAUSTIVE)
    assert outcome[0] == "report" and "exhaustive over" in outcome[2]


@pytest.mark.parametrize("seed", SEEDS)
def test_nested_convolution_matches_reference(seed):
    def make():
        return cauchy_product(cauchy_product(resolve_base("int"), INDEXES["Z2"]),
                              INDEXES["Z3"])

    outcome = _agree(make, seed=seed)
    assert outcome[1] == "CHECK associativity[int[Z2][Z3]] PASS  # 500 sampled triples"


def test_kbounded_over_z3_raises_the_same_refusal():
    outcome = _agree(lambda: cauchy_product(resolve_base("kbounded:2"), INDEXES["Z3"]))
    assert outcome[0] == "raises" and "not summable in 2-bounded" in outcome[2]


def _mutant_cases():
    for index_name in INDEXES:
        for seed in range(8):
            yield index_name, dict(seed=seed)
    yield "Z2", dict(exhaustive_limit=EXHAUSTIVE)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_planted_mutants_match_reference(mutant):
    kinds = set()
    for index_name, kwargs in _mutant_cases():
        def make():
            return cauchy_product(_mutant_int(**MUTANTS[mutant]), INDEXES[index_name])

        outcome = _agree(make, **kwargs)
        kinds.add("raises" if outcome[0] == "raises" else outcome[1].split()[2])
    # The single mutants decide every case; planted together, the earliest
    # triple decides, and it is a failure in some cases and a raise in others.
    assert kinds == {"wrong": {"FAIL"}, "raising": {"raises"},
                     "both": {"FAIL", "raises"}}[mutant]
