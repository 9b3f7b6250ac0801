"""The checkers that compose families, against the plain searches.

The plain ``strong_distributivity`` sums every family and composes every
pair afresh for each (f-family, g-family) pair, where the checker keeps each
family sum and each composite of two grid elements for reuse.  The plain
``reordering`` composes each pair three times and enumerates and sums the
g-families again for every f-family.  Each checker must agree with its plain
search report for report (line, witness, detail and, where there is one,
minimized witness) or raise the same exception at the same call, and every
oracle or composition call it makes first must come in the same order as
the plain search's.
"""

import collections

import pytest

import plain
from plain import CAUCHY_BASES, Recorder, outcome
from pcmcat.category import (
    PcmCategory,
    check_composing_sums,
    check_left_right_distributivity,
    check_monoid_sums,
    check_reordering,
    check_strong_distributivity,
    check_zero_absorption,
    from_semiring,
    resolve_base,
    shipped_categories,
)
from pcmcat.cauchy import CauchyCategory, cauchy_product
from pcmcat.errors import PcmcatError
from pcmcat.fincat import cyclic_category, two_object_five_arrow_category
from pcmcat.pcm import Pcm, Summable
from pcmcat.report import serialize

# --------------------------------------------------------------------------
# calls
# --------------------------------------------------------------------------


def _key(call):
    kind, hom, args = call
    if kind == "sum":
        return kind, hom, serialize(args)
    return kind, repr(args[0]), repr(args[1])


def shown(check, cat, **kwargs):
    """The outcome of ``check`` on ``cat`` with its calls recorded: the
    outcome, the sum and composition calls that no equal call precedes, in
    order, the number of such calls, and the last of them when it raised."""
    rec = Recorder()
    got = outcome(check, rec.category(cat), **kwargs)
    calls = [_key(call) for call in rec.log if call[0] != "member"]
    first = list(dict.fromkeys(calls))
    return got + ((calls[-1],) if got[0] == "raise" else ()), first, len(calls)


def assert_same(cat, check=check_strong_distributivity,
                search=plain.strong_distributivity, **kwargs):
    got, got_calls, got_count = shown(check, cat, **kwargs)
    want, want_calls, want_count = shown(search, cat, **kwargs)
    assert got == want
    assert got_calls == want_calls
    assert got_count <= want_count
    return got


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------

INDEXES = {
    "Z2": lambda: cyclic_category(2),
    "Z3": lambda: cyclic_category(3),
    "five-arrow": two_object_five_arrow_category,
}
SEEDS = (0, 7, 2024)


def _int_with(compose) -> PcmCategory:
    base = from_semiring("int")
    return PcmCategory("planted", base.objects, base.hom_pcm, compose, base.identity,
                       base.arrow_hom)


def _wrong_on_one_pair(g, f):
    """Integer multiplication, except that (-1) o 1 gives 0."""
    return 0 if (g, f) == (-1, 1) else g * f


def _raises_on(pair):
    """Integer multiplication that refuses to compose ``g`` after ``f``, for
    ``pair == (g, f)``."""
    def compose(g, f):
        if (g, f) == pair:
            raise PcmcatError(f"planted: cannot compose {g} after {f}")
        return g * f

    return compose


class _ArrowRaises(CauchyCategory):
    """int[Z2] whose composition raises on one pair of grid arrows."""

    def compose(self, g, f):
        if g.coeffs == (("z0", 0), ("z1", 1)) and f.coeffs == (("z0", 0), ("z1", -1)):
            raise PcmcatError("planted: cannot compose these arrows")
        return super().compose(g, f)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cat", shipped_categories() + (resolve_base("pinj-overlap:2"),
                                                         resolve_base("kbounded:2")),
                         ids=lambda cat: cat.name)
def test_matches_the_reference_on_every_shipped_category(cat, seed):
    assert_same(cat, seed=seed)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("base", CAUCHY_BASES)
def test_matches_the_reference_on_the_convolution_categories(base, index, seed):
    cc = cauchy_product(resolve_base(base), INDEXES[index]())
    assert_same(cc, max_family=3, trials=40, seed=seed)


def test_kbounded_2_fails_as_the_reference_with_its_witness():
    shown = assert_same(resolve_base("kbounded:2"))
    assert shown[1].startswith("CHECK strong-distributivity[kbounded:2] FAIL witness=")


@pytest.mark.parametrize("seed", SEEDS)
def test_a_composition_wrong_on_one_pair_fails_as_the_reference(seed):
    shown = assert_same(_int_with(_wrong_on_one_pair), seed=seed)
    assert " FAIL " in shown[1]


@pytest.mark.parametrize("pair", [(2, -1), (1, -1)], ids=["trials", "exhaustive"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_composition_that_raises_raises_at_the_same_call(seed, pair):
    """2 lies outside the grid prefix (0, 1, -1), so the random trials meet
    the pair (2, -1); the exhaustive phase meets (1, -1), with no trial run."""
    trials = 0 if pair == (1, -1) else 200
    shown = assert_same(_int_with(_raises_on(pair)), seed=seed, trials=trials)
    assert shown[:3] == ("raise", PcmcatError,
                         f"planted: cannot compose {pair[0]} after {pair[1]}")


@pytest.mark.parametrize("seed", SEEDS)
def test_an_arrow_composition_that_raises_raises_at_the_same_call(seed):
    cc = _ArrowRaises(from_semiring("int"), cyclic_category(2))
    shown = assert_same(cc, seed=seed, max_family=3, trials=40)
    assert shown[:3] == ("raise", PcmcatError, "planted: cannot compose these arrows")


def test_the_exhaustive_phase_composes_each_grid_pair_and_sums_each_family_once():
    cc = cauchy_product(from_semiring("int"), cyclic_category(2))
    obj = cc.objects[0]
    grid = cc.hom_pcm(obj, obj).grid[:3]
    families = [serialize(fam) for fam in plain.families(grid, 2)]
    rec = Recorder()
    assert check_strong_distributivity(rec.category(cc), trials=0).passed
    composed = collections.Counter((id(g), id(f)) for g, f in rec.calls("compose"))
    grid_pairs = {(id(g), id(f)) for g in grid for f in grid}
    # each of the 9 grid pairs once; then one composite of the two sums per
    # family pair, whose arrows the sums build afresh
    assert {key: composed[key] for key in grid_pairs} == dict.fromkeys(grid_pairs, 1)
    assert sum(composed.values()) == 9 + 10 * 10
    summed = collections.Counter(serialize(fam) for fam in rec.calls("sum"))
    # hom(*,*) holds both the f- and the g-families: each is summed once in
    # either role, and each of the 100 product families once; 19 of those
    # have an empty factor family and read as the empty family
    want = dict.fromkeys(families, 2)
    want["{}"] += 19
    assert {fam: summed[fam] for fam in families} == want
    assert sum(summed.values()) == 2 * 10 + 10 * 10


@pytest.mark.parametrize("index", ["Z2", "five-arrow"])
def test_the_random_trials_reuse_the_composites_of_the_exhaustive_phase(index):
    cc = cauchy_product(from_semiring("int"), INDEXES[index]())
    rec = Recorder()
    assert check_strong_distributivity(rec.category(cc), trials=60).passed
    composed = collections.Counter((id(g), id(f)) for g, f in rec.calls("compose"))
    exhaustive, grid_pairs = set(), set()
    for x, y, z in plain.object_triples(cc):
        grid_f, grid_g = cc.hom_pcm(x, y).grid, cc.hom_pcm(y, z).grid
        exhaustive |= {(id(g), id(f)) for g in grid_g[:3] for f in grid_f[:3]}
        grid_pairs |= {(id(g), id(f)) for g in grid_g for f in grid_f}
    # each pair of grid arrows is composed once over both phases; the trials
    # draw from the whole grid, so they also meet pairs past the prefix
    seen = {key: composed[key] for key in grid_pairs if key in composed}
    assert seen == dict.fromkeys(seen, 1)
    assert exhaustive < set(seen)


# --------------------------------------------------------------------------
# derived laws
# --------------------------------------------------------------------------

def _wrong_after_zero(g, f):
    """Integer multiplication, except that 2 o 0 gives 5."""
    return 5 if (g, f) == (2, 0) else g * f


def _order_dependent_sums() -> PcmCategory:
    """Integers under multiplication whose sum folds acc * 2 + value in entry order."""

    def oracle(fam):
        total = 0
        for _, value in fam.entries:
            total = total * 2 + value
        return Summable(total)

    pcm = Pcm(name="order-dependent", contains=lambda v: isinstance(v, int), oracle=oracle,
              sample_elements=(0, 1), family_grid=(0, 1))
    return PcmCategory("order-dependent", ("*",), lambda x, y: pcm, lambda g, f: g * f,
                       lambda x: 1)


DERIVED = {
    "reordering": (check_reordering, plain.reordering),
    "left-right": (check_left_right_distributivity, plain.left_right_distributivity),
    "composing-sums": (check_composing_sums, plain.composing_sums),
    "monoid-sums": (check_monoid_sums, plain.monoid_sums),
    "zero-absorption": (check_zero_absorption, plain.zero_absorption),
}
DERIVED_CATEGORIES = shipped_categories() + (
    resolve_base("pinj-overlap:2"),
    resolve_base("kbounded:2"),
    _int_with(_wrong_after_zero),
    _order_dependent_sums(),
    _int_with(_raises_on((2, -1))),
    cauchy_product(resolve_base("matrix:2"), cyclic_category(2)),
    cauchy_product(resolve_base("rel:2"), two_object_five_arrow_category()),
    _ArrowRaises(from_semiring("int"), cyclic_category(2)),
)


@pytest.mark.parametrize("cat", DERIVED_CATEGORIES, ids=lambda cat: cat.name)
@pytest.mark.parametrize("law", DERIVED)
def test_derived_laws_match_the_reference(law, cat):
    check, search = DERIVED[law]
    assert_same(cat, check=check, search=search)


def test_the_planted_instances_fail_the_derived_laws():
    assert not check_left_right_distributivity(_int_with(_wrong_after_zero)).passed
    assert check_reordering(_order_dependent_sums()).line().startswith(
        "CHECK reordering[order-dependent] FAIL")


@pytest.mark.parametrize("cat", [resolve_base("int"), resolve_base("matrix:2"),
                                 cauchy_product(resolve_base("int"), cyclic_category(3))],
                         ids=lambda cat: cat.name)
def test_reordering_composes_each_pair_once_per_family_pair(cat):
    composes = {}
    for side, check in (("new", check_reordering), ("old", plain.reordering)):
        rec = Recorder()
        assert check(rec.category(cat)).passed
        composes[side] = len(rec.calls("compose"))
    # the plain search composes each pair for the rows, the columns and the whole
    assert 0 < 3 * composes["new"] == composes["old"]
