"""The checkers that compose families, against the plain searches they replaced.

The reference ``check_strong_distributivity`` below sums every family and
composes every pair afresh for each (f-family, g-family) pair, as the
checker did before it kept each family sum and each composite of two grid
elements for reuse.  The reference ``check_reordering`` composes each pair
three times and enumerates and sums the g-families again for every
f-family, and the reference ``check_left_right_distributivity`` sums each
family twice.  Each checker must agree with its reference report for report
(line, witness, detail and, where there is one, minimized witness) or raise
the same exception, and every oracle or composition call it makes first
must come in the same order as the reference's.
"""

import collections
import dataclasses
import random

import pytest

from pcmcat.category import (
    PcmCategory,
    check_left_right_distributivity,
    check_reordering,
    check_strong_distributivity,
    from_semiring,
    resolve_base,
    shipped_categories,
)
from pcmcat.cauchy import CauchyCategory, cauchy_product
from pcmcat.errors import PcmcatError
from pcmcat.family import IndexedFamily, families_over, family_of, make_family
from pcmcat.fincat import cyclic_category, two_object_five_arrow_category
from pcmcat.laws import minimize
from pcmcat.pcm import Pcm, Summable
from pcmcat.report import failing, passing, serialize
from test_acceptance import CAUCHY_BASES

# --------------------------------------------------------------------------
# reference version
# --------------------------------------------------------------------------


def _object_triples(cat):
    return [(x, y, z) for x in cat.objects for y in cat.objects for z in cat.objects]


def _random_family(grid, max_size, rng, prefix):
    size = rng.randint(0, max_size)
    return family_of([rng.choice(grid) for _ in range(size)], prefix=prefix)


def _product_family(cat, fam_g, fam_f):
    entries = []
    for j, g in fam_g.entries:
        for i, f in fam_f.entries:
            entries.append((f"{j}.{i}", cat.compose(g, f)))
    return IndexedFamily(tuple(entries))


def reference_check_strong_distributivity(cat, max_family=4, trials=200, seed=0):
    name = f"strong-distributivity[{cat.name}]"

    def violation(x, y, z, fam_f, fam_g):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        rf, rg = pf.sum(fam_f), pg.sum(fam_g)
        if not (isinstance(rf, Summable) and isinstance(rg, Summable)):
            return False
        prod = _product_family(cat, fam_g, fam_f)
        rp = pp.sum(prod)
        if not isinstance(rp, Summable):
            return True
        return rp.value != cat.compose(rg.value, rf.value)

    for x, y, z in _object_triples(cat):
        grid_f = cat.hom_pcm(x, y).grid[:3]
        grid_g = cat.hom_pcm(y, z).grid[:3]
        for fam_f in families_over(grid_f, 2):
            for fam_g in families_over(grid_g, 2):
                if violation(x, y, z, fam_f, fam_g):
                    def recheck(witness, _ctx=(x, y, z)):
                        wf, wg = witness
                        return violation(*_ctx, wf, wg)

                    return failing(name, (fam_f, fam_g),
                                   detail=f"hom ({x},{y},{z})", recheck=recheck)
    rng = random.Random(f"{seed}:strong-dist:{cat.name}")
    triples = _object_triples(cat)
    for _ in range(trials):
        x, y, z = rng.choice(triples)
        fam_f = _random_family(cat.hom_pcm(x, y).grid, max_family, rng, prefix="f")
        fam_g = _random_family(cat.hom_pcm(y, z).grid, max_family, rng, prefix="g")
        if violation(x, y, z, fam_f, fam_g):
            def recheck(witness, _ctx=(x, y, z)):
                wf, wg = witness
                return violation(*_ctx, wf, wg)

            return failing(name, (fam_f, fam_g), detail=f"hom ({x},{y},{z})",
                           recheck=recheck)
    return passing(name)


def _summable_families(pcm, max_size, limit):
    found = 0
    for fam in families_over(pcm.grid, max_size):
        if isinstance(pcm.sum(fam), Summable):
            yield fam
            found += 1
            if found >= limit:
                return


def reference_check_left_right_distributivity(cat, max_size=3):
    name = f"left-right-distributivity[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pf, pg = cat.hom_pcm(x, y), cat.hom_pcm(y, z)
        for fam in _summable_families(pf, max_size, limit=12):
            total = pf.sum(fam).value
            for h in pg.grid[:4]:
                mapped = make_family([(lbl, cat.compose(h, v)) for lbl, v in fam.entries])
                result = cat.hom_pcm(x, z).sum(mapped)
                if not isinstance(result, Summable):
                    return failing(name, fam, detail=f"left family not summable, h={h}")
                if result.value != cat.compose(h, total):
                    return failing(name, fam, detail=f"left distributivity fails, h={h}")
        for fam in _summable_families(pg, max_size, limit=12):
            total = pg.sum(fam).value
            for h in pf.grid[:4]:
                mapped = make_family([(lbl, cat.compose(v, h)) for lbl, v in fam.entries])
                result = cat.hom_pcm(x, z).sum(mapped)
                if not isinstance(result, Summable):
                    return failing(name, fam, detail=f"right family not summable, h={h}")
                if result.value != cat.compose(total, h):
                    return failing(name, fam, detail=f"right distributivity fails, h={h}")
    return passing(name)


def reference_check_reordering(cat, max_size=3):
    name = f"reordering[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        for fam_f in _summable_families(pf, max_size, limit=6):
            for fam_g in _summable_families(pg, max_size, limit=6):
                rows = []
                for i, f in fam_f.entries:
                    row = make_family([(j, cat.compose(g, f)) for j, g in fam_g.entries])
                    result = pp.sum(row)
                    if not isinstance(result, Summable):
                        return failing(name, (fam_f, fam_g), detail="row not summable")
                    rows.append((i, result.value))
                cols = []
                for j, g in fam_g.entries:
                    col = make_family([(i, cat.compose(g, f)) for i, f in fam_f.entries])
                    result = pp.sum(col)
                    if not isinstance(result, Summable):
                        return failing(name, (fam_f, fam_g), detail="column not summable")
                    cols.append((j, result.value))
                by_rows = pp.sum(IndexedFamily(tuple(rows)))
                by_cols = pp.sum(IndexedFamily(tuple(cols)))
                whole = pp.sum(_product_family(cat, fam_g, fam_f))
                if not (
                    isinstance(by_rows, Summable)
                    and isinstance(by_cols, Summable)
                    and isinstance(whole, Summable)
                    and by_rows.value == whole.value
                    and by_cols.value == whole.value
                ):
                    return failing(name, (fam_f, fam_g), detail="iterated sums disagree")
    return passing(name)


# --------------------------------------------------------------------------
# call recording
# --------------------------------------------------------------------------


class Recorded:
    """``cat`` with each composition and each hom oracle call logged in order."""

    def __init__(self, cat):
        self.cat, self.name, self.objects = cat, cat.name, cat.objects
        self.log = []
        self._homs = {}

    def hom_pcm(self, x, y):
        if (x, y) not in self._homs:
            pcm = self.cat.hom_pcm(x, y)

            def oracle(fam):
                self.log.append(("sum", (x, y), fam))
                return pcm.oracle(fam)

            self._homs[x, y] = dataclasses.replace(pcm, oracle=oracle)
        return self._homs[x, y]

    def compose(self, g, f):
        self.log.append(("compose", g, f))
        return self.cat.compose(g, f)


def _key(call):
    kind, first, second = call
    if kind == "sum":
        return kind, first, serialize(second)
    return kind, repr(first), repr(second)


def first_calls(log) -> list:
    """The calls of ``log`` that no equal call precedes, in order."""
    seen, out = set(), []
    for call in log:
        key = _key(call)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def outcome(check, cat, **kwargs):
    """What a check run on a recorded ``cat`` shows, and its first calls."""
    recorded = Recorded(cat)
    try:
        report = check(recorded, **kwargs)
    except PcmcatError as exc:
        shown = (type(exc).__name__, str(exc), _key(recorded.log[-1]))
    else:
        shown = (report.line(), serialize(report.witness), report.detail)
        if report.recheck is not None:
            shown += (minimize(report).line(),)
    return shown, first_calls(recorded.log), len(recorded.log)


def assert_same(cat, check=check_strong_distributivity,
                reference=reference_check_strong_distributivity, **kwargs):
    got, got_calls, got_count = outcome(check, cat, **kwargs)
    want, want_calls, want_count = outcome(reference, cat, **kwargs)
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
    assert shown[0].startswith("CHECK strong-distributivity[kbounded:2] FAIL witness=")


@pytest.mark.parametrize("seed", SEEDS)
def test_a_composition_wrong_on_one_pair_fails_as_the_reference(seed):
    shown = assert_same(_int_with(_wrong_on_one_pair), seed=seed)
    assert " FAIL " in shown[0]


@pytest.mark.parametrize("pair", [(2, -1), (1, -1)], ids=["trials", "exhaustive"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_composition_that_raises_raises_at_the_same_call(seed, pair):
    """2 lies outside the grid prefix (0, 1, -1), so the random trials meet
    the pair (2, -1); the exhaustive phase meets (1, -1), with no trial run."""
    trials = 0 if pair == (1, -1) else 200
    shown = assert_same(_int_with(_raises_on(pair)), seed=seed, trials=trials)
    assert shown[:2] == ("PcmcatError", f"planted: cannot compose {pair[0]} after {pair[1]}")


@pytest.mark.parametrize("seed", SEEDS)
def test_an_arrow_composition_that_raises_raises_at_the_same_call(seed):
    cc = _ArrowRaises(from_semiring("int"), cyclic_category(2))
    shown = assert_same(cc, seed=seed, max_family=3, trials=40)
    assert shown[:2] == ("PcmcatError", "planted: cannot compose these arrows")


def test_the_exhaustive_phase_composes_each_grid_pair_and_sums_each_family_once():
    cc = cauchy_product(from_semiring("int"), cyclic_category(2))
    obj = cc.objects[0]
    grid = cc.hom_pcm(obj, obj).grid[:3]
    families = [serialize(fam) for fam in families_over(grid, 2)]
    recorded = Recorded(cc)
    assert check_strong_distributivity(recorded, trials=0).passed
    composed = collections.Counter(
        (id(g), id(f)) for kind, g, f in recorded.log if kind == "compose"
    )
    grid_pairs = {(id(g), id(f)) for g in grid for f in grid}
    # each of the 9 grid pairs once; then one composite of the two sums per
    # family pair, whose arrows the sums build afresh
    assert {key: composed[key] for key in grid_pairs} == dict.fromkeys(grid_pairs, 1)
    assert sum(composed.values()) == 9 + 10 * 10
    summed = collections.Counter(
        serialize(fam) for kind, _, fam in recorded.log if kind == "sum"
    )
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
    recorded = Recorded(cc)
    assert check_strong_distributivity(recorded, trials=60).passed
    composed = collections.Counter(
        (id(g), id(f)) for kind, g, f in recorded.log if kind == "compose"
    )
    exhaustive, grid_pairs = set(), set()
    for x, y, z in _object_triples(cc):
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
    "reordering": (check_reordering, reference_check_reordering),
    "left-right": (check_left_right_distributivity,
                   reference_check_left_right_distributivity),
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
    check, reference = DERIVED[law]
    assert_same(cat, check=check, reference=reference)


def test_the_planted_instances_fail_the_derived_laws():
    assert not check_left_right_distributivity(_int_with(_wrong_after_zero)).passed
    assert check_reordering(_order_dependent_sums()).line().startswith(
        "CHECK reordering[order-dependent] FAIL")


@pytest.mark.parametrize("cat", [resolve_base("int"), resolve_base("matrix:2"),
                                 cauchy_product(resolve_base("int"), cyclic_category(3))],
                         ids=lambda cat: cat.name)
def test_reordering_composes_each_pair_once_per_family_pair(cat):
    composes = {}
    for side, check in (("new", check_reordering), ("old", reference_check_reordering)):
        recorded = Recorded(cat)
        assert check(recorded).passed
        composes[side] = sum(1 for kind, _, _ in recorded.log if kind == "compose")
    # the reference composes each pair for the rows, the columns and the whole
    assert 0 < 3 * composes["new"] == composes["old"]
