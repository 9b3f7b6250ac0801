"""The convolution kernel against the plain searches.

The plain ``factorizations``, ``make_arrow``, ``compose`` and ``sum_arrows``
key factorizations and coefficients by index arrow name and run the full
summability check (membership and oracle) on every arrow they build, where
the kernel reads coefficients by position and leaves out the oracle call on
total carriers.  The kernel must agree with them outcome for outcome: the
same coefficients, or the same exception type and message.
"""

import collections
import copy
import itertools
import random
from fractions import Fraction

import pytest

import plain
from plain import Recorder, outcome
from pcmcat import cauchy
from pcmcat.category import Matrix, PcmCategory, resolve_base
from pcmcat.cauchy import CauchyArrow, cauchy_product
from pcmcat.errors import (
    CarrierMismatchError,
    NotSummableError,
    ValidationError,
)
from pcmcat.family import family_of
from pcmcat.fincat import cyclic_category, product_category, two_object_five_arrow_category
from pcmcat.pcm import (
    NOT_SUMMABLE,
    Cyclotomic,
    PartialFn,
    Relation,
    Residue,
)

# --------------------------------------------------------------------------
# instances and outcomes
# --------------------------------------------------------------------------

BASES = ("int", "mod:5", "rational", "matrix:2", "rel:2", "complex",
         "kbounded:1", "kbounded:2", "pfn:2", "pinj-overlap:2")
INDEXES = {
    "Z2": cyclic_category(2),
    "Z3": cyclic_category(3),
    "five-arrow": two_object_five_arrow_category(),
    "Z2 x five-arrow": product_category(cyclic_category(2), two_object_five_arrow_category()),
    # hom order z0, z1, z2, ... is not the sorted order z0, z1, z10, z11, z2, ...
    "Z12": cyclic_category(12),
}
COMBOS = [(base, index) for base in BASES for index in INDEXES]

# Complex values over coprime denominators, and a power of zeta_12 that is
# reduced modulo Phi_12, so a changed fold shows.
EXTRA_COMPLEX = (Cyclotomic.of(12, Fraction(1, 3), Fraction(-2, 5)), Cyclotomic.root(12, 5),
                 Cyclotomic.of(12, 0, Fraction(1, 6), 0, Fraction(1, 4)))

# A value outside each base's carrier that is close to its elements.
FOREIGN = {
    "int": True,
    "mod:5": Residue(1, 4),
    "rational": 1,
    "matrix:2": Matrix.of([[1, 0], [0, 1]]),
    "rel:2": Relation.of([(2, 0)]),
    "complex": Cyclotomic.root(4),  # i, in Q(zeta_4) rather than Q(zeta_12)
    "kbounded:1": Fraction(1, 2),
    "kbounded:2": Fraction(1, 2),
    "pfn:2": PartialFn.of({0: 2}),
    "pinj-overlap:2": PartialFn.of({0: 0, 1: 0}),
}


def random_coeffs(rng, cc, src, tgt):
    """A random coefficient map; zeros are common so partial carriers admit some."""
    (x, u), (y, v) = src, tgt
    base_pcm = cc.base.hom_pcm(x, y)
    pool = list(base_pcm.sample_elements)
    if cc.base.name == "complex":
        pool += EXTRA_COMPLEX
    return {a: (base_pcm.zero if rng.random() < 0.35 else rng.choice(pool))
            for a in cc.index.hom(u, v)}


def build(base, index):
    return cauchy_product(resolve_base(base), INDEXES[index])


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


# The shapes the benchmark's ``index-scale`` workload composes over, both factor orders.
TABLE_INDEXES = {
    **INDEXES,
    "Z64": cyclic_category(64),
    "five-arrow x Z18": product_category(two_object_five_arrow_category(), cyclic_category(18)),
    "Z18 x five-arrow": product_category(cyclic_category(18), two_object_five_arrow_category()),
}


@pytest.mark.parametrize("index", TABLE_INDEXES)
def test_factorization_table_matches_the_name_keyed_pairs(index):
    cc = cauchy_product(resolve_base("int"), TABLE_INDEXES[index])
    objects = cc.index.objects
    for u, v, w in itertools.product(objects, repeat=3):
        b_names, a_names = sorted(cc.index.hom(v, w)), sorted(cc.index.hom(u, v))
        decoded = {c: tuple((label, b_names[b], a_names[a]) for label, b, a in pairs)
                   for c, pairs in cc._factorizations(u, v, w).items()}
        want = {c: tuple((f"{b}*{a}", b, a) for b, a in pairs)
                for c, pairs in plain.factorizations(cc, u, v, w).items()}
        assert list(decoded) == list(want)
        assert decoded == want


@pytest.mark.parametrize("index", ["Z12", "Z2 x five-arrow", "five-arrow x Z18"])
def test_factorization_table_reads_its_positions_off_the_sorted_homs(index, monkeypatch):
    cc = cauchy_product(resolve_base("int"), TABLE_INDEXES[index])

    def no_sorting(*args, **kwargs):
        raise AssertionError("the kernel sorted a hom of its own")

    monkeypatch.setattr(cauchy, "sorted", no_sorting, raising=False)
    for u, v, w in itertools.product(cc.index.objects, repeat=3):
        table = cc._factorizations(u, v, w)
        assert table is cc.index.factorizations(u, v, w)
        b_hom, a_hom = cc.index.hom(v, w), cc.index.hom(u, v)
        for c, pairs in plain.factorizations(cc, u, v, w).items():
            assert [(b_hom[b], a_hom[a]) for _, b, a in table[c]] == list(pairs)
    for src, tgt in itertools.product(cc.objects, repeat=2):
        hom = cc.index.hom(src[1], tgt[1])
        assert list(hom) == sorted(hom)
        arrow = cc.make_arrow(src, tgt, {})
        assert arrow.keys is hom
        assert cc.compose(cc.identity(tgt), arrow).keys is hom
        assert cc.sum_arrows(family_of([arrow, arrow])).value.keys is hom


def compare_on_random_arrows(base, index) -> collections.Counter:
    """Check make_arrow, compose and sum_arrows against the reference; count the outcomes."""
    cc = build(base, index)
    rng = random.Random(f"cauchy-reference:{base}:{index}")
    seen = collections.Counter()
    arrows = {pair: [] for pair in itertools.product(cc.objects, repeat=2)}
    for (src, tgt), pool in arrows.items():
        for _ in range(10):
            coeffs = random_coeffs(rng, cc, src, tgt)
            got = outcome(cc.make_arrow, src, tgt, coeffs)
            assert got == outcome(plain.make_arrow, cc, src, tgt, coeffs)
            seen["make_arrow", got[0]] += 1
            if got[0] == "ok":
                pool.append(got[1])
    for src, mid, tgt in itertools.product(cc.objects, repeat=3):
        fs, gs = arrows[src, mid], arrows[mid, tgt]
        for _ in range(12 if fs and gs else 0):
            g, f = rng.choice(gs), rng.choice(fs)
            got = outcome(cc.compose, g, f)
            assert got == outcome(plain.compose, cc, g, f)
            seen["compose", got[0]] += 1
    for (src, tgt), pool in arrows.items():
        for size in (0, 1, 1, 2, 2, 3, 3, 4) if pool else ():
            fam = family_of([rng.choice(pool) for _ in range(size)], prefix="f")
            got = outcome(cc.sum_arrows, fam, src, tgt)
            assert got == outcome(plain.sum_arrows, cc, fam, src, tgt)
            seen["sum_arrows", "refused" if got == ("ok", NOT_SUMMABLE) else got[0]] += 1
    return seen


@pytest.mark.parametrize("base, index", COMBOS, ids=[f"{b}[{i}]" for b, i in COMBOS])
def test_kernel_matches_reference_on_random_arrows(base, index):
    compare_on_random_arrows(base, index)


def test_random_arrows_reach_every_outcome():
    seen = sum((compare_on_random_arrows(base, index) for base, index in COMBOS),
               collections.Counter())
    for key in (("make_arrow", "ok"), ("make_arrow", "raise"), ("compose", "ok"),
                ("compose", "raise"), ("sum_arrows", "ok"), ("sum_arrows", "refused")):
        assert seen[key] >= 10, (key, seen)


@pytest.mark.parametrize("base", BASES)
def test_out_of_carrier_coefficient_raises_as_the_reference(base):
    foreign = FOREIGN[base]
    for index in ("Z3", "Z2 x five-arrow"):
        cc = build(base, index)
        rng = random.Random(f"cauchy-foreign:{base}:{index}")
        for src, tgt in itertools.product(cc.objects, repeat=2):
            hom = sorted(cc.index.hom(src[1], tgt[1]))
            if not hom:
                continue
            bad = rng.choice(hom)
            coeffs = {bad: foreign}
            got = outcome(cc.make_arrow, src, tgt, coeffs)
            assert got[:2] == ("raise", CarrierMismatchError)
            assert got == outcome(plain.make_arrow, cc, src, tgt, coeffs)
            good = cc.hom_pcm(src, tgt).zero
            hand_built = CauchyArrow(src, tgt, tuple(
                (a, foreign if a == bad else value) for a, value in good.coeffs))
            fam = family_of([good, hand_built, good])
            got = outcome(cc.sum_arrows, fam)
            assert got[:2] == ("raise", CarrierMismatchError)
            assert got == outcome(plain.sum_arrows, cc, fam)


def test_kbounded_refusals_raise_as_the_reference():
    z2 = build("kbounded:1", "Z2")
    obj = z2.objects[0]
    refused = {"z0": 1, "z1": 1}
    got = outcome(z2.make_arrow, obj, obj, refused)
    assert got[:2] == ("raise", NotSummableError)
    assert got == outcome(plain.make_arrow, z2, obj, obj, refused)

    z3 = build("kbounded:2", "Z3")
    obj = z3.objects[0]
    refused = {"z0": 1, "z1": -1, "z2": 2}
    got = outcome(z3.make_arrow, obj, obj, refused)
    assert got[:2] == ("raise", NotSummableError)
    assert got == outcome(plain.make_arrow, z3, obj, obj, refused)

    five = build("kbounded:2", "five-arrow")
    uu = ("*", "U")
    f = five.make_arrow(uu, uu, {"id_U": 1, "e": 1})
    got = outcome(five.compose, f, f)
    assert got[:2] == ("raise", NotSummableError)
    assert "convolution coefficient at e refused" in got[2]
    assert got == outcome(plain.compose, five, f, f)

    fam = family_of([f, f])
    assert five.sum_arrows(fam) is NOT_SUMMABLE
    assert plain.sum_arrows(five, fam) is NOT_SUMMABLE


def test_a_factor_product_outside_the_int_carrier_raises_as_the_reference():
    """Composition keeps the membership check of every factor product: an
    ``int`` base whose product of 2 and 3 is the float 6.0 is caught by it."""
    int_base = resolve_base("int")

    def compose(g, f):
        return float(g * f) if (g, f) == (2, 3) else g * f

    planted = PcmCategory("int", int_base.objects, int_base.hom_pcm, compose,
                          int_base.identity)
    cc = cauchy_product(planted, INDEXES["Z3"])
    obj = cc.objects[0]
    g = cc.make_arrow(obj, obj, {"z1": 2})
    f = cc.make_arrow(obj, obj, {"z0": 1, "z2": 3})
    assert cc.compose(g, cc.identity(obj)) == g  # other products are members
    got = outcome(cc.compose, g, f)
    assert got == ("raise", CarrierMismatchError,
                   f"{cc.base.hom_pcm('*', '*').name}: entry 'z1*z2' = 6.0 is outside the carrier")
    assert got == outcome(plain.compose, cc, g, f)


@pytest.mark.parametrize("index, outside", [("Z2", ("*", "x")), ("five-arrow", ("*", "W"))])
def test_an_arrow_from_or_to_a_non_object_raises_as_the_reference(index, outside):
    """A hand-built arrow with no coefficients, from or to a pair that is no
    object of the category, composed with an identity."""
    cc = build("int", index)
    obj = cc.objects[0]
    one = cc.identity(obj)
    for g, f in ((one, CauchyArrow(outside, obj, ())), (CauchyArrow(obj, outside, ()), one)):
        got = outcome(cc.compose, g, f)
        assert got == ("raise", ValidationError, f"unknown object pair {f.src} or {g.tgt}")
        assert got == outcome(plain.compose, cc, g, f)


@pytest.mark.parametrize("index, outside", [("Z2", ("*", "x")), ("five-arrow", ("*", "W"))])
def test_a_composite_through_a_non_object_raises_as_the_reference(index, outside):
    """Two hand-built arrows with no coefficients, between an object and a
    pair that is no object of the category, composed through that pair."""
    cc = build("int", index)
    for obj in cc.objects:
        g, f = CauchyArrow(outside, obj, ()), CauchyArrow(obj, outside, ())
        for _ in range(2):  # no plan is kept for the refused triple
            got = outcome(cc.compose, g, f)
            assert got == ("raise", ValidationError, f"unknown middle object pair {outside}")
            assert got == outcome(plain.compose, cc, g, f)


@pytest.mark.parametrize("base", ["int", "kbounded:2", "complex"])
def test_unknown_index_arrow_raises_as_the_reference(base):
    cc = build(base, "Z2")
    obj = cc.objects[0]
    coeffs = {"z0": cc.base.hom_pcm("*", "*").zero, "z7": cc.base.hom_pcm("*", "*").zero}
    got = outcome(cc.make_arrow, obj, obj, coeffs)
    assert got[:2] == ("raise", ValidationError)
    assert got == outcome(plain.make_arrow, cc, obj, obj, coeffs)


def test_plain_convolution_z2_all_ones():
    table = {("z0", "z0"): "z0", ("z0", "z1"): "z1",
             ("z1", "z0"): "z1", ("z1", "z1"): "z0"}
    alpha = {"z0": 1, "z1": 1}
    out = plain.convolution(lambda a, b: a * b, lambda a, b: a + b, 0, table, alpha, alpha)
    assert out == {"z0": 2, "z1": 2}


def test_plain_convolution_unit_is_neutral():
    table = {(f"z{a}", f"z{b}"): f"z{(a+b) % 3}" for a in range(3) for b in range(3)}
    alpha = {"z0": 5, "z1": 7, "z2": -2}
    unit = {"z0": 1, "z1": 0, "z2": 0}
    out = plain.convolution(lambda a, b: a * b, lambda a, b: a + b, 0, table, alpha, unit)
    assert out == alpha


def test_plain_convolution_z3_shift():
    table = {(f"z{a}", f"z{b}"): f"z{(a+b) % 3}" for a in range(3) for b in range(3)}
    alpha = {"z0": 0, "z1": 0, "z2": 1}
    beta = {"z0": 0, "z1": 1, "z2": 0}
    out = plain.convolution(lambda a, b: a * b, lambda a, b: a + b, 0, table, alpha, beta)
    assert out == {"z0": 1, "z1": 0, "z2": 0}


# --------------------------------------------------------------------------
# the oracle order of the kernel, and arrow equality
# --------------------------------------------------------------------------


def logged_calls(rec, fn, *args):
    """The outcome of ``fn(*args)`` and the oracle calls it made."""
    rec.log.clear()
    return outcome(fn, *args), rec.calls("sum")


@pytest.mark.parametrize("index", ["Z12", "Z2 x five-arrow"])
def test_kernel_asks_the_oracle_what_the_reference_asks_in_its_order(index):
    # every hom carrier declared partial: the kernel then runs every check the
    # plain search runs, so both must ask the same families in the same order
    rec = Recorder()
    cc = cauchy_product(rec.category(resolve_base("int"), total=False), INDEXES[index])
    rng = random.Random(f"oracle-order:{index}")
    arrows = {}
    for src, tgt in itertools.product(cc.objects, repeat=2):
        cc.base.hom_pcm(src[0], tgt[0]).zero  # computed once, before any call is logged
        arrows[src, tgt] = [cc.make_arrow(src, tgt, random_coeffs(rng, cc, src, tgt))
                            for _ in range(3)]
    calls = 0
    for src, mid, tgt in itertools.product(cc.objects, repeat=3):
        for g, f in itertools.product(arrows[mid, tgt], arrows[src, mid]):
            got, asked = logged_calls(rec, cc.compose, g, f)
            assert (got, asked) == logged_calls(rec, plain.compose, cc, g, f)
            calls += len(asked)
    for (src, tgt), pool in arrows.items():
        for size in range(4):
            fam = family_of([rng.choice(pool) for _ in range(size)], prefix="f")
            got, asked = logged_calls(rec, cc.sum_arrows, fam, src, tgt)
            assert (got, asked) == logged_calls(rec, plain.sum_arrows, cc, fam, src, tgt)
            calls += len(asked)
    assert calls > 100


def loop_equal(a, b):
    """The per-coefficient comparison of two arrows that arrow ``==`` stands for."""
    if a.src != b.src or a.tgt != b.tgt:
        return False
    if tuple(k for k, _ in a.coeffs) != tuple(k for k, _ in b.coeffs):
        return False
    return all(x == y for (_, x), (_, y) in zip(a.coeffs, b.coeffs))


def twin(value):
    """An equal value built another way: a ``Matrix`` holding only its Fraction rows."""
    return Matrix.of(value.rows) if isinstance(value, Matrix) else copy.deepcopy(value)


@pytest.mark.parametrize("base", BASES)
def test_arrow_equality_agrees_with_the_per_coefficient_loop(base):
    seen = collections.Counter()
    for index in ("Z3", "Z2 x five-arrow"):
        cc = build(base, index)
        rng = random.Random(f"exact-close:{base}:{index}")
        arrows = []
        for src, tgt in itertools.product(cc.objects, repeat=2):
            made = [cc.hom_pcm(src, tgt).zero]
            for _ in range(4):
                got = outcome(cc.make_arrow, src, tgt, random_coeffs(rng, cc, src, tgt))
                if got[0] == "ok":
                    made.append(got[1])
            got = outcome(cc.compose, made[-1], cc.identity(src))
            if got[0] == "ok":
                made.append(got[1])  # kernel-built values
            for arrow in made[:]:
                made.append(CauchyArrow(src, tgt, tuple((a, twin(v)) for a, v in arrow.coeffs)))
                made.append(CauchyArrow(src, tgt, arrow.coeffs[::-1]))
                made.append(CauchyArrow(src, tgt, arrow.coeffs[1:]))
            arrows += made
        for a, b in itertools.product(arrows, repeat=2):
            got = a == b
            assert got is loop_equal(a, b), (a, b)
            seen[got, (a.src, a.tgt) == (b.src, b.tgt), a is b] += 1
    assert seen[True, True, False] > 0 and seen[False, True, False] > 0
    assert seen[False, False, False] > 0


def test_a_complex_arrow_moved_by_any_amount_is_another_arrow():
    cc = build("complex", "Z2")
    obj = cc.objects[0]
    half_i = Cyclotomic.of(12, 0, 0, 0, Fraction(1, 2))
    a = cc.make_arrow(obj, obj, {"z0": Cyclotomic.of(12, 1), "z1": half_i})
    assert a == cc.make_arrow(obj, obj, {"z0": Cyclotomic.of(12, 1), "z1": half_i})
    for off in (Fraction(1, 10**12), Fraction(1, 10**10), Fraction(1, 10**6)):
        moved_i = Cyclotomic.of(12, -off, 0, 0, Fraction(1, 2))
        for coeffs in ({"z0": Cyclotomic.of(12, 1 + off), "z1": half_i},
                       {"z0": Cyclotomic.of(12, 1), "z1": moved_i}):
            moved = cc.make_arrow(obj, obj, coeffs)
            assert a != moved and moved != a, (off, coeffs)
