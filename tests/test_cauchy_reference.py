"""The convolution kernel against plain reference versions.

The reference functions below key factorizations and coefficients by index
arrow name and run the full summability check (membership and oracle) on
every arrow they build, as the kernel did before it read coefficients by
position and left out the oracle call on total carriers.  The kernel must
agree with them outcome for outcome: the same coefficients (for complex
scalars, the same floats bit for bit), or the same exception type and
message.
"""

import collections
import copy
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from pcmcat import cauchy
from pcmcat.category import Matrix, PcmCategory, resolve_base
from pcmcat.cauchy import CauchyArrow, _arrow_close, cauchy_product
from pcmcat.errors import (
    CarrierMismatchError,
    NotSummableError,
    PcmcatError,
    ValidationError,
)
from pcmcat.family import IndexedFamily, family_of
from pcmcat.fincat import cyclic_category, product_category, two_object_five_arrow_category
from pcmcat.pcm import NOT_SUMMABLE, PartialFn, Relation, Residue, Summable, exact_eq

# --------------------------------------------------------------------------
# reference versions
# --------------------------------------------------------------------------


def reference_factorizations(cc, u, v, w):
    """c -> all (b, a) with b in D(v,w), a in D(u,v), c = b.a."""
    table = {c: [] for c in cc.index.hom(u, w)}
    for b in cc.index.hom(v, w):
        for a in cc.index.hom(u, v):
            table[cc.index.compose(b, a)].append((b, a))
    return {c: tuple(pairs) for c, pairs in table.items()}


def reference_make_arrow(cc, src, tgt, coeffs):
    if src not in cc.objects or tgt not in cc.objects:
        raise ValidationError(f"unknown object pair {src} or {tgt}")
    (x, u), (y, v) = src, tgt
    hom = cc.index.hom(u, v)
    unknown = set(coeffs) - set(hom)
    if unknown:
        raise ValidationError(f"coefficients for arrows outside D({u},{v}): {sorted(unknown)}")
    base_pcm = cc.base.hom_pcm(x, y)
    filled = tuple((a, coeffs.get(a, base_pcm.zero)) for a in sorted(hom))
    arrow = CauchyArrow(src, tgt, filled)
    if not isinstance(base_pcm.sum(arrow.coeff_family), Summable):
        raise NotSummableError(
            f"coefficient family of {arrow} is not summable in {base_pcm.name}"
        )
    return arrow


def reference_compose(cc, g, f):
    if f.tgt != g.src:
        raise CarrierMismatchError(f"cannot compose {g.tgt}<-{g.src} after {f.tgt}<-{f.src}")
    (x, u) = f.src
    (y, v) = f.tgt
    (z, w) = g.tgt
    target_pcm = cc.base.hom_pcm(x, z)
    coeffs = {}
    for c, pairs in reference_factorizations(cc, u, v, w).items():
        entries = tuple(
            (f"{b}*{a}", cc.base.compose(g.coeff(b), f.coeff(a))) for b, a in pairs
        )
        result = target_pcm.sum(IndexedFamily(entries))
        if not isinstance(result, Summable):
            raise NotSummableError(
                f"convolution coefficient at {c} refused by {target_pcm.name}; "
                "the base instance violates its composition law"
            )
        coeffs[c] = result.value
    return reference_make_arrow(cc, f.src, g.tgt, coeffs)


def reference_sum_arrows(cc, fam, src=None, tgt=None):
    if len(fam) == 0:
        if src is None or tgt is None:
            raise ValidationError("summing an empty arrow family needs src and tgt")
    else:
        heads = {(arrow.src, arrow.tgt) for _, arrow in fam.entries}
        if len(heads) > 1:
            raise CarrierMismatchError("arrows in a family must share src and tgt")
        src, tgt = next(iter(heads))
    (x, u), (y, v) = src, tgt
    base_pcm = cc.base.hom_pcm(x, y)
    hom = cc.index.hom(u, v)
    flattened = tuple(
        (f"{i}|{a}", arrow.coeff(a)) for i, arrow in fam.entries for a in hom
    )
    if not isinstance(base_pcm.sum(IndexedFamily(flattened)), Summable):
        return NOT_SUMMABLE
    coeffs = {}
    for a in hom:
        column = IndexedFamily(tuple((i, arrow.coeff(a)) for i, arrow in fam.entries))
        result = base_pcm.sum(column)
        if not isinstance(result, Summable):
            raise NotSummableError(
                f"pointwise sum at {a} refused although the flattened family "
                "was admitted; the base instance violates the partition law"
            )
        coeffs[a] = result.value
    return Summable(reference_make_arrow(cc, src, tgt, coeffs))


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

# Complex values whose sums round, and signed zeros, so a changed fold shows.
EXTRA_COMPLEX = (complex(-0.0, -0.0), complex(-0.0, 0.0), 0.1 + 0.2j, -0.3 + 1e-17j, 1e16 + 1j)

# A value outside each base's carrier that is close to its elements.
FOREIGN = {
    "int": True,
    "mod:5": Residue(1, 4),
    "rational": 1,
    "matrix:2": Matrix.of([[1, 0], [0, 1]]),
    "rel:2": Relation.of([(2, 0)]),
    "complex": 1.0,
    "kbounded:1": Fraction(1, 2),
    "kbounded:2": Fraction(1, 2),
    "pfn:2": PartialFn.of({0: 2}),
    "pinj-overlap:2": PartialFn.of({0: 0, 1: 0}),
}


def outcome(fn, *args):
    """("ok", value) or ("raise", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except PcmcatError as exc:
        return ("raise", type(exc), str(exc))


def exact(value):
    """A comparable form of an outcome value that tells -0.0 from 0.0 in complex floats."""
    if isinstance(value, Summable):
        return ("summable", exact(value.value))
    if isinstance(value, CauchyArrow):
        coeffs = tuple((a, repr(c) if isinstance(c, complex) else c) for a, c in value.coeffs)
        return (value.src, value.tgt, coeffs)
    return value


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
    else:
        assert exact(got[1]) == exact(want[1])


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
                for c, pairs in reference_factorizations(cc, u, v, w).items()}
        assert list(decoded) == list(want)
        assert decoded == want


@pytest.mark.parametrize("index", ["Z12", "Z2 x five-arrow", "five-arrow x Z18"])
def test_factorization_table_reads_its_positions_off_the_sorted_homs(index, monkeypatch):
    cc = cauchy_product(resolve_base("int"), TABLE_INDEXES[index])
    objects = cc.index.objects
    sorted_homs = {(u, v): cc._sorted_hom(u, v) for u, v in itertools.product(objects, repeat=2)}
    asked = []

    def recorded(u, v):
        asked.append((u, v))
        return sorted_homs[u, v]

    def no_sorting(*args, **kwargs):
        raise AssertionError("the factorization table sorted a hom of its own")

    monkeypatch.setattr(cc, "_sorted_hom", recorded)
    monkeypatch.setattr(cauchy, "sorted", no_sorting, raising=False)
    for u, v, w in itertools.product(objects, repeat=3):
        asked.clear()
        table = cc._factorizations(u, v, w)
        assert {(v, w), (u, v)} <= set(asked)
        b_place, a_place = dict(sorted_homs[v, w][1]), dict(sorted_homs[u, v][1])
        for c, pairs in reference_factorizations(cc, u, v, w).items():
            assert [(b, a) for _, b, a in table[c]] == [(b_place[b], a_place[a]) for b, a in pairs]


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
            assert_same(got, outcome(reference_make_arrow, cc, src, tgt, coeffs))
            seen["make_arrow", got[0]] += 1
            if got[0] == "ok":
                pool.append(got[1])
    for src, mid, tgt in itertools.product(cc.objects, repeat=3):
        fs, gs = arrows[src, mid], arrows[mid, tgt]
        for _ in range(12 if fs and gs else 0):
            g, f = rng.choice(gs), rng.choice(fs)
            got = outcome(cc.compose, g, f)
            assert_same(got, outcome(reference_compose, cc, g, f))
            seen["compose", got[0]] += 1
    for (src, tgt), pool in arrows.items():
        for size in (0, 1, 1, 2, 2, 3, 3, 4) if pool else ():
            fam = family_of([rng.choice(pool) for _ in range(size)], prefix="f")
            got = outcome(cc.sum_arrows, fam, src, tgt)
            assert_same(got, outcome(reference_sum_arrows, cc, fam, src, tgt))
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
            assert got == outcome(reference_make_arrow, cc, src, tgt, coeffs)
            good = cc.zero(src, tgt)
            hand_built = CauchyArrow(src, tgt, tuple(
                (a, foreign if a == bad else value) for a, value in good.coeffs))
            fam = family_of([good, hand_built, good])
            got = outcome(cc.sum_arrows, fam)
            assert got[:2] == ("raise", CarrierMismatchError)
            assert got == outcome(reference_sum_arrows, cc, fam)


def test_kbounded_refusals_raise_as_the_reference():
    z2 = build("kbounded:1", "Z2")
    obj = z2.objects[0]
    refused = {"z0": 1, "z1": 1}
    got = outcome(z2.make_arrow, obj, obj, refused)
    assert got[:2] == ("raise", NotSummableError)
    assert got == outcome(reference_make_arrow, z2, obj, obj, refused)

    z3 = build("kbounded:2", "Z3")
    obj = z3.objects[0]
    refused = {"z0": 1, "z1": -1, "z2": 2}
    got = outcome(z3.make_arrow, obj, obj, refused)
    assert got[:2] == ("raise", NotSummableError)
    assert got == outcome(reference_make_arrow, z3, obj, obj, refused)

    five = build("kbounded:2", "five-arrow")
    uu = ("*", "U")
    f = five.make_arrow(uu, uu, {"id_U": 1, "e": 1})
    got = outcome(five.compose, f, f)
    assert got[:2] == ("raise", NotSummableError)
    assert "convolution coefficient at e refused" in got[2]
    assert got == outcome(reference_compose, five, f, f)

    fam = family_of([f, f])
    assert five.sum_arrows(fam) is NOT_SUMMABLE
    assert reference_sum_arrows(five, fam) is NOT_SUMMABLE


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
    assert got == outcome(reference_compose, cc, g, f)


@pytest.mark.parametrize("base", ["int", "kbounded:2", "complex"])
def test_unknown_index_arrow_raises_as_the_reference(base):
    cc = build(base, "Z2")
    obj = cc.objects[0]
    coeffs = {"z0": cc.base.hom_pcm("*", "*").zero, "z7": cc.base.hom_pcm("*", "*").zero}
    got = outcome(cc.make_arrow, obj, obj, coeffs)
    assert got[:2] == ("raise", ValidationError)
    assert got == outcome(reference_make_arrow, cc, obj, obj, coeffs)


# --------------------------------------------------------------------------
# the oracle order of the kernel, and its exact close
# --------------------------------------------------------------------------


def logging_base(base, log):
    """``base`` with every hom carrier declared partial and each oracle call
    logged as its (labels, values): the kernel then runs every check the
    reference runs, so both must ask the same families in the same order."""

    def hom_pcm(x, y):
        pcm = base.hom_pcm(x, y)

        def oracle(fam):
            log.append((fam.labels, fam.values))
            return pcm.oracle(fam)

        return dataclasses.replace(pcm, oracle=oracle, total=False)

    return PcmCategory(f"logged {base.name}", base.objects, hom_pcm, base.compose,
                       base.identity, base.arrow_hom)


def logged_calls(log, fn, *args):
    """The outcome of ``fn(*args)`` and the oracle calls it made."""
    log.clear()
    got = outcome(fn, *args)
    return got, list(log)


@pytest.mark.parametrize("index", ["Z12", "Z2 x five-arrow"])
def test_kernel_asks_the_oracle_what_the_reference_asks_in_its_order(index):
    log = []
    cc = cauchy_product(logging_base(resolve_base("int"), log), INDEXES[index])
    rng = random.Random(f"oracle-order:{index}")
    arrows = {}
    for src, tgt in itertools.product(cc.objects, repeat=2):
        cc.base.hom_pcm(src[0], tgt[0]).zero  # computed once, before any call is logged
        arrows[src, tgt] = [cc.make_arrow(src, tgt, random_coeffs(rng, cc, src, tgt))
                            for _ in range(3)]
    calls = 0
    for src, mid, tgt in itertools.product(cc.objects, repeat=3):
        for g, f in itertools.product(arrows[mid, tgt], arrows[src, mid]):
            got, asked = logged_calls(log, cc.compose, g, f)
            want, reference_asked = logged_calls(log, reference_compose, cc, g, f)
            assert_same(got, want)
            assert asked == reference_asked
            calls += len(asked)
    for (src, tgt), pool in arrows.items():
        for size in range(4):
            fam = family_of([rng.choice(pool) for _ in range(size)], prefix="f")
            got, asked = logged_calls(log, cc.sum_arrows, fam, src, tgt)
            want, reference_asked = logged_calls(log, reference_sum_arrows, cc, fam, src, tgt)
            assert_same(got, want)
            assert asked == reference_asked
            calls += len(asked)
    assert calls > 100


def loop_close(base_close):
    """The per-coefficient comparison of two arrows that the exact close stands for."""

    def close(a, b):
        if a.src != b.src or a.tgt != b.tgt:
            return False
        if tuple(k for k, _ in a.coeffs) != tuple(k for k, _ in b.coeffs):
            return False
        return all(base_close(x, y) for (_, x), (_, y) in zip(a.coeffs, b.coeffs))

    return close


def twin(value):
    """An equal value built another way: a ``Matrix`` holding only its Fraction rows."""
    return Matrix.of(value.rows) if isinstance(value, Matrix) else copy.deepcopy(value)


@pytest.mark.parametrize("base", [base for base in BASES if base != "complex"])
def test_the_exact_close_agrees_with_the_per_coefficient_loop(base):
    seen = collections.Counter()
    for index in ("Z3", "Z2 x five-arrow"):
        cc = build(base, index)
        rng = random.Random(f"exact-close:{base}:{index}")
        arrows = []
        for src, tgt in itertools.product(cc.objects, repeat=2):
            made = [cc.zero(src, tgt)]
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
            base_close = cc.base.hom_pcm(a.src[0], a.tgt[0]).close
            assert base_close is exact_eq
            got = _arrow_close(base_close)(a, b)
            assert got is loop_close(base_close)(a, b), (a, b)
            seen[got, (a.src, a.tgt) == (b.src, b.tgt), a is b] += 1
    assert seen[True, True, False] > 0 and seen[False, True, False] > 0
    assert seen[False, False, False] > 0


def test_the_complex_close_keeps_its_tolerance():
    cc = build("complex", "Z2")
    obj = cc.objects[0]
    close = cc.hom_pcm(obj, obj).close
    a = cc.make_arrow(obj, obj, {"z0": 1 + 0j, "z1": 0.5j})
    near = cc.make_arrow(obj, obj, {"z0": complex(1 + 1e-12, 0), "z1": complex(1e-12, 0.5)})
    far = cc.make_arrow(obj, obj, {"z0": complex(1 + 1e-6, 0), "z1": 0.5j})
    assert a != near and close(a, near) and close(near, a)
    assert not close(a, far) and not close(far, a)
