"""Plain searches written from the definitions, for the checkers to be tested against.

One plain search per law of the harness, one recorder of the calls a search
or a checker makes, one ``outcome`` to compare them by, and the instances
that more than one test module uses.  Each search walks its inputs in the
order the definitions give and sums or composes afresh each time it needs a
value.  The one exception is ``run_pcm_suite``: its ``Once`` keeps the
answer to each family total and subfamily its sweeps ask, so its oracle log
is every input a plain search asks, in first-asked order.

Nothing here comes from the enumerators, partition tables, sweep memos or
factorization tables of ``pcmcat``, nor from a checker with a search here.
"""

import dataclasses
import itertools
import random
from fractions import Fraction
from functools import reduce
from math import isqrt

from pcmcat.category import PcmCategory
from pcmcat.cauchy import CauchyArrow
from pcmcat.errors import (
    CarrierMismatchError,
    NotAMonoidError,
    NotSummableError,
    TooLargeError,
    ValidationError,
)
from pcmcat.family import EXHAUSTIVE_PARTITION_LIMIT, IndexedFamily, Partition, family_of, make_family
from pcmcat.fincat import FinCategory
from pcmcat.laws import (
    NONPOSITIVE,
    POSITIVE,
    SIGMA_COMPATIBLE,
    WPA_ONLY,
    check_reindexing,
    check_unary,
    check_zero_laws,
    minimize,
)
from pcmcat.pcm import NOT_SUMMABLE, Summable, Vec
from pcmcat.report import FAIL, Report, failing, passing

# The bases of the acceptance battery's convolution categories.
CAUCHY_BASES = ("int", "mod:5", "rational", "matrix:2", "rel:2")

# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------


def partitions(labels):
    """Every set partition of the label set: the restricted-growth strings
    over the sorted labels, in lexicographic order."""
    labels = sorted(set(labels))
    n = len(labels)
    if n > EXHAUSTIVE_PARTITION_LIMIT:
        raise TooLargeError(f"{n} labels exceeds the exhaustive bound "
                            f"{EXHAUSTIVE_PARTITION_LIMIT}; use sample_partition")
    found = []

    def grow(code):
        if len(code) < n:
            for block in range(max(code, default=-1) + 2):
                grow(code + [block])
            return
        blocks = [[] for _ in range(max(code, default=-1) + 1)]
        for label, block in zip(labels, code):
            blocks[block].append(label)
        found.append(Partition(tuple(map(tuple, blocks))))

    grow([])
    return found


def families(grid, max_size):
    """Every multiset of at most ``max_size`` grid elements, by size, then in
    ``combinations_with_replacement`` order, labelled i0, i1, ..."""
    for size in range(max_size + 1):
        yield from map(family_of, itertools.combinations_with_replacement(grid, size))


def summable(pcm, max_size, limit):
    """The first ``limit`` summable families of ``families(pcm.grid, max_size)``,
    each with its sum."""
    found = 0
    for fam in families(pcm.grid, max_size):
        result = pcm.sum(fam)
        if isinstance(result, Summable):
            yield fam, result
            found += 1
            if found == limit:
                return


def random_family(grid, max_size, rng, prefix="i"):
    """The draws ``family.random_family`` makes: a size, then each member."""
    size = rng.randint(0, max_size)
    return family_of([rng.choice(grid) for _ in range(size)], prefix=prefix)


def object_triples(cat):
    return list(itertools.product(cat.objects, repeat=3))


def product_family(compose, fam_g, fam_f):
    """g_j o f_i labelled j.i, j outer."""
    return IndexedFamily(tuple((f"{j}.{i}", compose(g, f))
                               for j, g in fam_g.entries for i, f in fam_f.entries))


def cut(fam, keep):
    """The subfamily on the labels ``keep``, its entries in family order."""
    return IndexedFamily(tuple(entry for entry in fam.entries if entry[0] in keep))


# --------------------------------------------------------------------------
# carrier laws
# --------------------------------------------------------------------------


class Once:
    """``pcm.sum`` of each input once: an input is the labels and the objects
    of a family, in order, so equal but distinct objects are apart."""

    def __init__(self, pcm):
        self.pcm, self.answers = pcm, {}

    def __call__(self, fam):
        key = tuple((label, id(value)) for label, value in fam.entries)
        if key not in self.answers:  # the family is kept, so no id is reused
            self.answers[key] = fam, self.pcm.sum(fam)
        return self.answers[key][1]


def _block_sums(fam, part, sums):
    """The family b0, b1, ... of the block sums of ``part``; None at the first refused block."""
    entries = []
    for k, block in enumerate(part.blocks):
        result = sums(cut(fam, block))
        if not isinstance(result, Summable):
            return None
        entries.append((f"b{k}", result.value))
    return IndexedFamily(tuple(entries))


def wpa(pcm, fam, sums=None):
    """A summable family sums, over every partition, to the sum of its block
    sums.  ``sums`` sums the family and its subfamilies, ``pcm.sum`` afresh
    when not given; block sums always go through ``pcm.sum``."""
    name, sums = f"wpa[{pcm.name}]", sums or pcm.sum
    total = sums(fam)
    if not isinstance(total, Summable):
        return passing(name, detail="family not summable; vacuous")
    for part in partitions(fam.labels):
        regrouped = _block_sums(fam, part, sums)
        if regrouped is None:
            return failing(name, (fam, part), detail="block not summable")
        result = pcm.sum(regrouped)
        if not isinstance(result, Summable):
            return failing(name, (fam, part), detail="block sums not summable")
        if result.value != total.value:
            return failing(name, (fam, part), detail="block sums disagree with total")
    return passing(name)


def subfamilies(pcm, fam, sums=None):
    """Every subfamily of a summable family is summable, by size, in entry order."""
    name, sums = f"subfamilies[{pcm.name}]", sums or pcm.sum
    if not isinstance(sums(fam), Summable):
        return passing(name, detail="family not summable; vacuous")
    for size in range(len(fam) + 1):
        for keep in itertools.combinations(fam.labels, size):
            if not isinstance(sums(cut(fam, keep)), Summable):
                return failing(name, (fam, keep), detail="subfamily refused")
    return passing(name)


def full_pa(pcm, fam, sums=None):
    """The two-way partition law: a refused family has no partition whose
    blocks and block sums are all summable."""
    name, sums = f"full-pa[{pcm.name}]", sums or pcm.sum
    if isinstance(sums(fam), Summable):
        report = wpa(pcm, fam, sums)
        if not report.passed:
            return Report(name, FAIL, report.witness, detail=report.detail)
        return Report(name, SIGMA_COMPATIBLE)
    for part in partitions(fam.labels):
        regrouped = _block_sums(fam, part, sums)
        if regrouped is not None and isinstance(pcm.sum(regrouped), Summable):
            return Report(name, WPA_ONLY, witness=(fam, part))
    return Report(name, SIGMA_COMPATIBLE)


def classify_full_pa(pcm, max_size=4, sums=None, wpa_passed=0):
    """``full_pa`` over the grid's families, less the summable ones among the
    first ``wpa_passed``, which passed ``wpa``."""
    sums = sums or pcm.sum
    for index, fam in enumerate(families(pcm.grid, max_size)):
        if index < wpa_passed and isinstance(sums(fam), Summable):
            continue
        report = full_pa(pcm, fam, sums)
        if report.verdict != SIGMA_COMPATIBLE:
            return report
    return Report(f"full-pa[{pcm.name}]", SIGMA_COMPATIBLE, detail="on tested families")


def positivity(pcm, sums):
    """No family of at most 3 grid elements with a non-zero member sums to zero."""
    name = f"positivity[{pcm.name}]"
    try:
        z = pcm.zero
    except NotAMonoidError:
        return Report(name, POSITIVE, detail="empty family refused; vacuous")
    for fam in families(pcm.grid, 3):
        result = sums(fam)
        if isinstance(result, Summable) and result.value == z and any(v != z for v in fam.values):
            return Report(name, NONPOSITIVE, witness=fam)
    return Report(name, POSITIVE, detail="on tested families")


def run_pcm_suite(pcm, family_size=4, trials=200, seed=0):
    """The carrier battery in the checkers' order, one ``Once`` for all its sweeps."""
    sums, wpa_passed = Once(pcm), 0
    wpa_report, sub_report = passing(f"wpa[{pcm.name}]"), passing(f"subfamilies[{pcm.name}]")
    reports = [check_unary(pcm), check_zero_laws(pcm)]
    for fam in families(pcm.grid, family_size):
        report = wpa(pcm, fam, sums)
        if not report.passed:
            wpa_report = report
            break
        wpa_passed += 1
        if len(fam) <= 4:
            report = subfamilies(pcm, fam, sums)
            if not report.passed:
                sub_report = report
                break
    return reports + [wpa_report, sub_report, check_reindexing(pcm, trials=trials, seed=seed),
                      classify_full_pa(pcm, min(4, family_size), sums, wpa_passed),
                      positivity(pcm, sums)]


# --------------------------------------------------------------------------
# category laws
# --------------------------------------------------------------------------


def strong_distributivity(cat, max_family=4, trials=200, seed=0):
    """(sum g)(sum f) is the sum of the product family: every pair of families
    of at most 2 over the first 3 grid arrows, then seeded random pairs."""
    name = f"strong-distributivity[{cat.name}]"

    def violation(x, y, z, fam_f, fam_g):
        rf, rg = cat.hom_pcm(x, y).sum(fam_f), cat.hom_pcm(y, z).sum(fam_g)
        if not (isinstance(rf, Summable) and isinstance(rg, Summable)):
            return False
        rp = cat.hom_pcm(x, z).sum(product_family(cat.compose, fam_g, fam_f))
        return not isinstance(rp, Summable) or rp.value != cat.compose(rg.value, rf.value)

    def failure(x, y, z, fam_f, fam_g):
        return failing(name, (fam_f, fam_g), detail=f"hom ({x},{y},{z})",
                       recheck=lambda witness: violation(x, y, z, *witness))

    for x, y, z in object_triples(cat):
        for fam_f in families(cat.hom_pcm(x, y).grid[:3], 2):
            for fam_g in families(cat.hom_pcm(y, z).grid[:3], 2):
                if violation(x, y, z, fam_f, fam_g):
                    return failure(x, y, z, fam_f, fam_g)
    rng = random.Random(f"{seed}:strong-dist:{cat.name}")
    triples = object_triples(cat)
    for _ in range(trials):
        x, y, z = rng.choice(triples)
        fam_f = random_family(cat.hom_pcm(x, y).grid, max_family, rng, prefix="f")
        fam_g = random_family(cat.hom_pcm(y, z).grid, max_family, rng, prefix="g")
        if violation(x, y, z, fam_f, fam_g):
            return failure(x, y, z, fam_f, fam_g)
    return passing(name)


def left_right_distributivity(cat):
    """h(sum f) = sum hf and (sum g)h = sum gh, for the first 12 summable
    families of at most 3 in each hom and the first 4 grid arrows h."""
    name = f"left-right-distributivity[{cat.name}]"
    for x, y, z in object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        for side, pcm, hs, act in (("left", pf, pg.grid[:4], lambda h, v: cat.compose(h, v)),
                                   ("right", pg, pf.grid[:4], lambda h, v: cat.compose(v, h))):
            for fam, total in summable(pcm, 3, 12):
                for h in hs:
                    result = pp.sum(make_family([(lbl, act(h, v)) for lbl, v in fam.entries]))
                    if not isinstance(result, Summable):
                        return failing(name, fam, detail=f"{side} family not summable, h={h}")
                    if result.value != act(h, total.value):
                        return failing(name, fam, detail=f"{side} distributivity fails, h={h}")
    return passing(name)


def reordering(cat):
    """Summing the product family by rows, by columns and whole gives one
    value, for pairs of the first 6 summable families of at most 3; each pair
    is composed for the rows, for the columns and for the whole."""
    name = f"reordering[{cat.name}]"
    for x, y, z in object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        for fam_f, _ in summable(pf, 3, 6):
            for fam_g, _ in summable(pg, 3, 6):
                iterated = []  # the row sums by i, then the column sums by j
                for what, outer, inner, act in (
                        ("row", fam_f, fam_g, lambda f, g: cat.compose(g, f)),
                        ("column", fam_g, fam_f, cat.compose)):
                    sums = []
                    for i, a in outer.entries:
                        result = pp.sum(make_family([(j, act(a, b)) for j, b in inner.entries]))
                        if not isinstance(result, Summable):
                            return failing(name, (fam_f, fam_g), detail=f"{what} not summable")
                        sums.append((i, result.value))
                    iterated.append(IndexedFamily(tuple(sums)))
                by_rows, by_cols = (pp.sum(fam) for fam in iterated)
                whole = pp.sum(product_family(cat.compose, fam_g, fam_f))
                if not all(isinstance(r, Summable) for r in (by_rows, by_cols, whole)) \
                        or by_rows.value != whole.value or by_cols.value != whole.value:
                    return failing(name, (fam_f, fam_g), detail="iterated sums disagree")
    return passing(name)


def composing_sums(cat):
    """The family of all n-fold composites of a non-empty summable endo-family,
    for n = 2 and 3, is summable: the first 6 summable families of at most 2."""
    name = f"composing-sums[{cat.name}]"
    for x in cat.objects:
        pcm = cat.hom_pcm(x, x)
        for fam, _ in summable(pcm, 2, 6):
            if len(fam) == 0:
                continue
            for n in (2, 3):
                power = IndexedFamily(tuple(("*".join(label for label, _ in word),
                                             reduce(cat.compose, [v for _, v in word]))
                                            for word in itertools.product(fam.entries, repeat=n)))
                if not isinstance(pcm.sum(power), Summable):
                    return failing(name, fam, detail=f"power {n} not summable")
    return passing(name)


def monoid_sums(cat):
    """1 to 8 identities, and 8 copies of each of the first 3 grid arrows out
    of x, are summable when some word of 1 to 4 non-identity members of a
    summable family holding the identity composes to the identity: the first
    30 summable families of at most 3 in each hom(x, x)."""
    name = f"monoid-sums[{cat.name}]"
    applied = False
    for x in cat.objects:
        pcm, one = cat.hom_pcm(x, x), cat.identity(x)
        for fam, _ in summable(pcm, 3, 30):
            others = [v for v in fam.values if v != one]
            if one not in fam.values or not any(
                    reduce(cat.compose, word) == one
                    for length in range(1, 5) for word in itertools.product(others, repeat=length)):
                continue
            applied = True
            for m in range(1, 9):
                if not isinstance(pcm.sum(family_of([one] * m, prefix="one")), Summable):
                    return failing(name, fam, detail=f"sum of {m} identities refused")
            for y in cat.objects:
                out = cat.hom_pcm(x, y)
                for f in out.grid[:3]:
                    if not isinstance(out.sum(family_of([f] * 8, prefix="f")), Summable):
                        return failing(name, fam, detail="sum of 8 copies refused")
    return passing(name, detail="" if applied else "no identity-word family found; vacuous")


def zero_absorption(cat):
    """f 0 = 0 and 0 g = 0 for the first 50 sample arrows of each hom; a hom
    with no zero ends the search, as a pass."""
    name = f"zero-absorption[{cat.name}]"
    for x, y, z in object_triples(cat):
        try:
            zero_xy, zero_xz, zero_yz = (cat.hom_pcm(*ends).zero
                                         for ends in ((x, y), (x, z), (y, z)))
        except NotAMonoidError as refused:
            return passing(name, detail=f"{refused}; vacuous from there")
        for f in cat.hom_pcm(y, z).sample_elements[:50]:
            if cat.compose(f, zero_xy) != zero_xz:
                return failing(name, f, detail=f"f o 0 != 0 at ({x},{y},{z})")
        for g in cat.hom_pcm(x, y).sample_elements[:50]:
            if cat.compose(zero_yz, g) != zero_xz:
                return failing(name, g, detail=f"0 o g != 0 at ({x},{y},{z})")
    return passing(name)


# --------------------------------------------------------------------------
# convolution
# --------------------------------------------------------------------------


def factorizations(cc, u, v, w):
    """Each c of D(u, w) with its pairs (b, a), b in D(v, w) and a in D(u, v), b a = c."""
    table = {c: [] for c in cc.index.hom(u, w)}
    for b in cc.index.hom(v, w):
        for a in cc.index.hom(u, v):
            table[cc.index.compose(b, a)].append((b, a))
    return {c: tuple(pairs) for c, pairs in table.items()}


def make_arrow(cc, src, tgt, coeffs):
    """An arrow of C[D] from a coefficient per index arrow, zero where none is given."""
    if src not in cc.objects or tgt not in cc.objects:
        raise ValidationError(f"unknown object pair {src} or {tgt}")
    (x, u), (y, v) = src, tgt
    hom = cc.index.hom(u, v)
    unknown = set(coeffs) - set(hom)
    if unknown:
        raise ValidationError(f"coefficients for arrows outside D({u},{v}): {sorted(unknown)}")
    base_pcm = cc.base.hom_pcm(x, y)
    arrow = CauchyArrow(src, tgt, tuple((a, coeffs.get(a, base_pcm.zero)) for a in sorted(hom)))
    if not isinstance(base_pcm.sum(arrow.coeff_family), Summable):
        raise NotSummableError(f"coefficient family of {arrow} is not summable in {base_pcm.name}")
    return arrow


def compose(cc, g, f):
    """(g f)(c): the sum over the factorizations b a = c of g(b) f(a)."""
    if f.tgt != g.src:
        raise CarrierMismatchError(f"cannot compose {g.tgt}<-{g.src} after {f.tgt}<-{f.src}")
    if f.src not in cc.objects or g.tgt not in cc.objects:
        raise ValidationError(f"unknown object pair {f.src} or {g.tgt}")
    if f.tgt not in cc.objects:
        raise ValidationError(f"unknown middle object pair {f.tgt}")
    (x, u), (_, v), (z, w) = f.src, f.tgt, g.tgt
    target_pcm = cc.base.hom_pcm(x, z)
    coeffs = {}
    for c, pairs in factorizations(cc, u, v, w).items():
        result = target_pcm.sum(IndexedFamily(tuple(
            (f"{b}*{a}", cc.base.compose(g.coeff(b), f.coeff(a))) for b, a in pairs)))
        if not isinstance(result, Summable):
            raise NotSummableError(f"convolution coefficient at {c} refused by {target_pcm.name}; "
                                   "the base instance violates its composition law")
        coeffs[c] = result.value
    return make_arrow(cc, f.src, g.tgt, coeffs)


def sum_arrows(cc, fam, src=None, tgt=None):
    """The pointwise sum of a family of parallel arrows, when the family of all
    their coefficients is summable."""
    if len(fam) == 0:
        if src is None or tgt is None:
            raise ValidationError("summing an empty arrow family needs src and tgt")
    else:
        heads = {(arrow.src, arrow.tgt) for _, arrow in fam.entries}
        if len(heads) > 1:
            raise CarrierMismatchError("arrows in a family must share src and tgt")
        (src, tgt), = heads
    (x, u), (y, v) = src, tgt
    base_pcm, hom = cc.base.hom_pcm(x, y), cc.index.hom(u, v)
    flattened = tuple((f"{i}|{a}", arrow.coeff(a)) for i, arrow in fam.entries for a in hom)
    if not isinstance(base_pcm.sum(IndexedFamily(flattened)), Summable):
        return NOT_SUMMABLE
    coeffs = {}
    for a in hom:
        result = base_pcm.sum(IndexedFamily(tuple((i, arrow.coeff(a)) for i, arrow in fam.entries)))
        if not isinstance(result, Summable):
            raise NotSummableError(f"pointwise sum at {a} refused although the flattened family "
                                   "was admitted; the base instance violates the partition law")
        coeffs[a] = result.value
    return Summable(make_arrow(cc, src, tgt, coeffs))


def associativity(cc, seed=0):
    """(h g) f = h (g f), composed afresh for each triple of sample arrows: every
    triple, path by path, when there are at most 512, else 500 seeded draws."""
    name = f"associativity[{cc.name}]"
    paths, total = [], 0
    for o1, o2, o3, o4 in itertools.product(cc.objects, repeat=4):
        fs, gs, hs = (cc.hom_pcm(*ends).sample_elements for ends in ((o1, o2), (o2, o3), (o3, o4)))
        if fs and gs and hs:
            paths.append((fs, gs, hs))
            total += len(fs) * len(gs) * len(hs)

    def holds(h, g, f):
        return cc.compose(cc.compose(h, g), f) == cc.compose(h, cc.compose(g, f))

    if total <= 512:
        for fs, gs, hs in paths:
            for h, g, f in itertools.product(hs, gs, fs):
                if not holds(h, g, f):
                    return failing(name, (h, g, f))
        return passing(name, detail=f"exhaustive over {total} triples")
    rng = random.Random(f"{seed}:assoc:{cc.name}")
    for _ in range(500):
        fs, gs, hs = rng.choice(paths)
        h, g, f = rng.choice(hs), rng.choice(gs), rng.choice(fs)
        if not holds(h, g, f):
            return failing(name, (h, g, f))
    return passing(name, detail="500 sampled triples")


def convolution(mul, add, zero, table, alpha, beta):
    """The coefficients of alpha composed after beta with plain scalar
    operations: ``table`` maps each composable pair (q, p) of index arrows to
    q p, and the coefficient at c adds mul(alpha[q], beta[p]) to ``zero`` for
    each pair that ``table`` takes to c."""
    out = dict.fromkeys(table.values(), zero)
    for (q, p), c in table.items():
        out[c] = add(out[c], mul(alpha[q], beta[p]))
    return out


# --------------------------------------------------------------------------
# index tables
# --------------------------------------------------------------------------


def validate(cat):
    """Every composable pair has a composite with the right endpoints; then
    the unit laws, arrow by arrow; then associativity, triple by triple."""
    name = f"category[{cat.name or 'unnamed'}]"
    pairs = [(g, f) for g in cat.arrows for f in cat.arrows if cat.src(g) == cat.tgt(f)]
    for g, f in pairs:
        try:
            h = cat.compose(g, f)
        except ValidationError:
            return failing(name, (g, f), detail="composite missing")
        if cat.src(h) != cat.src(f) or cat.tgt(h) != cat.tgt(g):
            return failing(name, (g, f), detail="composite has wrong endpoints")
    for a in cat.arrows:
        if cat.compose(cat.identity_of[cat.tgt(a)], a) != a:
            return failing(name, a, detail="left identity law fails")
        if cat.compose(a, cat.identity_of[cat.src(a)]) != a:
            return failing(name, a, detail="right identity law fails")
    for h, g in pairs:
        for f in cat.arrows:
            if cat.src(g) == cat.tgt(f) and \
                    cat.compose(cat.compose(h, g), f) != cat.compose(h, cat.compose(g, f)):
                return failing(name, (h, g, f), detail="associativity fails")
    return passing(name)


def as_index(table, n) -> FinCategory:
    """The table on 0..n-1 as a one-object category with arrows m0..m{n-1}, m0 its identity."""
    return FinCategory(("*",), tuple((f"m{a}", "*", "*") for a in range(n)),
                       {(f"m{a}", f"m{b}"): f"m{c}" for (a, b), c in table.items()},
                       identities={"*": "m0"}, name=f"M{n}")


def isomorphic(t1, t2, n) -> bool:
    """Some bijection fixing the unit 0 carries ``t1`` onto ``t2``."""
    for rest in itertools.permutations(range(1, n)):
        image = (0, *rest)
        if all(t2[image[a], image[b]] == image[c] for (a, b), c in t1.items()):
            return True
    return False


def monoids_by_backtracking(n):
    """Every associative table on 0..n-1 with unit 0: the non-unit entries are
    filled in row order, and a partial table is dropped as soon as some triple
    whose four products are all filled in fails to associate."""
    cells = list(itertools.product(range(1, n), repeat=2))
    table = {(a, b): (b if a == 0 else a) for a in range(n) for b in range(n) if a == 0 or b == 0}

    def consistent():
        for a, b, c in itertools.product(range(1, n), repeat=3):
            ab, bc = table.get((a, b)), table.get((b, c))
            if ab is None or bc is None:
                continue
            left, right = table.get((ab, c)), table.get((a, bc))
            if left is not None and right is not None and left != right:
                return False
        return True

    def fill(k):
        if k == len(cells):
            yield dict(table)
            return
        for value in range(n):
            table[cells[k]] = value
            if consistent():
                yield from fill(k + 1)
        del table[cells[k]]

    return list(fill(0))


# --------------------------------------------------------------------------
# the unit ball, on Fractions
# --------------------------------------------------------------------------


def _exact_sqrt(q):
    p, d = q.numerator, q.denominator
    rp, rd = isqrt(p), isqrt(d)
    return Fraction(rp, rd) if rp * rp == p and rd * rd == d else None


def _compare_sqrt_sum(squares, bound):
    """The sign of (the sum of the square roots of ``squares``) - ``bound``:
    exact roots added exactly, the others bracketed ever more finely."""
    rational_part, irrational = Fraction(0), []
    for q in squares:
        root = _exact_sqrt(q)
        if root is None:
            irrational.append(q)
        else:
            rational_part += root
    target = bound - rational_part
    if not irrational:
        return (0 > target) - (0 < target)
    if target <= 0:
        return 1
    shift = 32
    while True:
        scale = 1 << shift
        lo = hi = Fraction(0)
        for q in irrational:
            r = isqrt(q.numerator * q.denominator * scale * scale)
            lo += Fraction(r, q.denominator * scale)
            hi += Fraction(r + 1, q.denominator * scale)
        if lo > target:
            return 1
        if hi < target:
            return -1
        shift += 32


def _norm(v, norm):
    """The l1 or linf norm of ``v``, or the square of its l2 norm."""
    if norm == "l1":
        return sum((abs(c) for c in v.coords), Fraction(0))
    if norm == "linf":
        return max((abs(c) for c in v.coords), default=Fraction(0))
    return sum((c * c for c in v.coords), Fraction(0))


def unit_ball_oracle(dim, norm):
    """A family is summable when its norms sum to at most 1; its sum adds the
    vectors one Fraction coordinate at a time."""
    def oracle(fam):
        norms = [_norm(v, norm) for _, v in fam.entries]
        if norm == "l2":
            inside = _compare_sqrt_sum(norms, Fraction(1)) <= 0
        else:
            inside = sum(norms, Fraction(0)) <= 1
        if not inside:
            return NOT_SUMMABLE
        total = Vec(tuple(Fraction(0) for _ in range(dim)))
        for _, v in fam.entries:
            total = total + v
        return Summable(total)

    return oracle


# --------------------------------------------------------------------------
# recording and outcomes
# --------------------------------------------------------------------------


class Recorder:
    """One log, in call order, of the calls made through what it wraps:
    ("sum", hom, family) for an oracle call, ("member", hom, value) for a
    membership check and ("compose", None, (g, f)) for a composition."""

    def __init__(self):
        self.log = []

    def calls(self, kind):
        """The last field of each logged call of ``kind``, in order."""
        return [call[2] for call in self.log if call[0] == kind]

    def pcm(self, pcm, hom=None, **changes):
        """``pcm``, its other fields replaced by ``changes``, with its oracle and
        membership calls logged; the grid check of building it is not."""
        log = self.log

        def oracle(fam):
            log.append(("sum", hom, fam))
            return pcm.oracle(fam)

        def contains(value):
            log.append(("member", hom, value))
            return pcm.contains(value)

        start = len(log)
        logged = dataclasses.replace(pcm, oracle=oracle, contains=contains, **changes)
        del log[start:]
        return logged

    def composing(self, compose):
        """``compose`` with each call logged; keyword arguments pass through."""
        def logged(g, f, **kwargs):
            self.log.append(("compose", None, (g, f)))
            return compose(g, f, **kwargs)

        return logged

    def category(self, cat, **changes):
        """``cat`` with its compositions and its hom carriers' calls logged;
        ``changes`` go to each hom carrier, as in ``pcm``."""
        return PcmCategory(cat.name, cat.objects,
                           lambda x, y: self.pcm(cat.hom_pcm(x, y), (x, y), **changes),
                           self.composing(cat.compose), cat.identity, cat.arrow_hom)


def outcome(fn, *args, **kwargs):
    """What calling ``fn`` shows: ("raise", exception type, message), or ("ok",
    result), a report shown as its line, witness, verdict and detail, and the
    line of its minimized witness when it has a recheck."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the exception is part of the outcome
        return ("raise", type(exc), str(exc))
    if not isinstance(result, Report):
        return ("ok", result)
    shown = ("ok", result.line(), result.witness, result.verdict, result.detail)
    return shown + ((minimize(result).line(),) if result.recheck is not None else ())
