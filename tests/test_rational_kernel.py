"""The rational matrix kernel and the membership scan of ``CauchyCategory.sum_arrows``.

Rational matrix products and hom sums are computed on integer numerators
over one canonical common denominator (``Matrix.scaled``) and must agree,
entry for entry and by ``repr``, with the plain ``Fraction`` folds; the
two views of a matrix compare and hash as one value.  ``sum_arrows``
checks each coefficient for membership once, and a foreign coefficient
still raises the message that names its flattened label ``"{i}|{a}"``.  ``compose`` checks each
factor product once; over a total carrier neither it nor ``sum_arrows``
checks the sums again.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from plain import Recorder, convolution
from pcmcat.category import (
    Matrix,
    from_semiring,
    k_bounded_category,
    matrix_category,
    resolve_base,
)
from pcmcat.cauchy import CauchyArrow, cauchy_product
from pcmcat.errors import CarrierMismatchError
from pcmcat.family import IndexedFamily, family_of, make_family
from pcmcat.fincat import cyclic_category, two_object_five_arrow_category
from pcmcat.pcm import Pcm, Summable

DIMS = (1, 2, 3)
RATIONAL = matrix_category(DIMS)

# Large coprime denominators: distinct primes and products of them.
BIG = (1_000_003, 999_983, 7919 * 104_729, 2**31 - 1)


def fold_product(g: Matrix, f: Matrix) -> Matrix:
    """Each entry a left fold of Fraction products from Fraction(0)."""
    (n, k), (_, m) = g.shape, f.shape
    return Matrix(tuple(
        tuple(functools.reduce(operator.add, (g.rows[i][t] * f.rows[t][j] for t in range(k)),
                               Fraction(0))
              for j in range(m))
        for i in range(n)
    ))


def fraction_zero(n: int, m: int) -> Matrix:
    """The n x m zero as rows of Fraction(0), built apart from ``Matrix.zero``."""
    return Matrix.of([[Fraction(0)] * m for _ in range(n)])


def fold_sum(matrices, n: int, m: int) -> Matrix:
    """Matrix additions from the zero matrix, one Fraction addition per entry."""
    total = fraction_zero(n, m)
    for v in matrices:
        total = total + v
    return total


def typed_reprs(matrix: Matrix):
    return tuple(tuple((type(c), repr(c)) for c in row) for row in matrix.rows)


def random_entry(rng: random.Random) -> Fraction:
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randint(-3, 3))
    if kind == 1:
        return Fraction(rng.randint(-10**6, 10**6), rng.choice(BIG))
    if kind == 2:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 60))
    return Fraction(rng.choice((-1, 1)), rng.choice(BIG) * rng.choice(BIG))


def random_matrix(rng: random.Random, n: int, m: int) -> Matrix:
    return Matrix.of([[random_entry(rng) for _ in range(m)] for _ in range(n)])


@pytest.mark.parametrize("seed", range(4))
def test_product_matches_the_fraction_fold(seed):
    rng = random.Random(f"rational-product:{seed}")
    for _ in range(150):
        n, k, m = (rng.choice(DIMS) for _ in range(3))
        g, f = random_matrix(rng, n, k), random_matrix(rng, k, m)
        assert typed_reprs(RATIONAL.compose(g, f)) == typed_reprs(fold_product(g, f))


@pytest.mark.parametrize("seed", range(4))
def test_sum_matches_the_fraction_fold_on_families_of_zero_to_six(seed):
    rng = random.Random(f"rational-sum:{seed}")
    for size in range(7):
        for _ in range(20):
            n, m = rng.choice(DIMS), rng.choice(DIMS)
            matrices = [random_matrix(rng, n, m) for _ in range(size)]
            got = RATIONAL.hom_pcm(m, n).sum(family_of(matrices))
            assert typed_reprs(got.value) == typed_reprs(fold_sum(matrices, n, m))


def test_entries_that_cancel_over_a_non_unit_denominator_become_fraction_zero():
    p, q = BIG[0], BIG[1]
    g = Matrix.of([[Fraction(1, p), Fraction(1, q)]])
    f = Matrix.of([[Fraction(p, 3)], [Fraction(-q, 3)]])
    product = RATIONAL.compose(g, f)
    assert typed_reprs(product) == typed_reprs(fold_product(g, f))
    assert typed_reprs(product) == ((((Fraction, "Fraction(0, 1)"),),))
    a = Matrix.of([[Fraction(5, p), Fraction(-2, 7 * q)]])
    b = Matrix.of([[Fraction(-5, p), Fraction(2, 7 * q)]])
    total = RATIONAL.hom_pcm(2, 1).sum(family_of([a, b, a, b]))
    assert typed_reprs(total.value) == ((((Fraction, "Fraction(0, 1)"),) * 2),)


def test_a_normalized_entry_keeps_its_lowest_terms():
    g = Matrix.of([[Fraction(3, 4), Fraction(1, 6)]])
    f = Matrix.of([[Fraction(2, 9)], [Fraction(3, 2)]])
    assert repr(RATIONAL.compose(g, f).rows[0][0]) == "Fraction(5, 12)"


# --------------------------------------------------------------------------
# sum_arrows: one membership check per coefficient
# --------------------------------------------------------------------------


def _foreign_arrow(cc, obj, hom, value):
    """A hand-built arrow whose coefficient at the last index arrow is ``value``."""
    coeffs = tuple((a, value if a == hom[-1] else cc.base.hom_pcm("*", "*").zero) for a in hom)
    return CauchyArrow(obj, obj, coeffs)


@pytest.mark.parametrize("base", [from_semiring("rational"), k_bounded_category(2)],
                         ids=["total", "partial"])
def test_a_foreign_coefficient_raises_the_message_naming_its_flattened_label(base):
    cc = cauchy_product(base, cyclic_category(3))
    obj = cc.objects[0]
    hom = sorted(cc.index.hom("*", "*"))
    good = cc.identity(obj)
    bad = _foreign_arrow(cc, obj, hom, "x")
    fam = family_of([good, bad])
    base_pcm = base.hom_pcm("*", "*")
    flattened = IndexedFamily(tuple(
        (f"{i}|{a}", arrow.coeff(a)) for i, arrow in fam.entries for a in cc.index.hom("*", "*")
    ))
    with pytest.raises(CarrierMismatchError) as by_sum:
        base_pcm.sum(flattened)
    with pytest.raises(CarrierMismatchError) as by_arrows:
        cc.sum_arrows(fam)
    assert str(by_arrows.value) == str(by_sum.value)
    assert f"entry 'i1|{hom[-1]}' = x is outside the carrier" in str(by_arrows.value)


@pytest.mark.parametrize("base, partial",
                         [(from_semiring("rational"), 0), (k_bounded_category(2), 1)],
                         ids=["total", "partial"])
@pytest.mark.parametrize("size", [0, 1, 3])
def test_sum_arrows_checks_each_coefficient_once(base, partial, size):
    rec = Recorder()
    cc = cauchy_product(rec.category(base), cyclic_category(3))
    obj = cc.objects[0]
    hom = cc.index.hom("*", "*")
    arrows = [cc.hom_pcm(obj, obj).zero] * size
    cc.base.hom_pcm("*", "*").zero  # the cached zero costs one oracle call, once
    rec.log.clear()
    result = cc.sum_arrows(family_of(arrows), src=obj, tgt=obj)
    assert isinstance(result, Summable)
    # one check per input coefficient; a partial carrier adds a check of the pointwise sums
    assert len(rec.calls("member")) == size * len(hom) + len(hom) * partial
    # one oracle call per column; a partial carrier adds the flattened family and the sums'
    assert len(rec.calls("sum")) == len(hom) + 2 * partial


@pytest.mark.parametrize("base, partial",
                         [(from_semiring("int"), 0), (k_bounded_category(2), 1)],
                         ids=["total", "partial"])
@pytest.mark.parametrize("size", [0, 2])
def test_sum_arrows_admits_the_sums_only_over_a_partial_carrier(monkeypatch, base, partial, size):
    cc = cauchy_product(base, cyclic_category(3))
    obj = cc.objects[0]
    arrows = [cc.identity(obj) for _ in range(size)]
    admitted = []
    admits = Pcm.admits

    def counted(pcm, fam):
        admitted.append(len(fam))
        return admits(pcm, fam)

    monkeypatch.setattr(Pcm, "admits", counted)
    result = cc.sum_arrows(family_of(arrows), src=obj, tgt=obj)
    assert dict(result.value.coeffs) == {"z0": size, "z1": 0, "z2": 0}
    # the one scan left is of the three pointwise sums, over the partial carrier only
    assert admitted == [3] * partial


@pytest.mark.parametrize("base, partial",
                         [(from_semiring("rational"), 0), (k_bounded_category(2), 1)],
                         ids=["total", "partial"])
def test_compose_checks_each_factor_product_once(base, partial):
    rec = Recorder()
    cc = cauchy_product(rec.category(base), cyclic_category(3))
    obj = cc.objects[0]
    one = cc.base.identity("*")
    f = cc.make_arrow(obj, obj, {"z0": one})
    g = cc.make_arrow(obj, obj, {"z1": one, "z2": one})
    rec.log.clear()
    cc.compose(g, f)
    # Z3 has 3 arrows, each with 3 factorizations: Pcm.sum checks the 9
    # factor products, then sums each coefficient with one oracle call; a
    # partial carrier adds make_arrow's check of the 3 coefficients
    assert len(rec.calls("member")) == 9 + 3 * partial
    assert len(rec.calls("sum")) == 3 + partial


def test_sum_arrows_over_rational_matrices_matches_the_fraction_fold():
    cc = cauchy_product(matrix_category([2]), cyclic_category(2))
    obj = cc.objects[0]
    rng = random.Random("sum-arrows-fold")
    arrows = [cc.make_arrow(obj, obj, {a: random_matrix(rng, 2, 2) for a in ("z0", "z1")})
              for _ in range(4)]
    got = cc.sum_arrows(make_family((f"a{k}", arrow) for k, arrow in enumerate(arrows)))
    for a, value in got.value.coeffs:
        assert typed_reprs(value) == typed_reprs(fold_sum([x.coeff(a) for x in arrows], 2, 2))


# --------------------------------------------------------------------------
# two views of one value: ``rows`` and the canonical ``scaled``
# --------------------------------------------------------------------------


def assert_canonical(matrix: Matrix):
    num, den = matrix.scaled
    assert den > 0 and math.gcd(den, *[v for row in num for v in row]) == 1
    assert den == math.lcm(*[v.denominator for row in matrix.rows for v in row])
    assert matrix.rows == tuple(tuple(Fraction(v, den) for v in row) for row in num)


def test_a_kernel_built_matrix_equals_and_hashes_as_the_same_fractions():
    p, q = BIG[0], BIG[1]
    cases = [
        # non-unit, coprime denominators
        (Matrix.of([[Fraction(1, p), Fraction(2, 3)]]),
         Matrix.of([[Fraction(5, 7)], [Fraction(-1, q)]])),
        # entries that cancel to Fraction(0, 1) over a non-unit denominator
        (Matrix.of([[Fraction(1, p), Fraction(1, q)]]),
         Matrix.of([[Fraction(p, 3)], [Fraction(-q, 3)]])),
        # integral entries
        (Matrix.of([[Fraction(2), Fraction(-1)]]), Matrix.of([[Fraction(3)], [Fraction(4)]])),
    ]
    for g, f in cases:
        built = RATIONAL.compose(g, f)
        fold = fold_product(g, f)
        fresh = Matrix.of(fold.rows)
        assert built == fold and fold == built and hash(built) == hash(fold)
        fresh.scaled  # both sides now hold the integer view: compared on it
        assert built == fresh and hash(built) == hash(fresh)
        assert_canonical(built)
    zero = RATIONAL.compose(*cases[1])
    assert zero == Matrix.of([[Fraction(0)]]) and zero.scaled == (((0,),), 1)


@pytest.mark.parametrize("seed", range(3))
def test_equality_is_value_equality_on_either_view(seed):
    rng = random.Random(f"two-views:{seed}")
    values = [Fraction(p, q) for p in (-2, -1, 0, 1, 3) for q in (1, 2, 3, 7)]
    matrices = [Matrix.of([[rng.choice(values) for _ in range(2)] for _ in range(2)])
                for _ in range(12)]
    sums = [RATIONAL.hom_pcm(2, 2).sum(family_of([a])).value for a in matrices]
    for a, b in itertools.product(range(len(matrices)), repeat=2):
        want = matrices[a].rows == matrices[b].rows
        assert (sums[a] == sums[b]) is want
        assert (sums[a] == Matrix.of(matrices[b].rows)) is want
        if want:
            assert hash(sums[a]) == hash(matrices[b])


@pytest.mark.parametrize("seed", range(3))
def test_chained_products_and_sums_stay_canonical(seed):
    rng = random.Random(f"canonical:{seed}")
    pcm = RATIONAL.hom_pcm(2, 2)
    current = random_matrix(rng, 2, 2)
    reference = current
    for step in range(12):
        other = random_matrix(rng, 2, 2)
        if step % 3 == 2:
            current = pcm.sum(family_of([current, other, current])).value
            reference = fold_sum([reference, other, reference], 2, 2)
        else:
            current, reference = RATIONAL.compose(other, current), fold_product(other, reference)
        assert_canonical(current)
        assert typed_reprs(current) == typed_reprs(reference)


def test_str_repr_and_typed_entries_are_those_of_the_fraction_rows():
    g = Matrix.of([[Fraction(3, 4), Fraction(1, 6)], [Fraction(0), Fraction(-2)]])
    f = Matrix.of([[Fraction(2, 9)], [Fraction(3, 2)]])
    product = RATIONAL.compose(g, f)
    assert str(product) == "[[5/12],[-3]]"
    assert repr(product) == "Matrix(rows=((Fraction(5, 12),), (Fraction(-3, 1),)))"
    assert typed_reprs(product) == (((Fraction, "Fraction(5, 12)"),), ((Fraction, "Fraction(-3, 1)"),))
    total = RATIONAL.hom_pcm(1, 2).sum(family_of([product, product])).value
    assert str(total) == "[[5/6],[-6]]"
    assert repr(total) == "Matrix(rows=((Fraction(5, 6),), (Fraction(-6, 1),)))"
    assert repr(Matrix.of(total.rows)) == repr(total)


def test_comparing_a_product_with_the_identity_builds_no_rows():
    for n in DIMS:
        ident = RATIONAL.identity(n)
        fold = Matrix.of([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
        for sample in RATIONAL.hom_pcm(n, n).sample_elements:
            product = RATIONAL.compose(sample, RATIONAL.compose(sample, ident))
            equal = product == ident
            assert product._rows is None
            assert equal is (fold_product(sample, sample).rows == fold.rows)
        assert ident._rows is None and ident == fold
        assert typed_reprs(ident) == typed_reprs(fold) and hash(ident) == hash(fold)


# --------------------------------------------------------------------------
# membership of the rational hom carrier is not weakened
# --------------------------------------------------------------------------

_HALF = Fraction(1, 2)
OUTSIDE_MATRIX_2 = {
    "float entry": Matrix.of([[_HALF, 0.5], [_HALF, _HALF]]),
    "int entries": Matrix.of([[1, 0], [0, 1]]),
    "complex": Matrix.of([[1 + 0j, 0j], [0j, 1 + 0j]]),
    "wrong shape": Matrix.of([[_HALF, _HALF]]),
}


@pytest.mark.parametrize("case", OUTSIDE_MATRIX_2)
def test_the_matrix_2_carrier_refuses_what_it_refused(case):
    base = resolve_base("matrix:2")
    value = OUTSIDE_MATRIX_2[case]
    if case == "int entries":
        base.compose(value, value)  # the kernel reads its integer view, and keeps none
    pcm = base.hom_pcm(2, 2)
    inside = base.compose(pcm.grid[2], pcm.grid[3])
    str(inside)  # a kernel-built matrix whose rows were read is still a member
    with pytest.raises(CarrierMismatchError, match="entry 'bad' = .* is outside the carrier"):
        pcm.sum(make_family([("good", inside), ("bad", value)]))
    cc = cauchy_product(base, cyclic_category(3))
    obj = cc.objects[0]
    hom = sorted(cc.index.hom("*", "*"))
    bad = CauchyArrow(obj, obj, tuple((a, value if a == hom[-1] else pcm.zero) for a in hom))
    with pytest.raises(CarrierMismatchError, match=f"entry 'i1[|]{hom[-1]}' = .* is outside"):
        cc.sum_arrows(family_of([cc.identity(obj), bad]))


# --------------------------------------------------------------------------
# convolution over fractional coefficients
# --------------------------------------------------------------------------

FRACTIONAL = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3, 11),
              Fraction(-1, BIG[0]), Fraction(4, BIG[1]), Fraction(0), Fraction(-1))


def fractional_matrix(rng) -> Matrix:
    return Matrix.of([[rng.choice(FRACTIONAL) for _ in range(2)] for _ in range(2)])


def fractional_arrow(cc, rng, src, tgt) -> CauchyArrow:
    return cc.make_arrow(src, tgt, {a: fractional_matrix(rng) for a in cc.index.hom(src[1], tgt[1])})


@pytest.mark.parametrize("index", [cyclic_category(3), two_object_five_arrow_category()],
                         ids=lambda index: index.name)
def test_fractional_convolution_matches_the_double_loop(index):
    cc = cauchy_product(matrix_category([2]), index)
    rng = random.Random(f"fractional-convolution:{index.name}")
    for src, mid, tgt in itertools.product(cc.objects, repeat=3):
        (_, u), (_, v), (_, w) = src, mid, tgt
        table = {(b, a): index.compose(b, a) for b in index.hom(v, w) for a in index.hom(u, v)}
        for _ in range(4):
            f, g = fractional_arrow(cc, rng, src, mid), fractional_arrow(cc, rng, mid, tgt)
            got = cc.compose(g, f)
            # an arrow of D(u, w) that no pair of table reaches has a zero coefficient
            want = dict.fromkeys(index.hom(u, w), fraction_zero(2, 2)) | convolution(
                fold_product, Matrix.__add__, fraction_zero(2, 2), table,
                dict(g.coeffs), dict(f.coeffs))
            assert {a: typed_reprs(v) for a, v in got.coeffs} == {
                a: typed_reprs(v) for a, v in want.items()}
            arrows = [got] + [fractional_arrow(cc, rng, src, tgt) for _ in range(3)]
            total = cc.sum_arrows(family_of(arrows)).value
            for a, value in total.coeffs:
                assert typed_reprs(value) == typed_reprs(
                    fold_sum([arrow.coeff(a) for arrow in arrows], 2, 2))
                assert_canonical(value)
