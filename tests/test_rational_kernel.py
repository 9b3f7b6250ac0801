"""The rational matrix kernel and the membership scan of ``CauchyCategory.sum_arrows``.

Rational matrix products and hom sums are computed on integer numerators
over a common denominator and must agree, entry for entry and by ``repr``,
with the plain ``Fraction`` folds.  ``sum_arrows`` checks each coefficient
for membership once, and a foreign coefficient still raises the message
that names its flattened label ``"{i}|{a}"``.  ``compose`` checks each
factor product once; over a total carrier neither it nor ``sum_arrows``
checks the sums again.
"""

import dataclasses
import functools
import operator
import random
from fractions import Fraction

import pytest

from pcmcat.category import Matrix, PcmCategory, from_semiring, k_bounded_category, matrix_category
from pcmcat.cauchy import CauchyArrow, cauchy_product
from pcmcat.errors import CarrierMismatchError
from pcmcat.family import IndexedFamily, family_of, make_family
from pcmcat.fincat import cyclic_category
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


def fold_sum(matrices, n: int, m: int) -> Matrix:
    """Matrix additions from the zero matrix, one Fraction addition per entry."""
    total = Matrix.zero(n, m, Fraction(0))
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


def _counting_base(base: PcmCategory, calls: dict) -> PcmCategory:
    """``base`` with its one hom carrier's ``contains`` and ``oracle`` counted."""
    pcm = base.hom_pcm("*", "*")

    def contains(value):
        calls["contains"] += 1
        return pcm.contains(value)

    def oracle(fam):
        calls["oracle"] += 1
        return pcm.oracle(fam)

    counted = dataclasses.replace(pcm, contains=contains, oracle=oracle)
    return PcmCategory(base.name, base.objects, lambda x, y: counted, base.compose,
                       base.identity, base.arrow_hom)


@pytest.mark.parametrize("base, partial",
                         [(from_semiring("rational"), 0), (k_bounded_category(2), 1)],
                         ids=["total", "partial"])
@pytest.mark.parametrize("size", [0, 1, 3])
def test_sum_arrows_checks_each_coefficient_once(base, partial, size):
    calls = {"contains": 0, "oracle": 0}
    cc = cauchy_product(_counting_base(base, calls), cyclic_category(3))
    obj = cc.objects[0]
    hom = cc.index.hom("*", "*")
    arrows = [cc.zero(obj, obj) for _ in range(size)]
    cc.base.hom_pcm("*", "*").zero  # the cached zero costs one oracle call, once
    calls.update(contains=0, oracle=0)
    result = cc.sum_arrows(family_of(arrows), src=obj, tgt=obj)
    assert isinstance(result, Summable)
    # one check per input coefficient; a partial carrier adds a check of the pointwise sums
    assert calls["contains"] == size * len(hom) + len(hom) * partial
    # one oracle call per column; a partial carrier adds the flattened family and the sums'
    assert calls["oracle"] == len(hom) + 2 * partial


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
    calls = {"contains": 0, "oracle": 0}
    cc = cauchy_product(_counting_base(base, calls), cyclic_category(3))
    obj = cc.objects[0]
    one = cc.base.identity("*")
    f = cc.make_arrow(obj, obj, {"z0": one})
    g = cc.make_arrow(obj, obj, {"z1": one, "z2": one})
    calls.update(contains=0, oracle=0)
    cc.compose(g, f)
    # Z3 has 3 arrows, each with 3 factorizations: Pcm.sum checks the 9
    # factor products, then sums each coefficient with one oracle call; a
    # partial carrier adds make_arrow's check of the 3 coefficients
    assert calls["contains"] == 9 + 3 * partial
    assert calls["oracle"] == 3 + partial


def test_sum_arrows_over_rational_matrices_matches_the_fraction_fold():
    cc = cauchy_product(matrix_category([2]), cyclic_category(2))
    obj = cc.objects[0]
    rng = random.Random("sum-arrows-fold")
    arrows = [cc.make_arrow(obj, obj, {a: random_matrix(rng, 2, 2) for a in ("z0", "z1")})
              for _ in range(4)]
    got = cc.sum_arrows(make_family((f"a{k}", arrow) for k, arrow in enumerate(arrows)))
    for a, value in got.value.coeffs:
        assert typed_reprs(value) == typed_reprs(fold_sum([x.coeff(a) for x in arrows], 2, 2))
