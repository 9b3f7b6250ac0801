import itertools
from fractions import Fraction

import pytest

from pcmcat.errors import ParseError, ShapeMismatchError
from pcmcat.family import family_of, make_family
from pcmcat.pcm import NotSummable, Residue, Summable
from pcmcat.category import (
    Matrix,
    PcmFunctor,
    check_monoid_sums,
    check_pcm_functor,
    check_strong_distributivity,
    compose_pcm_functors,
    derived_laws,
    from_semiring,
    identity_pcm_functor,
    k_bounded_category,
    matrix_category,
    pairing,
    partial_fn_category,
    partial_injection_category,
    pcm_product,
    product_projections,
    relations_category,
    resolve_base,
    zero_arrow,
)

INT = from_semiring("int")


def test_int_semiring_composition_and_zero():
    assert INT.compose(2, 3) == 6
    assert zero_arrow(INT, "*", "*") == 0


def test_mod5_composition():
    mod5 = from_semiring("mod:5")
    assert mod5.compose(Residue(3, 5), Residue(4, 5)) == Residue(2, 5)


def test_complex_composition():
    cplx = from_semiring("complex")
    assert cplx.hom_pcm("*", "*").close(cplx.compose(1j, 1j), -1 + 0j)


def test_matrix_identities_and_swap():
    cat = matrix_category([2])
    eye = cat.identity(2)
    swap = Matrix.of([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert cat.compose(swap, swap) == eye
    assert cat.compose(eye, swap) == swap


def test_matrix_shape_mismatch():
    cat = matrix_category([2, 3])
    tall = Matrix.zero(2, 3, Fraction(0))
    square = Matrix.zero(2, 2, Fraction(0))
    with pytest.raises(ShapeMismatchError):
        cat.compose(tall, tall)
    assert cat.compose(square, tall).shape == (2, 3)


def test_matrix_zero_arrow_shape():
    cat = matrix_category([2, 3])
    assert zero_arrow(cat, 3, 2) == Matrix.zero(2, 3, Fraction(0))


def _listed_matrix_samples(n, m, entries, zero_s, one_s):
    """The matrix samples taken, as before, as a stride through the full cell list."""
    samples = [Matrix.zero(n, m, zero_s)]
    if n == m:
        samples.append(Matrix.identity(n, zero_s, one_s))
    cells = list(itertools.product(entries, repeat=n * m))
    for flat in cells[:: max(1, len(cells) // 16)]:
        matrix = Matrix.of([flat[i * m : (i + 1) * m] for i in range(n)])
        if matrix not in samples:
            samples.append(matrix)
        if len(samples) >= 16:
            break
    return tuple(samples)


@pytest.mark.parametrize("scalar, entries, zero_s, one_s", [
    ("rational", (Fraction(0), Fraction(1), Fraction(-1)), Fraction(0), Fraction(1)),
    ("complex", (0j, 1 + 0j, 1j), 0j, 1 + 0j),
])
def test_matrix_samples_are_the_strided_cell_list(scalar, entries, zero_s, one_s):
    for n, m in itertools.product((1, 2, 3), repeat=2):
        cat = matrix_category([n, m], scalar=scalar)
        pcm = cat.hom_pcm(m, n)
        expected = _listed_matrix_samples(n, m, entries, zero_s, one_s)
        assert repr(pcm.sample_elements) == repr(expected)
        assert pcm.family_grid == expected[:5]


def test_largest_matrix_descriptor_samples_without_listing_cells():
    # 3^256 cells: only the strided ones are ever built.
    pcm = resolve_base("matrix:16").hom_pcm(16, 16)
    assert len(pcm.sample_elements) == 16
    assert pcm.sample_elements[1] == Matrix.identity(16, Fraction(0), Fraction(1))


def test_zero_composes_to_zero_in_matrix_category():
    cat = matrix_category([2, 3])
    z = zero_arrow(cat, 2, 3)
    for f in cat.hom_pcm(3, 2).sample_elements:
        assert cat.compose(f, z) == zero_arrow(cat, 2, 2)


def test_strong_distributivity_small_int_example():
    fam_f = family_of([1, 2])
    fam_g = family_of([3, 4])
    pcm = INT.hom_pcm("*", "*")
    products = [INT.compose(g, f) for g in fam_g.values for f in fam_f.values]
    assert sum(products) == 21
    assert pcm.sum(fam_f) == Summable(3)
    assert pcm.sum(fam_g) == Summable(7)
    assert check_strong_distributivity(INT, trials=50).passed


@pytest.mark.parametrize(
    "descriptor",
    ["int", "rational", "mod:5", "complex", "matrix:2", "rel:2", "pfn:2",
     "pinj-overlap:2", "pinj-disjoint:2", "kbounded:1"],
)
def test_strong_distributivity_passes_on_stock_instances(descriptor):
    cat = resolve_base(descriptor)
    assert check_strong_distributivity(cat, trials=60).passed


def test_k2_bounded_fails_strong_distributivity_with_all_ones():
    report = check_strong_distributivity(k_bounded_category(2), trials=10)
    assert not report.passed
    fam_f, fam_g = report.witness
    assert fam_f.values == (1, 1)
    assert fam_g.values == (1, 1)


def test_relations_category_distributivity():
    assert check_strong_distributivity(relations_category(2), trials=40).passed


def test_derived_laws_pass_on_int():
    for report in derived_laws(INT):
        assert report.passed, report.line()


@pytest.mark.parametrize("descriptor", ["mod:5", "rel:2", "pfn:2", "matrix:2"])
def test_derived_laws_pass_on_stock_instances(descriptor):
    for report in derived_laws(resolve_base(descriptor)):
        assert report.passed, report.line()


def test_derived_laws_pass_on_every_shipped_category():
    from pcmcat.category import shipped_categories

    for cat in shipped_categories():
        for report in derived_laws(cat):
            assert report.passed, report.line()


def test_complex_matrix_category():
    cat = matrix_category([2], scalar="complex")
    eye = cat.identity(2)
    rot = Matrix.of([[0j, -1 + 0j], [1 + 0j, 0j]])
    close = cat.hom_pcm(2, 2).close
    assert close(cat.compose(rot, cat.compose(rot, cat.compose(rot, rot))), eye)
    assert check_strong_distributivity(cat, trials=40).passed


def test_monoid_sums_finds_identity_word_in_int():
    # {1, -1} contains the identity and (-1)*(-1) composes to it
    report = check_monoid_sums(INT)
    assert report.passed
    assert report.detail == ""


def test_full_pa_plus_distributivity_instances_pass_strong():
    # instances whose oracles satisfy the two-way partition law and plain
    # distributivity must pass the joint law as well
    from pcmcat.category import check_left_right_distributivity
    from pcmcat.laws import SIGMA_COMPATIBLE, classify_full_pa

    for descriptor in ("pfn:2", "rel:2", "pinj-overlap:2", "pinj-disjoint:2"):
        cat = resolve_base(descriptor)
        pcm = cat.hom_pcm("*", "*")
        assert classify_full_pa(pcm, max_size=3).verdict == SIGMA_COMPATIBLE
        assert check_left_right_distributivity(cat).passed
        assert check_strong_distributivity(cat, trials=40).passed


def test_identity_functor_passes():
    assert check_pcm_functor(identity_pcm_functor(), INT, INT).passed


def test_mod_reduction_functor_passes():
    mod5 = from_semiring("mod:5")
    reduce = PcmFunctor(lambda x: "*", lambda v: Residue(v, 5))
    assert check_pcm_functor(reduce, INT, mod5).passed


def test_sum_breaking_map_fails():
    crush = PcmFunctor(lambda x: "*", lambda v: 1 if v == 1 else 0)
    report = check_pcm_functor(crush, INT, INT)
    assert not report.passed


def test_functor_composition_preserves_pass():
    mod4, mod2 = from_semiring("mod:4"), from_semiring("mod:2")
    down4 = PcmFunctor(lambda x: "*", lambda v: Residue(v, 4))
    half = PcmFunctor(lambda x: "*", lambda v: Residue(v.value, 2))
    assert check_pcm_functor(down4, INT, mod4).passed
    assert check_pcm_functor(half, mod4, mod2).passed
    assert check_pcm_functor(compose_pcm_functors(half, down4), INT, mod2).passed


def test_pcm_product_componentwise_sum():
    prod = pcm_product(INT, INT)
    pcm = prod.hom_pcm(("*", "*"), ("*", "*"))
    fam = family_of([(1, 2), (3, 4)])
    assert pcm.sum(fam) == Summable((4, 6))


def test_pcm_product_empty_family_gives_zero_pair():
    prod = pcm_product(INT, INT)
    assert zero_arrow(prod, ("*", "*"), ("*", "*")) == (0, 0)


def test_pcm_product_with_bounded_factor():
    bounded = k_bounded_category(1)
    prod = pcm_product(bounded, INT)
    pcm = prod.hom_pcm(("*", "*"), ("*", "*"))
    assert pcm.sum(family_of([(1, 2), (0, 4)])) == Summable((1, 6))
    assert isinstance(pcm.sum(family_of([(1, 2), (1, 4)])), NotSummable)


def test_product_projections_and_pairing():
    mod5 = from_semiring("mod:5")
    prod = pcm_product(INT, mod5)
    p1, p2 = product_projections()
    assert check_pcm_functor(p1, prod, INT).passed
    assert check_pcm_functor(p2, prod, mod5).passed
    into_first = identity_pcm_functor()
    into_second = PcmFunctor(lambda x: "*", lambda v: Residue(v, 5))
    paired = pairing(into_first, into_second)
    assert check_pcm_functor(paired, INT, prod).passed
    # the product diagram commutes on sampled arrows
    for v in INT.hom_pcm("*", "*").sample_elements:
        assert p1.on_arr(paired.on_arr(v)) == into_first.on_arr(v)
        assert p2.on_arr(paired.on_arr(v)) == into_second.on_arr(v)


def test_partial_categories_have_correct_identities():
    pfn = partial_fn_category(2)
    ident = pfn.identity("*")
    for f in pfn.hom_pcm("*", "*").sample_elements:
        assert pfn.compose(ident, f) == f
        assert pfn.compose(f, ident) == f
    pinj = partial_injection_category(3, "overlap")
    ident3 = pinj.identity("*")
    assert pinj.compose(ident3, ident3) == ident3


def test_resolve_base_unitball_returns_bare_pcm():
    from pcmcat.pcm import Pcm

    assert isinstance(resolve_base("unitball:1:l1"), Pcm)


def test_resolve_base_rejects_unknown():
    with pytest.raises(ParseError):
        resolve_base("octonions")


# --------------------------------------------------------------------------
# matrix product and sum against the plain folds
# --------------------------------------------------------------------------


def reference_matmul(g: Matrix, f: Matrix) -> Matrix:
    """Each entry as a sum from the int 0, the fold complex matrices keep."""
    (n, k), (_, m) = g.shape, f.shape
    return Matrix(tuple(
        tuple(sum(g.rows[i][t] * f.rows[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    ))


def reference_matrix_sum(fam, n, m, zero):
    """Matrix additions from the zero matrix, in label order."""
    total = Matrix.zero(n, m, zero)
    for _, v in sorted(fam.entries, key=lambda e: e[0]):
        total = total + v
    return total


def _exact_rows(matrix: Matrix):
    return tuple(tuple(repr(c) if isinstance(c, complex) else c for c in row)
                 for row in matrix.rows)


@pytest.mark.parametrize("scalar", ["rational", "complex"])
def test_matrix_product_and_sum_match_the_plain_folds(scalar):
    import random

    rng = random.Random(f"matrix-folds:{scalar}")
    if scalar == "rational":
        values = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    else:
        values = [complex(-0.0, -0.0), complex(-0.0, 0.0), 0j, 0.1 + 0.2j, -0.3 - 0.0j,
                  1e16 + 1j, -1e16 + 0.5j, 1 + 0j]
    dims = (1, 2, 3)
    cat = matrix_category(dims, scalar)

    def random_matrix(n, m):
        return Matrix.of([[rng.choice(values) for _ in range(m)] for _ in range(n)])

    for _ in range(300):
        n, k, m = (rng.choice(dims) for _ in range(3))
        g, f = random_matrix(n, k), random_matrix(k, m)
        assert _exact_rows(cat.compose(g, f)) == _exact_rows(reference_matmul(g, f))
        labels = rng.sample(range(100), rng.randint(0, 5))
        fam = make_family((f"m{label}", random_matrix(n, k)) for label in labels)
        got = cat.hom_pcm(k, n).sum(fam)
        zero = Fraction(0) if scalar == "rational" else 0j
        assert _exact_rows(got.value) == _exact_rows(reference_matrix_sum(fam, n, k, zero))
