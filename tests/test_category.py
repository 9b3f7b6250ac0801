import itertools
from fractions import Fraction

import pytest

from pcmcat.errors import CarrierMismatchError, ParseError, ShapeMismatchError
from pcmcat.family import families_over, family_of
from pcmcat.laws import run_category_suite
from pcmcat.pcm import (
    NOT_SUMMABLE,
    Cyclotomic,
    NotSummable,
    Pcm,
    PcmHom,
    Residue,
    Summable,
    check_hom,
)
from pcmcat.category import (
    BUILTIN_BASES,
    Matrix,
    PcmCategory,
    PcmFunctor,
    check_monoid_sums,
    check_pcm_functor,
    check_strong_distributivity,
    check_zero_absorption,
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
    shipped_categories,
    shipped_pcm_instances,
)

INT = from_semiring("int")


def test_int_semiring_composition_and_zero():
    assert INT.compose(2, 3) == 6
    assert INT.hom_pcm("*", "*").zero == 0


def test_mod5_composition():
    mod5 = from_semiring("mod:5")
    assert mod5.compose(Residue(3, 5), Residue(4, 5)) == Residue(2, 5)


@pytest.mark.parametrize("descriptor", ["int", "rational", "mod:5", "kbounded:2"])
def test_a_semiring_base_composes_every_grid_pair_to_their_product(descriptor):
    base = resolve_base(descriptor)
    pairs = list(itertools.product(base.hom_pcm("*", "*").grid, repeat=2))
    assert len(pairs) >= 25
    assert [(type(h), h) for h in (base.compose(g, f) for g, f in pairs)] == [
        (type(g * f), g * f) for g, f in pairs]


def test_mod5_composition_refuses_a_residue_of_another_modulus():
    with pytest.raises(CarrierMismatchError, match="mixed moduli"):
        from_semiring("mod:5").compose(Residue(3, 4), Residue(4, 5))


def test_complex_composition():
    cplx = from_semiring("complex")
    i = Cyclotomic.root(12, 3)
    assert cplx.compose(i, i) == Cyclotomic.of(12, -1)
    assert cplx.identity("*") == Cyclotomic.of(12, 1)


def test_matrix_identities_and_swap():
    cat = matrix_category([2])
    eye = cat.identity(2)
    swap = Matrix.of([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert cat.compose(swap, swap) == eye
    assert cat.compose(eye, swap) == swap


def test_matrix_shape_mismatch():
    cat = matrix_category([2, 3])
    tall = Matrix.zero(2, 3)
    square = Matrix.zero(2, 2)
    with pytest.raises(ShapeMismatchError):
        cat.compose(tall, tall)
    assert cat.compose(square, tall).shape == (2, 3)


def fraction_zero(n, m):
    """The n x m zero as rows of Fraction(0), built apart from ``Matrix.zero``."""
    return Matrix.of([[Fraction(0)] * m for _ in range(n)])


def fraction_identity(n):
    """The n x n identity as Fraction rows, built apart from ``Matrix.identity``."""
    return Matrix.of([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def test_matrix_zero_arrow_shape():
    cat = matrix_category([2, 3])
    zero, rows = cat.hom_pcm(3, 2).zero, fraction_zero(2, 3)
    assert zero == rows and repr(zero) == repr(rows) and hash(zero) == hash(rows)


def _listed_matrix_samples(n, m, entries):
    """The matrix samples taken, as before, as a stride through the full cell list."""
    samples = [fraction_zero(n, m)]
    if n == m:
        samples.append(fraction_identity(n))
    cells = list(itertools.product(entries, repeat=n * m))
    for flat in cells[:: max(1, len(cells) // 16)]:
        matrix = Matrix.of([flat[i * m : (i + 1) * m] for i in range(n)])
        if matrix not in samples:
            samples.append(matrix)
        if len(samples) >= 16:
            break
    return tuple(samples)


def test_matrix_samples_are_the_strided_cell_list():
    entries = (Fraction(0), Fraction(1), Fraction(-1))
    for n, m in itertools.product((1, 2, 3), repeat=2):
        cat = matrix_category([n, m])
        pcm = cat.hom_pcm(m, n)
        expected = _listed_matrix_samples(n, m, entries)
        assert repr(pcm.sample_elements) == repr(expected)
        assert pcm.family_grid == expected[:5]


def test_largest_matrix_descriptor_samples_without_listing_cells():
    # 3^256 cells: only the strided ones are ever built.
    pcm = resolve_base("matrix:16").hom_pcm(16, 16)
    assert len(pcm.sample_elements) == 16
    assert pcm.sample_elements[1] == fraction_identity(16)


def test_zero_composes_to_zero_in_matrix_category():
    cat = matrix_category([2, 3])
    z = cat.hom_pcm(2, 3).zero
    for f in cat.hom_pcm(3, 2).sample_elements:
        assert cat.compose(f, z) == cat.hom_pcm(2, 2).zero


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


def test_strong_distributivity_can_fail_in_its_random_trials_alone():
    """kbounded:4 admits every product of two families of at most 2 members,
    so the exhaustive phase passes; a 3 x 4 product of non-zero entries is refused."""
    cat = resolve_base("kbounded:4")
    assert check_strong_distributivity(cat, max_family=4, trials=0).passed
    report = check_strong_distributivity(cat, max_family=4, trials=200, seed=0)
    assert report.line() == ("CHECK strong-distributivity[kbounded:4] FAIL "
                             "witness=[{f0=1,f1=1,f2=1};{g0=1,g1=2,g2=2,g3=-2}]  # hom (*,*,*)")


@pytest.mark.parametrize("multiply, line", [
    (lambda g, f: g * (f + 1), "FAIL witness=1  # f o 0 != 0 at (*,*,*)"),
    (lambda g, f: (g + 1) * f, "FAIL witness=1  # 0 o g != 0 at (*,*,*)"),
], ids=["f-o-0", "0-o-g"])
def test_zero_absorption_fails_on_a_composition_that_absorbs_on_one_side(multiply, line):
    planted = PcmCategory("planted", INT.objects, INT.hom_pcm, multiply, INT.identity,
                          INT.arrow_hom)
    assert check_zero_absorption(planted).line() == f"CHECK zero-absorption[planted] {line}"


def test_the_category_suite_reports_on_a_hom_that_refuses_the_empty_family():
    hom = INT.hom_pcm("*", "*")
    pcm = Pcm("empty-refused", hom.contains,
              lambda fam: hom.oracle(fam) if len(fam) else NOT_SUMMABLE,
              sample_elements=(0, 1, 2))
    cat = PcmCategory("empty-refused", INT.objects, lambda x, y: pcm, INT.compose, INT.identity)
    reports = {report.name: report for report in run_category_suite(cat, family_size=3, trials=20)}
    assert reports["zero[empty-refused]"].detail == "empty family refused"
    assert reports["zero-absorption[empty-refused]"].line() == (
        "CHECK zero-absorption[empty-refused] PASS  "
        "# empty-refused: empty family must be summable; vacuous from there")


def test_a_complex_composition_off_by_a_trillionth_fails_the_category_suite():
    """g.f = gf + 10**-12 exactly: the float carrier, compared within 1e-9,
    passed every check; the exact one fails where the extra term shows."""
    cplx = from_semiring("complex")
    off = Cyclotomic.of(12, Fraction(1, 10**12))
    planted = PcmCategory("complex-off", cplx.objects, cplx.hom_pcm,
                          lambda g, f: g * f + off, cplx.identity, cplx.arrow_hom)
    failed = {report.name for report in run_category_suite(planted, family_size=3, trials=60)
              if not report.passed}
    assert failed == {"strong-distributivity[complex-off]",
                      "left-right-distributivity[complex-off]",
                      "zero-absorption[complex-off]"}
    assert all(report.passed for report in run_category_suite(cplx, family_size=3, trials=60))


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


def test_a_functor_that_moves_an_identity_fails():
    double = PcmFunctor(lambda x: x, lambda f: 2 * f)
    assert check_pcm_functor(double, INT, INT).line() == (
        "CHECK pcm-functor[int->int] FAIL witness=*  # identity not preserved")


def test_mod_reduction_functor_passes():
    mod5 = from_semiring("mod:5")
    reduce = PcmFunctor(lambda x: "*", lambda v: Residue(v, 5))
    assert check_pcm_functor(reduce, INT, mod5).passed


def test_sum_breaking_map_fails():
    crush = PcmFunctor(lambda x: "*", lambda v: 1 if v == 1 else 0)
    report = check_pcm_functor(crush, INT, INT)
    assert not report.passed
    # multiplicative, so only the hom check can fail it: with that check's witness and detail
    square = PcmFunctor(lambda x: "*", lambda v: v * v)
    report = check_pcm_functor(square, INT, INT)
    hom = check_hom(PcmHom(INT.hom_pcm("*", "*"), INT.hom_pcm("*", "*"), square.on_arr))
    assert report.line() == "CHECK pcm-functor[int->int] FAIL witness={i0=1,i1=1}  # sums disagree"
    assert not hom.passed and (report.witness, report.detail) == (hom.witness, hom.detail)


def test_functor_into_a_composition_wrong_on_one_grid_pair_fails():
    """Every pair of grid arrows is composed, so the one wrong pair is met."""
    def multiply(g, f):
        return 0 if (g, f) == (3, -1) else g * f

    planted = PcmCategory("planted", INT.objects, INT.hom_pcm, multiply, INT.identity,
                          INT.arrow_hom)
    report = check_pcm_functor(identity_pcm_functor(), INT, planted)
    assert report.line() == (
        "CHECK pcm-functor[int->planted] FAIL witness=[3;-1]  # composite not preserved"
    )


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
    assert prod.hom_pcm(("*", "*"), ("*", "*")).zero == (0, 0)


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
    assert isinstance(resolve_base("unitball:1:l1"), Pcm)


def test_resolve_base_rejects_unknown():
    with pytest.raises(ParseError):
        resolve_base("octonions")


# --------------------------------------------------------------------------
# one carrier and one grid per builtin base
# --------------------------------------------------------------------------


def _hom_carriers(base):
    return [base] if isinstance(base, Pcm) else [
        base.hom_pcm(x, y) for x, y in itertools.product(base.objects, repeat=2)
    ]


def test_shipped_carriers_are_the_builtin_bases_own_carriers():
    shipped = {pcm.name: pcm for pcm in shipped_pcm_instances()}
    assert len(shipped) == len(BUILTIN_BASES)
    for descriptor in BUILTIN_BASES:
        (built,) = _hom_carriers(resolve_base(descriptor))
        assert built.name in shipped, descriptor
        assert list(shipped[built.name].grid) == list(built.grid), descriptor


def test_shipped_categories_are_the_builtin_category_bases_less_kbounded_2():
    assert [cat.name for cat in shipped_categories()] == [
        "int", "rational", "mod:4", "mod:5", "complex", "matrix:2",
        "pfn:2", "pfn:3", "pinj-overlap:3", "pinj-disjoint:3", "rel:2", "kbounded:1",
    ]


@pytest.mark.parametrize("descriptor", BUILTIN_BASES)
def test_every_builtin_grid_holds_its_zero(descriptor):
    for pcm in _hom_carriers(resolve_base(descriptor)):
        assert pcm.zero in pcm.grid, pcm.name


@pytest.mark.parametrize("descriptor", ["pfn:3", "pinj-disjoint:3"])
def test_partial_function_grids_hold_a_nontrivial_summable_family(descriptor):
    (pcm,) = _hom_carriers(resolve_base(descriptor))
    assert any(
        sum(v != pcm.zero for v in fam.values) >= 2 and isinstance(pcm.sum(fam), Summable)
        for fam in families_over(pcm.grid, 3)
    )
