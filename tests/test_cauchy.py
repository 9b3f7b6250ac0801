import collections
import itertools
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plain
from plain import Recorder, convolution, outcome
from pcmcat.category import (
    BUILTIN_BASES,
    Matrix,
    PcmCategory,
    PcmFunctor,
    _exact_product,
    from_semiring,
    matrix_category,
    resolve_base,
)
from pcmcat.cauchy import (
    BoundedStream,
    CauchyArrow,
    CauchyCategory,
    cauchy_product,
    check_associativity,
    check_identity_laws,
    eta_functor,
    gamma_functor,
    geometric_stream,
    map_base,
    map_index,
    series_convolve,
    sigma_functor,
    star_embed,
)
from pcmcat.errors import (
    CarrierMismatchError,
    NotSummableError,
    UnboundedStreamError,
    ValidationError,
)
from pcmcat.family import family_of
from pcmcat.fincat import (
    FinCategory,
    Functor,
    cyclic_category,
    cyclic_reduction_functor,
    from_monoid,
    trivial_category,
    truncated_category,
    two_object_five_arrow_category,
    two_object_parallel_pair,
)
from pcmcat.pcm import NOT_SUMMABLE, Pcm, Residue, Summable
from pcmcat.category import k_bounded_category
from pcmcat.cli import parse_fincat

INT = from_semiring("int")
Z2 = cyclic_category(2)
Z3 = cyclic_category(3)
INT_Z2 = cauchy_product(INT, Z2)
INT_Z3 = cauchy_product(INT, Z3)
OBJ2 = ("*", "*")
DATA = Path(__file__).parent / "data"


def arrow(cc, coeffs, src=OBJ2, tgt=OBJ2):
    return cc.make_arrow(src, tgt, coeffs)


def test_unit_index_reduces_to_base():
    cc = cauchy_product(INT, trivial_category())
    obj = ("*", "*")
    a = cc.make_arrow(obj, obj, {"id_*": 5})
    b = cc.make_arrow(obj, obj, {"id_*": 7})
    assert cc.compose(a, b).coeff("id_*") == 35
    assert cc.identity(obj).coeff("id_*") == 1


def test_mod2_z3_has_eight_arrows():
    mod2 = from_semiring("mod:2")
    cc = cauchy_product(mod2, Z3)
    obj = cc.objects[0]
    values = [Residue(0, 2), Residue(1, 2)]
    arrows = {
        cc.make_arrow(obj, obj, dict(zip(("z0", "z1", "z2"), combo)))
        for combo in itertools.product(values, repeat=3)
    }
    assert len(arrows) == 8


def test_convolve_all_ones_squared_over_z2():
    f = arrow(INT_Z2, {"z0": 1, "z1": 1})
    assert INT_Z2.compose(f, f) == arrow(INT_Z2, {"z0": 2, "z1": 2})


def test_convolve_shifts_compose_in_z3():
    f = arrow(INT_Z3, {"z1": 1})
    g = arrow(INT_Z3, {"z2": 1})
    assert INT_Z3.compose(g, f) == arrow(INT_Z3, {"z0": 1})


def test_point_masses_convolve_to_the_composite_in_a_non_commutative_index():
    """delta_g * delta_h = delta_{g.h} in int[left-zero], where e.f = e but f.e = f;
    each g.h is read off the file's compose lines, or is the identity law."""
    text = (DATA / "left_zero.fincat").read_text()
    table = {}
    for line in text.splitlines():
        if line.startswith("compose "):
            _, g, h, _, gh = line.split()
            table[g, h] = gh
    assert table["e", "f"] == "e" and table["f", "e"] == "f"
    cc = cauchy_product(INT, parse_fincat(text, name="left-zero"))
    obj = ("*", "o")
    arrows = ("id_o", "e", "f")
    for g, h in itertools.product(arrows, repeat=2):
        gh = h if g == "id_o" else g if h == "id_o" else table[g, h]
        got = cc.compose(arrow(cc, {g: 1}, obj, obj), arrow(cc, {h: 1}, obj, obj))
        assert got == arrow(cc, {gh: 1}, obj, obj), (g, h)


def _compose_permutations(g, h):
    """g after h, on permutation tuples of {0, ..., n-1}."""
    return tuple(g[i] for i in h)


def _s3():
    """S3 from its six permutation tuples, each arrow named by its images."""
    perms = list(itertools.permutations(range(3)))
    name = {p: "p" + "".join(map(str, p)) for p in perms}
    table = {(name[g], name[h]): name[_compose_permutations(g, h)]
             for g, h in itertools.product(perms, repeat=2)}
    return from_monoid([name[p] for p in perms], table, name[(0, 1, 2)], name="S3"), name


def test_point_masses_convolve_to_the_product_of_permutations_in_int_s3():
    """delta_g * delta_h = delta_{g.h} in int[S3] for all 36 pairs, with g.h
    composed on the tuples; 18 of the pairs do not commute."""
    s3, name = _s3()
    cc = cauchy_product(INT, s3)
    perms = list(name)
    assert sum(_compose_permutations(g, h) != _compose_permutations(h, g)
               for g, h in itertools.product(perms, repeat=2)) == 18
    for g, h in itertools.product(perms, repeat=2):
        got = cc.compose(arrow(cc, {name[g]: 1}), arrow(cc, {name[h]: 1}))
        assert got == arrow(cc, {name[_compose_permutations(g, h)]: 1}), (g, h)


def test_the_sum_of_the_group_squares_to_its_order_times_itself_in_int_s3():
    """e = sum of delta_g over S3 satisfies e * e = 6e: each of the six
    arrows is a product g.h in exactly six ways."""
    s3, name = _s3()
    cc = cauchy_product(INT, s3)
    e = arrow(cc, dict.fromkeys(name.values(), 1))
    assert cc.compose(e, e) == arrow(cc, dict.fromkeys(name.values(), 6))


def test_identity_arrow_coefficients():
    ident = INT_Z2.identity(OBJ2)
    assert ident == arrow(INT_Z2, {"z0": 1, "z1": 0})


def test_identity_arrow_in_matrix_base():
    cc = cauchy_product(matrix_category([2]), Z2)
    obj = (2, "*")
    ident = cc.identity(obj)
    eye = Matrix.of([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert ident.coeff("z0") == eye
    assert ident.coeff("z1") == Matrix.of([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]])


def test_identity_is_two_sided_unit_exhaustively():
    mod2 = from_semiring("mod:2")
    cc = cauchy_product(mod2, Z3)
    obj = cc.objects[0]
    ident = cc.identity(obj)
    values = [Residue(0, 2), Residue(1, 2)]
    for combo in itertools.product(values, repeat=3):
        f = cc.make_arrow(obj, obj, dict(zip(("z0", "z1", "z2"), combo)))
        assert cc.compose(ident, f) == f
        assert cc.compose(f, ident) == f


def _transposed(m: Matrix) -> Matrix:
    return Matrix.of(zip(*m.rows))


@pytest.mark.parametrize("multiply, side", [
    (lambda g, f: _exact_product(_transposed(g), f), "right"),
    (lambda g, f: _exact_product(g, _transposed(f)), "left"),
], ids=["right", "left"])
def test_a_one_sided_identity_fails_the_identity_laws(multiply, side):
    """g.f = g^T f keeps the identity a left unit only, g.f = g f^T a right
    unit only; both are bilinear, so each breaks just one side in C[Z2]."""
    base = matrix_category([2])
    planted = PcmCategory("transposed", base.objects, base.hom_pcm, multiply, base.identity,
                          base.arrow_hom)
    report = check_identity_laws(cauchy_product(planted, Z2))
    assert report.line() == (
        "CHECK identity-laws[transposed[Z2]] FAIL "
        f"witness={{z0=[[0,0],[0,0]],z1=[[0,0],[1,-1]]}}  # {side} identity law fails")


def test_convolve_agrees_with_double_loop_oracle_sampled_z4():
    import random

    z4 = cyclic_category(4)
    cc = cauchy_product(INT, z4)
    obj = cc.objects[0]
    names = [f"z{k}" for k in range(4)]
    table = {(f"z{a}", f"z{b}"): f"z{(a + b) % 4}" for a in range(4) for b in range(4)}
    rng = random.Random("z4-agreement")
    for _ in range(60):
        alpha = {name: rng.randint(-3, 3) for name in names}
        beta = {name: rng.randint(-3, 3) for name in names}
        lhs = cc.compose(cc.make_arrow(obj, obj, alpha), cc.make_arrow(obj, obj, beta))
        assert dict(lhs.coeffs) == convolution(lambda a, b: a * b, lambda a, b: a + b, 0,
                                               table, alpha, beta)


def test_sum_arrows_pointwise():
    f = arrow(INT_Z2, {"z0": 1, "z1": 2})
    g = arrow(INT_Z2, {"z0": 10, "z1": 20})
    result = INT_Z2.sum_arrows(family_of([f, g]))
    assert result == Summable(arrow(INT_Z2, {"z0": 11, "z1": 22}))


def test_sum_arrows_respects_bounded_base():
    bounded = k_bounded_category(1)
    cc = cauchy_product(bounded, Z2)
    obj = cc.objects[0]
    f = cc.make_arrow(obj, obj, {"z0": 5})
    g = cc.make_arrow(obj, obj, {"z0": 3})
    assert cc.sum_arrows(family_of([f, g])) is NOT_SUMMABLE


def test_sum_arrows_empty_family_is_zero_arrow():
    result = INT_Z2.sum_arrows(family_of([]), src=OBJ2, tgt=OBJ2)
    assert result == Summable(arrow(INT_Z2, {"z0": 0, "z1": 0}))


U, V = ("*", "U"), ("*", "V")
# One fault each, over int[two-object-five-arrow]: the arguments of ``sum_arrows`` and
# the exception it raises, type and message.
SUM_FAULTS = {
    "mixed ends": (
        lambda cc: (family_of([cc.identity(U), cc.identity(V)]),),
        CarrierMismatchError, "arrows in a family must share src and tgt"),
    "empty family with no ends": (
        lambda cc: (family_of([]),),
        ValidationError, "summing an empty arrow family needs src and tgt"),
    "keys not the sorted hom": (
        lambda cc: (family_of([cc.identity(U), CauchyArrow(U, U, (("id_U", 1), ("e", 0)))]),),
        CarrierMismatchError,
        "{id_U=1,e=0} is not an arrow of int[two-object-five-arrow]: "
        "its keys are not the sorted D(U,U)"),
    "coefficient outside the base carrier": (
        lambda cc: (family_of([CauchyArrow(U, V, (("a", 1), ("b", 2))),
                               CauchyArrow(U, V, (("a", 3), ("b", "x")))]),),
        CarrierMismatchError,
        "finite-families[(Z,+)]: entry 'i1|b' = x is outside the carrier"),
    "unknown object pair": (
        lambda cc: (family_of([]), ("*", "W"), ("*", "W")),
        ValidationError, "unknown object pair ('*', 'W') or ('*', 'W')"),
}


@pytest.mark.parametrize("fault", SUM_FAULTS)
def test_sum_arrows_raises_each_fault_with_its_message(fault):
    """The same exception on a fresh category and on one that has already
    summed a family in every hom."""
    args, error, message = SUM_FAULTS[fault]
    fresh = cauchy_product(INT, two_object_five_arrow_category())
    used = cauchy_product(INT, two_object_five_arrow_category())
    for src, tgt in itertools.product(used.objects, repeat=2):
        assert isinstance(used.sum_arrows(family_of([]), src, tgt), Summable)
    for cc in (fresh, used):
        with pytest.raises(error) as raised:
            cc.sum_arrows(*args(cc))
        assert str(raised.value) == message


# Coefficient tuples of Z3 arrows whose keys are not the sorted hom
# ("z0", "z1", "z2"); the first is the same map as {z0=1,z1=2,z2=3}.
MALFORMED = {
    "unsorted": (("z2", 3), ("z0", 1), ("z1", 2)),
    "duplicated": (("z0", 1), ("z1", 2), ("z1", 2), ("z2", 3)),
    "duplicated in place of a missing key": (("z0", 1), ("z1", 2), ("z1", 3)),
    "missing": (("z0", 1), ("z1", 2)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_an_arrow_whose_keys_are_not_the_sorted_hom_is_refused(case):
    bad = CauchyArrow(OBJ2, OBJ2, MALFORMED[case])
    good = arrow(INT_Z3, {"z0": 1, "z1": 2, "z2": 3})
    one = INT_Z3.identity(OBJ2)
    hom = INT_Z3.hom_pcm(OBJ2, OBJ2)
    assert tuple(zip(bad.keys, bad.values)) == bad.coeffs
    assert hom.contains(good) and not hom.contains(bad)
    with pytest.raises(CarrierMismatchError, match="outside the carrier"):
        hom.sum(family_of([good, bad]))
    misread = f"{bad} is not an arrow of int[Z3]: its keys are not the sorted D(*,*)"
    # composition reads one plan per object triple: made by a good pair
    # before any malformed arrow, or by a malformed arrow first
    planned, unplanned = cauchy_product(INT, Z3), cauchy_product(INT, Z3)
    assert planned.compose(one, good) == good
    for cc in (planned, unplanned):
        for g, f in ((one, bad), (bad, one), (bad, bad)):
            with pytest.raises(CarrierMismatchError) as raised:
                cc.compose(g, f)
            assert str(raised.value) == misread
        assert cc.compose(good, good) == arrow(INT_Z3, {"z0": 13, "z1": 13, "z2": 10})
        assert cc.compose(one, good) == good == cc.compose(good, one)
    for fam in (family_of([bad]), family_of([good, bad]), family_of([bad, good])):
        with pytest.raises(CarrierMismatchError) as raised:
            INT_Z3.sum_arrows(fam)
        assert str(raised.value) == misread


def test_a_base_hom_that_refuses_the_empty_family_is_refused_when_c_d_is_built():
    """A missing coefficient is the base hom's zero; without one there is no
    convolution category, so building it raises, naming the hom."""
    hom = INT.hom_pcm("*", "*")
    pcm = Pcm("empty-refused", hom.contains,
              lambda fam: hom.oracle(fam) if len(fam) else NOT_SUMMABLE,
              sample_elements=(0, 1, 2))
    base = PcmCategory("empty-refused", INT.objects, lambda x, y: pcm, INT.compose, INT.identity)
    with pytest.raises(ValidationError, match=r"base hom \(\*,\*\) has no zero arrow: "
                                              "empty-refused: empty family must be summable"):
        cauchy_product(base, cyclic_category(2))


def test_make_arrow_rejects_unknown_index_arrow():
    with pytest.raises(ValidationError):
        arrow(INT_Z2, {"z9": 1})


def test_make_arrow_rejects_unsummable_coefficients():
    bounded = k_bounded_category(1)
    cc = cauchy_product(bounded, Z2)
    with pytest.raises(NotSummableError):
        cc.make_arrow(cc.objects[0], cc.objects[0], {"z0": 1, "z1": 1})


def test_sigma_sums_all_coefficients():
    sigma = sigma_functor(INT_Z2)
    assert sigma.on_arr(arrow(INT_Z2, {"z0": 2, "z1": 3})) == 5
    assert sigma.on_arr(INT_Z2.identity(OBJ2)) == 1
    assert sigma.on_arr(INT_Z2.hom_pcm(OBJ2, OBJ2).zero) == 0
    assert sigma.on_obj(OBJ2) == "*"


def test_eta_places_coefficient_at_identity():
    eta = eta_functor(INT_Z2, "*")
    assert eta.on_arr(5) == arrow(INT_Z2, {"z0": 5, "z1": 0})


def test_sigma_eta_retraction():
    eta = eta_functor(INT_Z2, "*")
    sigma = sigma_functor(INT_Z2)
    for value in INT.hom_pcm("*", "*").sample_elements:
        assert sigma.on_arr(eta.on_arr(value)) == value
    assert sigma.on_obj(eta.on_obj("*")) == "*"


def test_eta_is_multiplicative_on_mod5():
    mod5 = from_semiring("mod:5")
    cc = cauchy_product(mod5, Z3)
    eta = eta_functor(cc, "*")
    for a in range(5):
        for b in range(5):
            k, h = Residue(a, 5), Residue(b, 5)
            assert eta.on_arr(k * h) == cc.compose(eta.on_arr(k), eta.on_arr(h))


def test_gamma_places_unit_at_named_arrow():
    gamma = gamma_functor(INT_Z2, "*")
    assert gamma.on_arr("z1") == arrow(INT_Z2, {"z0": 0, "z1": 1})


def test_gamma_is_functorial_on_z2():
    gamma = gamma_functor(INT_Z2, "*")
    assert INT_Z2.compose(gamma.on_arr("z1"), gamma.on_arr("z1")) == gamma.on_arr("z0")
    assert gamma.on_arr("z0") == INT_Z2.identity(OBJ2)


def test_gamma_injective_on_arrows():
    gamma = gamma_functor(INT_Z3, "*")
    images = [gamma.on_arr(a) for a in Z3.arrows]
    assert len(set(images)) == len(images)


def test_star_embeds_single_coefficient():
    assert star_embed(INT_Z2, 3, "z1") == arrow(INT_Z2, {"z0": 0, "z1": 3})


def test_star_is_functorial_in_z2():
    lhs = INT_Z2.compose(star_embed(INT_Z2, 2, "z1"), star_embed(INT_Z2, 3, "z1"))
    assert lhs == star_embed(INT_Z2, 6, "z0")


def test_star_unit_pair_is_identity():
    assert star_embed(INT_Z2, 1, "z0") == INT_Z2.identity(OBJ2)


def test_star_homomorphism_exhaustive_mod5_z3():
    mod5 = from_semiring("mod:5")
    cc = cauchy_product(mod5, Z3)
    for a, b in itertools.product(range(5), repeat=2):
        for g1, g2 in itertools.product(Z3.arrows, repeat=2):
            f1, f2 = Residue(a, 5), Residue(b, 5)
            lhs = cc.compose(star_embed(cc, f2, g2), star_embed(cc, f1, g1))
            rhs = star_embed(cc, f2 * f1, Z3.compose(g2, g1))
            assert lhs == rhs


def test_star_injective_jointly():
    images = {}
    for value in (0, 1, 2, -1):
        for g in Z2.arrows:
            images[(value, g)] = star_embed(INT_Z2, value, g)
    # zero coefficients collide only at the same index arrow shape
    for (k1, a1), (k2, a2) in itertools.combinations(images, 2):
        if (k1, a1) != (k2, a2):
            if k1 == k2 == 0:
                continue  # 0 star g stores no information about g
            assert images[(k1, a1)] != images[(k2, a2)]


def test_map_base_pointwise_reduction():
    mod2 = from_semiring("mod:2")
    target = cauchy_product(mod2, Z2)
    reduce = PcmFunctor(lambda x: "*", lambda v: Residue(v, 2))
    lifted = map_base(reduce, INT_Z2, target)
    image = lifted.on_arr(arrow(INT_Z2, {"z0": 3, "z1": 2}))
    assert image == target.make_arrow(target.objects[0], target.objects[0],
                                      {"z0": Residue(1, 2), "z1": Residue(0, 2)})


def test_map_base_identity_lifts_to_identity():
    lifted = map_base(PcmFunctor(lambda x: x, lambda v: v), INT_Z2, INT_Z2)
    for f in INT_Z2.hom_pcm(OBJ2, OBJ2).sample_elements:
        assert lifted.on_arr(f) == f


def test_map_base_composes():
    mod4, mod2 = from_semiring("mod:4"), from_semiring("mod:2")
    cc4, cc2 = cauchy_product(mod4, Z2), cauchy_product(mod2, Z2)
    down4 = PcmFunctor(lambda x: "*", lambda v: Residue(v, 4))
    half = PcmFunctor(lambda x: "*", lambda v: Residue(v.value, 2))
    lift_down4 = map_base(down4, INT_Z2, cc4)
    lift_half = map_base(half, cc4, cc2)
    composite = map_base(
        PcmFunctor(lambda x: "*", lambda v: Residue(v, 2)), INT_Z2, cc2
    )
    for f in INT_Z2.hom_pcm(OBJ2, OBJ2).sample_elements:
        assert lift_half.on_arr(lift_down4.on_arr(f)) == composite.on_arr(f)


def test_map_index_fiber_sums():
    z4 = cyclic_category(4)
    cc4 = cauchy_product(INT, z4)
    lam = cyclic_reduction_functor(4, 2)
    lifted = map_index(cc4, INT_Z2, lam)
    obj4 = cc4.objects[0]
    f = cc4.make_arrow(obj4, obj4, {"z0": 1, "z1": 1, "z2": 1, "z3": 1})
    assert lifted.on_arr(f) == arrow(INT_Z2, {"z0": 2, "z1": 2})


def test_map_index_identity_functor_is_identity():
    lifted = map_index(INT_Z2, INT_Z2, Functor({"*": "*"}, {"z0": "z0", "z1": "z1"}))
    for f in INT_Z2.hom_pcm(OBJ2, OBJ2).sample_elements:
        assert lifted.on_arr(f) == f


def test_map_index_to_trivial_collapses_to_total_sum():
    triv = cauchy_product(INT, trivial_category())
    lam = Functor({"*": "*"}, {"z0": "id_*", "z1": "id_*"})
    lifted = map_index(INT_Z2, triv, lam)
    sigma = sigma_functor(INT_Z2)
    for f in INT_Z2.hom_pcm(OBJ2, OBJ2).sample_elements:
        assert lifted.on_arr(f).coeff("id_*") == sigma.on_arr(f)


def test_map_index_is_functorial_for_convolution():
    z4 = cyclic_category(4)
    cc4 = cauchy_product(INT, z4)
    lam = cyclic_reduction_functor(4, 2)
    lifted = map_index(cc4, INT_Z2, lam)
    obj4 = cc4.objects[0]
    grid = cc4.hom_pcm(obj4, obj4).sample_elements[:6]
    for f in grid:
        for g in grid:
            assert lifted.on_arr(cc4.compose(g, f)) == INT_Z2.compose(
                lifted.on_arr(g), lifted.on_arr(f)
            )


def test_cauchy_validation_checks():
    assert check_identity_laws(INT_Z2).passed
    assert check_associativity(INT_Z2).passed
    parallel = cauchy_product(INT, two_object_parallel_pair())
    assert check_identity_laws(parallel).passed
    assert check_associativity(parallel).passed


def test_cauchy_product_refuses_an_invalid_index():
    broken = FinCategory(("*",), (("f", "*", "*"),), {}, name="broken")
    with pytest.raises(ValidationError, match=r"^index category invalid: CHECK category\[broken\] "
                                              r"FAIL witness=\[f;f\]  # composite missing$"):
        cauchy_product(INT, broken)


# The law checkers of C[D] read only ``objects``, ``hom_pcm``, ``compose``,
# ``identity`` and ``name``, so they run on a base category too.
CATEGORY_BASES = [d for d in BUILTIN_BASES if isinstance(resolve_base(d), PcmCategory)]


@pytest.mark.parametrize("descriptor", CATEGORY_BASES)
def test_the_convolution_law_checkers_pass_on_each_builtin_category_base(descriptor):
    base = resolve_base(descriptor)
    assert check_identity_laws(base).passed
    assert check_associativity(base).passed


def test_associativity_fails_on_the_jordan_product_of_matrices():
    """g.f = (gf + fg)/2 keeps the identity neutral but does not associate."""
    base = matrix_category([2])

    def jordan(g, f):
        total = _exact_product(g, f) + _exact_product(f, g)
        return Matrix.of([[v / 2 for v in row] for row in total.rows])

    cat = PcmCategory("matrix:2-jordan", base.objects, base.hom_pcm, jordan, base.identity,
                      base.arrow_hom)
    assert check_identity_laws(cat).passed
    report = check_associativity(cat)
    assert report.line() == (
        "CHECK associativity[matrix:2-jordan] FAIL "
        "witness=[[[1,-1],[0,0]];[[0,-1],[-1,1]];[[-1,0],[-1,0]]]")
    assert outcome(check_associativity, cat) == outcome(plain.associativity, cat)


def test_identity_laws_fail_on_a_base_that_breaks_the_right_unit_law_on_one_arrow():
    def multiply(g, f):
        return 3 if (g, f) == (2, 1) else g * f

    cat = PcmCategory("int-right-unit", INT.objects, INT.hom_pcm, multiply, INT.identity,
                      INT.arrow_hom)
    report = check_identity_laws(cat)
    assert report.line() == ("CHECK identity-laws[int-right-unit] FAIL witness=2"
                             "  # right identity law fails")


def test_sampled_associativity_composes_each_inner_pair_once():
    cc = cauchy_product(matrix_category([2]), Z3)
    paths = []
    for o1, o2, o3, o4 in itertools.product(cc.objects, repeat=4):
        homs = (cc.hom_pcm(o3, o4), cc.hom_pcm(o2, o3), cc.hom_pcm(o1, o2))
        paths.append(tuple(pcm.sample_elements for pcm in homs))
    rng = random.Random(f"0:assoc:{cc.name}")
    triples = []
    for _ in range(500):
        hs, gs, fs = rng.choice(paths)
        triples.append((rng.choice(hs), rng.choice(gs), rng.choice(fs)))
    pairs = {(h, g) for h, g, _ in triples} | {(g, f) for _, g, f in triples}
    rec = Recorder()
    cc.compose = rec.composing(cc.compose)
    assert check_associativity(cc, seed=0).detail == "500 sampled triples"
    calls = rec.calls("compose")
    # Two outer composes per triple, one compose per distinct pair of sample
    # arrows, whether it first comes up as h.g or as g.f.
    assert len(calls) == 2 * 500 + len(pairs) == 2 * 500 + 477
    sample_ids = {id(a) for path in paths for arrows in path for a in arrows}
    inner = collections.Counter(
        (id(g), id(f)) for g, f in calls if id(g) in sample_ids and id(f) in sample_ids
    )
    assert len(inner) == len(pairs) and set(inner.values()) == {1}


def test_exhaustive_associativity_composes_each_inner_pair_once():
    cc = cauchy_product(k_bounded_category(1), Z2)
    obj = cc.objects[0]
    samples = cc.hom_pcm(obj, obj).sample_elements
    total = len(samples) ** 3
    assert total == 343  # at most 512, so every triple is checked
    rec = Recorder()
    cc.compose = rec.composing(cc.compose)
    report = check_associativity(cc)
    calls = rec.calls("compose")
    assert report.detail == f"exhaustive over {total} triples"
    # Each pair of sample arrows is composed once, as h.g or as g.f, whichever
    # comes first; every other call composes one of those composites.
    assert len(calls) == 2 * total + len(samples) ** 2 == 735
    sample_ids = {id(a) for a in samples}
    inner = collections.Counter(
        (id(g), id(f)) for g, f in calls if id(g) in sample_ids and id(f) in sample_ids
    )
    assert len(inner) == len(samples) ** 2 and set(inner.values()) == {1}


def test_parallel_pair_index_full_law_suite():
    from pcmcat.category import check_strong_distributivity
    from pcmcat.laws import run_pcm_suite

    cc = cauchy_product(from_semiring("mod:5"), two_object_parallel_pair())
    for src in cc.objects:
        for tgt in cc.objects:
            for report in run_pcm_suite(cc.hom_pcm(src, tgt), family_size=3, trials=40):
                assert report.passed, report.line()
    assert check_strong_distributivity(cc, max_family=3, trials=40).passed


def test_series_binomial_square():
    product = series_convolve([1, 1], [1, 1], 2)
    assert product.coeffs == (1, 2, 1)
    assert product.tail_bound == 0


def test_series_unit_is_neutral():
    p = [Fraction(2), Fraction(0), Fraction(5)]
    product = series_convolve(p, [1], 2)
    assert product.coeffs == (2, 0, 5)


def test_series_geometric_square():
    half = geometric_stream(1, Fraction(1, 2))
    product = series_convolve(half, half, 3)
    assert product.coeffs == (1, 1, Fraction(3, 4), Fraction(1, 2))
    # (n+1) * (1/2)^n summed beyond 3, exactly
    expected_tail = Fraction(1, 2) ** 4 * (5 - 4 * Fraction(1, 2)) / Fraction(1, 4)
    assert product.tail_bound == expected_tail


def test_series_tail_bound_dominates_true_tail():
    half = geometric_stream(1, Fraction(1, 2))
    order = 5
    product = series_convolve(half, half, order)
    far = series_convolve(half, half, 40)
    true_tail = sum(abs(c) for c in far.coeffs[order + 1 :])
    assert product.tail_bound >= true_tail


def test_series_rejects_undeclared_streams():
    with pytest.raises(UnboundedStreamError):
        series_convolve(lambda n: 1, [1], 3)


def test_bounded_stream_requires_contracting_ratio():
    with pytest.raises(ValueError):
        BoundedStream(lambda n: Fraction(1), Fraction(1), Fraction(1))


def test_series_geometric_square_matches_the_closed_form_to_order_256():
    half = geometric_stream(1, Fraction(1, 2))
    product = series_convolve(half, half, 256)
    assert product.coeffs == tuple(Fraction(n + 1, 2**n) for n in range(257))


def test_series_products_are_one_convolution_composite(monkeypatch):
    def refuse(self, g, f):
        raise AssertionError("composed in the convolution category")

    monkeypatch.setattr(CauchyCategory, "compose", refuse)
    for p, q in (([1, 1], [1, 2, 3]), (geometric_stream(1, Fraction(1, 2)), [1, 1])):
        with pytest.raises(AssertionError, match="composed in the convolution category"):
            series_convolve(p, q, 4)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_truncated_convolution_matches_the_oracle_double_loop(n):
    """rational[trunc:n] against ``plain.convolution`` over {0..n, inf} written out."""
    names = [f"x{k}" for k in range(n + 1)] + ["xinf"]
    table = {(names[a], names[b]): names[min(a + b, n + 1)]
             for a in range(n + 2) for b in range(n + 2)}
    cc = CauchyCategory(from_semiring("rational"), truncated_category(n))
    (obj,) = cc.objects
    rng = random.Random(f"trunc-oracle:{n}")
    for _ in range(20):
        streams = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    for _ in range(rng.randint(1, n + 1))] for _ in range(2)]
        alpha, beta = ({a: Fraction(0) for a in names} | dict(zip(names, stream))
                       for stream in streams)
        got = cc.compose(cc.make_arrow(obj, obj, alpha), cc.make_arrow(obj, obj, beta))
        assert dict(got.coeffs) == convolution(
            operator.mul, operator.add, Fraction(0), table, alpha, beta)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_series_convolution_is_commutative(p, q):
    order = len(p) + len(q)
    assert series_convolve(p, q, order).coeffs == series_convolve(q, p, order).coeffs


@given(st.lists(st.integers(0, 2), min_size=2, max_size=2),
       st.lists(st.integers(0, 2), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_convolve_commutes_over_commutative_base(avals, bvals):
    f = arrow(INT_Z2, dict(zip(("z0", "z1"), avals)))
    g = arrow(INT_Z2, dict(zip(("z0", "z1"), bvals)))
    assert INT_Z2.compose(g, f) == INT_Z2.compose(f, g)


# C[D] over a partial base whose sample pool meets maps the base refuses
PARTIAL_BASES = [("kbounded:1", 2), ("kbounded:1", 3), ("kbounded:2", 3),
                 ("pfn:2", 2), ("pfn:3", 2), ("pinj-overlap:2", 3)]


@pytest.mark.parametrize("base, n", PARTIAL_BASES, ids=[f"{b}[Z{n}]" for b, n in PARTIAL_BASES])
def test_hom_samples_over_a_partial_base_are_admitted_arrows(base, n):
    cc = cauchy_product(resolve_base(base), cyclic_category(n))
    for src, tgt in itertools.product(cc.objects, repeat=2):
        samples = cc.hom_pcm(src, tgt).sample_elements
        base_pcm = cc.base.hom_pcm(src[0], tgt[0])
        assert samples
        assert len(set(samples)) == len(samples)
        assert all(base_pcm.admits(arrow.coeff_family) for arrow in samples)


def test_the_sample_draws_stop_once_every_admitted_map_is_found():
    """1-bounded over Z3 admits 10 coefficient maps over its pool, fewer than
    the 24 the random draws aim for: all 10 are kept, and the draws stop."""
    cc = cauchy_product(resolve_base("kbounded:1"), cyclic_category(3))
    (obj,) = cc.objects
    samples = cc.hom_pcm(obj, obj).sample_elements
    assert len(samples) == 10
    assert all(sum(1 for _, c in arrow.coeffs if c != 0) <= 1 for arrow in samples)


# --------------------------------------------------------------------------
# planted bases that break the partition law, and arrows the kernel never builds
# --------------------------------------------------------------------------


def _pairs_refused() -> PcmCategory:
    """Integers whose oracle refuses every family of exactly two members: a hom
    carrier that admits a family and refuses some of its parts."""
    pcm = Pcm("pairs-refused", lambda v: isinstance(v, int),
              lambda fam: NOT_SUMMABLE if len(fam) == 2 else Summable(sum(fam.values)),
              sample_elements=(0, 1))
    return PcmCategory("pairs-refused", ("*",), lambda x, y: pcm, operator.mul, lambda x: 1)


def test_sum_arrows_raises_where_a_column_is_refused_but_the_flattened_family_is_not():
    cc = cauchy_product(_pairs_refused(), cyclic_category(3))
    zero = cc.make_arrow(OBJ2, OBJ2, {})
    with pytest.raises(NotSummableError, match=(
            "^pointwise sum at z0 refused although the flattened family was admitted; "
            "the base instance violates the partition law$")):
        cc.sum_arrows(family_of([zero, zero]))


def test_map_index_raises_where_a_fiber_is_refused_but_the_arrow_is_not():
    source = cauchy_product(_pairs_refused(), cyclic_category(4))
    target = cauchy_product(_pairs_refused(), Z2)
    lifted = map_index(source, target, cyclic_reduction_functor(4, 2))
    with pytest.raises(NotSummableError, match=("^fiber over z0 refused by pairs-refused; "
                                                "the base instance violates the partition law$")):
        lifted.on_arr(source.make_arrow(OBJ2, OBJ2, {"z0": 1}))


def test_sigma_raises_on_an_arrow_whose_coefficients_the_base_refuses():
    cc = cauchy_product(k_bounded_category(1), Z2)
    refused = CauchyArrow(OBJ2, OBJ2, (("z0", 1), ("z1", 1)))
    with pytest.raises(NotSummableError,
                       match="^arrow coefficients are not summable; invalid arrow$"):
        sigma_functor(cc).on_arr(refused)


def test_a_base_arrow_hom_is_the_one_object_twice_and_is_not_guessed_on_more_objects():
    assert INT.arrow_hom(5) == ("*", "*")
    assert matrix_category([1, 2]).arrow_hom(Matrix.of([[1, 0]])) == (2, 1)
    unmapped = PcmCategory("unmapped", (1, 2), INT.hom_pcm, INT.compose, INT.identity)
    cc = cauchy_product(unmapped, Z2)
    for embed in (lambda: star_embed(cc, 3, "z1"), lambda: eta_functor(cc, "*").on_arr(3)):
        with pytest.raises(ValidationError,
                           match="^cannot infer the hom of a base arrow; multi-object base$"):
            embed()
