import itertools
import random
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

from pcmcat.category import cyclotomic_category, from_semiring, resolve_base
from pcmcat.cauchy import cauchy_product, eta_functor, gamma_functor
from pcmcat.errors import BadResidueError, NotPrimeError, ValidationError
from pcmcat.fincat import cyclic_category
from pcmcat.pcm import Cyclotomic, Residue
from pcmcat.universal import (
    ObstructionResult,
    SubstitutionData,
    check_hom_property,
    check_triangles,
    dft_substitute,
    object_obstruction,
    substitution_hom,
    validate_substitution_data,
)

def sign_character_data():
    """Integer coefficients over the order-2 monoid, evaluated at -1."""
    return SubstitutionData(
        source=from_semiring("int"),
        index=cyclic_category(2),
        target=from_semiring("complex"),
        scalar_map=lambda n: Cyclotomic.of(12, n),
        monoid_map={"z0": Cyclotomic.of(12, 1), "z1": Cyclotomic.of(12, -1)},
    )


def mod7_data():
    """Order-3 subgroup {1,2,4} of the units mod 7 as the character target."""
    return SubstitutionData(
        source=from_semiring("int"),
        index=cyclic_category(3),
        target=from_semiring("mod:7"),
        scalar_map=lambda n: Residue(n, 7),
        monoid_map={f"z{m}": Residue(2**m, 7) for m in range(3)},
    )


def test_validate_substitution_data():
    assert validate_substitution_data(sign_character_data()).passed
    assert validate_substitution_data(mod7_data()).passed


def test_validate_rejects_broken_monoid_map():
    broken = SubstitutionData(
        source=from_semiring("int"),
        index=cyclic_category(3),
        target=from_semiring("mod:7"),
        scalar_map=lambda n: Residue(n, 7),
        monoid_map={"z0": Residue(1, 7), "z1": Residue(3, 7), "z2": Residue(4, 7)},
    )
    report = validate_substitution_data(broken)
    assert not report.passed
    assert report.detail == "monoid product not preserved"


def test_validate_rejects_a_scalar_map_whose_image_family_is_refused():
    """n -> n into the 2-bounded integers keeps every pair summable; the
    family 1 + 1 + 1 is not."""
    data = SubstitutionData(
        source=from_semiring("int"),
        index=cyclic_category(3),
        target=resolve_base("kbounded:2"),
        scalar_map=lambda n: n,
        monoid_map={f"z{m}": 1 for m in range(3)},
    )
    report = validate_substitution_data(data)
    assert report.line() == (
        "CHECK substitution-data FAIL witness={i0=1,i1=1,i2=1}  # image family not summable"
    )


def test_substitution_evaluates_sign_character():
    data = sign_character_data()
    cc = cauchy_product(data.source, data.index)
    obj = cc.objects[0]
    one_plus_z = cc.make_arrow(obj, obj, {"z0": 1, "z1": 1})
    assert substitution_hom(data, one_plus_z) == Cyclotomic.of(12, 0)


def test_substitution_restricts_to_f_on_eta_images():
    data = mod7_data()
    cc = cauchy_product(data.source, data.index)
    eta = eta_functor(cc, "*")
    for n in range(-3, 4):
        assert substitution_hom(data, eta.on_arr(n)) == Residue(n, 7)


def test_substitution_restricts_to_g_on_gamma_images():
    data = mod7_data()
    cc = cauchy_product(data.source, data.index)
    gamma = gamma_functor(cc, "*")
    for m in range(3):
        assert substitution_hom(data, gamma.on_arr(f"z{m}")) == Residue(2**m, 7)


def test_triangles_for_small_primes():
    for p in (2, 3, 5, 7):
        data = SubstitutionData(
            source=from_semiring("int"),
            index=cyclic_category(p),
            target=cyclotomic_category(p),
            scalar_map=lambda n, p=p: Cyclotomic.of(p, n),
            monoid_map={f"z{m}": Cyclotomic.root(p, m) for m in range(p)},
        )
        assert check_triangles(data).passed


def test_hom_property_sign_character():
    assert check_hom_property(sign_character_data()).passed


def test_hom_property_mod7():
    assert check_hom_property(mod7_data()).passed


def test_hom_property_detects_broken_character():
    broken = SubstitutionData(
        source=from_semiring("int"),
        index=cyclic_category(2),
        target=from_semiring("complex"),
        scalar_map=lambda n: Cyclotomic.of(12, n),
        monoid_map={"z0": Cyclotomic.of(12, 1), "z1": Cyclotomic.of(12, 2)},  # not a monoid hom
    )
    report = check_hom_property(broken)
    assert not report.passed
    assert report.detail == "multiplicativity fails"


def test_dft_all_ones_vanishes():
    assert dft_substitute(5, 1, [1, 1, 1, 1, 1]) == Cyclotomic.of(5, 0)


def test_dft_constant_term_only():
    assert dft_substitute(3, 1, [1, 0, 0]) == Cyclotomic.of(3, 1)


def test_dft_two_point():
    assert dft_substitute(2, 1, [1, 1]) == Cyclotomic.of(2, 0)


def test_dft_orthogonality_for_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        for s in range(1, p):
            assert dft_substitute(p, s, [1] * p) == Cyclotomic.of(p, 0)


def test_dft_supported_at_zero_is_exact():
    for p in (3, 5):
        value = dft_substitute(p, 2, [4] + [0] * (p - 1))
        assert value == Cyclotomic.of(p, 4)


def test_dft_is_the_character_sum_in_q_zeta_p():
    """sum of alpha[m] * zeta_p**(m s), built term by term, for every s."""
    for p, alpha in ((5, [3, 0, 1, 4, 2]), (7, [1, 2, 0, 0, 5, 1, 3])):
        for s in range(1, p):
            want = Cyclotomic.of(p, 0)
            for m, a in enumerate(alpha):
                want = want + Cyclotomic.of(p, a) * Cyclotomic.root(p, m * s)
            assert dft_substitute(p, s, alpha) == want
            assert want.num != (0,) * (p - 1)


@pytest.mark.parametrize("seed", range(3))
def test_a_large_dft_value_prints_its_twelve_digits_as_mpmath_rounds_them(seed):
    """Values in the millions: a double holds 15 to 17 significant digits,
    too few for 7 integer digits and 12 fractional ones."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(seed)
    alpha = [rng.randrange(10**6) for _ in range(251)]
    with mpmath.workdps(50):
        exact = mpmath.fsum(a * mpmath.expjpi(mpmath.mpf(2 * m) / 251)
                            for m, a in enumerate(alpha))
        re, im = (Decimal(str(part)).quantize(Decimal("1e-12"), ROUND_HALF_EVEN) + 0
                  for part in (exact.real, exact.imag))
    assert abs(exact.real) > 10**4 or abs(exact.imag) > 10**4
    assert str(dft_substitute(251, 1, alpha)) == f"{re:.12f}{im:+.12f}i"


def test_dft_rejects_composite_modulus():
    with pytest.raises(NotPrimeError):
        dft_substitute(4, 1, [1, 1, 1, 1])


def test_dft_rejects_bad_residue():
    with pytest.raises(BadResidueError):
        dft_substitute(5, 0, [1] * 5)
    with pytest.raises(BadResidueError):
        dft_substitute(5, 5, [1] * 5)


def test_dft_rejects_wrong_length():
    with pytest.raises(ValidationError):
        dft_substitute(3, 1, [1, 1])


def test_substitution_with_identity_scalars_matches_total_sum():
    int_cat = from_semiring("int")
    data = SubstitutionData(
        source=int_cat,
        index=cyclic_category(3),
        target=int_cat,
        scalar_map=lambda n: n,
        monoid_map={f"z{m}": 1 for m in range(3)},
    )
    cc = cauchy_product(data.source, data.index)
    from pcmcat.cauchy import sigma_functor

    sigma = sigma_functor(cc)
    obj = cc.objects[0]
    for coeffs in itertools.product((0, 1, 2), repeat=3):
        arrow = cc.make_arrow(obj, obj, dict(zip(("z0", "z1", "z2"), coeffs)))
        assert substitution_hom(data, arrow) == sigma.on_arr(arrow)


def test_obstruction_consistent_for_agreeing_constants():
    result = object_obstruction({"X": "E"}, {"U": "E", "V": "E"})
    assert result == ObstructionResult(True, result.forced)


def test_obstruction_for_distinct_constants():
    result = object_obstruction({"X": "E1"}, {"U": "E2"})
    assert not result.consistent
    assert result.witness == ("X", "U")


def test_obstruction_for_nonconstant_map():
    result = object_obstruction({"X": "E1", "Y": "E2"}, {"U": "E1"})
    assert not result.consistent


def test_obstruction_exhaustive_over_small_object_maps():
    objects = ("e0", "e1", "e2")
    for gamma_values in itertools.product(objects, repeat=2):
        for delta_values in itertools.product(objects, repeat=2):
            gamma = dict(zip(("X", "Y"), gamma_values))
            delta = dict(zip(("U", "V"), delta_values))
            result = object_obstruction(gamma, delta)
            constants = set(gamma.values()) | set(delta.values())
            assert result.consistent == (len(constants) == 1)
