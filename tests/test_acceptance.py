"""The acceptance battery: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import io
import itertools
import random
from fractions import Fraction

from plain import CAUCHY_BASES, convolution
from pcmcat.category import (
    PcmFunctor,
    check_strong_distributivity,
    cyclotomic_category,
    from_semiring,
    k_bounded_category,
    resolve_base,
    shipped_categories,
    shipped_pcm_instances,
)
from pcmcat.cauchy import (
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
from pcmcat.cli import main
from pcmcat.family import families_over
from pcmcat.fincat import (
    Functor,
    compose_functors,
    cyclic_category,
    cyclic_reduction_functor,
    trivial_category,
    two_object_five_arrow_category,
)
from pcmcat.laws import (
    NONPOSITIVE,
    POSITIVE,
    check_positivity,
    check_reindexing,
    check_subfamilies,
    check_unary,
    check_wpa,
    check_zero_laws,
    run_pcm_suite,
)
from pcmcat.pcm import (
    Cyclotomic,
    Residue,
    make_finite_families_pcm,
    make_partial_fn_pcm,
    make_partial_injection_pcm,
    make_relations_pcm,
    INT_ADD,
)
from pcmcat.universal import (
    SubstitutionData,
    check_hom_property,
    check_triangles,
    dft_substitute,
    object_obstruction,
    validate_substitution_data,
)


CAUCHY_INDEXES = (
    ("Z2", cyclic_category(2)),
    ("Z3", cyclic_category(3)),
    ("five-arrow", two_object_five_arrow_category()),
)


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_pcm_axiom_suite():
    ok = True
    for pcm in shipped_pcm_instances():
        if not check_unary(pcm).passed:
            ok = False
            break
        for fam in families_over(pcm.grid, 5):
            if not check_wpa(pcm, fam).passed:
                ok = False
                break
        if not ok:
            break
    _criterion(1, "pcm-axiom-suite", ok, "unary + one-way partition law, families <= 5")


def test_criterion_02_basic_laws():
    ok = True
    for pcm in shipped_pcm_instances():
        if not check_zero_laws(pcm).passed:
            ok = False
            break
        for fam in families_over(pcm.grid, 4):
            if not check_subfamilies(pcm, fam).passed:
                ok = False
                break
        if not ok:
            break
    _criterion(2, "basic-laws", ok, "subfamilies, zero, sums of zeros")


def test_criterion_03_reindexing_invariance():
    ok = all(
        check_reindexing(pcm, trials=200, seed=0).passed
        for pcm in shipped_pcm_instances()
    )
    _criterion(3, "reindexing-invariance", ok, ">=200 seeded pairs per instance")


def test_criterion_04_strong_distributivity():
    ok = all(
        check_strong_distributivity(cat, max_family=4, trials=200, seed=0).passed
        for cat in shipped_categories()
    )
    report = check_strong_distributivity(k_bounded_category(2), max_family=4,
                                         trials=200, seed=0)
    pinned = (
        not report.passed
        and tuple(f.values for f in report.witness) == ((1, 1), (1, 1))
    )
    _criterion(4, "strong-distributivity", ok and pinned,
               "stock instances pass; 2-bounded fails on the all-ones pair")


def test_criterion_05_convolution_category_laws():
    ok = True
    detail = ""
    for base_name in CAUCHY_BASES:
        for index_name, index in CAUCHY_INDEXES:
            cc = cauchy_product(resolve_base(base_name), index)
            checks = [check_identity_laws(cc), check_associativity(cc, seed=0)]
            for src, tgt in itertools.product(cc.objects, repeat=2):
                checks.extend(run_pcm_suite(cc.hom_pcm(src, tgt), family_size=3,
                                            trials=60, seed=0))
            checks.append(check_strong_distributivity(cc, max_family=3, trials=40, seed=0))
            bad = [c for c in checks if not c.passed]
            if bad:
                ok = False
                detail = f"{base_name}[{index_name}]: {bad[0].line()}"
                break
        if not ok:
            break
    _criterion(5, "convolution-category-laws", ok,
               detail or "15 base/index combinations pass the full law suite")


def test_criterion_06_monoid_semiring_agreement():
    mismatches = 0
    for n in (2, 3):
        cc = cauchy_product(from_semiring("int"), cyclic_category(n))
        obj = cc.objects[0]
        names = [f"z{k}" for k in range(n)]
        table = {(f"z{a}", f"z{b}"): f"z{(a + b) % n}" for a in range(n) for b in range(n)}
        for avals in itertools.product((0, 1, 2), repeat=n):
            for bvals in itertools.product((0, 1, 2), repeat=n):
                alpha, beta = dict(zip(names, avals)), dict(zip(names, bvals))
                lhs = cc.compose(cc.make_arrow(obj, obj, alpha),
                                 cc.make_arrow(obj, obj, beta))
                rhs = convolution(lambda a, b: a * b, lambda a, b: a + b, 0, table, alpha, beta)
                if dict(lhs.coeffs) != rhs:
                    mismatches += 1
    _criterion(6, "monoid-semiring-agreement", mismatches == 0,
               "exhaustive coefficients in {0,1,2} over the order-2 and order-3 monoids")


def test_criterion_07_embeddings_and_retraction():
    ok = True
    # retraction at every index object, >= 100 sampled base arrows each
    cc5 = cauchy_product(from_semiring("int"), two_object_five_arrow_category())
    rng = random.Random("retraction")
    grid = from_semiring("int").hom_pcm("*", "*").sample_elements
    sigma = sigma_functor(cc5)
    for u in ("U", "V"):
        eta = eta_functor(cc5, u)
        if sigma.on_obj(eta.on_obj("*")) != "*":
            ok = False
        for _ in range(100):
            value = rng.choice(grid)
            if sigma.on_arr(eta.on_arr(value)) != value:
                ok = False
    # injectivity on exhaustive small instances
    mod5 = from_semiring("mod:5")
    z3 = cyclic_category(3)
    ccm = cauchy_product(mod5, z3)
    eta_images = [eta_functor(ccm, "*").on_arr(Residue(a, 5)) for a in range(5)]
    gamma_images = [gamma_functor(ccm, "*").on_arr(name) for name in z3.arrows]
    ok = ok and len(set(eta_images)) == 5 and len(set(gamma_images)) == 3
    # the paired embedding is a homomorphism, exhaustively
    for a, b in itertools.product(range(5), repeat=2):
        for g1, g2 in itertools.product(z3.arrows, repeat=2):
            f1, f2 = Residue(a, 5), Residue(b, 5)
            lhs = ccm.compose(star_embed(ccm, f2, g2), star_embed(ccm, f1, g1))
            if lhs != star_embed(ccm, f2 * f1, z3.compose(g2, g1)):
                ok = False
    ok = ok and star_embed(ccm, Residue(1, 5), "z0") == ccm.identity(ccm.objects[0])
    _criterion(7, "embeddings-and-retraction", ok)


def test_criterion_08_bifunctoriality():
    ok = True
    z2 = cyclic_category(2)
    int_z2 = cauchy_product(from_semiring("int"), z2)
    obj = int_z2.objects[0]
    rng = random.Random("bifunctor")
    arrows = int_z2.hom_pcm(obj, obj).sample_elements

    def sample():
        return rng.choice(arrows)

    # base action: identities, composites, and the composite-functor law
    mod4, mod2 = from_semiring("mod:4"), from_semiring("mod:2")
    cc4, cc2 = cauchy_product(mod4, z2), cauchy_product(mod2, z2)
    down4 = PcmFunctor(lambda x: "*", lambda v: Residue(v, 4))
    half = PcmFunctor(lambda x: "*", lambda v: Residue(v.value, 2))
    straight = PcmFunctor(lambda x: "*", lambda v: Residue(v, 2))
    lift4, lift_half = map_base(down4, int_z2, cc4), map_base(half, cc4, cc2)
    lift2 = map_base(straight, int_z2, cc2)
    if lift4.on_arr(int_z2.identity(obj)) != cc4.identity(cc4.objects[0]):
        ok = False
    for _ in range(100):
        f, g = sample(), sample()
        if lift4.on_arr(int_z2.compose(g, f)) != cc4.compose(lift4.on_arr(g), lift4.on_arr(f)):
            ok = False
        if lift_half.on_arr(lift4.on_arr(f)) != lift2.on_arr(f):
            ok = False
    # index action: identities, composites, and the composite-functor law
    z4 = cyclic_category(4)
    int_z4 = cauchy_product(from_semiring("int"), z4)
    obj4 = int_z4.objects[0]
    lam = cyclic_reduction_functor(4, 2)
    omega = Functor({"*": "*"}, {"z0": "id_*", "z1": "id_*"})
    int_triv = cauchy_product(from_semiring("int"), trivial_category())
    lift_lam = map_index(int_z4, int_z2, lam)
    lift_omega = map_index(int_z2, int_triv, omega)
    both = map_index(int_z4, int_triv, compose_functors(omega, lam))
    arrows4 = int_z4.hom_pcm(obj4, obj4).sample_elements
    if lift_lam.on_arr(int_z4.identity(obj4)) != int_z2.identity(obj):
        ok = False
    for _ in range(100):
        f = rng.choice(arrows4)
        g = rng.choice(arrows4)
        if lift_lam.on_arr(int_z4.compose(g, f)) != int_z2.compose(
            lift_lam.on_arr(g), lift_lam.on_arr(f)
        ):
            ok = False
        if lift_omega.on_arr(lift_lam.on_arr(f)) != both.on_arr(f):
            ok = False
    # the two actions commute
    mod2_z4 = cauchy_product(mod2, z4)
    base_then_index = map_index(mod2_z4, cc2, lam)
    base_first = map_base(straight, int_z4, mod2_z4)
    index_first = map_index(int_z4, int_z2, lam)
    index_then_base = map_base(straight, int_z2, cc2)
    for _ in range(100):
        f = rng.choice(arrows4)
        one_way = base_then_index.on_arr(base_first.on_arr(f))
        other = index_then_base.on_arr(index_first.on_arr(f))
        if one_way != other:
            ok = False
    _criterion(8, "bifunctoriality", ok, ">=100 sampled arrows per law")


def test_criterion_09_universal_property():
    ok = True
    for p in (2, 3, 5, 7):
        data = SubstitutionData(
            source=from_semiring("int"),
            index=cyclic_category(p),
            target=cyclotomic_category(p),
            scalar_map=lambda n, p=p: Cyclotomic.of(p, n),
            monoid_map={f"z{m}": Cyclotomic.root(p, m) for m in range(p)},
        )
        if not validate_substitution_data(data).passed:
            ok = False
        if not check_triangles(data).passed:
            ok = False
        if not check_hom_property(data).passed:
            ok = False
    for p in (2, 3, 5, 7, 11, 13):
        for s in range(1, p):
            if dft_substitute(p, s, [1] * p) != Cyclotomic.of(p, 0):
                ok = False
    _criterion(9, "universal-property", ok,
               "triangles, hom law on >=100 pairs, character sums vanish")


def test_criterion_10_object_obstruction():
    ok = True
    targets = ("e0", "e1", "e2")
    for n_base in (1, 2, 3):
        for n_index in (1, 2, 3):
            base_objs = tuple(f"X{k}" for k in range(n_base))
            index_objs = tuple(f"U{k}" for k in range(n_index))
            for gvals in itertools.product(targets, repeat=n_base):
                for dvals in itertools.product(targets, repeat=n_index):
                    gamma = dict(zip(base_objs, gvals))
                    delta = dict(zip(index_objs, dvals))
                    result = object_obstruction(gamma, delta)
                    expected = len(set(gvals) | set(dvals)) == 1
                    if result.consistent != expected:
                        ok = False
                    if not result.consistent and result.witness is None:
                        ok = False
    _criterion(10, "object-obstruction", ok, "exhaustive over maps on <= 3 objects")


def test_criterion_11_classifier_taxonomy():
    int_ff = make_finite_families_pcm(INT_ADD)
    report = check_positivity(int_ff)
    ok = report.verdict == NONPOSITIVE and set(report.witness.values) == {1, -1}
    for pcm in (
        make_partial_fn_pcm(2),
        make_partial_fn_pcm(3),
        make_partial_injection_pcm(3, "disjoint"),
        make_partial_injection_pcm(3, "overlap"),
        make_relations_pcm(2, 2),
    ):
        result = check_positivity(pcm)
        if result.verdict != POSITIVE:
            ok = False
    _criterion(11, "classifier-taxonomy", ok,
               "additive inverses break positivity; partial maps keep it")


def test_criterion_12_series():
    square = series_convolve([1, 1], [1, 1], 2)
    ok = square.coeffs == (1, 2, 1) and square.tail_bound == 0
    half = geometric_stream(1, Fraction(1, 2))
    product = series_convolve(half, half, 10)
    # independent closed form: the n-th coefficient is (n+1) / 2^n
    expected = tuple(Fraction(n + 1, 2**n) for n in range(11))
    ok = ok and product.coeffs == expected
    far = series_convolve(half, half, 60)
    true_tail = sum(abs(c) for c in far.coeffs[11:])
    ok = ok and product.tail_bound >= true_tail
    _criterion(12, "series", ok, "exact square, closed-form match, honest tail bound")


def test_criterion_13_cli_determinism():
    battery = [
        ["laws", "--base", "int", "--seed", "11", "--family-size", "3", "--trials", "60"],
        ["laws", "--base", "kbounded:2", "--seed", "11", "--family-size", "3",
         "--trials", "60"],
        ["laws", "--base", "unitball:1:l1", "--seed", "11", "--family-size", "3",
         "--trials", "60"],
        ["series", "--order", "6", "--p", "geom:1:1/2", "--q", "1,1"],
        ["cauchy", "describe", "--base", "mod:5", "--index", "cyclic:3"],
    ]

    def run_battery() -> bytes:
        chunks = []
        for argv in battery:
            out = io.StringIO()
            code = main(argv, out=out, err=io.StringIO())
            chunks.append(f"exit={code}\n{out.getvalue()}")
        return "".join(chunks).encode()

    first, second = run_battery(), run_battery()
    _criterion(13, "cli-determinism", first == second, "byte-identical reruns")
