import collections
import itertools
import random
import re

import pytest

import plain
from pcmcat import fincat
from pcmcat.category import resolve_base
from pcmcat.cauchy import cauchy_product
from pcmcat.errors import NotAMonoidError, ValidationError
from pcmcat.fincat import (
    FinCategory,
    Functor,
    compose_functors,
    constant_functor,
    cyclic_category,
    cyclic_reduction_functor,
    from_monoid,
    identity_functor,
    product_category,
    projections,
    trivial_category,
    truncated_category,
    two_object_five_arrow_category,
    two_object_parallel_pair,
    validate_category,
    validate_functor,
)
from pcmcat.report import passing


def test_trivial_category_is_valid():
    assert validate_category(trivial_category()).passed


def test_cyclic_z2_valid_and_exhaustively_associative():
    z2 = cyclic_category(2)
    assert validate_category(z2).passed
    for h, g, f in itertools.product(z2.arrows, repeat=3):
        assert z2.compose(z2.compose(h, g), f) == z2.compose(h, z2.compose(g, f))


def test_z3_shape():
    z3 = cyclic_category(3)
    assert len(z3.objects) == 1
    assert len(z3.arrows) == 3
    assert z3.compose("z1", "z2") == "z0"


def test_broken_associativity_reported_with_triple():
    # z*z=e, z*e=z, e*z=z, e*e=z breaks both unit and associativity
    cat = FinCategory(
        objects=("*",),
        arrows=(("e", "*", "*"), ("z", "*", "*")),
        compositions={
            ("z", "z"): "e",
            ("z", "e"): "z",
            ("e", "z"): "z",
            ("e", "e"): "z",
        },
        identities={"*": "e"},
    )
    report = validate_category(cat)
    assert not report.passed
    assert report.witness is not None


def test_missing_composite_fails_validation():
    cat = FinCategory(
        objects=("*",),
        arrows=(("f", "*", "*"),),
        compositions={},
    )
    report = validate_category(cat)
    assert not report.passed
    assert report.detail == "composite missing"


def test_a_composite_entry_for_a_pair_that_does_not_compose_is_refused():
    with pytest.raises(ValidationError, match=r"^composite entry \('g', 'f'\) names a pair "
                                              "that is not composable$"):
        FinCategory(("U", "V"), (("f", "U", "V"), ("g", "U", "V")), {("g", "f"): "f"})


def test_factorizations_name_the_first_pair_whose_composite_is_missing_or_misplaced():
    with pytest.raises(ValidationError, match=r"^composite of \('f', 'f'\) is None, "
                                              r"not an arrow of D\(U,U\)$"):
        FinCategory(("U",), (("f", "U", "U"),), {}).factorizations("U", "U", "U")
    # g.f is recorded, but as an arrow V -> V rather than one of D(U,V)
    cat = FinCategory(("U", "V"), (("f", "U", "V"), ("g", "V", "V")), {("g", "f"): "id_V"})
    with pytest.raises(ValidationError, match=r"^composite of \('g', 'f'\) is 'id_V', "
                                              r"not an arrow of D\(U,V\)$"):
        cat.factorizations("U", "V", "V")
    assert cat.factorizations("U", "U", "V") == {"f": (("f*id_U", 0, 0),)}


@pytest.mark.parametrize("identities, message", [
    ({"U": "e"}, "identity 'e' of 'U' is not an arrow"),
    ({"U": "f"}, "identity 'f' is not an endo-arrow of 'U'"),
])
def test_the_constructor_refuses_a_bad_identity(identities, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        FinCategory(("U", "V"), (("f", "U", "V"),), {}, identities=identities)


def test_compose_refuses_a_pair_that_does_not_compose():
    cat = two_object_five_arrow_category()
    with pytest.raises(ValidationError, match=r"^'id_U' and 'id_V' are not composable$"):
        cat.compose("id_U", "id_V")


def test_the_hom_lists_its_arrows_sorted_by_name():
    cat = FinCategory(("U", "V"), (("b", "U", "V"), ("a10", "U", "V"), ("a2", "U", "V")), {})
    assert cat.hom("U", "V") == ("a10", "a2", "b")
    assert cyclic_category(12).hom("*", "*")[:4] == ("z0", "z1", "z10", "z11")


def test_from_monoid_accepts_z3_table():
    table = {(f"g{a}", f"g{b}"): f"g{(a+b) % 3}" for a in range(3) for b in range(3)}
    cat = from_monoid([f"g{k}" for k in range(3)], table, "g0")
    assert len(cat.objects) == 1
    assert len(cat.arrows) == 3


def test_from_monoid_rejects_non_associative_table():
    elements = ("e", "x", "y")
    table = {}
    for a in elements:
        table[(a, "e")] = a
        table[("e", a)] = a
    table.update({("x", "x"): "y", ("x", "y"): "e", ("y", "x"): "x",
                  ("y", "y"): "x"})
    with pytest.raises(NotAMonoidError):
        from_monoid(elements, table, "e")


def test_product_with_trivial_is_isomorphic_to_factor():
    z2 = cyclic_category(2)
    prod = product_category(z2, trivial_category())
    assert validate_category(prod).passed
    assert len(prod.objects) == 1
    assert len(prod.arrows) == 2


def test_product_z2_z3_is_z6_like():
    prod = product_category(cyclic_category(2), cyclic_category(3))
    assert validate_category(prod).passed
    assert len(prod.arrows) == 6
    # the generator pair has order 6
    gen = "(z1,z1)"
    power, seen = gen, 1
    while power != prod.identity_of[prod.objects[0]]:
        power = prod.compose(gen, power)
        seen += 1
    assert seen == 6


def test_product_hom_sizes_multiply():
    five = two_object_five_arrow_category()
    prod = product_category(five, cyclic_category(2))
    assert validate_category(prod).passed
    for u, v in itertools.product(five.objects, repeat=2):
        assert len(prod.hom(f"({u},*)", f"({v},*)")) == len(five.hom(u, v)) * 2


def test_projections_are_functors():
    a, b = cyclic_category(2), cyclic_category(3)
    prod = product_category(a, b)
    p1, p2 = projections(a, b, prod)
    assert validate_functor(p1, prod, a).passed
    assert validate_functor(p2, prod, b).passed


def test_identity_functor_passes():
    z4 = cyclic_category(4)
    assert validate_functor(identity_functor(z4), z4, z4).passed


def test_z4_to_z2_reduction_passes_exhaustively():
    z4, z2 = cyclic_category(4), cyclic_category(2)
    functor = cyclic_reduction_functor(4, 2)
    assert validate_functor(functor, z4, z2).passed


def test_functor_with_broken_composite_fails():
    z3 = cyclic_category(3)
    bad = Functor({"*": "*"}, {"z0": "z0", "z1": "z1", "z2": "z0"})
    report = validate_functor(bad, z3, z3)
    assert not report.passed
    assert report.detail == "composite not preserved"


PAIR_IDENTITY = {"id_U": "id_U", "id_V": "id_V", "a": "a", "b": "b"}


@pytest.mark.parametrize("arrows, line", [
    ({"id_U": "id_U", "id_V": "id_V", "a": "a"}, "witness=b  # arrow has no image"),
    ({**PAIR_IDENTITY, "a": "id_V"}, "witness=a  # source not preserved"),
    ({**PAIR_IDENTITY, "a": "id_U"}, "witness=a  # target not preserved"),
], ids=["no-image", "source", "target"])
def test_functor_with_a_broken_arrow_map_fails(arrows, line):
    pair = two_object_parallel_pair()
    report = validate_functor(Functor({"U": "U", "V": "V"}, arrows), pair, pair)
    assert report.line() == f"CHECK functor[parallel-pair->parallel-pair] FAIL {line}"


def test_functor_that_moves_the_identity_fails():
    z2 = cyclic_category(2)
    report = validate_functor(Functor({"*": "*"}, {"z0": "z1", "z1": "z1"}), z2, z2)
    assert report.line() == "CHECK functor[Z2->Z2] FAIL witness=*  # identity not preserved"


def test_two_object_categories_are_valid():
    assert validate_category(two_object_parallel_pair()).passed
    five = two_object_five_arrow_category()
    assert validate_category(five).passed
    assert len(five.arrows) == 5


def test_constant_functor_to_trivial():
    five = two_object_five_arrow_category()
    triv = trivial_category()
    functor = constant_functor(five, triv, "*")
    assert validate_functor(functor, five, triv).passed


def test_compose_functors():
    z4, z2 = cyclic_category(4), cyclic_category(2)
    down = cyclic_reduction_functor(4, 2)
    identity = identity_functor(z2)
    composite = compose_functors(identity, down)
    assert validate_functor(composite, z4, z2).passed


def _composite(g, f):
    """g after f, for arrows (src, tgt, values) between the sets range(n)."""
    return f[0], g[1], tuple(g[2][i] for i in f[2])


def _concrete_table(rng, objects):
    """A random category of functions between small sets, closed under composition.

    Each arrow is (src, tgt, values) with values[i] the image of i; returns the
    arrows, in random order, and the identities, or None when the closure
    grows past 12 arrows.
    """
    size = {obj: rng.randint(1, 3 if len(objects) == 1 else 2) for obj in objects}
    identities = {obj: (obj, obj, tuple(range(size[obj]))) for obj in objects}
    arrows = set(identities.values())
    for _ in range(rng.randint(2, 4)):
        src, tgt = rng.choice(objects), rng.choice(objects)
        arrows.add((src, tgt, tuple(rng.randrange(size[tgt]) for _ in range(size[src]))))
    grown = True
    while grown:
        if len(arrows) > 12:
            return None
        composites = {_composite(g, f) for g in arrows for f in arrows if g[0] == f[1]}
        grown = not composites <= arrows
        arrows |= composites
    arrows = sorted(arrows)
    rng.shuffle(arrows)
    return arrows, identities


def _random_category(rng):
    """A table that is a category, or one with a single planted defect."""
    objects = ("*",) if rng.random() < 0.5 else ("U", "V")
    drawn = None
    while drawn is None:
        drawn = _concrete_table(rng, objects)
    arrows, identities = drawn
    names = {a: f"a{k}" for k, a in enumerate(arrows)}
    table = {(names[g], names[f]): names[_composite(g, f)]
             for g in arrows for f in arrows if g[0] == f[1]}
    ends = {names[a]: (a[0], a[1]) for a in arrows}
    ident = {obj: names[a] for obj, a in identities.items()}
    pairs = sorted(table)
    # identity composites left out of the table are filled in by FinCategory
    bare = [(g, f) for g, f in pairs if g not in ident.values() and f not in ident.values()]
    defect = rng.choice(("none", "missing", "endpoints", "identity", "entry", "magma"))
    if defect == "missing":
        del table[rng.choice(bare or pairs)]
    elif defect == "endpoints":
        g, f = rng.choice(pairs)
        wrong = [h for h in ends if ends[h] != (ends[f][0], ends[g][1])]
        if wrong:
            table[(g, f)] = rng.choice(wrong)
    elif defect == "identity":
        a = rng.choice(sorted(ends))
        pair = rng.choice([(ident[ends[a][1]], a), (a, ident[ends[a][0]])])
        table[pair] = rng.choice([h for h in ends if ends[h] == ends[a] and h != a] or [a])
    elif defect == "entry":
        g, f = rng.choice(bare or pairs)
        table[(g, f)] = rng.choice([h for h in ends if ends[h] == (ends[f][0], ends[g][1])])
    elif defect == "magma":
        for g, f in bare:
            table[(g, f)] = rng.choice([h for h in ends if ends[h] == (ends[f][0], ends[g][1])])
    return FinCategory(objects, [(a, *ends[a]) for a in ends], table, ident, name=defect)


def test_kernel_matches_reference_on_random_tables():
    rng = random.Random(20131)
    details = collections.Counter()
    for _ in range(2400):
        cat = _random_category(rng)
        report = validate_category(cat)
        assert report.line() == plain.validate(cat).line()
        details[(len(cat.objects), report.detail or "pass")] += 1
        for u, v in itertools.product(cat.objects, repeat=2):
            assert cat.hom(u, v) == tuple(sorted(
                a for a in cat.arrows if (cat.src(a), cat.tgt(a)) == (u, v)))
    for objects, outcome in itertools.product((1, 2), (
            "pass", "composite missing", "left identity law fails",
            "right identity law fails", "associativity fails")):
        assert details[(objects, outcome)] >= 20, details
    assert details[(2, "composite has wrong endpoints")] >= 20, details


def test_validation_report_is_stored_on_the_category():
    cat = two_object_five_arrow_category()
    report = validate_category(cat)
    assert report.passed
    assert validate_category(cat) is report


def test_cauchy_product_runs_the_kernel_once(monkeypatch):
    runs = []
    check_table = fincat._check_table

    def counted(cat):
        runs.append(cat.name)
        return check_table(cat)

    monkeypatch.setattr(fincat, "_check_table", counted)
    cauchy_product(resolve_base("int"), cyclic_category(5))
    assert runs == ["Z5"]


# --------------------------------------------------------------------------
# Light's test: associativity checked at a generating set of middle arrows
# --------------------------------------------------------------------------


def _rebuilt(cat: FinCategory, table) -> FinCategory:
    return FinCategory(cat.objects, [(a, cat.src(a), cat.tgt(a)) for a in cat.arrows],
                       table, cat.identity_of, name=cat.name)


def _reached(cat: FinCategory, generators) -> set:
    """The identities closed under composition with the generators, on either side."""
    reached = set(cat.identity_of.values())
    grown = True
    while grown:
        new = {cat.compose(s, r) for s in generators for r in reached if cat.src(s) == cat.tgt(r)}
        new |= {cat.compose(r, s) for s in generators for r in reached if cat.src(r) == cat.tgt(s)}
        grown = not new <= reached
        reached |= new
    return reached


def _discrete(n: int) -> FinCategory:
    return FinCategory([f"X{k}" for k in range(n)], (), {}, name=f"discrete{n}")


def _span() -> FinCategory:
    """U -> V and U -> W: no two non-identity arrows compose."""
    return FinCategory(("U", "V", "W"), (("p", "U", "V"), ("q", "U", "W")), {}, name="span")


def _light_cases():
    five = two_object_five_arrow_category()
    yield from (cyclic_category(n) for n in range(1, 41))
    for k in range(1, 7):
        yield product_category(cyclic_category(k), five)
        yield product_category(five, cyclic_category(k))
    yield from (two_object_parallel_pair(), five, _span(), trivial_category())
    yield from (_discrete(n) for n in range(1, 4))


@pytest.mark.parametrize("cat", list(_light_cases()), ids=lambda cat: cat.name)
def test_generators_reach_every_arrow(cat):
    generators = fincat._generators(cat)
    assert len(set(generators)) == len(generators)
    assert not set(generators) & set(cat.identity_of.values())
    assert _reached(cat, generators) == set(cat.arrows)
    assert validate_category(cat).line() == plain.validate(cat).line() == passing(
        f"category[{cat.name}]").line()


def test_a_cyclic_category_is_generated_by_z1():
    assert fincat._generators(cyclic_category(1)) == []
    for n in range(2, 65):
        assert fincat._generators(cyclic_category(n)) == ["z1"]


def test_a_five_arrow_product_picks_as_few_generators_in_either_factor_order():
    five = two_object_five_arrow_category()
    for k in range(2, 19):
        counts = {len(fincat._generators(product_category(five, cyclic_category(k)))),
                  len(fincat._generators(product_category(cyclic_category(k), five)))}
        assert len(counts) == 1 and counts.pop() <= 6, k


@pytest.mark.parametrize("cat", [two_object_parallel_pair(), _span()]
                         + [_discrete(n) for n in range(1, 4)], ids=lambda cat: cat.name)
def test_every_non_identity_arrow_is_a_generator_where_none_composes(cat):
    identities = set(cat.identity_of.values())
    assert fincat._generators(cat) == [a for a in cat.arrows if a not in identities]


def _one_entry_replaced(cat: FinCategory, rng: random.Random, count: int):
    """Tables of ``cat`` with one composite replaced by another arrow of its hom-set.

    Among them, entries whose arrows are both not generators: no comparison
    of Light's test has such an entry as its ``g.f`` with ``g`` the middle.
    """
    generators = set(fincat._generators(cat))
    identities = set(cat.identity_of.values())
    table = {pair: cat.compose(*pair) for pair in cat.composable_pairs()}
    entries = [pair for pair, h in sorted(table.items())
               if len(cat.hom(cat.src(h), cat.tgt(h))) > 1]
    inner = [(g, f) for g, f in entries if not {g, f} & (generators | identities)]
    picked = rng.sample(entries, min(count, len(entries)))
    picked += rng.sample(inner, min(count, len(inner)))
    for g, f in picked:
        h = table[(g, f)]
        others = [a for a in cat.hom(cat.src(h), cat.tgt(h)) if a != h]
        yield _rebuilt(cat, {**table, (g, f): rng.choice(others)})


def test_one_replaced_composite_is_reported_as_the_triple_loop_reports_it():
    rng = random.Random("light")
    details = collections.Counter()
    cases = [cyclic_category(n) for n in range(8, 41)]
    five = two_object_five_arrow_category()
    for k in range(1, 7):
        cases += [product_category(cyclic_category(k), five),
                  product_category(five, cyclic_category(k))]
    cases.append(two_object_parallel_pair())
    for cat in cases:
        for broken in _one_entry_replaced(cat, rng, 3):
            report = validate_category(broken)
            assert report.line() == plain.validate(broken).line()
            details[report.detail or "pass"] += 1
    assert details["associativity fails"] >= 100, details
    assert details["left identity law fails"] + details["right identity law fails"] >= 5, details


# --------------------------------------------------------------------------
# The integer builders against the constructor by name
# --------------------------------------------------------------------------


def _cyclic_by_name(n: int) -> FinCategory:
    """Z_n through the constructor by name, from its table written out in strings."""
    table = {(f"z{a}", f"z{b}"): f"z{(a + b) % n}" for a in range(n) for b in range(n)}
    return FinCategory(("*",), [(f"z{k}", "*", "*") for k in range(n)], table, {"*": "z0"},
                       name=f"Z{n}")


def _product_by_name(a: FinCategory, b: FinCategory) -> FinCategory:
    """The product through the constructor by name: pair names, componentwise table.

    The composites are taken pair of a by pair of b, so a missing one raises
    where the name-by-name product always raised it.
    """
    objects = [f"({x},{y})" for x in a.objects for y in b.objects]
    arrows = [(f"({f},{g})", f"({a.src(f)},{b.src(g)})", f"({a.tgt(f)},{b.tgt(g)})")
              for f in a.arrows for g in b.arrows]
    identities = {f"({x},{y})": f"({a.identity_of[x]},{b.identity_of[y]})"
                  for x in a.objects for y in b.objects}
    table = {(f"({g1},{g2})", f"({f1},{f2})"): f"({a.compose(g1, f1)},{b.compose(g2, f2)})"
             for g1, f1 in a.composable_pairs() for g2, f2 in b.composable_pairs()}
    return FinCategory(objects, arrows, table, identities, name=f"{a.name}x{b.name}")


def _assert_same_category(built: FinCategory, by_name: FinCategory) -> None:
    assert (built.name, built.objects, built.arrows, built.identity_of) == (
        by_name.name, by_name.objects, by_name.arrows, by_name.identity_of)
    assert [(built.src(a), built.tgt(a)) for a in built.arrows] == [
        (by_name.src(a), by_name.tgt(a)) for a in by_name.arrows]
    for u, v in itertools.product(by_name.objects, repeat=2):
        assert built.hom(u, v) == by_name.hom(u, v)
    pairs = list(by_name.composable_pairs())
    assert list(built.composable_pairs()) == pairs
    assert [built.compose(g, f) for g, f in pairs] == [by_name.compose(g, f) for g, f in pairs]
    assert validate_category(built).line() == validate_category(by_name).line()


@pytest.mark.parametrize("n", [*range(1, 65), 256])
def test_cyclic_rows_match_the_table_by_name(n):
    _assert_same_category(cyclic_category(n), _cyclic_by_name(n))


def truncated_table(n: int) -> dict[tuple[str, str], str]:
    """{0, ..., n, inf} under saturating addition, written out in strings."""
    names = [f"x{k}" for k in range(n + 1)] + ["xinf"]
    return {(names[a], names[b]): names[min(a + b, n + 1)]
            for a in range(n + 2) for b in range(n + 2)}


@pytest.mark.parametrize("n", [*range(9), 256])
def test_a_truncated_category_is_a_valid_monoid_generated_by_one_arrow(n):
    cat = truncated_category(n)
    assert (cat.name, cat.objects, cat.identity_of) == (f"trunc:{n}", ("*",), {"*": "x0"})
    assert cat.arrows == tuple(f"x{k}" for k in range(n + 1)) + ("xinf",)
    assert validate_category(cat).passed
    assert fincat._generators(cat) == ["x1" if n else "xinf"]


@pytest.mark.parametrize("n", range(9))
def test_truncated_rows_match_the_monoid_table_by_name(n):
    elements = [f"x{k}" for k in range(n + 1)] + ["xinf"]
    by_name = from_monoid(elements, truncated_table(n), "x0", name=f"trunc:{n}")
    _assert_same_category(truncated_category(n), by_name)


def test_a_truncated_category_needs_a_nonnegative_bound():
    with pytest.raises(ValidationError, match="trunc:<n> needs n >= 0, got -1"):
        truncated_category(-1)


def _product_cases():
    five, pair = two_object_five_arrow_category(), two_object_parallel_pair()
    for k in range(1, 19):
        yield (cyclic_category(k), five), (_cyclic_by_name(k), five)
        yield (five, cyclic_category(k)), (five, _cyclic_by_name(k))
    yield (pair, cyclic_category(3)), (pair, _cyclic_by_name(3))
    yield (cyclic_category(2), pair), (_cyclic_by_name(2), pair)
    yield (five, pair), (five, pair)


@pytest.mark.parametrize("factors, named_factors", list(_product_cases()),
                         ids=lambda case: "x".join(cat.name for cat in case))
def test_product_rows_match_the_product_by_name(factors, named_factors):
    _assert_same_category(product_category(*factors), _product_by_name(*named_factors))


def test_products_of_random_tables_match_the_product_by_name():
    rng = random.Random("products")
    outcomes = collections.Counter()
    for _ in range(300):
        cat = _random_category(rng)
        for factors in ((cat, cyclic_category(2)), (two_object_parallel_pair(), cat)):
            try:
                by_name = _product_by_name(*factors)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as raised:
                    product_category(*factors)
                assert str(raised.value) == str(exc)
                outcomes["raises"] += 1
                continue
            built = product_category(*factors)
            _assert_same_category(built, by_name)
            outcomes[validate_category(built).detail or "pass"] += 1
    assert outcomes["raises"] >= 20 and outcomes["pass"] >= 20, outcomes
    assert outcomes["associativity fails"] >= 20, outcomes


def _idempotents(*arrows: str) -> FinCategory:
    """One object; every composite of two non-identity arrows is the first arrow."""
    return FinCategory(("*",), [(a, "*", "*") for a in arrows],
                       {(g, f): arrows[0] for g in arrows for f in arrows})


def test_product_refuses_a_repeated_arrow_name():
    left, right = _idempotents("a,b", "a"), _idempotents("c", "b,c")
    with pytest.raises(ValidationError, match=r"^duplicate arrow name '\(a,b,c\)'$"):
        product_category(left, right)
    assert len(product_category(right, left).arrows) == 9


def test_product_refuses_a_repeated_object_name():
    left, right = FinCategory(("p,q", "p"), (), {}), FinCategory(("r", "q,r"), (), {})
    with pytest.raises(ValidationError, match=r"^duplicate object name '\(p,q,r\)'$"):
        product_category(left, right)


def test_the_constructor_refuses_a_repeated_object_name():
    with pytest.raises(ValidationError, match=r"^duplicate object name 'U'$"):
        FinCategory(("U", "V", "U"), (("a", "U", "U"),), {("a", "a"): "a"})


def test_product_raises_the_first_missing_composite_of_a_factor():
    missing = FinCategory(("*",), (("f", "*", "*"),), {})
    # (p, p) composes; (q, q) is missing too, but the pairwise product meets (f, f) first
    late = FinCategory(("*",), (("p", "*", "*"), ("q", "*", "*")),
                       {("p", "p"): "p", ("p", "q"): "p", ("q", "p"): "q"})
    for factors in ((missing, cyclic_category(2)), (cyclic_category(2), missing),
                    (late, missing), (missing, late)):
        with pytest.raises(ValidationError, match=r"^no composite recorded for \('f', 'f'\)$"):
            product_category(*factors)
    with pytest.raises(ValidationError, match=r"^no composite recorded for \('q', 'q'\)$"):
        product_category(late, cyclic_category(2))
    assert product_category(late, FinCategory((), (), {})).arrows == ()
