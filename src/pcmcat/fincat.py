"""Finite categories with explicit composition tables, functors, and products."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import NotAMonoidError, ValidationError
from .report import Report, failing, passing


class FinCategory:
    """Objects, named arrows, identities, and a total composition table.

    ``compositions`` supplies composites for non-identity pairs only;
    composites involving identities are inferred.
    """

    def __init__(
        self,
        objects: Iterable[str],
        arrows: Iterable[tuple[str, str, str]],
        compositions: Mapping[tuple[str, str], str],
        identities: Mapping[str, str] | None = None,
        name: str = "",
    ):
        self.name = name
        self.objects = tuple(objects)
        self._src: dict[str, str] = {}
        self._tgt: dict[str, str] = {}
        arrow_names: list[str] = []
        for arrow, src, tgt in arrows:
            if arrow in self._src:
                raise ValidationError(f"duplicate arrow name {arrow!r}")
            if src not in self.objects or tgt not in self.objects:
                raise ValidationError(f"arrow {arrow!r} mentions an unknown object")
            arrow_names.append(arrow)
            self._src[arrow] = src
            self._tgt[arrow] = tgt
        if identities is None:
            identities = {}
            for obj in self.objects:
                ident = f"id_{obj}"
                identities[obj] = ident
                if ident not in self._src:
                    arrow_names.append(ident)
                    self._src[ident] = obj
                    self._tgt[ident] = obj
        for obj, ident in identities.items():
            if ident not in self._src:
                raise ValidationError(f"identity {ident!r} of {obj!r} is not an arrow")
            if self._src[ident] != obj or self._tgt[ident] != obj:
                raise ValidationError(f"identity {ident!r} is not an endo-arrow of {obj!r}")
        self.identity_of = dict(identities)
        self.arrows = tuple(arrow_names)
        self._comp: dict[tuple[str, str], str] = {}
        for (g, f), h in compositions.items():
            for a in (g, f, h):
                if a not in self._src:
                    raise ValidationError(f"composite entry mentions unknown arrow {a!r}")
            self._comp[(g, f)] = h
        # infer identity composites
        for a in self.arrows:
            self._comp.setdefault((self.identity_of[self._tgt[a]], a), a)
            self._comp.setdefault((a, self.identity_of[self._src[a]]), a)
        homs: dict[tuple[str, str], list[str]] = {}
        for a in self.arrows:
            homs.setdefault((self._src[a], self._tgt[a]), []).append(a)
        self._homs = {ends: tuple(hom) for ends, hom in homs.items()}
        self._report: Report | None = None  # set by validate_category

    def src(self, arrow: str) -> str:
        return self._src[arrow]

    def tgt(self, arrow: str) -> str:
        return self._tgt[arrow]

    def hom(self, u: str, v: str) -> tuple[str, ...]:
        return self._homs.get((u, v), ())

    def composable_pairs(self):
        for g in self.arrows:
            for f in self.arrows:
                if self._src[g] == self._tgt[f]:
                    yield g, f

    def compose(self, g: str, f: str) -> str:
        if self._src[g] != self._tgt[f]:
            raise ValidationError(f"{g!r} and {f!r} are not composable")
        try:
            return self._comp[(g, f)]
        except KeyError:
            raise ValidationError(f"no composite recorded for ({g!r}, {f!r})") from None


def validate_category(cat: FinCategory) -> Report:
    """PASS when the composition table is total, typed, unital, and associative.

    The check runs once per category; later calls return the stored report.
    """
    if cat._report is None:
        cat._report = _check_table(cat)
    return cat._report


def _check_table(cat: FinCategory) -> Report:
    """Totality, endpoints, unit laws and associativity of the table, on integer rows.

    An arrow is numbered by its position among the arrows into its target,
    and ``rows[g]`` lists the numbers of g.f over the arrows f into src(g),
    in arrow order.  Once the endpoints are checked, g.f and h.(g.f) lie in
    the hom-sets the numbering assumes, so h.g.f agrees both ways for every
    f exactly when ``rows[h.g]`` equals ``rows[h]`` indexed by ``rows[g]``.

    Associativity is decided by Light's test: that comparison runs only for
    the middle arrows g in ``_generators(cat)``.  The middle arrows at which
    every triple associates include the identities (the unit laws hold by
    then) and are closed under composition, so when the generators pass,
    every arrow does.  When one fails, the full scan over every pair names
    the witness.  Failures are reported in the order, and with the witness,
    of a plain loop over pairs, then arrows, then triples.
    """
    name = f"category[{cat.name or 'unnamed'}]"
    src, tgt, comp = cat._src, cat._tgt, cat._comp
    into: dict[str, list[str]] = {obj: [] for obj in cat.objects}
    out_of: dict[str, list[str]] = {obj: [] for obj in cat.objects}
    for a in cat.arrows:
        into[tgt[a]].append(a)
        out_of[src[a]].append(a)
    position = {a: k for arrows in into.values() for k, a in enumerate(arrows)}
    rows: dict[str, list[int]] = {}
    for g in cat.arrows:
        row = rows[g] = []
        tgt_g = tgt[g]
        for f in into[src[g]]:
            h = comp.get((g, f))
            if h is None:
                return failing(name, (g, f), detail="composite missing")
            if src[h] != src[f] or tgt[h] != tgt_g:
                return failing(name, (g, f), detail="composite has wrong endpoints")
            row.append(position[h])
    for a in cat.arrows:
        if rows[cat.identity_of[tgt[a]]][position[a]] != position[a]:
            return failing(name, a, detail="left identity law fails")
        if rows[a][position[cat.identity_of[src[a]]]] != position[a]:
            return failing(name, a, detail="right identity law fails")
    for g in _generators(cat):
        row_g, k = rows[g], position[g]
        for h in out_of[tgt[g]]:
            row_h = rows[h]
            if rows[into[tgt[h]][row_h[k]]] != [row_h[x] for x in row_g]:
                witness = next(_associativity_failures(cat, rows, into))
                return failing(name, witness, detail="associativity fails")
    return passing(name)


def _generators(cat: FinCategory) -> list[str]:
    """Arrows that, with the identities, reach every arrow by composition.

    Greedy in arrow order: an arrow not yet reached becomes a generator.
    The reached set is closed under composition with a generator on the
    left: a new generator is composed with each arrow reached so far, and a
    newly reached arrow with each generator so far, so each (generator,
    arrow) pair is composed at most once.  Needs a total, well-typed table
    that satisfies the unit laws.
    """
    src, tgt, comp = cat._src, cat._tgt, cat._comp
    reached_into: dict[str, list[str]] = {obj: [] for obj in cat.objects}
    for obj, ident in cat.identity_of.items():
        reached_into[obj].append(ident)
    reached = set(cat.identity_of.values())
    generators_out_of: dict[str, list[str]] = {obj: [] for obj in cat.objects}
    generators = []
    for a in cat.arrows:
        if a in reached:
            continue
        generators.append(a)
        generators_out_of[src[a]].append(a)
        frontier = [comp[(a, r)] for r in reached_into[src[a]]]
        while frontier:
            r = frontier.pop()
            if r not in reached:
                reached.add(r)
                reached_into[tgt[r]].append(r)
                frontier.extend(comp[(s, r)] for s in generators_out_of[tgt[r]])
    return generators


def _associativity_failures(cat: FinCategory, rows: dict[str, list[int]],
                            into: dict[str, list[str]]):
    """The plain loop's failing triples (h, g, f): for each failing pair, its first f."""
    for h in cat.arrows:
        row_h = rows[h]
        for g, hg in zip(into[cat._src[h]], row_h):
            left = rows[into[cat._tgt[h]][hg]]
            right = [row_h[x] for x in rows[g]]
            if left != right:
                k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
                yield h, g, into[cat._src[g]][k]


def from_monoid(elements: Iterable[str], table: Mapping[tuple[str, str], str],
                unit: str, name: str = "") -> FinCategory:
    """A one-object category whose arrows are the monoid elements."""
    elements = tuple(elements)
    obj = "*"
    cat = FinCategory(
        objects=(obj,),
        arrows=tuple((e, obj, obj) for e in elements),
        compositions=dict(table),
        identities={obj: unit},
        name=name or "monoid",
    )
    report = validate_category(cat)
    if not report.passed:
        raise NotAMonoidError(f"{report.detail}: {report.witness}")
    return cat


def cyclic_category(n: int) -> FinCategory:
    """The cyclic group of order n as a one-object category with arrows z0..z{n-1}."""
    elements = tuple(f"z{k}" for k in range(n))
    table = {
        (f"z{a}", f"z{b}"): f"z{(a + b) % n}" for a in range(n) for b in range(n)
    }
    return from_monoid(elements, table, "z0", name=f"Z{n}")


def trivial_category() -> FinCategory:
    return FinCategory(("*",), (), {}, name="trivial")


def two_object_parallel_pair() -> FinCategory:
    """Two objects, two parallel non-identity arrows: 4 arrows total."""
    return FinCategory(
        objects=("U", "V"),
        arrows=(("a", "U", "V"), ("b", "U", "V")),
        compositions={},
        name="parallel-pair",
    )


def two_object_five_arrow_category() -> FinCategory:
    """Two objects, five arrows: identities, a parallel pair, and an idempotent."""
    return FinCategory(
        objects=("U", "V"),
        arrows=(("a", "U", "V"), ("b", "U", "V"), ("e", "U", "U")),
        compositions={
            ("e", "e"): "e",
            ("a", "e"): "a",
            ("b", "e"): "b",
        },
        name="two-object-five-arrow",
    )


def product_category(a: FinCategory, b: FinCategory) -> FinCategory:
    """Objects and arrows are pairs; composition is componentwise."""

    def obj(x, y):
        return f"({x},{y})"

    def arr(f, g):
        return f"({f},{g})"

    objects = tuple(obj(x, y) for x in a.objects for y in b.objects)
    arrows = tuple(
        (arr(f, g), obj(a.src(f), b.src(g)), obj(a.tgt(f), b.tgt(g)))
        for f in a.arrows
        for g in b.arrows
    )
    identities = {
        obj(x, y): arr(a.identity_of[x], b.identity_of[y])
        for x in a.objects
        for y in b.objects
    }
    compositions = {}
    for g1, f1 in a.composable_pairs():
        for g2, f2 in b.composable_pairs():
            compositions[(arr(g1, g2), arr(f1, f2))] = arr(a.compose(g1, f1), b.compose(g2, f2))
    return FinCategory(objects, arrows, compositions, identities,
                       name=f"{a.name}x{b.name}")


@dataclass(frozen=True)
class Functor:
    """Object and arrow maps between finite categories, given extensionally."""

    obj_map: dict[str, str]
    arr_map: dict[str, str]

    def on_obj(self, x: str) -> str:
        return self.obj_map[x]

    def on_arr(self, f: str) -> str:
        return self.arr_map[f]


def identity_functor(cat: FinCategory) -> Functor:
    return Functor({x: x for x in cat.objects}, {f: f for f in cat.arrows})


def compose_functors(g: Functor, f: Functor) -> Functor:
    return Functor(
        {x: g.obj_map[y] for x, y in f.obj_map.items()},
        {a: g.arr_map[b] for a, b in f.arr_map.items()},
    )


def validate_functor(functor: Functor, source: FinCategory, target: FinCategory) -> Report:
    """PASS when the maps preserve endpoints, identities, and all composites."""
    name = f"functor[{source.name}->{target.name}]"
    for f in source.arrows:
        if f not in functor.arr_map:
            return failing(name, f, detail="arrow has no image")
        image = functor.arr_map[f]
        if target.src(image) != functor.obj_map[source.src(f)]:
            return failing(name, f, detail="source not preserved")
        if target.tgt(image) != functor.obj_map[source.tgt(f)]:
            return failing(name, f, detail="target not preserved")
    for x in source.objects:
        if functor.arr_map[source.identity_of[x]] != target.identity_of[functor.obj_map[x]]:
            return failing(name, x, detail="identity not preserved")
    for g, f in source.composable_pairs():
        lhs = functor.arr_map[source.compose(g, f)]
        rhs = target.compose(functor.arr_map[g], functor.arr_map[f])
        if lhs != rhs:
            return failing(name, (g, f), detail="composite not preserved")
    return passing(name)


def projections(a: FinCategory, b: FinCategory, product: FinCategory) -> tuple[Functor, Functor]:
    """The two projection functors out of product_category(a, b)."""
    first_obj, second_obj = {}, {}
    for x in a.objects:
        for y in b.objects:
            first_obj[f"({x},{y})"] = x
            second_obj[f"({x},{y})"] = y
    first_arr, second_arr = {}, {}
    for f in a.arrows:
        for g in b.arrows:
            first_arr[f"({f},{g})"] = f
            second_arr[f"({f},{g})"] = g
    assert set(first_obj) == set(product.objects)
    return Functor(first_obj, first_arr), Functor(second_obj, second_arr)


def cyclic_reduction_functor(n: int, m: int) -> Functor:
    """The quotient Z_n -> Z_m on one-object cyclic categories (m divides n)."""
    if n % m != 0:
        raise ValidationError(f"{m} does not divide {n}")
    return Functor({"*": "*"}, {f"z{k}": f"z{k % m}" for k in range(n)})


def constant_functor(source: FinCategory, target: FinCategory, obj: str) -> Functor:
    """Collapse everything onto one object and its identity."""
    ident = target.identity_of[obj]
    return Functor({x: obj for x in source.objects}, {f: ident for f in source.arrows})
