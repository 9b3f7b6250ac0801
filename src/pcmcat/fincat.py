"""Finite categories with explicit composition tables, functors, and products."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import NotAMonoidError, ValidationError
from .report import Report, failing, passing


def _refuse_repeats(kind: str, names: tuple) -> None:
    """Raise ``ValidationError`` at the first of ``names`` that repeats an earlier one."""
    if len(set(names)) < len(names):
        repeat = next(name for k, name in enumerate(names) if names.index(name) < k)
        raise ValidationError(f"duplicate {kind} name {repeat!r}")


class FinCategory:
    """Objects, named arrows, identities, and a composition table of integer rows.

    Arrows are numbered in ``arrows`` order; ``_rows[g]`` holds the number of
    g.f, or None where none is recorded, for each f in ``_into[src(g)]``, the
    arrows into src(g) in arrow order (``_pos[f]`` is f's place there).  Names
    appear only at the API: ``hom`` lists a hom sorted by arrow name, and
    ``factorizations`` reads the pairs b, a with b.a = c off the rows, as
    positions in those sorted homs.  This constructor turns a table given by
    name into rows once; composites with identities are inferred unless given.
    """

    def __init__(
        self,
        objects: Iterable[str],
        arrows: Iterable[tuple[str, str, str]],
        compositions: Mapping[tuple[str, str], str],
        identities: Mapping[str, str] | None = None,
        name: str = "",
    ):
        objects = tuple(objects)
        _refuse_repeats("object", objects)
        number: dict[str, int] = {}
        ends: list[tuple[str, str]] = []
        for arrow, src, tgt in arrows:
            if arrow in number:
                raise ValidationError(f"duplicate arrow name {arrow!r}")
            if src not in objects or tgt not in objects:
                raise ValidationError(f"arrow {arrow!r} mentions an unknown object")
            number[arrow] = len(ends)
            ends.append((src, tgt))
        if identities is None:
            identities = {}
            for obj in objects:
                ident = identities[obj] = f"id_{obj}"
                if ident not in number:
                    number[ident] = len(ends)
                    ends.append((obj, obj))
        for obj, ident in identities.items():
            if ident not in number:
                raise ValidationError(f"identity {ident!r} of {obj!r} is not an arrow")
            if ends[number[ident]] != (obj, obj):
                raise ValidationError(f"identity {ident!r} is not an endo-arrow of {obj!r}")
        self._install(objects, tuple(number), ends, identities, name, None)
        rows, pos = self._rows, self._pos
        for (g, f), h in compositions.items():
            for a in (g, f, h):
                if a not in number:
                    raise ValidationError(f"composite entry mentions unknown arrow {a!r}")
            if ends[number[g]][0] != ends[number[f]][1]:
                raise ValidationError(f"composite entry ({g!r}, {f!r}) names a pair "
                                      "that is not composable")
            rows[number[g]][pos[number[f]]] = number[h]
        # infer identity composites: 1.a on the left, then a.1 on the right
        for a, (src, tgt) in enumerate(ends):
            for row, k in ((rows[number[identities[tgt]]], pos[a]),
                           (rows[a], pos[number[identities[src]]])):
                if row[k] is None:
                    row[k] = a

    @classmethod
    def _from_rows(cls, objects, arrows, ends, identities, name, rows) -> FinCategory:
        cat = cls.__new__(cls)
        cat._install(objects, arrows, ends, identities, name, rows)
        return cat

    def _install(self, objects, arrows, ends, identities, name, rows) -> None:
        self.name = name
        self.objects = objects
        self.arrows = arrows
        self.identity_of = dict(identities)
        self._number = {a: k for k, a in enumerate(arrows)}
        self._ends = ends
        self._into: dict[str, list[int]] = {obj: [] for obj in objects}
        self._pos: list[int] = []
        homs: dict[tuple[str, str], list[str]] = {}
        for a, (src, tgt) in enumerate(ends):
            self._pos.append(len(self._into[tgt]))
            self._into[tgt].append(a)
            homs.setdefault((src, tgt), []).append(arrows[a])
        self._homs = {pair: tuple(sorted(hom)) for pair, hom in homs.items()}
        self._rows = [[None] * len(self._into[src]) for src, _ in ends] if rows is None else rows
        self._report: Report | None = None  # set by validate_category
        self._tables: dict = {}  # filled by factorizations, one per triple of objects

    def src(self, arrow: str) -> str:
        return self._ends[self._number[arrow]][0]

    def tgt(self, arrow: str) -> str:
        return self._ends[self._number[arrow]][1]

    def hom(self, u: str, v: str) -> tuple[str, ...]:
        return self._homs.get((u, v), ())

    def factorizations(self, u: str, v: str, w: str) -> dict[str, tuple]:
        """Each c of hom(u, w), in order, with one ``("b*a", j, k)`` per c = b.a:
        b and a run through hom(v, w) and hom(u, v), and j and k are their
        places there.  Built once per triple; the first b.a that is missing or
        lies outside hom(u, w) raises ``ValidationError``."""
        table = self._tables.get((u, v, w))
        if table is None:
            number, place, rows = self._number, self._pos, self._rows
            a_hom = [(a, k, place[number[a]]) for k, a in enumerate(self.hom(u, v))]
            c_hom = self.hom(u, w)
            buckets: dict[int, list] = {number[c]: [] for c in c_hom}
            try:
                for j, b in enumerate(self.hom(v, w)):
                    row = rows[number[b]]
                    for a, k, p in a_hom:
                        buckets[row[p]].append((f"{b}*{a}", j, k))
            except KeyError:  # the loop stopped at the first such pair (b, a)
                composite = None if row[p] is None else self.arrows[row[p]]
                raise ValidationError(f"composite of ({b!r}, {a!r}) is {composite!r}, "
                                      f"not an arrow of D({u},{w})") from None
            table = self._tables[u, v, w] = {
                c: tuple(pairs) for c, pairs in zip(c_hom, buckets.values())}
        return table

    def composable_pairs(self):
        for g, (src, _) in enumerate(self._ends):
            for f in self._into[src]:
                yield self.arrows[g], self.arrows[f]

    def compose(self, g: str, f: str) -> str:
        g_k, f_k = self._number[g], self._number[f]
        if self._ends[g_k][0] != self._ends[f_k][1]:
            raise ValidationError(f"{g!r} and {f!r} are not composable")
        h = self._rows[g_k][self._pos[f_k]]
        if h is None:
            raise ValidationError(f"no composite recorded for ({g!r}, {f!r})")
        return self.arrows[h]


def validate_category(cat: FinCategory) -> Report:
    """PASS when the composition table is total, typed, unital, and associative.

    The check runs once per category; later calls return the stored report.
    """
    if cat._report is None:
        cat._report = _check_table(cat)
    return cat._report


def _check_table(cat: FinCategory) -> Report:
    """Totality, endpoints, unit laws and associativity, read off the integer rows.

    On a one-object category every arrow is an endo-arrow of that object, so
    every composite has the endpoints it needs and only a missing one can
    fail: the rows are scanned for None alone.  With more objects each
    composite's endpoints are compared with those of its factors.  Once the
    endpoints hold, g.f and h.(g.f) lie in the hom-sets the rows assume, so
    h.g.f agrees both ways for every f exactly when ``rows[h.g]`` equals
    ``rows[h]`` read at the places of ``rows[g]``.

    Associativity is decided by Light's test: that comparison runs only for
    the middle arrows g in ``_generators(cat)``.  The middle arrows at which
    every triple associates include the identities (the unit laws hold by
    then) and are closed under composition, so when the generators pass,
    every arrow does.  When one fails, the full scan over every pair names
    the witness.  Failures are reported in the order, and with the witness,
    of a plain loop over pairs, then arrows, then triples.
    """
    name = f"category[{cat.name or 'unnamed'}]"
    arrows, ends, rows, into, pos = cat.arrows, cat._ends, cat._rows, cat._into, cat._pos
    one_object = len(cat.objects) == 1
    wanted: dict[tuple[str, str], list] = {}  # the endpoints of each g.f, by those of g
    for g, row in enumerate(rows):
        if one_object and None not in row:
            continue
        src_g, tgt_g = ends[g]
        want = wanted.get(ends[g])
        if want is None:
            want = wanted[ends[g]] = [(ends[f][0], tgt_g) for f in into[src_g]]
        if None in row or list(map(ends.__getitem__, row)) != want:
            f, h = next((f, h) for f, h, ends_h in zip(into[src_g], row, want)
                        if h is None or ends[h] != ends_h)
            return failing(name, (arrows[g], arrows[f]), detail="composite missing"
                           if h is None else "composite has wrong endpoints")
    identity = {obj: cat._number[ident] for obj, ident in cat.identity_of.items()}
    for a, (src_a, tgt_a) in enumerate(ends):
        if rows[identity[tgt_a]][pos[a]] != a:
            return failing(name, arrows[a], detail="left identity law fails")
        if rows[a][pos[identity[src_a]]] != a:
            return failing(name, arrows[a], detail="right identity law fails")
    for g in map(cat._number.get, _generators(cat)):
        places, k = [pos[x] for x in rows[g]], pos[g]
        if len(places) == 1:  # the one f is the identity: the unit laws decide every triple
            continue
        read = itemgetter(*places)  # a row read at the places, as a tuple
        for h, row_h in enumerate(rows):
            if ends[h][0] == ends[g][1] and rows[row_h[k]] != list(read(row_h)):
                witness = next(_associativity_failures(cat))
                return failing(name, witness, detail="associativity fails")
    return passing(name)


def _generators(cat: FinCategory) -> list[str]:
    """Arrows that, with the identities, reach every arrow by composition.

    Greedy over the endo-arrows in arrow order, then the other arrows in
    arrow order: an arrow not yet reached becomes a generator.  Endo-arrows
    come first because they compose with each other and so reach the most;
    this also makes the count independent of factor order in a product (6
    generators on ``five-arrow x Zk`` and on ``Zk x five-arrow``).  The
    reached set is closed under composition with a generator on the
    left: a new generator is composed with each arrow reached so far, and a
    newly reached arrow with each generator so far, so each (generator,
    arrow) pair is composed at most once.  Needs a total, well-typed table
    that satisfies the unit laws.
    """
    ends, rows, pos = cat._ends, cat._rows, cat._pos
    identity = {obj: cat._number[ident] for obj, ident in cat.identity_of.items()}
    reached_into = {obj: [identity[obj]] if obj in identity else [] for obj in cat.objects}
    reached = set(identity.values())
    generators_out_of: dict[str, list[int]] = {obj: [] for obj in cat.objects}
    generators = []
    for a in sorted(range(len(ends)), key=lambda a: ends[a][0] != ends[a][1]):
        if a in reached:
            continue
        src_a = ends[a][0]
        generators.append(cat.arrows[a])
        generators_out_of[src_a].append(a)
        frontier = [rows[a][pos[r]] for r in reached_into[src_a]]
        while frontier:
            r = frontier.pop()
            if r not in reached:
                reached.add(r)
                reached_into[ends[r][1]].append(r)
                frontier.extend(rows[s][pos[r]] for s in generators_out_of[ends[r][1]])
    return generators


def _associativity_failures(cat: FinCategory):
    """The plain loop's failing triples (h, g, f): for each failing pair, its first f."""
    arrows, ends, rows, into, pos = cat.arrows, cat._ends, cat._rows, cat._into, cat._pos
    for h, row_h in enumerate(rows):
        for g, hg in zip(into[ends[h][0]], row_h):
            left, right = rows[hg], [row_h[pos[x]] for x in rows[g]]
            if left != right:
                k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
                yield arrows[h], arrows[g], arrows[into[ends[g][0]][k]]


def _as_monoid(cat: FinCategory) -> FinCategory:
    report = validate_category(cat)
    if not report.passed:
        raise NotAMonoidError(f"{report.detail}: {report.witness}")
    return cat


def from_monoid(elements: Iterable[str], table: Mapping[tuple[str, str], str],
                unit: str, name: str = "") -> FinCategory:
    """A one-object category whose arrows are the monoid elements."""
    elements = tuple(elements)
    obj = "*"
    return _as_monoid(FinCategory(
        objects=(obj,),
        arrows=tuple((e, obj, obj) for e in elements),
        compositions=dict(table),
        identities={obj: unit},
        name=name or "monoid",
    ))


def cyclic_category(n: int) -> FinCategory:
    """The cyclic group of order n as a one-object category with arrows z0..z{n-1}."""
    if n < 1:  # no unit z0: raises as the table by name does
        return from_monoid((), {}, "z0", name=f"Z{n}")
    numbers = list(range(n))
    rows = [numbers[a:] + numbers[:a] for a in numbers]  # z_a.z_b = z_{(a+b) % n}
    return _as_monoid(FinCategory._from_rows(("*",), tuple(f"z{k}" for k in numbers),
                                             [("*", "*")] * n, {"*": "z0"}, f"Z{n}", rows))


def truncated_category(n: int) -> FinCategory:
    """The monoid {0, ..., n, inf} under saturating addition, as a one-object
    category with arrows x0..x{n} and xinf; the index of series truncated at n."""
    if n < 0:
        raise ValidationError(f"trunc:<n> needs n >= 0, got {n}")
    numbers = range(n + 2)  # n + 1 is the number of xinf
    rows = [[min(a + b, n + 1) for b in numbers] for a in numbers]  # x_a.x_b = x_{a+b}, saturating
    arrows = tuple(f"x{k}" for k in range(n + 1)) + ("xinf",)
    return _as_monoid(FinCategory._from_rows(("*",), arrows, [("*", "*")] * (n + 2),
                                             {"*": "x0"}, f"trunc:{n}", rows))


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
    """Objects and arrows are pairs; composition is componentwise.

    Pairing a's i-th arrow with b's j-th gives arrow i*|b.arrows| + j, so the
    row of a pair is the product of its factors' rows, in that order.
    """
    if a.arrows and b.arrows and any(None in row for cat in (a, b) for row in cat._rows):
        # raise the missing composite met first by composing each pair of a with each of b
        pairs_a = [(a, pair) for pair in a.composable_pairs()]
        for cat, (g, f) in pairs_a[:1] + [(b, p) for p in b.composable_pairs()] + pairs_a[1:]:
            cat.compose(g, f)
    objects = tuple(f"({x},{y})" for x in a.objects for y in b.objects)
    arrows = tuple(f"({f},{g})" for f in a.arrows for g in b.arrows)
    _refuse_repeats("arrow", arrows)
    _refuse_repeats("object", objects)
    ends = [(f"({src_a},{src_b})", f"({tgt_a},{tgt_b})")
            for src_a, tgt_a in a._ends for src_b, tgt_b in b._ends]
    size = len(b.arrows)
    rows = [[r * size + s for r in row_a for s in row_b] for row_a in a._rows for row_b in b._rows]
    identities = {f"({x},{y})": f"({a.identity_of[x]},{b.identity_of[y]})"
                  for x in a.objects for y in b.objects}
    return FinCategory._from_rows(objects, arrows, ends, identities, f"{a.name}x{b.name}", rows)


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
