"""The benchmark's three workloads: seeded inputs, timed items and their checks.

Every item is one timed request into pcmcat's public API.  The workload's
seed and the pass number set the order of a pass's items and every random
choice inside them; the set of instances is fixed, so the coverage counts
repeat exactly across passes and seeds.

Items call pcmcat through module and class attributes looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import itertools
import random
import re
from dataclasses import dataclass
from math import comb
from typing import Callable

from pcmcat import category, cauchy, cli, family, fincat, laws, pcm

import expected


@dataclass
class Item:
    """One timed request; ``check`` runs untimed on what ``run`` returned."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "Checked"]


@dataclass
class Checked:
    checks: int  # verdicts or verified results the item produced
    work: int  # exact instances the item exercised
    error: str | None = None


def _multisets(grid_size: int, max_size: int) -> int:
    """Multiset families of sizes 0..max_size over a grid of grid_size elements."""
    return comb(grid_size + max_size, max_size)


def _hom_grid_sizes(target) -> list[int]:
    if isinstance(target, pcm.Pcm):
        return [len(target.grid)]
    return [len(target.hom_pcm(x, y).grid)
            for x, y in itertools.product(target.objects, repeat=2)]


# --------------------------------------------------------------------------
# pcm-laws: `pcmcat laws` on every builtin base
# --------------------------------------------------------------------------

# (family size, items per base in one pass): 16 bases x 7 = 112 items.  With
# a quarter of the items at F = 5, the 90th percentile falls among F = 5
# items, whose exhaustive sweeps outweigh the seeded random trials.
LAWS_SCHEDULE = ((3, 4), (4, 1), (5, 2))

_CHECK_LINE = re.compile(
    r"^CHECK (?P<kind>[a-z][a-z-]*)\[.*?\] (?P<verdict>[A-Z][A-Z_]*)"
    r"(?: witness=(?P<witness>.*?))?(?:  # .*)?$"
)


def witness_values(witness: str) -> tuple:
    """Member values of each ``{label=value,...}`` family in a witness."""
    return tuple(
        tuple(entry.split("=", 1)[1] for entry in group.split(","))
        for group in re.findall(r"\{([^{}]*)\}", witness)
    )


def check_laws_output(base: str, code: int, text: str) -> tuple[int, str | None]:
    """(verdict lines, first mismatch against the expected answers or None)."""
    seen: dict[str, list[tuple[str, str]]] = {}
    lines = 0
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            lines += 1
            seen.setdefault(match["kind"], []).append((match["verdict"], match["witness"] or ""))
    if code != expected.laws_exit_code(base):
        return lines, f"exit code {code}"
    for kind, verdict_class in expected.laws_verdicts(base).items():
        if kind not in seen:
            return lines, f"no {kind} verdict"
        for verdict, witness in seen[kind]:
            if verdict not in expected.ACCEPTED[verdict_class]:
                return lines, f"{kind} {verdict}, expected {verdict_class}"
            pinned = expected.PINNED_WITNESSES.get((base, kind))
            if pinned is not None and witness_values(witness) != pinned:
                return lines, f"{kind} witness {witness}"
    return lines, None


class PcmLaws:
    """One item is one in-process `pcmcat laws --base B --family-size F --seed S`."""

    name = "pcm-laws"

    def __init__(self, seed: int):
        self.seed = seed
        self.grid_sizes = {
            base: _hom_grid_sizes(category.resolve_base(base)) for base in category.BUILTIN_BASES
        }

    def plan(self, pass_index: int) -> list[tuple[str, int, int]]:
        """(base, family size, seed) per item."""
        rng = random.Random(f"pcm-laws:{self.seed}:{pass_index}")
        plan = [(base, size) for base in category.BUILTIN_BASES
                for size, reps in LAWS_SCHEDULE for _ in range(reps)]
        rng.shuffle(plan)
        return [(base, size, rng.randrange(1 << 30)) for base, size in plan]

    def warm_up(self) -> None:
        cli.main(["laws", "--base", "int", "--family-size", "3"],
                 out=io.StringIO(), err=io.StringIO())

    def items(self, pass_index: int) -> list[Item]:
        return [self._item(*entry) for entry in self.plan(pass_index)]

    def _item(self, base: str, size: int, seed: int) -> Item:
        argv = ["laws", "--base", base, "--family-size", str(size), "--seed", str(seed)]
        work = sum(_multisets(g, size) for g in self.grid_sizes[base])

        def run():
            out = io.StringIO()
            code = cli.main(argv, out=out, err=io.StringIO())
            return code, out.getvalue()

        def check(outcome) -> Checked:
            lines, error = check_laws_output(base, *outcome)
            return Checked(lines, work, error)

        return Item(" ".join(argv), run, check)


# --------------------------------------------------------------------------
# cauchy-laws: the law suites on the 15 convolution categories C[D]
# --------------------------------------------------------------------------

CAUCHY_BASES = ("int", "mod:5", "rational", "matrix:2", "rel:2")
CAUCHY_ROUNDS = 2  # 2 x 75 checker calls per pass, each round with its own seed
_ASSOC_COUNT = re.compile(r"exhaustive over (\d+) triples|(\d+) sampled triples")


def _passed(reports) -> str | None:
    for report in reports:
        if report.verdict == expected.FAIL:
            return report.line()
    return None


class CauchyLaws:
    """One item is one checker call of the convolution-category law suite."""

    name = "cauchy-laws"

    def __init__(self, seed: int):
        self.seed = seed
        self.indexes = {
            "Z2": fincat.cyclic_category(2),
            "Z3": fincat.cyclic_category(3),
            "five-arrow": fincat.two_object_five_arrow_category(),
        }
        self.base_objects = {base: category.resolve_base(base).objects for base in CAUCHY_BASES}

    def plan(self, pass_index: int) -> list[tuple[int, str, str]]:
        """(seed, base, index) per combination, round after round."""
        rng = random.Random(f"cauchy-laws:{self.seed}:{pass_index}")
        plan = []
        for _ in range(CAUCHY_ROUNDS):
            order = [(base, index) for base in CAUCHY_BASES for index in self.indexes]
            rng.shuffle(order)
            seed = rng.randrange(1 << 30)
            plan.extend((seed, base, index) for base, index in order)
        return plan

    def warm_up(self) -> None:
        cc = cauchy.cauchy_product(category.resolve_base("int"), fincat.cyclic_category(2))
        cauchy.check_identity_laws(cc)

    def items(self, pass_index: int) -> list[Item]:
        return [item for seed, base, index in self.plan(pass_index)
                for item in self._combo_items(base, index, seed)]

    def _combo_items(self, base: str, index_name: str, seed: int) -> list[Item]:
        index = self.indexes[index_name]
        label = f"{base}[{index_name}] seed={seed}"
        built = {}

        def identity():
            built["cc"] = cauchy.cauchy_product(category.resolve_base(base), index)
            return [cauchy.check_identity_laws(built["cc"])]

        def associativity():
            return [cauchy.check_associativity(built["cc"], seed=seed)]

        def strong_distributivity():
            return [category.check_strong_distributivity(built["cc"], max_family=3,
                                                         trials=40, seed=seed)]

        def check_one(reports) -> Checked:
            return Checked(len(reports), 0, _passed(reports))

        def check_associativity(reports) -> Checked:
            match = _ASSOC_COUNT.search(reports[0].detail)
            if match is None:
                return Checked(1, 0, f"associativity states no triple count: {reports[0].line()}")
            return Checked(1, int(match[1] or match[2]), _passed(reports))

        items = [
            Item(f"identity-laws {label}", identity, check_one),
            Item(f"associativity {label}", associativity, check_associativity),
        ]
        objects = [(x, u) for x in self.base_objects[base] for u in index.objects]
        for src, tgt in itertools.product(objects, repeat=2):
            items.append(self._suite_item(label, built, src, tgt, seed))
        items.append(Item(f"strong-distributivity {label}", strong_distributivity, check_one))
        return items

    def _suite_item(self, label, built, src, tgt, seed) -> Item:
        def run():
            return laws.run_pcm_suite(built["cc"].hom_pcm(src, tgt), family_size=3,
                                      trials=60, seed=seed)

        def check(reports) -> Checked:
            grid = built["cc"].hom_pcm(src, tgt).grid
            return Checked(len(reports), _multisets(len(grid), 3), _passed(reports))

        return Item(f"pcm-suite {src}->{tgt} {label}", run, check)


# --------------------------------------------------------------------------
# index-scale: int[D] over large indexes, checked against a double loop
# --------------------------------------------------------------------------

CYCLIC_SIZES = range(1, 65)
PRODUCT_SIZES = range(1, 19)  # each in both factor orders


class IndexModel:
    """Objects, hom-sets and composition of an index, written independently of fincat."""

    def __init__(self, objects, arrows: dict[str, tuple[str, str]], compose):
        self.objects = tuple(objects)
        self.arrows = arrows
        self.compose = compose

    def hom(self, u: str, v: str) -> list[str]:
        return [a for a, ends in self.arrows.items() if ends == (u, v)]

    def convolve(self, g: dict, f: dict, u: str, v: str, w: str) -> dict:
        """(g f)(c) = sum of g(b) f(a) over every pair with b . a = c."""
        out = {c: 0 for c in self.hom(u, w)}
        for b in self.hom(v, w):
            for a in self.hom(u, v):
                out[self.compose(b, a)] += g[b] * f[a]
        return out


def cyclic_model(n: int) -> IndexModel:
    def compose(g, f):
        return f"z{(int(g[1:]) + int(f[1:])) % n}"

    return IndexModel(("*",), {f"z{k}": ("*", "*") for k in range(n)}, compose)


def five_arrow_model() -> IndexModel:
    """Objects U, V; arrows id_U, id_V, a, b: U -> V and an idempotent e: U -> U."""
    ends = {"id_U": ("U", "U"), "id_V": ("V", "V"), "a": ("U", "V"), "b": ("U", "V"),
            "e": ("U", "U")}
    table = {("e", "e"): "e", ("a", "e"): "a", ("b", "e"): "b"}

    def compose(g, f):
        if g.startswith("id_"):
            return f
        if f.startswith("id_"):
            return g
        return table[(g, f)]

    return IndexModel(("U", "V"), ends, compose)


def product_model(left: IndexModel, right: IndexModel) -> IndexModel:
    parts = {f"({f},{g})": (f, g) for f in left.arrows for g in right.arrows}
    arrows = {
        name: (f"({left.arrows[f][0]},{right.arrows[g][0]})",
               f"({left.arrows[f][1]},{right.arrows[g][1]})")
        for name, (f, g) in parts.items()
    }

    def compose(h, k):
        (h1, h2), (k1, k2) = parts[h], parts[k]
        return f"({left.compose(h1, k1)},{right.compose(h2, k2)})"

    objects = [f"({x},{y})" for x in left.objects for y in right.objects]
    return IndexModel(objects, arrows, compose)


@dataclass(frozen=True)
class Shape:
    kind: str  # "cyclic", "product" or "swapped" (five-arrow factor first)
    size: int

    def build(self):
        if self.kind == "cyclic":
            return fincat.cyclic_category(self.size)
        cyclic = fincat.cyclic_category(self.size)
        five = fincat.two_object_five_arrow_category()
        if self.kind == "product":
            return fincat.product_category(cyclic, five)
        return fincat.product_category(five, cyclic)

    def model(self) -> IndexModel:
        if self.kind == "cyclic":
            return cyclic_model(self.size)
        if self.kind == "product":
            return product_model(cyclic_model(self.size), five_arrow_model())
        return product_model(five_arrow_model(), cyclic_model(self.size))


SHAPES = (
    [Shape("cyclic", n) for n in CYCLIC_SIZES]
    + [Shape(kind, k) for kind in ("product", "swapped") for k in PRODUCT_SIZES]
)


class IndexScale:
    """One item builds int[D] for one index shape, then composes and sums a batch.

    For every object triple (u, v, w) of the index, the batch holds f1, f2 in
    D(u, v) and g in D(v, w); the item computes g f1, g f2 and their sum.
    """

    name = "index-scale"

    def __init__(self, seed: int):
        self.seed = seed
        self.base = category.resolve_base("int")
        self.models = {shape: shape.model() for shape in SHAPES}

    def plan(self, pass_index: int) -> list:
        """(shape, batch) per item; a batch entry is ((u, v, w), f1, f2, g)."""
        rng = random.Random(f"index-scale:{self.seed}:{pass_index}")
        shapes = list(SHAPES)
        rng.shuffle(shapes)
        plan = []
        for shape in shapes:
            model = self.models[shape]
            batch = []
            for u, v, w in itertools.product(model.objects, repeat=3):
                f1, f2 = ({a: rng.randint(-3, 3) for a in model.hom(u, v)} for _ in range(2))
                g = {b: rng.randint(-3, 3) for b in model.hom(v, w)}
                batch.append(((u, v, w), f1, f2, g))
            plan.append((shape, batch))
        return plan

    def warm_up(self) -> None:
        cc = cauchy.cauchy_product(self.base, fincat.cyclic_category(2))
        obj = cc.objects[0]
        one = cc.make_arrow(obj, obj, {"z0": 1, "z1": 1})
        cc.sum_arrows(family.family_of([cc.compose(one, one)]))

    def items(self, pass_index: int) -> list[Item]:
        return [self._item(shape, batch) for shape, batch in self.plan(pass_index)]

    def _item(self, shape: Shape, batch) -> Item:
        base, model = self.base, self.models[shape]
        x = base.objects[0]
        work = sum(2 * len(model.hom(v, w)) * len(model.hom(u, v))
                   for (u, v, w), *_ in batch)

        def run():
            cc = cauchy.cauchy_product(base, shape.build())
            results = []
            for (u, v, w), f1, f2, g in batch:
                arrow_g = cc.make_arrow((x, v), (x, w), g)
                h1 = cc.compose(arrow_g, cc.make_arrow((x, u), (x, v), f1))
                h2 = cc.compose(arrow_g, cc.make_arrow((x, u), (x, v), f2))
                results.append((h1, h2, cc.sum_arrows(family.family_of([h1, h2]))))
            return results

        def check(results) -> Checked:
            if len(results) != len(batch):
                return Checked(0, work, f"{len(results)} results for {len(batch)} triples")
            verified = 0
            for ((u, v, w), f1, f2, g), (h1, h2, total) in zip(batch, results):
                want1 = model.convolve(g, f1, u, v, w)
                want2 = model.convolve(g, f2, u, v, w)
                want_sum = {c: want1[c] + want2[c] for c in want1}
                ends = ((x, u), (x, w))
                total = getattr(total, "value", None)  # NOT_SUMMABLE has none
                for got, want in ((h1, want1), (h2, want2), (total, want_sum)):
                    if (not isinstance(got, cauchy.CauchyArrow) or (got.src, got.tgt) != ends
                            or dict(got.coeffs) != want):
                        return Checked(verified, work, f"({u},{v},{w}): got {got}, want {want}")
                    verified += 1
            return Checked(verified, work)

        return Item(f"int[{shape.kind}:{shape.size}]", run, check)


WORKLOADS = {cls.name: cls for cls in (PcmLaws, CauchyLaws, IndexScale)}
