"""Convolution categories: coefficient maps over an index category's hom-sets.

An arrow (X,U) -> (Y,V) is a total map from the index hom-set D(U,V) into
the base hom-set C(X,Y) whose value family is summable.  Composition
convolves over factorizations c = b.a in the index category; each hom-set
inherits a summation computed on the flattened coefficient family.

An arrow stores its coefficients, and their columns ``keys`` and
``values``, in the order of ``FinCategory.hom``, which lists a hom sorted by
name; the arrows the kernel builds share the index's hom tuple.  The hom
carrier, ``compose`` and ``sum_arrows`` check ``keys`` against that tuple
before reading ``values`` by position, so a misordered arrow raises
``CarrierMismatchError`` rather than being misread.  The index builds the
factorization table (``FinCategory.factorizations``); ``compose`` keeps one
plan per triple of objects and ``sum_arrows`` one per hom, each built once
its objects are checked.

The summability checks stay on even where the construction guarantees
success: a refusal means the base instance is broken, and is raised.  Over
a partial base carrier every check runs the oracle.  A total one
(``Pcm.total``: finite families, relations, matrices) refuses no family of
its elements and sums them into the carrier, so over it arrow construction
checks membership only (``Pcm.admits``), composition only the membership
that ``Pcm.sum`` checks of the factor products, and ``sum_arrows`` only each
input coefficient's membership, once, in the flattened order; it builds the
labelled flattened family, and checks the pointwise sums again, only over a
partial carrier.

Every base carrier is exact, so two arrows are the same arrow exactly when
they are ``==``: the same ends and the same coefficient tuple.  That is the
one comparison the law checks make.  A missing coefficient is the base hom's
zero, so building ``C[D]`` over a base hom that refuses the empty family
raises ``ValidationError``, naming the hom.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .category import PcmCategory, PcmFunctor, from_semiring, memoized_compose
from .errors import (
    CarrierMismatchError,
    NotAMonoidError,
    NotSummableError,
    UnboundedStreamError,
    ValidationError,
)
from .family import IndexedFamily
from .fincat import FinCategory, Functor, truncated_category, validate_category
from .pcm import NOT_SUMMABLE, Pcm, Summable
from .report import Report, failing, passing


@dataclass(frozen=True, slots=True, init=False)
class CauchyArrow:
    """A coefficient map: one base arrow per index arrow, in hom order.

    ``keys`` and ``values`` are the two columns of ``coeffs``, stored when
    the arrow is built; they take no part in equality, hashing or ``repr``.
    ``CauchyCategory.compose`` and ``sum_arrows`` read coefficients by their
    position in ``values``, once ``keys`` is checked against the index's
    hom.  The arrows they build share that hom's tuple.
    """

    src: tuple
    tgt: tuple
    coeffs: tuple[tuple[str, object], ...]
    keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    values: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, src: tuple, tgt: tuple, coeffs: tuple[tuple[str, object], ...]):
        keys, values = tuple(zip(*coeffs)) or ((), ())
        _store_arrow(self, src, tgt, coeffs, keys, values)

    @classmethod
    def _of(cls, src: tuple, tgt: tuple, keys: tuple[str, ...], values) -> CauchyArrow:
        """The arrow with coefficients ``values`` at ``keys``, keeping the ``keys`` tuple."""
        arrow = cls.__new__(cls)
        values = tuple(values)
        _store_arrow(arrow, src, tgt, tuple(zip(keys, values)), keys, values)
        return arrow

    def coeff(self, index_arrow: str):
        return dict(self.coeffs)[index_arrow]

    @property
    def coeff_family(self) -> IndexedFamily:
        return IndexedFamily(self.coeffs)

    def __str__(self) -> str:
        inner = ",".join(f"{a}={v}" for a, v in self.coeffs)
        return "{" + inner + "}"


# The frozen dataclass stores each field with object.__setattr__; the slots'
# member descriptors do the same stores without the attribute lookups, and
# assignment after __init__ still raises.
_set_src, _set_tgt, _set_coeffs, _set_key_column, _set_value_column = (
    getattr(CauchyArrow, name).__set__ for name in ("src", "tgt", "coeffs", "keys", "values"))


def _store_arrow(arrow: CauchyArrow, src, tgt, coeffs, keys, values) -> None:
    _set_src(arrow, src)
    _set_tgt(arrow, tgt)
    _set_coeffs(arrow, coeffs)
    _set_key_column(arrow, keys)
    _set_value_column(arrow, values)


# Random draws after which a hom's sample stops short of 24 arrows.  A
# partial base may admit fewer than 24 coefficient maps over its pool
# (``kbounded:1`` over Z3 admits 10), so the draws need a cap.  Total bases
# never come near it: the builtin ones need at most 29 draws over Z1..Z8,
# the five-arrow index and its products with Z2.
_SAMPLE_DRAWS = 1000


class CauchyCategory:
    """The convolution category of a summation base over a finite index."""

    def __init__(self, base: PcmCategory, index: FinCategory):
        report = validate_category(index)
        if not report.passed:
            raise ValidationError(f"index category invalid: {report.line()}")
        for x, y in itertools.product(base.objects, repeat=2):
            try:
                base.hom_pcm(x, y).zero
            except NotAMonoidError as refused:
                raise ValidationError(f"base hom ({x},{y}) has no zero arrow: {refused}") from None
        self.base = base
        self.index = index
        self.name = f"{base.name}[{index.name}]"
        self.objects = tuple((x, u) for x in base.objects for u in index.objects)
        self._plans: dict = {}
        self._sum_plans: dict = {}
        self._hom_cache: dict = {}
        self.arrow_hom = lambda arrow: (arrow.src, arrow.tgt)

    # -- structure ---------------------------------------------------------

    def _factorizations(self, u: str, v: str, w: str) -> dict[str, tuple]:
        """The index's factorization table of (u, v, w); the kernel's one read of it."""
        return self.index.factorizations(u, v, w)

    def _misread(self, arrow: CauchyArrow, u: str, v: str) -> CarrierMismatchError:
        """The error for an arrow whose keys are not the sorted D(u,v)."""
        return CarrierMismatchError(f"{arrow} is not an arrow of {self.name}: "
                                    f"its keys are not the sorted D({u},{v})")

    def _require_objects(self, src, tgt) -> None:
        if src not in self.objects or tgt not in self.objects:
            raise ValidationError(f"unknown object pair {src} or {tgt}")

    @staticmethod
    def _admitted(arrow: CauchyArrow, base_pcm: Pcm) -> CauchyArrow:
        """The arrow, once ``base_pcm`` admits its coefficient family."""
        if not base_pcm.admits(arrow.coeff_family):
            raise NotSummableError(
                f"coefficient family of {arrow} is not summable in {base_pcm.name}"
            )
        return arrow

    def make_arrow(self, src, tgt, coeffs: Mapping[str, object]) -> CauchyArrow:
        """Build and defensively validate an arrow; missing coefficients are zero."""
        self._require_objects(src, tgt)
        (x, u), (y, v) = src, tgt
        hom = self.index.hom(u, v)
        unknown = [*set(coeffs).difference(hom)]
        if unknown:
            unknown.sort()
            raise ValidationError(f"coefficients for arrows outside D({u},{v}): {unknown}")
        base_pcm = self.base.hom_pcm(x, y)
        arrow = CauchyArrow._of(src, tgt, hom, [coeffs.get(a, base_pcm.zero) for a in hom])
        return self._admitted(arrow, base_pcm)

    def identity(self, obj) -> CauchyArrow:
        x, u = obj
        one = self.index.identity_of[u]
        return self.make_arrow(obj, obj, {one: self.base.identity(x)})

    def _plan(self, key: tuple) -> tuple:
        """The plan of composing A -> B -> C, for ``key`` = (A, B, C): the homs of both
        factors and of the output, the output's base carrier, each output key's factorizations."""
        src, middle, tgt = key
        self._require_objects(src, tgt)
        if middle not in self.objects:
            raise ValidationError(f"unknown middle object pair {middle}")
        (x, u), (_, v), (z, w) = key
        hom = self.index.hom
        rows = tuple(self._factorizations(u, v, w).items())  # (c, factorizations), in hom order
        plan = self._plans[key] = (hom(v, w), hom(u, v), hom(u, w), self.base.hom_pcm(x, z), rows)
        return plan

    def compose(self, g: CauchyArrow, f: CauchyArrow) -> CauchyArrow:
        """Convolution: (g f)(c) sums g(b) f(a) over all factorizations c = b.a;
        a factor whose keys are not the sorted hom raises ``CarrierMismatchError``."""
        if f.tgt != g.src:
            raise CarrierMismatchError(f"cannot compose {g.tgt}<-{g.src} after {f.tgt}<-{f.src}")
        key = (f.src, g.src, g.tgt)
        g_hom, f_hom, hom, target_pcm, rows = self._plans.get(key) or self._plan(key)
        if g.keys != g_hom:
            raise self._misread(g, g.src[1], g.tgt[1])
        if f.keys != f_hom:
            raise self._misread(f, f.src[1], f.tgt[1])
        gs, fs = g.values, f.values
        base_compose = self.base.compose
        values = []
        for c, pairs in rows:
            result = target_pcm.sum(IndexedFamily(tuple([
                (label, base_compose(gs[b], fs[a])) for label, b, a in pairs
            ])))
            if not isinstance(result, Summable):
                raise NotSummableError(
                    f"convolution coefficient at {c} refused by {target_pcm.name}; "
                    "the base instance violates its composition law"
                )
            values.append(result.value)
        arrow = CauchyArrow._of(f.src, g.tgt, hom, values)
        # ``target_pcm.sum`` checked every factor product, and a total
        # carrier's oracle sums carrier elements into the carrier.
        return arrow if target_pcm.total else self._admitted(arrow, target_pcm)

    def sum_arrows(self, fam: IndexedFamily, src=None, tgt=None):
        """Summable exactly when the flattened coefficient family is; pointwise sums."""
        if fam.entries:
            first = fam.entries[0][1]
            src, tgt = first.src if src is None else src, first.tgt if tgt is None else tgt
            for _, arrow in fam.entries:
                if arrow.src != src or arrow.tgt != tgt:
                    raise CarrierMismatchError("arrows in a family must share src and tgt")
        elif src is None or tgt is None:
            raise ValidationError("summing an empty arrow family needs src and tgt")
        try:
            base_pcm, keys, places = self._sum_plans[src, tgt]
        except KeyError:  # base carrier, keys and their places, once both ends are checked
            self._require_objects(src, tgt)
            keys = self.index.hom(src[1], tgt[1])
            base_pcm, keys, places = self._sum_plans[src, tgt] = (
                self.base.hom_pcm(src[0], tgt[0]), keys, tuple(enumerate(keys)))
        rows = []  # (label, coefficients in hom order) per arrow, once its keys are checked
        for i, arrow in fam.entries:
            if arrow.keys != keys:
                raise self._misread(arrow, src[1], tgt[1])
            rows.append((i, arrow.values))
        contains = base_pcm.contains
        for i, values in rows:
            for k, a in places:
                if not contains(values[k]):
                    raise base_pcm.outside_error(f"{i}|{a}", values[k])
        if not base_pcm.total:
            flattened = IndexedFamily(tuple([
                (f"{i}|{a}", values[k]) for i, values in rows for k, a in places
            ]))
            if not isinstance(base_pcm.oracle(flattened), Summable):
                return NOT_SUMMABLE
        sums = [None] * len(keys)
        for k, a in places:
            result = base_pcm.oracle(IndexedFamily(tuple([(i, values[k]) for i, values in rows])))
            if not isinstance(result, Summable):
                raise NotSummableError(
                    f"pointwise sum at {a} refused although the flattened family "
                    "was admitted; the base instance violates the partition law"
                )
            sums[k] = result.value
        arrow = CauchyArrow._of(src, tgt, keys, sums)
        # a total carrier's oracle sums carrier elements into the carrier
        return Summable(arrow if base_pcm.total else self._admitted(arrow, base_pcm))

    # -- hom summation surface ----------------------------------------------

    def _sample_arrows(self, src, tgt) -> tuple[CauchyArrow, ...]:
        (x, u), (y, v) = src, tgt
        base_pcm = self.base.hom_pcm(x, y)
        hom = self.index.hom(u, v)
        pool = [base_pcm.zero]
        for value in base_pcm.grid:
            if value not in pool:
                pool.append(value)
            if len(pool) >= 4:
                break
        arrows: list[CauchyArrow] = []

        def push(coeffs):
            """Keep the arrow with these coefficients, unless the base refuses them."""
            try:
                arrow = self.make_arrow(src, tgt, coeffs)
            except NotSummableError:
                return
            if arrow not in arrows:
                arrows.append(arrow)

        if len(pool) ** len(hom) <= 32:
            for values in itertools.product(pool, repeat=len(hom)):
                push(dict(zip(hom, values)))
        else:
            rng = random.Random(f"cauchy-samples:{self.name}:{src}:{tgt}")
            push({})
            for value in pool[1:3]:
                for a in hom:
                    push({a: value})
            for _ in range(_SAMPLE_DRAWS):
                if len(arrows) >= 24:
                    break
                push({a: rng.choice(pool) for a in hom})
        if src == tgt:
            ident = self.identity(src)
            if ident not in arrows:
                arrows.insert(0, ident)
        return tuple(arrows)

    def hom_pcm(self, src, tgt) -> Pcm:
        key = (src, tgt)
        if key in self._hom_cache:
            return self._hom_cache[key]
        keys = self.index.hom(src[1], tgt[1])

        def contains(arrow):
            """An arrow src -> tgt whose keys are the index's hom tuple."""
            return (
                isinstance(arrow, CauchyArrow)
                and arrow.src == src
                and arrow.tgt == tgt
                and arrow.keys == keys
            )

        samples = self._sample_arrows(src, tgt)
        pcm = Pcm(
            name=f"hom[{self.name} {src}->{tgt}]",
            contains=contains,
            oracle=lambda fam: self.sum_arrows(fam, src=src, tgt=tgt),
            sample_elements=samples,
            family_grid=samples[:4],
        )
        self._hom_cache[key] = pcm
        return pcm

    def __repr__(self):
        return f"CauchyCategory({self.name!r})"


def cauchy_product(base: PcmCategory, index: FinCategory) -> CauchyCategory:
    return CauchyCategory(base, index)


# --------------------------------------------------------------------------
# category validation (for constructed instances)
# --------------------------------------------------------------------------


def check_identity_laws(cc) -> Report:
    name = f"identity-laws[{cc.name}]"
    for src, tgt in itertools.product(cc.objects, repeat=2):
        id_src, id_tgt = cc.identity(src), cc.identity(tgt)
        for f in cc.hom_pcm(src, tgt).sample_elements:
            if cc.compose(f, id_src) != f:
                return failing(name, f, detail="right identity law fails")
            if cc.compose(id_tgt, f) != f:
                return failing(name, f, detail="left identity law fails")
    return passing(name)


def check_associativity(cc, seed: int = 0) -> Report:
    """(h.g).f against h.(g.f) over triples of sample arrows, in list order.

    The triples are every one, path by path in ``product(hs, gs, fs)``
    order, when there are at most 512; else 500 seeded draws.  The first
    triple that fails is the witness; an exception propagates.  ``cc`` is
    read only through ``objects``, ``hom_pcm``, ``compose`` and ``name``, so
    a base category is checked as ``C[D]`` is.  One
    ``category.memoized_compose`` memo keeps each composite of two sample
    arrows for the call: with coefficients from a pool of at most 4 base
    values the same pair recurs, as ``h.g`` in one triple and ``g.f`` in
    another.
    """
    name = f"associativity[{cc.name}]"
    paths = []
    total = 0
    for o1, o2, o3, o4 in itertools.product(cc.objects, repeat=4):
        fs = cc.hom_pcm(o1, o2).sample_elements
        gs = cc.hom_pcm(o2, o3).sample_elements
        hs = cc.hom_pcm(o3, o4).sample_elements
        if fs and gs and hs:
            paths.append((fs, gs, hs))
            total += len(fs) * len(gs) * len(hs)

    if total <= 512:
        triples = [(h, g, f) for fs, gs, hs in paths
                   for h, g, f in itertools.product(hs, gs, fs)]
        detail = f"exhaustive over {total} triples"
    else:
        rng = random.Random(f"{seed}:assoc:{cc.name}")
        triples = []
        for _ in range(500):
            fs, gs, hs = rng.choice(paths)
            triples.append((rng.choice(hs), rng.choice(gs), rng.choice(fs)))
        detail = "500 sampled triples"

    compose, pair = cc.compose, memoized_compose(cc.compose, {})
    for h, g, f in triples:
        if compose(pair(h, g), f) != compose(h, pair(g, f)):
            return failing(name, (h, g, f))
    return passing(name, detail=detail)


# --------------------------------------------------------------------------
# the structural functors
# --------------------------------------------------------------------------


def sigma_functor(cc: CauchyCategory) -> PcmFunctor:
    """Forget the index: send an arrow to the sum of all its coefficients."""

    def on_arr(arrow: CauchyArrow):
        (x, _), (y, _) = arrow.src, arrow.tgt
        result = cc.base.hom_pcm(x, y).sum(arrow.coeff_family)
        if not isinstance(result, Summable):
            raise NotSummableError("arrow coefficients are not summable; invalid arrow")
        return result.value

    return PcmFunctor(lambda obj: obj[0], on_arr)


def eta_functor(cc: CauchyCategory, u) -> PcmFunctor:
    """Embed the base at index object u: the coefficient sits at the identity."""
    if u not in cc.index.objects:
        raise ValidationError(f"unknown index object {u!r}")
    one = cc.index.identity_of[u]

    def on_arr(h):
        x, y = cc.base.arrow_hom(h)
        return cc.make_arrow((x, u), (y, u), {one: h})

    return PcmFunctor(lambda x: (x, u), on_arr)


def gamma_functor(cc: CauchyCategory, x) -> PcmFunctor:
    """Embed the index at base object x: coefficient 1_x on the named arrow."""
    if x not in cc.base.objects:
        raise ValidationError(f"unknown base object {x!r}")

    def on_arr(h: str):
        u, v = cc.index.src(h), cc.index.tgt(h)
        return cc.make_arrow((x, u), (x, v), {h: cc.base.identity(x)})

    return PcmFunctor(lambda u: (x, u), on_arr)


def star_embed(cc: CauchyCategory, f, g: str) -> CauchyArrow:
    """The arrow with coefficient f on index arrow g and zero elsewhere."""
    x, y = cc.base.arrow_hom(f)
    u, v = cc.index.src(g), cc.index.tgt(g)
    return cc.make_arrow((x, u), (y, v), {g: f})


# --------------------------------------------------------------------------
# functorial actions on the two arguments
# --------------------------------------------------------------------------


def map_base(gamma: PcmFunctor, source: CauchyCategory, target: CauchyCategory) -> PcmFunctor:
    """Lift a base functor: coefficients are mapped pointwise."""

    def on_obj(obj):
        x, u = obj
        return (gamma.on_obj(x), u)

    def on_arr(arrow: CauchyArrow):
        coeffs = {a: gamma.on_arr(value) for a, value in arrow.coeffs}
        return target.make_arrow(on_obj(arrow.src), on_obj(arrow.tgt), coeffs)

    return PcmFunctor(on_obj, on_arr)


def map_index(source: CauchyCategory, target: CauchyCategory, lam: Functor) -> PcmFunctor:
    """Reindex along a functor of index categories: coefficients sum over fibers."""

    def on_obj(obj):
        x, u = obj
        return (x, lam.on_obj(u))

    def on_arr(arrow: CauchyArrow):
        (x, u), (y, v) = arrow.src, arrow.tgt
        base_pcm = source.base.hom_pcm(x, y)
        image_hom = target.index.hom(lam.on_obj(u), lam.on_obj(v))
        coeffs = {}
        for image in image_hom:
            fiber = tuple(
                (a, value) for a, value in arrow.coeffs if lam.on_arr(a) == image
            )
            result = base_pcm.sum(IndexedFamily(fiber))
            if not isinstance(result, Summable):
                raise NotSummableError(
                    f"fiber over {image} refused by {base_pcm.name}; "
                    "the base instance violates the partition law"
                )
            coeffs[image] = result.value
        return target.make_arrow(on_obj(arrow.src), on_obj(arrow.tgt), coeffs)

    return PcmFunctor(on_obj, on_arr)


# --------------------------------------------------------------------------
# truncated power series: one composite in rational[trunc:n]
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedStream:
    """Coefficients with a declared geometric envelope |a_n| <= scale * ratio**n."""

    coeff: Callable[[int], Fraction]
    scale: Fraction
    ratio: Fraction

    def __post_init__(self):
        if not (0 <= self.ratio < 1):
            raise ValueError("ratio must satisfy 0 <= ratio < 1")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")


def geometric_stream(scale, ratio) -> BoundedStream:
    scale, ratio = Fraction(scale), Fraction(ratio)
    return BoundedStream(lambda n: scale * ratio**n, scale, ratio)


@dataclass(frozen=True)
class SeriesProduct:
    coeffs: tuple[Fraction, ...]
    tail_bound: Fraction


def _coeff_at(stream, n: int) -> Fraction:
    if isinstance(stream, BoundedStream):
        return Fraction(stream.coeff(n))
    return Fraction(stream[n]) if n < len(stream) else Fraction(0)


def _envelope(stream, ratio: Fraction) -> Fraction:
    """A scale C with |a_n| <= C * ratio**n for the given stream."""
    if isinstance(stream, BoundedStream):
        return stream.scale
    best = Fraction(0)
    for n, value in enumerate(stream):
        if value == 0:
            continue
        if ratio == 0:
            if n > 0:
                raise UnboundedStreamError("zero ratio cannot envelope higher terms")
            best = max(best, abs(Fraction(value)))
        else:
            best = max(best, abs(Fraction(value)) / ratio**n)
    return best


def series_convolve(p, q, order: int) -> SeriesProduct:
    """Coefficients 0..order of the product series, with an exact tail bound.

    The product is one composite in ``rational[trunc:n]``: each stream is the
    arrow with its k-th coefficient at x{k} for k <= n, and zero at xinf.  n
    is ``order`` when either stream is bounded, else the larger of ``order``
    and the product's degree, so that a finite product is exact to its last
    term and its tail bound is the sum of the magnitudes past ``order``.  The
    index has (n + 2)**2 factorizations, so time and memory grow with n**2.
    Bounded streams get the crude (n+1) * ratio**n majorant, summed in closed
    form: an over-estimate, not a sharp constant.
    """
    for stream in (p, q):
        if not isinstance(stream, (BoundedStream, list, tuple)):
            raise UnboundedStreamError(
                "streams must be finite-support sequences or carry a declared bound"
            )
    bounded = isinstance(p, BoundedStream) or isinstance(q, BoundedStream)
    degree = 0 if bounded else max(len(p) - 1, 0) + max(len(q) - 1, 0)
    n = order if bounded else max(order, degree)
    cc = CauchyCategory(from_semiring("rational"), truncated_category(n))
    obj = cc.objects[0]
    p_arrow, q_arrow = (
        cc.make_arrow(obj, obj, {f"x{k}": _coeff_at(stream, k) for k in range(n + 1)})
        for stream in (p, q))
    product = dict(cc.compose(p_arrow, q_arrow).coeffs)
    coeffs = tuple(product[f"x{k}"] for k in range(order + 1))
    if not bounded:
        tail = sum((abs(product[f"x{k}"]) for k in range(order + 1, degree + 1)), Fraction(0))
        return SeriesProduct(coeffs, tail)
    ratio = Fraction(0)
    if isinstance(p, BoundedStream):
        ratio = max(ratio, p.ratio)
    if isinstance(q, BoundedStream):
        ratio = max(ratio, q.ratio)
    scale = _envelope(p, ratio) * _envelope(q, ratio)
    return SeriesProduct(coeffs, _tail_majorant(scale, ratio, order))


def _tail_majorant(scale: Fraction, ratio: Fraction, order: int) -> Fraction:
    """scale * sum_{n > order} (n+1) * ratio**n, in closed form."""
    if ratio == 0:
        return Fraction(0)
    n = order
    tail = ratio ** (n + 1) * ((n + 2) - (n + 1) * ratio) / (1 - ratio) ** 2
    return scale * tail
