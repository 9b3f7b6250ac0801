"""Partial summation oracles: the carrier types, the instances, and homomorphisms.

A summation oracle is a total function from finite indexed families to
either a value or a refusal.  Everything downstream (categories, the
Cauchy product, the law suite) is written against this one surface.
"""

from __future__ import annotations

import cmath
import itertools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import isqrt, lcm
from typing import Callable, Iterable, Mapping

from .errors import (
    CarrierMismatchError,
    NonFiniteError,
    NotAMonoidError,
    NotCommutativeError,
)
from .family import IndexedFamily, families_over, make_family
from .report import format_complex

DEFAULT_TOLERANCE = 1e-9


# --------------------------------------------------------------------------
# carrier element types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Residue:
    """An integer reduced to the canonical range [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "value", self.value % self.modulus)

    @staticmethod
    def _reduced(value: int, modulus: int) -> "Residue":
        """``Residue(value, modulus)`` without the check, for a modulus taken from a residue."""
        residue = object.__new__(Residue)
        residue.__dict__.update(value=value % modulus, modulus=modulus)
        return residue

    def _check(self, other: "Residue") -> None:
        if not isinstance(other, Residue) or other.modulus != self.modulus:
            raise CarrierMismatchError(f"mixed moduli: {self} vs {other}")

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue._reduced(self.value + other.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue._reduced(self.value * other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@dataclass(frozen=True)
class PartialFn:
    """A partial function on {0..n-1}, stored as its graph."""

    graph: frozenset[tuple[int, int]]

    @staticmethod
    def of(mapping: Mapping[int, int]) -> "PartialFn":
        return PartialFn(frozenset(mapping.items()))

    def __post_init__(self):
        keys = [k for k, _ in self.graph]
        if len(set(keys)) != len(keys):
            raise ValueError("graph is not functional")

    @cached_property
    def mapping(self) -> dict[int, int]:
        return dict(sorted(self.graph))

    def is_injective(self) -> bool:
        values = [v for _, v in self.graph]
        return len(set(values)) == len(values)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def compose(self, inner: "PartialFn") -> "PartialFn":
        """self after inner."""
        out = {}
        for x, y in inner.graph:
            if y in self.mapping:
                out[x] = self.mapping[y]
        return PartialFn.of(out)

    def __str__(self) -> str:
        inner = ",".join(f"{k}>{v}" for k, v in sorted(self.graph))
        return "{" + inner + "}"


@dataclass(frozen=True, slots=True, init=False)
class Relation:
    """A relation between {0..n-1} and {0..m-1}, stored as a pair set."""

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs: frozenset[tuple[int, int]]):
        _set_pairs(self, pairs)

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "Relation":
        return Relation(frozenset(tuple(p) for p in pairs))

    def compose(self, inner: "Relation") -> "Relation":
        """self after inner."""
        out = set()
        for a, b in inner.pairs:
            for c, d in self.pairs:
                if b == c:
                    out.add((a, d))
        return Relation(frozenset(out))

    def union(self, other: "Relation") -> "Relation":
        return Relation(self.pairs | other.pairs)

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(frozenset((i, i) for i in range(n)))

    def __str__(self) -> str:
        inner = ",".join(f"({a},{b})" for a, b in sorted(self.pairs))
        return "{" + inner + "}"


# Stored through the slot's member descriptor, as in family.IndexedFamily.
_set_pairs = Relation.pairs.__set__


@dataclass(frozen=True)
class Vec:
    """A vector of exact rationals."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*coords) -> "Vec":
        return Vec(tuple(Fraction(c) for c in coords))

    def __add__(self, other: "Vec") -> "Vec":
        if len(self.coords) != len(other.coords):
            raise CarrierMismatchError("vector dimensions differ")
        return Vec(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def format_element(x) -> str:
    if isinstance(x, complex):
        return format_complex(x)
    return str(x)


# --------------------------------------------------------------------------
# exact comparison of sums of square roots (for the l2 ball)
# --------------------------------------------------------------------------


def _sqrt_sum_sign(radicands: Iterable[int], bound: int) -> int:
    """Sign of (sum of sqrt(r) for r in radicands) - bound, for integers r >= 0.

    Splits off perfect squares; a nonempty sum of irrational square roots
    of integers is itself irrational, so the residual comparison is strict
    and refinement with integer floor roots terminates.  At scale S each
    irrational root r lies strictly between isqrt(r*S*S)/S and one S-th
    above it.
    """
    target = bound
    irrational: list[int] = []
    for r in radicands:
        root = isqrt(r)
        if root * root == r:
            target -= root
        else:
            irrational.append(r)
    if not irrational:
        return (0 > target) - (0 < target)
    if target <= 0:
        return 1
    shift = 32
    while True:
        lo = sum(isqrt(r << 2 * shift) for r in irrational)
        scaled = target << shift
        if lo >= scaled:
            return 1
        if lo + len(irrational) <= scaled:
            return -1
        shift += 32


def compare_sqrt_sum(squares: Iterable[Fraction], bound: Fraction) -> int:
    """Sign of (sum of sqrt(q) for q in squares) - bound, computed exactly.

    Puts the squares and the bound over one common denominator d, where
    sqrt(p/q) * d = sqrt(p*q*(d/q)**2), and compares integer roots.
    """
    squares = [Fraction(q) for q in squares]
    if any(q < 0 for q in squares):
        raise ValueError("negative radicand")
    bound = Fraction(bound)
    d = lcm(bound.denominator, *[q.denominator for q in squares])
    return _sqrt_sum_sign(
        [q.numerator * q.denominator * (d // q.denominator) ** 2 for q in squares],
        bound.numerator * (d // bound.denominator),
    )


# --------------------------------------------------------------------------
# the summation abstraction
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class Summable:
    """A family admitted by the oracle, with its sum."""

    value: object

    def __init__(self, value):
        _set_value(self, value)


# Stored through the slot's member descriptor, as in family.IndexedFamily.
_set_value = Summable.value.__set__


@dataclass(frozen=True)
class NotSummable:
    """A family refused by the oracle."""


NOT_SUMMABLE = NotSummable()


def exact_eq(a, b) -> bool:
    return a == b


def complex_close(tol: float) -> Callable:
    def close(a: complex, b: complex) -> bool:
        return abs(a.real - b.real) <= tol and abs(a.imag - b.imag) <= tol

    return close


@dataclass(frozen=True, eq=False)
class Pcm:
    """A carrier together with a total summation oracle over finite families.

    ``sample_elements`` is the instance's desk-scale element grid;
    ``family_grid`` is the (possibly smaller) subset that exhaustive
    family sweeps enumerate multisets over.  ``total`` declares that the
    oracle returns ``Summable`` for every family of carrier elements, never
    refusing and never raising, and that the sum it returns is itself a
    carrier element; ``admits`` then checks membership only, and a sum of
    members needs no membership check of its own: convolution composites
    and the partition-law sweep's families of block sums go straight to the
    oracle.  Set it only where that holds for every carrier element: the
    finite-families, relations and matrix carriers.

    Membership is checked where a value enters: ``sum`` and ``admits``
    check every entry of the family they are given.  A checker that draws
    its families from a grid checks that grid once, with ``check_grid``,
    before its first oracle call, and then sends those families straight
    to ``oracle``; every value the oracle or a composition produced (block
    sums of a partial carrier, composites, product families) still goes
    through ``sum`` each time it is used.
    """

    name: str
    contains: Callable[[object], bool]
    oracle: Callable[[IndexedFamily], Summable | NotSummable]
    sample_elements: tuple = ()
    family_grid: tuple = ()
    close: Callable[[object, object], bool] = exact_eq
    total: bool = False

    def sum(self, fam: IndexedFamily) -> Summable | NotSummable:
        self._check_members(fam.entries)
        return self.oracle(fam)

    def admits(self, fam: IndexedFamily) -> bool:
        """Whether ``fam`` is summable, without its sum when the carrier is total.

        Entries outside the carrier raise as in ``sum``.
        """
        self._check_members(fam.entries)
        return self.total or isinstance(self.oracle(fam), Summable)

    def check_grid(self, grid: Iterable) -> None:
        """Raise ``outside_error`` at the first element of ``grid`` outside the
        carrier, labelled by its position; families drawn from a checked grid
        need no membership check of their own."""
        self._check_members(enumerate(grid), label=lambda k: f"grid[{k}]")

    def _check_members(self, entries: Iterable[tuple], label: Callable = lambda key: key) -> None:
        """Raise ``outside_error`` at the first (key, value) of ``entries`` outside
        the carrier; ``label`` names that entry from its key, and runs on it alone."""
        contains = self.contains
        for key, value in entries:
            if not contains(value):
                raise self.outside_error(label(key), value)

    def outside_error(self, label: str, value) -> CarrierMismatchError:
        """The error for entry ``label`` = ``value`` found outside the carrier."""
        return CarrierMismatchError(
            f"{self.name}: entry {label!r} = {format_element(value)} is outside the carrier"
        )

    @cached_property
    def zero(self):
        result = self.sum(make_family([]))
        if not isinstance(result, Summable):
            raise NotAMonoidError(f"{self.name}: empty family must be summable")
        return result.value

    @property
    def grid(self) -> tuple:
        return self.family_grid or self.sample_elements


# --------------------------------------------------------------------------
# commutative monoid descriptors (for finite-families / K-bounded summation)
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Monoid:
    """A commutative monoid given by its unit and binary operation.

    ``fold``, when given, sums a sequence of members in one pass; it must
    return what folding ``op`` from ``unit`` over the sequence returns.
    """

    name: str
    unit: object
    op: Callable
    contains: Callable[[object], bool]
    sample: tuple = ()
    close: Callable = exact_eq
    fold: Callable[[list], object] | None = None

    def sum(self, values: list):
        """The fold of ``op`` from ``unit`` over ``values``, in one pass when ``fold`` is given."""
        if self.fold is not None:
            return self.fold(values)
        total = self.unit
        for value in values:
            total = self.op(total, value)
        return total


def validate_monoid(monoid: Monoid, trials: int = 1000, seed: str = "monoid") -> None:
    """Spot-check commutativity, associativity, the unit and ``fold`` on sampled triples."""
    if not monoid.sample:
        return
    rng = random.Random(f"{seed}:{monoid.name}")
    fold = monoid.fold
    if fold is not None and not monoid.close(fold([]), monoid.unit):
        raise NotAMonoidError(f"{monoid.name}: fold of no values is not the unit")
    for _ in range(trials):
        a, b, c = (rng.choice(monoid.sample) for _ in range(3))
        if not monoid.close(monoid.op(a, b), monoid.op(b, a)):
            raise NotCommutativeError(f"{monoid.name}: {a} op {b} != {b} op {a}")
        left = monoid.op(monoid.op(a, b), c)
        right = monoid.op(a, monoid.op(b, c))
        if not monoid.close(left, right):
            raise NotAMonoidError(f"{monoid.name}: associativity fails on ({a},{b},{c})")
        if fold is not None and not monoid.close(fold([a, b, c]), left):
            raise NotAMonoidError(f"{monoid.name}: fold disagrees with op on ({a},{b},{c})")
        if not monoid.close(monoid.op(a, monoid.unit), a):
            raise NotAMonoidError(f"{monoid.name}: unit law fails on {a}")


# Monoids that passed validate_monoid with its defaults; a Monoid compares
# and hashes by identity, so each object is validated once.
_VALIDATED = weakref.WeakSet()


def _validated(monoid: Monoid) -> None:
    """validate_monoid, unless this Monoid object already passed it."""
    if monoid not in _VALIDATED:
        validate_monoid(monoid)
        _VALIDATED.add(monoid)


def _is_int(x) -> bool:
    """An int that is not a bool; an exact int is answered by one type test."""
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def fraction_sum(values) -> Fraction:
    """The sum of the Fractions ``values`` over their least common denominator."""
    d = lcm(*[v.denominator for v in values])
    if d == 1:
        return Fraction(sum([v.numerator for v in values]))
    return Fraction(sum([v.numerator * (d // v.denominator) for v in values]), d)


# magnitude-first order keeps canonical witnesses small
INT_ADD = Monoid(
    name="(Z,+)",
    unit=0,
    op=lambda a, b: a + b,
    contains=_is_int,
    sample=(0, 1, -1, 2, -2, 3, -3),
    fold=sum,
)

RATIONAL_ADD = Monoid(
    name="(Q,+)",
    unit=Fraction(0),
    op=lambda a, b: a + b,
    contains=lambda x: isinstance(x, Fraction),
    fold=fraction_sum,
    sample=tuple(
        sorted(
            {Fraction(p, q) for q in (1, 2, 3, 4) for p in range(-q - 1, q + 2)},
            key=lambda f: (f, f.denominator),
        )
    ),
)


@cache
def mod_add(n: int) -> Monoid:
    """The integers mod n under addition: one Monoid object per n."""
    return Monoid(
        name=f"(Z mod {n},+)",
        unit=Residue(0, n),
        op=lambda a, b: a + b,
        contains=lambda x: isinstance(x, Residue) and x.modulus == n,
        sample=tuple(Residue(k, n) for k in range(n)),
        fold=lambda values: Residue._reduced(sum([v.value for v in values]), n),
    )


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------


def make_finite_families_pcm(monoid: Monoid, family_grid: tuple = ()) -> Pcm:
    """Every finite family is summable; the sum folds the monoid operation."""
    _validated(monoid)

    def oracle(fam: IndexedFamily):
        return Summable(monoid.sum([value for _, value in fam.entries]))

    return Pcm(
        name=f"finite-families[{monoid.name}]",
        contains=monoid.contains,
        oracle=oracle,
        sample_elements=monoid.sample,
        family_grid=family_grid,
        close=monoid.close,
        total=True,
    )


def make_k_bounded_pcm(monoid: Monoid, k: int, family_grid: tuple = ()) -> Pcm:
    """Summable exactly when at most k entries differ from the unit."""
    if k < 1:
        raise ValueError("k must be positive")
    _validated(monoid)

    def oracle(fam: IndexedFamily):
        values = [value for _, value in fam.entries]
        if sum(1 for value in values if value != monoid.unit) > k:
            return NOT_SUMMABLE
        return Summable(monoid.sum(values))

    return Pcm(
        name=f"{k}-bounded[{monoid.name}]",
        contains=monoid.contains,
        oracle=oracle,
        sample_elements=monoid.sample,
        family_grid=family_grid,
        close=monoid.close,
    )


def all_partial_fns(n: int) -> tuple[PartialFn, ...]:
    """Every partial function on {0..n-1}, in a fixed order."""
    out = []
    for choice in itertools.product(range(n + 1), repeat=n):
        out.append(PartialFn.of({x: y for x, y in enumerate(choice) if y < n}))
    return tuple(out)


def all_partial_injections(n: int) -> tuple[PartialFn, ...]:
    return tuple(f for f in all_partial_fns(n) if f.is_injective())


def _disjoint_union(fam: IndexedFamily) -> PartialFn | None:
    union: dict[int, int] = {}
    for _, f in fam.entries:
        for x, y in f.graph:
            if x in union:
                return None
            union[x] = y
    return PartialFn.of(union)


def _overlap_union(fam: IndexedFamily) -> PartialFn | None:
    union: dict[int, int] = {}
    for _, f in fam.entries:
        for x, y in f.graph:
            if x in union and union[x] != y:
                return None
            union[x] = y
    return PartialFn.of(union)


def make_partial_fn_pcm(n: int, family_grid: tuple = ()) -> Pcm:
    """Partial functions on n points; summable when domains are pairwise disjoint."""

    def contains(x):
        return isinstance(x, PartialFn) and all(
            0 <= a < n and 0 <= b < n for a, b in x.graph
        )

    def oracle(fam: IndexedFamily):
        union = _disjoint_union(fam)
        return Summable(union) if union is not None else NOT_SUMMABLE

    return Pcm(
        name=f"partial-fns[{n}]",
        contains=contains,
        oracle=oracle,
        sample_elements=all_partial_fns(n),
        family_grid=family_grid,
    )


def make_partial_injection_pcm(n: int, mode: str, family_grid: tuple = ()) -> Pcm:
    """Partial injections on n points, with disjointness or overlap summation.

    Either way the oracle also insists the union is injective, so malformed
    combinations are refused rather than silently leaving the carrier.
    """
    if mode not in ("disjoint", "overlap"):
        raise ValueError(f"unknown mode {mode!r}")
    merge = _disjoint_union if mode == "disjoint" else _overlap_union

    def contains(x):
        return (
            isinstance(x, PartialFn)
            and x.is_injective()
            and all(0 <= a < n and 0 <= b < n for a, b in x.graph)
        )

    def oracle(fam: IndexedFamily):
        union = merge(fam)
        if union is None or not union.is_injective():
            return NOT_SUMMABLE
        return Summable(union)

    return Pcm(
        name=f"partial-injections-{mode}[{n}]",
        contains=contains,
        oracle=oracle,
        sample_elements=all_partial_injections(n),
        family_grid=family_grid,
    )


def all_relations(n: int, m: int) -> tuple[Relation, ...]:
    cells = [(a, b) for a in range(n) for b in range(m)]
    out = []
    for picks in itertools.product((False, True), repeat=len(cells)):
        out.append(Relation(frozenset(c for c, keep in zip(cells, picks) if keep)))
    return tuple(out)


def make_relations_pcm(n: int, m: int, family_grid: tuple = ()) -> Pcm:
    """Relations between {0..n-1} and {0..m-1}; every family sums to the union."""

    def contains(x):
        return isinstance(x, Relation) and all(
            0 <= a < n and 0 <= b < m for a, b in x.pairs
        )

    def oracle(fam: IndexedFamily):
        pairs: frozenset = frozenset()
        for _, rel in fam.entries:
            pairs |= rel.pairs
        return Summable(Relation(pairs))

    return Pcm(
        name=f"relations[{n}x{m}]",
        contains=contains,
        oracle=oracle,
        sample_elements=all_relations(n, m),
        family_grid=family_grid,
        total=True,
    )


COMPLEX_SAMPLE = (
    0j,
    1 + 0j,
    -1 + 0j,
    1j,
    -1j,
    0.5 + 0.5j,
    cmath.exp(2j * cmath.pi / 3),
)


def make_abs_convergence_pcm(tolerance: float = DEFAULT_TOLERANCE) -> Pcm:
    """Complex scalars; every finite family is summable.

    Floating addition is not associative, so entries are folded in ascending
    label order to make results bit-reproducible.
    """

    def oracle(fam: IndexedFamily):
        total = 0j
        for _, value in sorted(fam.entries, key=lambda e: e[0]):
            if not (cmath.isfinite(value)):
                raise NonFiniteError(f"non-finite component in {value!r}")
            total += value
        return Summable(total)

    return Pcm(
        name="abs-convergence[C]",
        contains=lambda x: isinstance(x, complex),
        oracle=oracle,
        sample_elements=COMPLEX_SAMPLE,
        close=complex_close(tolerance),
    )


def _unit_ball_samples(dim: int, norm: str) -> tuple[Vec, ...]:
    if dim == 1:
        return tuple(Vec.of(c) for c in (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)))
    base = [
        Vec.of(*([0] * dim)),
        Vec.of(1, *([0] * (dim - 1))),
        Vec.of(*([0] * (dim - 1)), -1),
        Vec.of(Fraction(1, 2), *([0] * (dim - 1))),
        Vec.of(Fraction(-1, 2), *([0] * (dim - 1))),
        Vec.of(*([Fraction(1, dim)] * dim)),
        Vec.of(Fraction(3, 10), Fraction(4, 10), *([0] * (dim - 2))),
        Vec.of(Fraction(1, 4), Fraction(-1, 4), *([0] * (dim - 2))),
    ]
    if norm == "l2":
        base.append(Vec.of(Fraction(3, 5), Fraction(4, 5), *([0] * (dim - 2))))
    seen, out = set(), []
    for v in base:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


UNIT_BALL_NORMS = ("l1", "l2", "linf")


def make_unit_ball_pcm(dim: int, norm: str = "l1", family_grid: tuple = ()) -> Pcm:
    """Vectors of rationals; summable exactly when the norms sum to at most 1.

    The oracle works on integer numerators: every coordinate of the family
    goes over one least common denominator d, so each norm is an integer
    over d (its square over d**2 for l2), the ball test is one integer
    comparison (an exact comparison of integer square roots for l2), and
    each coordinate of the sum becomes one Fraction.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if norm not in UNIT_BALL_NORMS:
        raise ValueError(f"unknown norm {norm!r}")
    zero = Vec((Fraction(0),) * dim)

    def contains(x):
        return (isinstance(x, Vec) and len(x.coords) == dim
                and all(isinstance(c, Fraction) for c in x.coords))

    def within_ball(rows: list[list[int]], d: int) -> bool:
        if norm == "l1":
            return sum([abs(a) for row in rows for a in row]) <= d
        if norm == "linf":
            return sum([max(map(abs, row)) for row in rows]) <= d
        return _sqrt_sum_sign([sum([a * a for a in row]) for row in rows], d) <= 0

    def oracle(fam: IndexedFamily):
        if not fam.entries:
            return Summable(zero)
        vectors = [v.coords for _, v in fam.entries]
        d = lcm(*[c.denominator for coords in vectors for c in coords])
        rows = [[c.numerator * (d // c.denominator) for c in coords] for coords in vectors]
        if not within_ball(rows, d):
            return NOT_SUMMABLE
        return Summable(Vec(tuple(Fraction(sum(column), d) for column in zip(*rows))))

    return Pcm(
        name=f"unit-ball[{norm},dim {dim}]",
        contains=contains,
        oracle=oracle,
        sample_elements=_unit_ball_samples(dim, norm),
        family_grid=family_grid,
    )


# --------------------------------------------------------------------------
# homomorphisms
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PcmHom:
    """A map of carriers intended to preserve summable families and sums."""

    source: Pcm
    target: Pcm
    map: Callable


def identity_hom(p: Pcm) -> PcmHom:
    return PcmHom(p, p, lambda x: x)


def compose_homs(g: PcmHom, f: PcmHom) -> PcmHom:
    return PcmHom(f.source, g.target, lambda x: g.map(f.map(x)))


def summable_families(pcm: Pcm, max_size: int, limit: int | None = None):
    """The summable families over the grid, each with its ``Summable``; the
    first ``limit`` of them when ``limit`` is given.  The grid is checked
    once, before the first family is summed."""
    grid = pcm.grid
    pcm.check_grid(grid)
    found = 0
    for fam in families_over(grid, max_size):
        result = pcm.oracle(fam)
        if isinstance(result, Summable):
            yield fam, result
            found += 1
            if found == limit:
                return


def check_hom(h: PcmHom, max_size: int = 3):
    """Brute-force the homomorphism law over families drawn from the source grid.

    Returns a Report: PASS when every tested summable source family maps to
    a summable image family with the matching sum.
    """
    from .report import failing, passing

    name = f"hom[{h.source.name}->{h.target.name}]"
    for fam, result in summable_families(h.source, max_size):
        image = make_family([(label, h.map(value)) for label, value in fam.entries])
        image_result = h.target.sum(image)
        if not isinstance(image_result, Summable):
            return failing(name, fam, detail="image family not summable")
        if not h.target.close(h.map(result.value), image_result.value):
            return failing(name, fam, detail="sums disagree")
    return passing(name)
