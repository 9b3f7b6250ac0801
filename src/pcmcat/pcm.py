"""Partial summation oracles: the carrier types, the instances, and homomorphisms.

A summation oracle is a total function from finite indexed families to
either a value or a refusal.  Everything downstream (categories, the
Cauchy product, the law suite) is written against this one surface.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Mapping

from .errors import (
    CarrierMismatchError,
    NotAMonoidError,
    NotCommutativeError,
)
from .family import IndexedFamily, families_over, make_family
from .report import failing, format_complex, passing


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
        """The partial function ``mapping``: its keys are unique, so its graph is
        functional and ``__post_init__``'s check is skipped."""
        fn = object.__new__(PartialFn)
        fn.__dict__["graph"] = frozenset(mapping.items())
        return fn

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


@cache
def _cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n, lowest degree first: x**n - 1 divided exactly by Phi_d for each
    proper divisor d of n (Washington, *Introduction to Cyclotomic Fields*, ch. 2)."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = _cyclotomic_polynomial(d)
            quotient = [0] * (len(poly) - len(divisor) + 1)
            for i in range(len(quotient) - 1, -1, -1):
                quotient[i] = top = poly[i + len(divisor) - 1]
                for j, c in enumerate(divisor):
                    poly[i + j] -= top * c
            poly = quotient
    return tuple(poly)


@cache
def _powers(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n**k for k in 0..n-1, each reduced modulo Phi_n to its phi(n)
    coordinates in the basis 1, zeta_n, zeta_n**2, ..."""
    phi = _cyclotomic_polynomial(n)
    degree = len(phi) - 1
    rows = [tuple(int(j == 0) for j in range(degree))]
    for _ in range(n - 1):  # times zeta: up one degree, and zeta**degree = -(Phi_n less its top)
        row = rows[-1]
        rows.append(tuple([(row[j - 1] if j else 0) - row[-1] * phi[j] for j in range(degree)]))
    return tuple(rows)


def _reduce(by_power: list[int], n: int) -> tuple[int, ...]:
    """The coordinates of sum(by_power[k] * zeta_n**k) over the n powers of zeta_n."""
    powers = _powers(n)
    out = by_power[:len(powers[0])]
    for k in range(len(out), n):
        c = by_power[k]
        if c:
            for j, r in enumerate(powers[k]):
                out[j] += c * r
    return tuple(out)


@dataclass(frozen=True, slots=True, init=False)
class Cyclotomic:
    """An element of the cyclotomic field Q(zeta_n), zeta_n = exp(2 pi i / n), held exactly.

    The value is sum(num[k] * zeta_n**k for k < phi(n)) / den, kept canonical:
    ``num`` is reduced modulo the cyclotomic polynomial Phi_n, ``den > 0`` and
    ``gcd(den, *num) == 1``.  So equal values have equal fields, and the
    dataclass ``==`` and ``hash`` are value equality.  Adding or multiplying
    values of different n raises ``CarrierMismatchError``.  ``complex(x)``
    evaluates the value in floating point; ``str(x)`` prints it from the
    exact numerators.
    """

    num: tuple[int, ...]
    den: int
    n: int

    def __init__(self, num: Iterable[int], den: int, n: int):
        """sum(num[k] * zeta_n**k) / den, for any integers num[k] and den != 0, made canonical."""
        if n < 1 or den == 0:
            raise ValueError(f"Q(zeta_n) needs n >= 1 and den != 0, got n={n}, den={den}")
        by_power = [0] * n
        for k, c in enumerate(num):
            by_power[k % n] += c if den > 0 else -c
        value = Cyclotomic._over(_reduce(by_power, n), abs(den), n)
        _set_num(self, value.num)
        _set_den(self, value.den)
        _set_n(self, n)

    @staticmethod
    def _over(num: tuple[int, ...], den: int, n: int) -> "Cyclotomic":
        """``num / den`` for reduced ``num`` and ``den > 0``, made canonical by one gcd."""
        if den != 1:
            common = gcd(den, *num)
            if common != 1:
                den //= common
                num = tuple([c // common for c in num])
        value = _new(Cyclotomic)
        _set_num(value, num)
        _set_den(value, den)
        _set_n(value, n)
        return value

    @staticmethod
    def of(n: int, *coeffs) -> "Cyclotomic":
        """sum(coeffs[k] * zeta_n**k), for rational ``coeffs``."""
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in coeffs])
        return Cyclotomic([c.numerator * (den // c.denominator) for c in coeffs], den, n)

    @staticmethod
    def root(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n**k."""
        return Cyclotomic._over(_powers(n)[k % n], 1, n)

    def _check(self, other: "Cyclotomic") -> None:
        if not isinstance(other, Cyclotomic) or other.n != self.n:
            raise CarrierMismatchError(f"mixed cyclotomic fields: {self!r} vs {other!r}")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return cyclotomic_sum([self, other])

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        n = self.n
        by_power = [0] * n
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        by_power[(i + j) % n] += a * b
        return Cyclotomic._over(_reduce(by_power, n), self.den * other.den, n)

    def __complex__(self) -> complex:
        roots = [cmath.exp(2j * cmath.pi * k / self.n) for k in range(len(self.num))]
        return complex(math.fsum([c * r.real for c, r in zip(self.num, roots)]) / self.den,
                       math.fsum([c * r.imag for c, r in zip(self.num, roots)]) / self.den)

    def __str__(self) -> str:
        """``a+bi`` with 12 fractional digits, each of them right: whatever
        their magnitude, the parts are evaluated in decimal to within 10**-20,
        so only a part within that of a rounding boundary could round apart
        from its exact value."""
        # each part is at most B = sum |num| / den; the partial sums need its
        # integer digits, and the n - 1 steps of _decimal_roots and the
        # len(num) < n roundings of the sums cost up to len(str(n)) more
        prec = len(str(sum(map(abs, self.num)) // self.den)) + len(str(self.n)) + 22
        cos, sin = _decimal_roots(self.n, prec)
        with localcontext() as context:
            context.prec = prec
            re = sum([c * cos[k] for k, c in enumerate(self.num) if c], Decimal(0)) / self.den
            im = sum([c * sin[k] for k, c in enumerate(self.num) if c], Decimal(0)) / self.den
            return format_complex(re, im)


@lru_cache(maxsize=64)
def _decimal_roots(n: int, prec: int) -> tuple[tuple[Decimal, ...], tuple[Decimal, ...]]:
    """cos and sin of 2 pi k / n for k < n, each within k * 10**-prec.

    Computed with ``prec + 5`` digits: pi by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239), cos and sin of 2 pi / n by their
    Taylor series, and the rest by the angle-addition recurrence.  A step of
    the recurrence is a rotation, which keeps the error it is given, so the
    error grows by a few units of the last digit per step.
    """
    with localcontext() as context:
        context.prec = prec + 5
        tiny = Decimal(10) ** -(prec + 5)

        def atan_inverse(x: int) -> Decimal:
            total, power, j = Decimal(0), Decimal(1) / x, 0
            while power > tiny:
                total += (power if j % 2 == 0 else -power) / (2 * j + 1)
                power /= x * x
                j += 1
            return total

        angle = 2 * (16 * atan_inverse(5) - 4 * atan_inverse(239)) / n
        cos1, sin1, term, m = Decimal(1), Decimal(0), Decimal(1), 0
        while abs(term) > tiny:  # term = angle**m / m!, alternately into cos and sin
            m += 1
            term = term * angle / m
            if m % 2:
                sin1 += term if m % 4 == 1 else -term
            else:
                cos1 += term if m % 4 == 0 else -term
        cos, sin = [Decimal(1)], [Decimal(0)]
        for _ in range(n - 1):
            c, s = cos[-1], sin[-1]
            cos.append(c * cos1 - s * sin1)
            sin.append(s * cos1 + c * sin1)
    return tuple(cos), tuple(sin)


# Stored through the slots' member descriptors, as in family.IndexedFamily.
_set_num, _set_den, _set_n = (getattr(Cyclotomic, name).__set__ for name in ("num", "den", "n"))
_new = object.__new__


def cyclotomic_sum(values: list[Cyclotomic]) -> Cyclotomic:
    """The sum of one or more members of one Q(zeta_n), on integer numerators alone.

    The numerators, scaled to the lcm of the denominators, are added as
    integers and made canonical by one gcd, as ``category._exact_sum`` does
    for matrices; no Fraction is built.  One value is its own sum.
    """
    if len(values) == 1:
        return values[0]
    den = lcm(*[v.den for v in values])
    if den == 1:
        nums = [v.num for v in values]
    else:
        nums = [v.num if v.den == den else [c * (den // v.den) for c in v.num] for v in values]
    return Cyclotomic._over(tuple(map(sum, zip(*nums))), den, values[0].n)


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


@dataclass(frozen=True, eq=False)
class Pcm:
    """A carrier together with a total summation oracle over finite families.

    Every carrier is exact: two of its elements are equal sums exactly when
    they are ``==``, so the checkers compare sums with ``==`` and no tolerance.
    ``sample_elements`` is the instance's desk-scale element grid;
    ``family_grid`` is the (possibly smaller) subset that exhaustive
    family sweeps enumerate multisets over.  ``total`` declares that the
    oracle returns ``Summable`` for every family of carrier elements, never
    refusing and never raising, and that the sum it returns is itself a
    carrier element; ``admits`` then checks membership only, and a sum of
    members needs no membership check of its own: convolution composites
    and the partition-law sweep's families of block sums go straight to the
    oracle.  Set it only where that holds for every carrier element: the
    finite-families, relations, matrix and cyclotomic carriers.

    Membership is checked where a value enters.  The grid enters when the
    carrier is built: ``__post_init__`` raises ``outside_error`` at the first
    grid element outside the carrier, labelled ``grid[k]``, before any oracle
    call.  So a family drawn from the grid is a family of members, and the
    checkers send it straight to ``oracle``.  ``sum`` and ``admits`` check
    every entry of the family they are given; every value the oracle or a
    composition produced (block sums of a partial carrier, composites,
    product families) still goes through ``sum`` each time it is used.
    """

    name: str
    contains: Callable[[object], bool]
    oracle: Callable[[IndexedFamily], Summable | NotSummable]
    sample_elements: tuple = ()
    family_grid: tuple = ()
    total: bool = False

    def __post_init__(self):
        self._check_members(enumerate(self.grid), label=lambda k: f"grid[{k}]")

    def sum(self, fam: IndexedFamily) -> Summable | NotSummable:
        self._check_members(fam.entries)
        return self.oracle(fam)

    def admits(self, fam: IndexedFamily) -> bool:
        """Whether ``fam`` is summable, without its sum when the carrier is total.

        Entries outside the carrier raise as in ``sum``.
        """
        self._check_members(fam.entries)
        return self.total or isinstance(self.oracle(fam), Summable)

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
            f"{self.name}: entry {label!r} = {value} is outside the carrier"
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
    fold: Callable[[list], object] | None = None

    def sum(self, values: list):
        """The fold of ``op`` from ``unit`` over ``values``, in one pass when ``fold`` is given."""
        if self.fold is not None:
            return self.fold(values)
        total = self.unit
        for value in values:
            total = self.op(total, value)
        return total


def validate_monoid(monoid: Monoid) -> None:
    """Spot-check commutativity, associativity, the unit and ``fold`` on 1000 sampled triples."""
    if not monoid.sample:
        return
    rng = random.Random(f"monoid:{monoid.name}")
    fold = monoid.fold
    if fold is not None and fold([]) != monoid.unit:
        raise NotAMonoidError(f"{monoid.name}: fold of no values is not the unit")
    for _ in range(1000):
        a, b, c = (rng.choice(monoid.sample) for _ in range(3))
        if monoid.op(a, b) != monoid.op(b, a):
            raise NotCommutativeError(f"{monoid.name}: {a} op {b} != {b} op {a}")
        left = monoid.op(monoid.op(a, b), c)
        right = monoid.op(a, monoid.op(b, c))
        if left != right:
            raise NotAMonoidError(f"{monoid.name}: associativity fails on ({a},{b},{c})")
        if fold is not None and fold([a, b, c]) != left:
            raise NotAMonoidError(f"{monoid.name}: fold disagrees with op on ({a},{b},{c})")
        if monoid.op(a, monoid.unit) != a:
            raise NotAMonoidError(f"{monoid.name}: unit law fails on {a}")


# Monoids that passed validate_monoid; a Monoid compares and hashes by
# identity, so each object is validated once.
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
    )


def all_partial_fns(n: int) -> tuple[PartialFn, ...]:
    """Every partial function on {0..n-1}, in a fixed order."""
    out = []
    for choice in itertools.product(range(n + 1), repeat=n):
        out.append(PartialFn.of({x: y for x, y in enumerate(choice) if y < n}))
    return tuple(out)


def all_partial_injections(n: int) -> tuple[PartialFn, ...]:
    return tuple(f for f in all_partial_fns(n) if f.is_injective())


def _union(fam: IndexedFamily, overlap: bool) -> PartialFn | None:
    """The union of the family's graphs, or None where two domains meet
    (with ``overlap``, only where they meet with different values)."""
    union: dict[int, int] = {}
    for _, f in fam.entries:
        for x, y in f.graph:
            if x in union and (not overlap or union[x] != y):
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
        union = _union(fam, overlap=False)
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
    overlap = mode == "overlap"

    def contains(x):
        return (
            isinstance(x, PartialFn)
            and x.is_injective()
            and all(0 <= a < n and 0 <= b < n for a, b in x.graph)
        )

    def oracle(fam: IndexedFamily):
        union = _union(fam, overlap)
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


# 0, 1, -1, i, -i, (1+i)/2 and exp(2 pi i / 3), in Q(zeta_12): i = zeta_12**3,
# exp(2 pi i / 3) = zeta_12**4.
COMPLEX_SAMPLE = (
    Cyclotomic.of(12, 0),
    Cyclotomic.of(12, 1),
    Cyclotomic.of(12, -1),
    Cyclotomic.root(12, 3),
    Cyclotomic.root(12, 9),
    Cyclotomic.of(12, Fraction(1, 2), 0, 0, Fraction(1, 2)),
    Cyclotomic.root(12, 4),
)


def make_abs_convergence_pcm(n: int = 12) -> Pcm:
    """Complex scalars held exactly, in the cyclotomic field Q(zeta_n); every
    finite family is summable, and ``cyclotomic_sum`` folds it.

    At n = 12 this is the ``complex`` carrier ``abs-convergence[C]``, whose
    samples are ``COMPLEX_SAMPLE``; at another n the samples are 0, 1, -1 and
    zeta_n.
    """
    zero = Cyclotomic.of(n, 0)
    sample = COMPLEX_SAMPLE if n == 12 else (zero, Cyclotomic.of(n, 1), Cyclotomic.of(n, -1),
                                             Cyclotomic.root(n))

    def oracle(fam: IndexedFamily):
        return Summable(cyclotomic_sum([value for _, value in fam.entries]) if fam.entries
                        else zero)

    return Pcm(
        name="abs-convergence[C]" if n == 12 else f"abs-convergence[Q(zeta_{n})]",
        contains=lambda x: isinstance(x, Cyclotomic) and x.n == n,
        oracle=oracle,
        sample_elements=sample,
        total=True,
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


def make_unit_ball_pcm(dim: int, norm: str = "l1") -> Pcm:
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
    first ``limit`` of them when ``limit`` is given.  The grid was checked
    when the carrier was built, so each family goes straight to the oracle."""
    found = 0
    for fam in families_over(pcm.grid, max_size):
        result = pcm.oracle(fam)
        if isinstance(result, Summable):
            yield fam, result
            found += 1
            if found == limit:
                return


def check_hom(h: PcmHom):
    """Brute-force the homomorphism law on every summable source-grid family
    of at most 3 members, the empty family and so the zero included.

    Returns a Report: PASS when each maps to a summable image family with
    the matching sum.  The one sum-preservation loop: ``check_pcm_functor``
    runs it on each hom.
    """
    name = f"hom[{h.source.name}->{h.target.name}]"
    for fam, result in summable_families(h.source, 3):
        image = make_family([(label, h.map(value)) for label, value in fam.entries])
        image_result = h.target.sum(image)
        if not isinstance(image_result, Summable):
            return failing(name, fam, detail="image family not summable")
        if h.map(result.value) != image_result.value:
            return failing(name, fam, detail="sums disagree")
    return passing(name)
