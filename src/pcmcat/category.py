"""Categories whose hom-sets carry summation oracles, and their law checkers.

Composition must distribute jointly over summation: for summable families
{f_i} and {g_j} of composable arrows, the doubly-indexed product family is
summable and sums to (sum g)(sum f).  Builders for the stock instances are
certified by the test suite; user-supplied instances are checked, never
trusted.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ParseError, ShapeMismatchError, ValidationError
from .family import IndexedFamily, families_over, family_of, make_family, random_family
from .pcm import (
    DEFAULT_TOLERANCE,
    INT_ADD,
    RATIONAL_ADD,
    UNIT_BALL_NORMS,
    NotSummable,
    PartialFn,
    Pcm,
    Relation,
    Residue,
    Summable,
    complex_close,
    exact_eq,
    fraction_sum,
    make_abs_convergence_pcm,
    make_finite_families_pcm,
    make_k_bounded_pcm,
    make_partial_fn_pcm,
    make_partial_injection_pcm,
    make_relations_pcm,
    make_unit_ball_pcm,
    mod_add,
    summable_families,
)
from .report import Report, failing, passing


class PcmCategory:
    """A category with a summation oracle on every hom-set."""

    def __init__(self, name, objects, hom_pcm, compose, identity, arrow_hom=None):
        self.name = name
        self.objects = tuple(objects)
        self._hom_pcm = hom_pcm
        self._compose = compose
        self._identity = identity
        self.arrow_hom = arrow_hom
        self._hom_cache: dict = {}

    def hom_pcm(self, x, y) -> Pcm:
        key = (x, y)
        if key not in self._hom_cache:
            self._hom_cache[key] = self._hom_pcm(x, y)
        return self._hom_cache[key]

    def compose(self, g, f):
        return self._compose(g, f)

    def identity(self, x):
        return self._identity(x)

    def __repr__(self):
        return f"PcmCategory({self.name!r})"


def zero_arrow(cat, x, y):
    """The empty-family sum in hom(x, y)."""
    return cat.hom_pcm(x, y).zero


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def _one_object(name, pcm: Pcm, multiply, one) -> PcmCategory:
    return PcmCategory(
        name=name,
        objects=("*",),
        hom_pcm=lambda x, y: pcm,
        compose=multiply,
        identity=lambda x: one,
        arrow_hom=lambda f: ("*", "*"),
    )


def from_semiring(descriptor: str, tolerance: float = DEFAULT_TOLERANCE) -> PcmCategory:
    """One-object categories: composition is the semiring multiplication."""
    if descriptor == "int":
        return _one_object("int", make_finite_families_pcm(INT_ADD), lambda g, f: g * f, 1)
    if descriptor == "rational":
        pcm = make_finite_families_pcm(
            RATIONAL_ADD,
            family_grid=(
                Fraction(0), Fraction(1), Fraction(-1),
                Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4),
            ),
        )
        return _one_object("rational", pcm, lambda g, f: g * f, Fraction(1))
    if descriptor.startswith("mod:"):
        n = _int_parameter(descriptor, descriptor.split(":", 1)[1], least=1)
        pcm = make_finite_families_pcm(mod_add(n))
        return _one_object(f"mod:{n}", pcm, lambda g, f: g * f, Residue(1, n))
    if descriptor == "complex":
        pcm = make_abs_convergence_pcm(tolerance)
        return _one_object("complex", pcm, lambda g, f: g * f, 1 + 0j)
    raise ParseError(f"unknown semiring descriptor {descriptor!r}")


def k_bounded_category(k: int) -> PcmCategory:
    """Integers under multiplication with k-bounded summation.

    For k >= 2 this is the stock counterexample: each hom-set is a valid
    summation carrier, yet strong distributivity fails because a product
    family can hold k*k nonzero entries.
    """
    pcm = make_k_bounded_pcm(INT_ADD, k, family_grid=(0, 1, -1, 2, -2))
    return _one_object(f"kbounded:{k}", pcm, lambda g, f: g * f, 1)


@dataclass(frozen=True)
class Matrix:
    """A dense matrix over exact rationals or complex floats."""

    rows: tuple[tuple, ...]

    @staticmethod
    def of(rows: Iterable[Iterable]) -> "Matrix":
        return Matrix(tuple(tuple(r) for r in rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot add {self.shape} and {other.shape}")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ShapeMismatchError(f"cannot compose {self.shape} with {other.shape}")
        return Matrix(
            tuple(
                tuple(sum(self.rows[i][t] * other.rows[t][j] for t in range(k)) for j in range(m))
                for i in range(n)
            )
        )

    @staticmethod
    def zero(n: int, m: int, scalar_zero) -> "Matrix":
        return Matrix(tuple(tuple(scalar_zero for _ in range(m)) for _ in range(n)))

    @staticmethod
    def identity(n: int, scalar_zero, scalar_one) -> "Matrix":
        return Matrix(
            tuple(tuple(scalar_one if i == j else scalar_zero for j in range(n)) for i in range(n))
        )

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in self.rows) + "]"


def _numerators(rows) -> tuple[list[list[int]], int]:
    """The rational ``rows`` as integer numerators over their least common denominator."""
    d = math.lcm(*[v.denominator for row in rows for v in row])
    if d == 1:
        return [[v.numerator for v in row] for row in rows], 1
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d


def _fraction(n: int, d: int) -> Fraction:
    """``n/d`` as one Fraction: normalized once, and not at all when ``d`` is 1."""
    return Fraction(n) if d == 1 else Fraction(n, d)


def _exact_product(g: Matrix, f: Matrix) -> Matrix:
    """``g @ f`` for rational matrices, one integer dot product per entry.

    Each factor is put over one common denominator, so entry (i, j) is the
    integer dot product of row i and column j of the numerators over the
    product of the two denominators, and becomes one Fraction.  Fractions
    are canonical, so the result equals the plain ``Fraction`` fold entry
    for entry, ``repr`` included.
    """
    if g.shape[1] != f.shape[0]:
        raise ShapeMismatchError(f"cannot compose {g.shape} with {f.shape}")
    g_num, g_den = _numerators(g.rows)
    f_num, f_den = _numerators(f.rows)
    d = g_den * f_den
    cols = list(zip(*f_num))
    return Matrix(tuple(
        tuple(_fraction(sum(map(operator.mul, row, col)), d) for col in cols) for row in g_num
    ))


def _exact_sum(entries: tuple, zero: Matrix) -> Matrix:
    """The sum of rational matrices, one integer sum per entry.

    Each entry's summands are put over their own least common denominator,
    so a numerator grows by the denominators of that entry only, as in the
    plain fold; the sum becomes one Fraction.
    """
    if not entries:
        return zero
    return Matrix(tuple(
        tuple(fraction_sum(cells) for cells in zip(*rows))
        for rows in zip(*(v.rows for _, v in entries))
    ))


def _label_ordered_sum(entries: tuple, zero: Matrix) -> Matrix:
    """Matrix additions from ``zero`` in label order.

    Complex sums need the fixed order: rounding and signed zeros would
    otherwise depend on the order of the entries.
    """
    total = zero
    for _, v in sorted(entries, key=lambda e: e[0]):
        total = total + v
    return total


def _matrix_samples(n: int, m: int, zero_s, one_s, entries: tuple) -> tuple[Matrix, ...]:
    samples: list[Matrix] = [Matrix.zero(n, m, zero_s)]
    if n == m:
        samples.append(Matrix.identity(n, zero_s, one_s))
    # Every (count // 16)-th tuple of ``itertools.product(entries, repeat=size)``,
    # built from its index: the base-3 digits pick the entries, most significant first.
    size, base = n * m, len(entries)
    count = base**size
    for index in range(0, count, max(1, count // 16)):
        flat = [entries[index // base ** (size - 1 - j) % base] for j in range(size)]
        matrix = Matrix.of([flat[i * m : (i + 1) * m] for i in range(n)])
        if matrix not in samples:
            samples.append(matrix)
        if len(samples) >= 16:
            break
    return tuple(samples)


def matrix_category(dims: Iterable[int], scalar: str = "rational",
                    tolerance: float = DEFAULT_TOLERANCE) -> PcmCategory:
    """Objects are dimensions; hom(m, n) is the n-by-m matrices; every family sums."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be a nonempty list of positive integers")
    if scalar == "rational":
        zero_s, one_s = Fraction(0), Fraction(1)
        entries = (zero_s, one_s, Fraction(-1))
        scalar_ok = lambda v: isinstance(v, Fraction)
        close = exact_eq
        product, matrix_sum = _exact_product, _exact_sum
    elif scalar == "complex":
        zero_s, one_s = 0j, 1 + 0j
        entries = (zero_s, one_s, 1j)
        scalar_ok = lambda v: isinstance(v, complex)
        ctol = complex_close(tolerance)
        product, matrix_sum = operator.matmul, _label_ordered_sum

        def close(a: Matrix, b: Matrix) -> bool:
            return a.shape == b.shape and all(
                ctol(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)
            )
    else:
        raise ValueError(f"unknown scalar kind {scalar!r}")

    def hom_pcm(x, y) -> Pcm:
        n, m = y, x  # hom(m, n) holds n-by-m matrices

        def contains(v):
            return (
                isinstance(v, Matrix)
                and v.shape == (n, m)
                and all(scalar_ok(c) for row in v.rows for c in row)
            )

        zero = Matrix.zero(n, m, zero_s)
        samples = _matrix_samples(n, m, zero_s, one_s, entries)

        def oracle(fam: IndexedFamily):
            return Summable(matrix_sum(fam.entries, zero))

        return Pcm(
            name=f"matrices[{n}x{m},{scalar}]",
            contains=contains,
            oracle=oracle,
            sample_elements=samples,
            family_grid=samples[:5],
            close=close,
            total=True,
        )

    def identity(x):
        return Matrix.identity(x, zero_s, one_s)

    def arrow_hom(v: Matrix):
        n, m = v.shape
        return (m, n)

    return PcmCategory(
        name=f"matrix:{','.join(str(d) for d in dims)}" + ("" if scalar == "rational" else ":complex"),
        objects=dims,
        hom_pcm=hom_pcm,
        compose=product,
        identity=identity,
        arrow_hom=arrow_hom,
    )


# Zero-first family grids for the carriers too large to sweep whole.  They use
# the points {0, 1, 2} ({0, 1} for relations), so each serves every larger n.
# The zero and entries of disjoint domains make summable families of two or
# more non-zero entries, so the sum laws meet real sums.  Smaller carriers
# sweep every element.
_PFN3_GRID = (
    PartialFn.of({}),
    PartialFn.of({0: 1}),
    PartialFn.of({1: 2}),
    PartialFn.of({2: 0}),
    PartialFn.of({0: 0, 1: 1}),
    PartialFn.of({0: 2}),
)

_PINJ3_GRID = (
    PartialFn.of({}),
    PartialFn.of({0: 1}),
    PartialFn.of({0: 1, 1: 2}),
    PartialFn.of({0: 2}),
    PartialFn.of({1: 0}),
    PartialFn.of({0: 0, 1: 1, 2: 2}),
)

_REL22_GRID = (
    Relation.of([]),
    Relation.of([(0, 0)]),
    Relation.of([(0, 1)]),
    Relation.of([(1, 0), (1, 1)]),
    Relation.of([(0, 0), (1, 1)]),
    Relation.of([(0, 1), (1, 0)]),
)


def relations_category(n: int) -> PcmCategory:
    """Relations on n points under relational composition and union summation."""
    pcm = make_relations_pcm(n, n, family_grid=_REL22_GRID if n >= 2 else ())
    return _one_object(f"rel:{n}", pcm, lambda g, f: g.compose(f), Relation.identity(n))


def partial_fn_category(n: int) -> PcmCategory:
    pcm = make_partial_fn_pcm(n, family_grid=_PFN3_GRID if n >= 3 else ())
    identity = PartialFn.of({i: i for i in range(n)})
    return _one_object(f"pfn:{n}", pcm, lambda g, f: g.compose(f), identity)


def partial_injection_category(n: int, mode: str = "overlap") -> PcmCategory:
    pcm = make_partial_injection_pcm(n, mode, family_grid=_PINJ3_GRID if n >= 3 else ())
    identity = PartialFn.of({i: i for i in range(n)})
    return _one_object(f"pinj-{mode}:{n}", pcm, lambda g, f: g.compose(f), identity)


# The largest parameters ``resolve_base`` builds: ``rel:<n>`` enumerates all
# 2^(n*n) relations on n points, ``pfn:<n>`` and ``pinj-*:<n>`` all (n+1)^n
# partial functions, and ``laws`` on ``matrix:<d>`` multiplies d-by-d matrices.
# At the bounds, ``laws --family-size 3`` takes a few seconds.
MAX_RELATION_POINTS = 4
MAX_PARTIAL_FN_POINTS = 6
MAX_MATRIX_DIM = 16


def _int_parameter(descriptor: str, text: str, least: int, most: int | None = None) -> int:
    """The integer ``text`` read from ``descriptor``.

    ParseError unless it is at least ``least``; ValidationError, before
    anything is built, when it is above ``most``.
    """
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise ParseError(
            f"descriptor {descriptor!r} needs an integer >= {least} where it has {text!r}"
        )
    if most is not None and value > most:
        raise ValidationError(
            f"descriptor {descriptor!r} takes an integer <= {most} where it has {text!r}; "
            "larger instances are refused because their cost explodes"
        )
    return value


def resolve_base(descriptor: str, tolerance: float = DEFAULT_TOLERANCE):
    """Map a base descriptor string to a category or, for unitball, a bare Pcm.

    A malformed parameter raises ParseError naming the descriptor; one above
    its ``MAX_*`` bound raises ValidationError naming the bound.
    """
    if descriptor in ("int", "rational", "complex") or descriptor.startswith("mod:"):
        return from_semiring(descriptor, tolerance)
    kind, _, rest = descriptor.partition(":")
    if ":" not in descriptor:
        raise ParseError(f"unknown base descriptor {descriptor!r}")
    if kind == "matrix":
        return matrix_category(
            [_int_parameter(descriptor, d, 1, MAX_MATRIX_DIM) for d in rest.split(",")]
        )
    if kind == "rel":
        return relations_category(_int_parameter(descriptor, rest, 0, MAX_RELATION_POINTS))
    if kind == "pfn":
        return partial_fn_category(_int_parameter(descriptor, rest, 0, MAX_PARTIAL_FN_POINTS))
    if kind in ("pinj-overlap", "pinj-disjoint"):
        mode = kind.split("-", 1)[1]
        n = _int_parameter(descriptor, rest, 0, MAX_PARTIAL_FN_POINTS)
        return partial_injection_category(n, mode)
    if kind == "kbounded":
        return k_bounded_category(_int_parameter(descriptor, rest, 1))
    if kind == "unitball":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ParseError(f"expected unitball:<dim>:<norm>, got {descriptor!r}")
        if parts[1] not in UNIT_BALL_NORMS:
            raise ParseError(f"descriptor {descriptor!r} needs a norm in {UNIT_BALL_NORMS}")
        return make_unit_ball_pcm(_int_parameter(descriptor, parts[0], 1), parts[1])
    raise ParseError(f"unknown base descriptor {descriptor!r}")


BUILTIN_BASES = (
    "int", "rational", "mod:4", "mod:5", "complex", "matrix:2",
    "pfn:2", "pfn:3", "pinj-overlap:3", "pinj-disjoint:3", "rel:2",
    "kbounded:1", "kbounded:2",
    "unitball:1:l1", "unitball:2:l2", "unitball:2:linf",
)


def shipped_pcm_instances() -> tuple[Pcm, ...]:
    """The stock summation carriers the law suites certify: for each builtin
    base, the bare carrier or the one hom carrier that ``resolve_base`` builds."""
    carriers = []
    for base in map(resolve_base, BUILTIN_BASES):
        if not isinstance(base, Pcm):
            (x,) = base.objects
            base = base.hom_pcm(x, x)
        carriers.append(base)
    return tuple(carriers)


def shipped_categories() -> tuple[PcmCategory, ...]:
    """The stock composition-carrying instances, less kbounded:2, the one that
    breaks strong distributivity."""
    return tuple(
        resolve_base(descriptor)
        for descriptor in (
            "int", "rational", "mod:4", "mod:5", "complex", "matrix:2",
            "rel:2", "pfn:2", "pfn:3", "pinj-overlap:2", "pinj-overlap:3",
            "pinj-disjoint:3", "kbounded:1",
        )
    )


# --------------------------------------------------------------------------
# sampling helpers shared by the category-level checks
# --------------------------------------------------------------------------


def _object_triples(cat):
    return itertools.product(cat.objects, repeat=3)


# --------------------------------------------------------------------------
# strong distributivity
# --------------------------------------------------------------------------


def _distributivity_fails(cat, compose, pp: Pcm, fam_f, fam_g, rf, rg) -> bool:
    """Whether ``fam_f`` and ``fam_g``, with sums ``rf`` and ``rg``, break
    joint distributivity in ``pp``; a refused family is no witness."""
    if not (isinstance(rf, Summable) and isinstance(rg, Summable)):
        return False
    rp = pp.sum(IndexedFamily(tuple(
        (f"{j}.{i}", compose(g, f)) for j, g in fam_g.entries for i, f in fam_f.entries
    )))
    if not isinstance(rp, Summable):
        return True
    return not pp.close(rp.value, cat.compose(rg.value, rf.value))


def check_strong_distributivity(cat, max_family: int = 4, trials: int = 200,
                                seed: int = 0, exhaustive_grid: int = 3,
                                exhaustive_size: int = 2) -> Report:
    """Search for (f-family, g-family) pairs violating joint distributivity.

    Exhausts small families over a grid prefix first (so the canonical
    witness of a broken instance is stable), then runs seeded random trials.

    Per object triple, the exhaustive phase sums each f-family and each
    g-family once, kept by the family's position in the triple's
    enumeration, and composes each pair of grid elements once, kept under
    the identities of the two arrows (an entry holds both, so no other
    object can take their identities while it lives).  Both are dropped at
    the next triple, and the random trials compute afresh.  Each value is
    computed at its first use, so every first call, any exception and the
    witness come where the plain search has them.  The witness's
    ``recheck`` reuses nothing.
    """
    name = f"strong-distributivity[{cat.name}]"

    def violation(x, y, z, fam_f, fam_g):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        return _distributivity_fails(cat, cat.compose, pp, fam_f, fam_g,
                                     pf.sum(fam_f), pg.sum(fam_g))

    def recheck_at(x, y, z):
        return lambda witness: violation(x, y, z, *witness)

    for x, y, z in _object_triples(cat):
        composites: dict = {}

        def compose(g, f):
            key = (id(g), id(f))
            entry = composites.get(key)
            if entry is None:
                entry = composites[key] = (g, f, cat.compose(g, f))
            return entry[2]

        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        fams_f = tuple(families_over(pf.grid[:exhaustive_grid], exhaustive_size))
        fams_g = tuple(families_over(pg.grid[:exhaustive_grid], exhaustive_size))
        sums_g: list = [None] * len(fams_g)
        for fam_f in fams_f:
            rf = pf.sum(fam_f)
            for k, fam_g in enumerate(fams_g):
                if sums_g[k] is None:
                    sums_g[k] = pg.sum(fam_g)
                if _distributivity_fails(cat, compose, pp, fam_f, fam_g, rf, sums_g[k]):
                    return failing(name, (fam_f, fam_g), detail=f"hom ({x},{y},{z})",
                                   recheck=recheck_at(x, y, z))
    rng = random.Random(f"{seed}:strong-dist:{cat.name}")
    triples = list(_object_triples(cat))
    for _ in range(trials):
        x, y, z = rng.choice(triples)
        fam_f = random_family(cat.hom_pcm(x, y).grid, max_family, rng, prefix="f")
        fam_g = random_family(cat.hom_pcm(y, z).grid, max_family, rng, prefix="g")
        if violation(x, y, z, fam_f, fam_g):
            return failing(name, (fam_f, fam_g), detail=f"hom ({x},{y},{z})",
                           recheck=recheck_at(x, y, z))
    return passing(name)


# --------------------------------------------------------------------------
# derived laws
# --------------------------------------------------------------------------


class _Replayed:
    """Iterates ``source`` lazily the first time; later passes replay what it gave."""

    def __init__(self, source):
        self._source, self._seen = iter(source), []

    def __iter__(self):
        yield from self._seen
        for item in self._source:
            self._seen.append(item)
            yield item


def check_left_right_distributivity(cat, max_size: int = 3) -> Report:
    name = f"left-right-distributivity[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pf, pg = cat.hom_pcm(x, y), cat.hom_pcm(y, z)
        for fam, total in summable_families(pf, max_size, limit=12):
            for h in pg.grid[:4]:
                mapped = make_family([(lbl, cat.compose(h, v)) for lbl, v in fam.entries])
                result = cat.hom_pcm(x, z).sum(mapped)
                if not isinstance(result, Summable):
                    return failing(name, fam, detail=f"left family not summable, h={h}")
                if not cat.hom_pcm(x, z).close(result.value, cat.compose(h, total.value)):
                    return failing(name, fam, detail=f"left distributivity fails, h={h}")
        for fam, total in summable_families(pg, max_size, limit=12):
            for h in pf.grid[:4]:
                mapped = make_family([(lbl, cat.compose(v, h)) for lbl, v in fam.entries])
                result = cat.hom_pcm(x, z).sum(mapped)
                if not isinstance(result, Summable):
                    return failing(name, fam, detail=f"right family not summable, h={h}")
                if not cat.hom_pcm(x, z).close(result.value, cat.compose(total.value, h)):
                    return failing(name, fam, detail=f"right distributivity fails, h={h}")
    return passing(name)


def check_reordering(cat, max_size: int = 3) -> Report:
    """Iterated sums of a rectangular product family agree in either order.

    Each (g, f) is composed once per family pair, and ``pg``'s summable
    families are enumerated and summed once per object triple.
    """
    name = f"reordering[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        g_families = _Replayed(summable_families(pg, max_size, limit=6))
        for fam_f, _ in summable_families(pf, max_size, limit=6):
            for fam_g, _ in g_families:
                rows = []  # for fixed i, sum over j
                composed = []  # composed[i][j] = (j, g_j o f_i)
                for i, f in fam_f.entries:
                    row = [(j, cat.compose(g, f)) for j, g in fam_g.entries]
                    composed.append(row)
                    result = pp.sum(make_family(row))
                    if not isinstance(result, Summable):
                        return failing(name, (fam_f, fam_g), detail="row not summable")
                    rows.append((i, result.value))
                cols = []
                for k, (j, _) in enumerate(fam_g.entries):
                    col = make_family([(i, row[k][1])
                                       for (i, _), row in zip(fam_f.entries, composed)])
                    result = pp.sum(col)
                    if not isinstance(result, Summable):
                        return failing(name, (fam_f, fam_g), detail="column not summable")
                    cols.append((j, result.value))
                by_rows = pp.sum(IndexedFamily(tuple(rows)))
                by_cols = pp.sum(IndexedFamily(tuple(cols)))
                whole = pp.sum(IndexedFamily(tuple(
                    (f"{j}.{i}", row[k][1])
                    for k, (j, _) in enumerate(fam_g.entries)
                    for (i, _), row in zip(fam_f.entries, composed)
                )))
                if not (
                    isinstance(by_rows, Summable)
                    and isinstance(by_cols, Summable)
                    and isinstance(whole, Summable)
                    and pp.close(by_rows.value, whole.value)
                    and pp.close(by_cols.value, whole.value)
                ):
                    return failing(name, (fam_f, fam_g), detail="iterated sums disagree")
    return passing(name)


def check_composing_sums(cat, max_power: int = 3) -> Report:
    """Powers of a summable endo-family stay summable."""
    name = f"composing-sums[{cat.name}]"
    for x in cat.objects:
        pcm = cat.hom_pcm(x, x)
        for fam, _ in summable_families(pcm, 2, limit=6):
            if len(fam) == 0:
                continue
            for n in range(2, max_power + 1):
                entries = []
                for combo in itertools.product(fam.entries, repeat=n):
                    label = "*".join(lbl for lbl, _ in combo)
                    value = combo[0][1]
                    for _, nxt in combo[1:]:
                        value = cat.compose(value, nxt)
                    entries.append((label, value))
                result = pcm.sum(IndexedFamily(tuple(entries)))
                if not isinstance(result, Summable):
                    return failing(name, fam, detail=f"power {n} not summable")
    return passing(name)


def _find_identity_word(cat, x, others, identity, pcm, max_len: int = 4):
    """A word over the non-identity members composing to the identity, if any."""
    for length in range(1, max_len + 1):
        for word in itertools.product(others, repeat=length):
            value = word[0]
            for nxt in word[1:]:
                value = cat.compose(value, nxt)
            if pcm.close(value, identity):
                return word
    return None


def check_monoid_sums(cat, bound: int = 8) -> Report:
    """Repeated identities are summable whenever some word of non-identity
    members of a summable identity-containing family composes to the identity."""
    name = f"monoid-sums[{cat.name}]"
    applied = False
    for x in cat.objects:
        pcm = cat.hom_pcm(x, x)
        identity = cat.identity(x)
        for fam, _ in summable_families(pcm, 3, limit=30):
            values = list(fam.values)
            if not any(pcm.close(v, identity) for v in values):
                continue
            others = [v for v in values if not pcm.close(v, identity)]
            if not others:
                continue
            word = _find_identity_word(cat, x, others, identity, pcm)
            if word is None:
                continue
            applied = True
            for m in range(1, bound + 1):
                repeated = family_of([identity] * m, prefix="one")
                if not isinstance(pcm.sum(repeated), Summable):
                    return failing(name, fam, detail=f"sum of {m} identities refused")
            for y in cat.objects:
                out = cat.hom_pcm(x, y)
                for f in out.grid[:3]:
                    repeated = family_of([f] * bound, prefix="f")
                    if not isinstance(out.sum(repeated), Summable):
                        return failing(name, fam, detail=f"sum of {bound} copies refused")
    detail = "" if applied else "no identity-word family found; vacuous"
    return passing(name, detail=detail)


def check_zero_absorption(cat, max_arrows: int = 50) -> Report:
    name = f"zero-absorption[{cat.name}]"
    for x, y, z in _object_triples(cat):
        zero_xy = zero_arrow(cat, x, y)
        pp = cat.hom_pcm(x, z)
        for f in cat.hom_pcm(y, z).sample_elements[:max_arrows]:
            if not pp.close(cat.compose(f, zero_xy), zero_arrow(cat, x, z)):
                return failing(name, f, detail=f"f o 0 != 0 at ({x},{y},{z})")
        zero_yz = zero_arrow(cat, y, z)
        for g in cat.hom_pcm(x, y).sample_elements[:max_arrows]:
            if not pp.close(cat.compose(zero_yz, g), zero_arrow(cat, x, z)):
                return failing(name, g, detail=f"0 o g != 0 at ({x},{y},{z})")
    return passing(name)


def derived_laws(cat, bound: int = 8) -> list[Report]:
    """The consequences of strong distributivity, checked on sampled data."""
    return [
        check_left_right_distributivity(cat),
        check_reordering(cat),
        check_composing_sums(cat),
        check_monoid_sums(cat, bound=bound),
        check_zero_absorption(cat),
    ]


# --------------------------------------------------------------------------
# functors between summation categories
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PcmFunctor:
    """Object and arrow maps intended to preserve composition and sums."""

    obj_map: Callable
    arr_map: Callable

    def on_obj(self, x):
        return self.obj_map(x)

    def on_arr(self, f):
        return self.arr_map(f)


def identity_pcm_functor() -> PcmFunctor:
    return PcmFunctor(lambda x: x, lambda f: f)


def compose_pcm_functors(g: PcmFunctor, f: PcmFunctor) -> PcmFunctor:
    return PcmFunctor(lambda x: g.obj_map(f.obj_map(x)), lambda a: g.arr_map(f.arr_map(a)))


def check_pcm_functor(functor: PcmFunctor, source, target, bound: int = 3,
                      trials: int = 100, seed: int = 0) -> Report:
    """PASS when the maps preserve identities, sampled composites, and sums."""
    name = f"pcm-functor[{source.name}->{target.name}]"
    for x in source.objects:
        fx = functor.on_obj(x)
        image = functor.on_arr(source.identity(x))
        if not target.hom_pcm(fx, fx).close(image, target.identity(fx)):
            return failing(name, x, detail="identity not preserved")
    rng = random.Random(f"{seed}:functor:{source.name}->{target.name}")
    triples = list(_object_triples(source))
    for _ in range(trials):
        x, y, z = rng.choice(triples)
        grid_f, grid_g = source.hom_pcm(x, y).grid, source.hom_pcm(y, z).grid
        if not grid_f or not grid_g:
            continue
        f, g = rng.choice(grid_f), rng.choice(grid_g)
        lhs = functor.on_arr(source.compose(g, f))
        rhs = target.compose(functor.on_arr(g), functor.on_arr(f))
        if not target.hom_pcm(functor.on_obj(x), functor.on_obj(z)).close(lhs, rhs):
            return failing(name, (g, f), detail="composite not preserved")
    for x, y in itertools.product(source.objects, repeat=2):
        pcm = source.hom_pcm(x, y)
        out = target.hom_pcm(functor.on_obj(x), functor.on_obj(y))
        for fam, total in summable_families(pcm, bound, limit=20):
            image = make_family([(lbl, functor.on_arr(v)) for lbl, v in fam.entries])
            result = out.sum(image)
            if not isinstance(result, Summable):
                return failing(name, fam, detail="image family not summable")
            if not out.close(result.value, functor.on_arr(total.value)):
                return failing(name, fam, detail="sum not preserved")
    return passing(name)


# --------------------------------------------------------------------------
# finite products
# --------------------------------------------------------------------------


def _product_pcm(pa: Pcm, pb: Pcm) -> Pcm:
    def contains(v):
        return isinstance(v, tuple) and len(v) == 2 and pa.contains(v[0]) and pb.contains(v[1])

    def oracle(fam: IndexedFamily):
        first = make_family([(lbl, v[0]) for lbl, v in fam.entries])
        second = make_family([(lbl, v[1]) for lbl, v in fam.entries])
        ra, rb = pa.sum(first), pb.sum(second)
        if isinstance(ra, Summable) and isinstance(rb, Summable):
            return Summable((ra.value, rb.value))
        return NotSummable()

    paired = tuple(zip(pa.sample_elements, pb.sample_elements))
    if len(paired) < 4:
        paired = tuple(itertools.islice(itertools.product(pa.sample_elements, pb.sample_elements), 8))
    grid = tuple(zip(pa.grid, pb.grid)) or paired

    def close(u, v):
        return pa.close(u[0], v[0]) and pb.close(u[1], v[1])

    return Pcm(
        name=f"({pa.name})x({pb.name})",
        contains=contains,
        oracle=oracle,
        sample_elements=paired,
        family_grid=grid[:5],
        close=close,
    )


def pcm_product(a, b) -> PcmCategory:
    """The product category with componentwise composition and pairwise sums."""
    objects = tuple(itertools.product(a.objects, b.objects))

    def hom_pcm(x, y):
        return _product_pcm(a.hom_pcm(x[0], y[0]), b.hom_pcm(x[1], y[1]))

    return PcmCategory(
        name=f"({a.name})x({b.name})",
        objects=objects,
        hom_pcm=hom_pcm,
        compose=lambda g, f: (a.compose(g[0], f[0]), b.compose(g[1], f[1])),
        identity=lambda x: (a.identity(x[0]), b.identity(x[1])),
    )


def product_projections() -> tuple[PcmFunctor, PcmFunctor]:
    first = PcmFunctor(lambda x: x[0], lambda f: f[0])
    second = PcmFunctor(lambda x: x[1], lambda f: f[1])
    return first, second


def pairing(f1: PcmFunctor, f2: PcmFunctor) -> PcmFunctor:
    """The mediating functor into a product, given functors into both factors."""
    return PcmFunctor(
        lambda x: (f1.obj_map(x), f2.obj_map(x)),
        lambda a: (f1.arr_map(a), f2.arr_map(a)),
    )
