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
from functools import reduce
from typing import Callable, Iterable

from .errors import NotAMonoidError, ParseError, ShapeMismatchError, ValidationError
from .family import IndexedFamily, families_over, family_of, make_family, random_family
from .pcm import (
    INT_ADD,
    RATIONAL_ADD,
    UNIT_BALL_NORMS,
    Cyclotomic,
    NotSummable,
    PartialFn,
    Pcm,
    PcmHom,
    Relation,
    Residue,
    Summable,
    check_hom,
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
        self._arrow_hom = arrow_hom
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

    def arrow_hom(self, f) -> tuple:
        """The (source, target) of arrow f: the builder's map, else the one object twice."""
        if self._arrow_hom is not None:
            return self._arrow_hom(f)
        if len(self.objects) != 1:
            raise ValidationError("cannot infer the hom of a base arrow; multi-object base")
        return self.objects * 2

    def __repr__(self):
        return f"PcmCategory({self.name!r})"


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
    )


def from_semiring(descriptor: str) -> PcmCategory:
    """One-object categories: composition is the semiring multiplication."""
    if descriptor == "int":
        return _one_object("int", make_finite_families_pcm(INT_ADD), operator.mul, 1)
    if descriptor == "rational":
        pcm = make_finite_families_pcm(
            RATIONAL_ADD,
            family_grid=(
                Fraction(0), Fraction(1), Fraction(-1),
                Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4),
            ),
        )
        return _one_object("rational", pcm, operator.mul, Fraction(1))
    if descriptor.startswith("mod:"):
        n = _int_parameter(descriptor, descriptor.split(":", 1)[1], 1, MAX_MODULUS)
        pcm = make_finite_families_pcm(mod_add(n))
        return _one_object(f"mod:{n}", pcm, operator.mul, Residue(1, n))
    if descriptor == "complex":
        return cyclotomic_category(12)
    raise ParseError(f"unknown semiring descriptor {descriptor!r}")


def cyclotomic_category(n: int) -> PcmCategory:
    """The cyclotomic field Q(zeta_n) of exact complex scalars, composing by
    the field product: at n = 12 the ``complex`` base, at a prime p the target
    of ``dft_substitute``."""
    pcm = make_abs_convergence_pcm(n)
    name = "complex" if n == 12 else f"cyclotomic:{n}"
    return _one_object(name, pcm, operator.mul, Cyclotomic.of(n, 1))


def k_bounded_category(k: int) -> PcmCategory:
    """Integers under multiplication with k-bounded summation.

    For k >= 2 this is the stock counterexample: each hom-set is a valid
    summation carrier, yet strong distributivity fails because a product
    family can hold k*k nonzero entries.
    """
    pcm = make_k_bounded_pcm(INT_ADD, k, family_grid=(0, 1, -1, 2, -2))
    return _one_object(f"kbounded:{k}", pcm, operator.mul, 1)


class Matrix:
    """A dense matrix over exact rationals.

    A rational matrix has two views of one value, each computed once, on
    first use: ``rows`` of Fractions, and ``scaled = (num, den)``, integer
    rows over a denominator ``den > 0`` with ``gcd(den, *num) == 1``.  So
    ``den`` is the lcm of the entries' denominators, and equal values have
    equal ``scaled``.  Only a matrix of Fractions keeps its ``scaled``.
    """

    __slots__ = ("_rows", "_scaled")

    def __init__(self, rows: tuple[tuple, ...]):
        self._rows, self._scaled = rows, None

    @staticmethod
    def of(rows: Iterable[Iterable]) -> "Matrix":
        return Matrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def _over(num: tuple[tuple[int, ...], ...], den: int) -> "Matrix":
        """The rational matrix ``num / den``, reduced by one gcd to its canonical ``scaled``."""
        if den != 1:
            common = math.gcd(den, *[v for row in num for v in row])
            if common != 1:
                den //= common
                num = tuple(tuple(v // common for v in row) for row in num)
        matrix = Matrix.__new__(Matrix)
        matrix._rows, matrix._scaled = None, (num, den)
        return matrix

    @property
    def rows(self) -> tuple[tuple, ...]:
        if self._rows is None:
            num, den = self._scaled
            self._rows = tuple(tuple(Fraction(v, den) for v in row) for row in num)
        return self._rows

    @property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        if self._scaled is None:
            rows = self._rows
            den = math.lcm(*[v.denominator for row in rows for v in row])
            num = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)
            if not all(isinstance(v, Fraction) for row in rows for v in row):
                return num, den
            self._scaled = (num, den)
        return self._scaled

    @property
    def shape(self) -> tuple[int, int]:
        rows = self._scaled[0] if self._rows is None else self._rows
        return (len(rows), len(rows[0]) if rows else 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._scaled is not None and other._scaled is not None:
            return self._scaled == other._scaled
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeMismatchError(f"cannot add {self.shape} and {other.shape}")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    @staticmethod
    def zero(n: int, m: int) -> "Matrix":
        return Matrix._over(tuple(tuple(0 for _ in range(m)) for _ in range(n)), 1)

    @staticmethod
    def identity(n: int) -> "Matrix":
        """Held as ``scaled``, so comparing a kernel product with it builds no rows."""
        return Matrix._over(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in self.rows) + "]"


def _exact_product(g: Matrix, f: Matrix) -> Matrix:
    """``g @ f`` for rational matrices, on their ``scaled`` views alone.

    Entry (i, j) is the integer dot product of row i of g's numerators and
    column j of f's over the product of the denominators, made canonical by
    one gcd; its ``rows`` equal the plain ``Fraction`` fold, ``repr`` included.
    """
    (g_num, g_den), (f_num, f_den) = g.scaled, f.scaled
    if (len(g_num[0]) if g_num else 0) != len(f_num):
        raise ShapeMismatchError(f"cannot compose {g.shape} with {f.shape}")
    cols = tuple(zip(*f_num))
    return Matrix._over(tuple([
        tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in g_num
    ]), g_den * f_den)


def _exact_sum(entries: tuple, zero: Matrix) -> Matrix:
    """The sum of rational matrices, on their ``scaled`` views alone.

    The numerators, scaled to the lcm of the denominators, are added as
    integers and made canonical by one gcd; ``rows`` equal the plain fold.
    """
    if not entries:
        return zero
    scaled = [v.scaled for _, v in entries]
    den = math.lcm(*[d for _, d in scaled])
    nums = [num if d == den else tuple(tuple(v * (den // d) for v in row) for row in num)
            for num, d in scaled]
    return Matrix._over(tuple(tuple(map(sum, zip(*rows))) for rows in zip(*nums)), den)


# The entries of the sampled matrices, in the order their base-3 digits pick them.
_MATRIX_ENTRIES = (Fraction(0), Fraction(1), Fraction(-1))


def _matrix_samples(n: int, m: int) -> tuple[Matrix, ...]:
    samples: list[Matrix] = [Matrix.zero(n, m)]
    if n == m:
        samples.append(Matrix.identity(n))
    # Every (count // 16)-th tuple of ``itertools.product(_MATRIX_ENTRIES, repeat=size)``,
    # built from its index: the base-3 digits pick the entries, most significant first.
    size, base = n * m, len(_MATRIX_ENTRIES)
    count = base**size
    for index in range(0, count, max(1, count // 16)):
        flat = [_MATRIX_ENTRIES[index // base ** (size - 1 - j) % base] for j in range(size)]
        matrix = Matrix.of([flat[i * m : (i + 1) * m] for i in range(n)])
        if matrix not in samples:
            samples.append(matrix)
        if len(samples) >= 16:
            break
    return tuple(samples)


def matrix_category(dims: Iterable[int]) -> PcmCategory:
    """Objects are dimensions; hom(m, n) is the n-by-m rational matrices; every family sums."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be a nonempty list of positive integers")

    def hom_pcm(x, y) -> Pcm:
        n, m = y, x  # hom(m, n) holds n-by-m matrices

        def contains(v):
            if not isinstance(v, Matrix):
                return False
            rows = v._scaled[0] if v._rows is None else v._rows
            if len(rows) != n or len(rows[0]) != m:
                return False
            return v._scaled is not None or all(
                isinstance(c, Fraction) for row in rows for c in row)

        zero = Matrix.zero(n, m)
        samples = _matrix_samples(n, m)

        def oracle(fam: IndexedFamily):
            return Summable(_exact_sum(fam.entries, zero))

        return Pcm(
            name=f"matrices[{n}x{m},rational]",
            contains=contains,
            oracle=oracle,
            sample_elements=samples,
            family_grid=samples[:5],
            total=True,
        )

    def arrow_hom(v: Matrix):
        n, m = v.shape
        return (m, n)

    return PcmCategory(
        name=f"matrix:{','.join(str(d) for d in dims)}",
        objects=dims,
        hom_pcm=hom_pcm,
        compose=_exact_product,
        identity=Matrix.identity,
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
# partial functions, and ``laws`` on ``matrix:<d>`` multiplies d-by-d matrices
# over every triple of its objects, so its cost grows with the cube of their
# number.  At the bounds, ``laws --family-size 3`` takes 0.4 s wall on
# ``matrix:16``, 3 s on ``pfn:6`` and 9 s on ``matrix:16,16,16,16`` (in-process,
# Python 3.11, a shared 2-core x86-64).
MAX_RELATION_POINTS = 4
MAX_PARTIAL_FN_POINTS = 6
MAX_MATRIX_DIM = 16
MAX_MATRIX_OBJECTS = 4
# The grid of ``mod:<n>`` holds all n residues, so ``laws`` sweeps C(n+F, F)
# families of F members: ``laws --base mod:32`` (F = 4) takes 3.7-4.1 s and
# 47 MB, ``mod:40`` 9.4 s and ``mod:100 --family-size 3`` 5.3 s.
# ``unitball:<dim>`` builds vectors of dim coordinates: ``laws --base
# unitball:256:l2`` takes 0.8 s, ``unitball:256:linf`` 0.9 s and
# ``unitball:30000:l1 --family-size 3`` 31 s (same machine).
MAX_MODULUS = 32
MAX_UNIT_BALL_DIM = 256


def _int_parameter(descriptor: str, text: str, least: int, most: int | None = None) -> int:
    """The integer ``text`` read from ``descriptor``.

    ParseError unless it is at least ``least``; ValidationError, before
    anything is built, when it is above ``most``.
    """
    # ASCII digits only: int() would also take signs, underscores and spaces
    value = int(text) if text.isascii() and text.isdigit() else None
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


def resolve_base(descriptor: str):
    """Map a base descriptor string to a category or, for unitball, a bare Pcm.

    A malformed parameter raises ParseError naming the descriptor; one above
    its ``MAX_*`` bound raises ValidationError naming the bound.
    """
    if descriptor in ("int", "rational", "complex") or descriptor.startswith("mod:"):
        return from_semiring(descriptor)
    kind, _, rest = descriptor.partition(":")
    if ":" not in descriptor:
        raise ParseError(f"unknown base descriptor {descriptor!r}")
    if kind == "matrix":
        dims = rest.split(",")
        if len(dims) > MAX_MATRIX_OBJECTS:
            raise ValidationError(
                f"descriptor {descriptor!r} takes at most {MAX_MATRIX_OBJECTS} dimensions where "
                f"it has {len(dims)}; larger instances are refused because their cost explodes"
            )
        return matrix_category([_int_parameter(descriptor, d, 1, MAX_MATRIX_DIM) for d in dims])
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
        dim = _int_parameter(descriptor, parts[0], 1, MAX_UNIT_BALL_DIM)
        return make_unit_ball_pcm(dim, parts[1])
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
    """The builtin bases that carry composition, in ``BUILTIN_BASES`` order,
    less kbounded:2, the one that breaks strong distributivity."""
    bases = (resolve_base(d) for d in BUILTIN_BASES if d != "kbounded:2")
    return tuple(base for base in bases if isinstance(base, PcmCategory))


# --------------------------------------------------------------------------
# sampling helpers shared by the category-level checks
# --------------------------------------------------------------------------


def _object_triples(cat):
    return itertools.product(cat.objects, repeat=3)


def memoized_compose(compose, memo: dict):
    """``compose`` memoized in ``memo``, a dict the caller keeps.

    Each (g, f) is keyed by the identities of its two arguments and stored
    on a miss as (g, f, composite), so neither id can pass to another object
    while the memo lives; a composition that raises stores nothing.  The one
    assumption: composition is a function of its two arguments.
    """

    def composed(g, f):
        key = (id(g), id(f))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (g, f, compose(g, f))
        return entry[2]

    return composed


# --------------------------------------------------------------------------
# strong distributivity
# --------------------------------------------------------------------------


def check_strong_distributivity(cat, max_family: int = 4, trials: int = 200,
                                seed: int = 0) -> Report:
    """Search for (f-family, g-family) pairs violating joint distributivity.

    Exhausts the families of at most 2 members over the first 3 grid
    elements of each hom first (so the canonical witness of a broken
    instance is stable), then runs seeded random trials.

    Per object triple, the exhaustive phase sums each f-family and each
    g-family once, kept by the family's position in the triple's
    enumeration until the next triple; the trials sum afresh.  Each pair of
    grid elements is composed once in the whole call, trials included, through
    one ``memoized_compose`` memo.  Each value is
    computed at its first use, so every first call, any exception the
    oracle or a composition raises and the witness come where the plain
    search has them.  The witness's ``recheck`` reuses nothing.

    The f- and g-families of both phases are drawn from hom grids, which
    were checked when each hom carrier was built, so they go straight to
    the oracle; each family of composites still goes through ``Pcm.sum``.
    """
    name = f"strong-distributivity[{cat.name}]"
    pair = memoized_compose(cat.compose, {})

    def fails(pp, fam_f, fam_g, rf, rg, compose=pair) -> bool:
        """Whether ``fam_f`` and ``fam_g``, with sums ``rf`` and ``rg``, break
        joint distributivity in ``pp``; a refused family is no witness."""
        if not (isinstance(rf, Summable) and isinstance(rg, Summable)):
            return False
        rp = pp.sum(IndexedFamily(tuple(
            (f"{j}.{i}", compose(g, f)) for j, g in fam_g.entries for i, f in fam_f.entries
        )))
        return not isinstance(rp, Summable) or rp.value != cat.compose(rg.value, rf.value)

    def failure(x, y, z, fam_f, fam_g):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        return failing(name, (fam_f, fam_g), detail=f"hom ({x},{y},{z})",
                       recheck=lambda w: fails(pp, *w, pf.sum(w[0]), pg.sum(w[1]), cat.compose))

    for x, y, z in _object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        fams_g = tuple(families_over(pg.grid[:3], 2))
        sums_g: list = [None] * len(fams_g)
        for fam_f in families_over(pf.grid[:3], 2):
            rf = pf.oracle(fam_f)
            for k, fam_g in enumerate(fams_g):
                if sums_g[k] is None:
                    sums_g[k] = pg.oracle(fam_g)
                if fails(pp, fam_f, fam_g, rf, sums_g[k]):
                    return failure(x, y, z, fam_f, fam_g)
    rng = random.Random(f"{seed}:strong-dist:{cat.name}")
    triples = list(_object_triples(cat))
    for _ in range(trials):
        x, y, z = rng.choice(triples)
        pf, pg = cat.hom_pcm(x, y), cat.hom_pcm(y, z)
        fam_f = random_family(pf.grid, max_family, rng, prefix="f")
        fam_g = random_family(pg.grid, max_family, rng, prefix="g")
        if fails(cat.hom_pcm(x, z), fam_f, fam_g, pf.oracle(fam_f), pg.oracle(fam_g)):
            return failure(x, y, z, fam_f, fam_g)
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


def check_left_right_distributivity(cat) -> Report:
    """h.(sum f) = sum (h.f) and (sum g).h = sum (g.h), on the first 12
    summable families of at most 3 members in each hom, against 4 grid arrows."""
    name = f"left-right-distributivity[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        for side, pcm, hs, act in (("left", pf, pg.grid[:4], cat.compose),
                                   ("right", pg, pf.grid[:4], lambda h, v: cat.compose(v, h))):
            for fam, total in summable_families(pcm, 3, limit=12):
                for h in hs:
                    result = pp.sum(make_family([(lbl, act(h, v)) for lbl, v in fam.entries]))
                    if not isinstance(result, Summable):
                        return failing(name, fam, detail=f"{side} family not summable, h={h}")
                    if result.value != act(h, total.value):
                        return failing(name, fam, detail=f"{side} distributivity fails, h={h}")
    return passing(name)


def check_reordering(cat) -> Report:
    """Iterated sums of a rectangular product family agree in either order,
    over pairs of the first 6 summable families of at most 3 members.

    Each (g, f) is composed once per family pair, and ``pg``'s summable
    families are enumerated and summed once per object triple.
    """
    name = f"reordering[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pf, pg, pp = cat.hom_pcm(x, y), cat.hom_pcm(y, z), cat.hom_pcm(x, z)
        g_families = _Replayed(summable_families(pg, 3, limit=6))
        for fam_f, _ in summable_families(pf, 3, limit=6):
            for fam_g, _ in g_families:
                i_labels, j_labels = fam_f.labels, fam_g.labels
                composed, rows = [], []  # composed[i][k] = g_k o f_i
                for i, f in fam_f.entries:  # each row summed once its composites are made
                    composed.append([cat.compose(g, f) for _, g in fam_g.entries])
                    result = pp.sum(make_family(zip(j_labels, composed[-1])))
                    if not isinstance(result, Summable):
                        return failing(name, (fam_f, fam_g), detail="row not summable")
                    rows.append((i, result.value))
                cols = []
                for k, j in enumerate(j_labels):  # an empty f-family sums one empty column per j
                    column = [(i, row[k]) for i, row in zip(i_labels, composed)]
                    result = pp.sum(make_family(column))
                    if not isinstance(result, Summable):
                        return failing(name, (fam_f, fam_g), detail="column not summable")
                    cols.append((j, result.value))
                by_rows = pp.sum(IndexedFamily(tuple(rows)))
                by_cols = pp.sum(IndexedFamily(tuple(cols)))
                whole = pp.sum(IndexedFamily(tuple((f"{j}.{i}", row[k])
                                                   for k, j in enumerate(j_labels)
                                                   for i, row in zip(i_labels, composed))))
                if not all(isinstance(r, Summable) for r in (by_rows, by_cols, whole)) \
                        or by_rows.value != whole.value or by_cols.value != whole.value:
                    return failing(name, (fam_f, fam_g), detail="iterated sums disagree")
    return passing(name)


def check_composing_sums(cat) -> Report:
    """The squares and cubes of a summable endo-family stay summable."""
    name = f"composing-sums[{cat.name}]"
    for x in cat.objects:
        pcm = cat.hom_pcm(x, x)
        for fam, _ in summable_families(pcm, 2, limit=6):
            if len(fam) == 0:
                continue
            for n in (2, 3):
                power = IndexedFamily(tuple(
                    ("*".join(lbl for lbl, _ in word), reduce(cat.compose, [v for _, v in word]))
                    for word in itertools.product(fam.entries, repeat=n)))
                if not isinstance(pcm.sum(power), Summable):
                    return failing(name, fam, detail=f"power {n} not summable")
    return passing(name)


def check_monoid_sums(cat) -> Report:
    """Repeated identities are summable whenever some word of 1 to 4
    non-identity members of a summable identity-containing family composes
    to the identity: 1 to 8 identities, and 8 copies of each of 3 grid
    arrows out of the object."""
    name = f"monoid-sums[{cat.name}]"
    applied = False
    for x in cat.objects:
        pcm = cat.hom_pcm(x, x)
        identity = cat.identity(x)
        for fam, _ in summable_families(pcm, 3, limit=30):
            values = fam.values
            if identity not in values:
                continue
            others = [v for v in values if v != identity]
            if not any(reduce(cat.compose, word) == identity for length in range(1, 5)
                       for word in itertools.product(others, repeat=length)):
                continue
            applied = True
            for m in range(1, 9):
                if not isinstance(pcm.sum(family_of([identity] * m, prefix="one")), Summable):
                    return failing(name, fam, detail=f"sum of {m} identities refused")
            for y in cat.objects:
                out = cat.hom_pcm(x, y)
                for f in out.grid[:3]:
                    if not isinstance(out.sum(family_of([f] * 8, prefix="f")), Summable):
                        return failing(name, fam, detail="sum of 8 copies refused")
    return passing(name, detail="" if applied else "no identity-word family found; vacuous")


def check_zero_absorption(cat) -> Report:
    """f.0 = 0 and 0.g = 0, for the first 50 sample arrows f and g of each hom.

    A hom that refuses the empty family has no zero (``zero[...]`` reports
    the refusal): the check stops there and passes, naming that hom."""
    name = f"zero-absorption[{cat.name}]"
    for x, y, z in _object_triples(cat):
        pp = cat.hom_pcm(x, z)
        try:
            zero_xy, zero_xz, zero_yz = cat.hom_pcm(x, y).zero, pp.zero, cat.hom_pcm(y, z).zero
        except NotAMonoidError as refused:
            return passing(name, detail=f"{refused}; vacuous from there")
        for f in cat.hom_pcm(y, z).sample_elements[:50]:
            if cat.compose(f, zero_xy) != zero_xz:
                return failing(name, f, detail=f"f o 0 != 0 at ({x},{y},{z})")
        for g in cat.hom_pcm(x, y).sample_elements[:50]:
            if cat.compose(zero_yz, g) != zero_xz:
                return failing(name, g, detail=f"0 o g != 0 at ({x},{y},{z})")
    return passing(name)


def derived_laws(cat) -> list[Report]:
    """The consequences of strong distributivity, checked on sampled data."""
    return [
        check_left_right_distributivity(cat),
        check_reordering(cat),
        check_composing_sums(cat),
        check_monoid_sums(cat),
        check_zero_absorption(cat),
    ]


# --------------------------------------------------------------------------
# functors between summation categories
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PcmFunctor:
    """Object and arrow maps intended to preserve composition and sums."""

    on_obj: Callable
    on_arr: Callable


def identity_pcm_functor() -> PcmFunctor:
    return PcmFunctor(lambda x: x, lambda f: f)


def compose_pcm_functors(g: PcmFunctor, f: PcmFunctor) -> PcmFunctor:
    return PcmFunctor(lambda x: g.on_obj(f.on_obj(x)), lambda a: g.on_arr(f.on_arr(a)))


def check_pcm_functor(functor: PcmFunctor, source, target) -> Report:
    """PASS when the maps preserve identities, the composite of every pair of
    grid arrows on each object triple, and, by ``check_hom`` on each hom, the
    sum of every summable family of at most 3 members; a failing hom gives
    its witness and detail under this check's name."""
    name = f"pcm-functor[{source.name}->{target.name}]"
    on_obj, on_arr = functor.on_obj, functor.on_arr
    for x in source.objects:
        fx = on_obj(x)
        if on_arr(source.identity(x)) != target.identity(fx):
            return failing(name, x, detail="identity not preserved")
    for x, y, z in _object_triples(source):
        for g, f in itertools.product(source.hom_pcm(y, z).grid, source.hom_pcm(x, y).grid):
            if on_arr(source.compose(g, f)) != target.compose(on_arr(g), on_arr(f)):
                return failing(name, (g, f), detail="composite not preserved")
    for x, y in itertools.product(source.objects, repeat=2):
        hom = PcmHom(source.hom_pcm(x, y), target.hom_pcm(on_obj(x), on_obj(y)), on_arr)
        report = check_hom(hom)
        if not report.passed:
            return failing(name, report.witness, detail=report.detail)
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

    return Pcm(
        name=f"({pa.name})x({pb.name})",
        contains=contains,
        oracle=oracle,
        sample_elements=paired,
        family_grid=grid[:5],
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
        lambda x: (f1.on_obj(x), f2.on_obj(x)),
        lambda a: (f1.on_arr(a), f2.on_arr(a)),
    )
