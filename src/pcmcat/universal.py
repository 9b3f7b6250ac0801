"""Substitution homomorphisms out of one-object convolution categories.

Given a scalar homomorphism f out of the base and a monoid homomorphism g
out of the index, the induced map evaluates a coefficient arrow by
h(alpha) = sum over m of f(alpha(m)) * g(m), interpreting the formal index
variable at a concrete value.  The character sum into the cyclotomic field
Q(zeta_p), exact complex scalars, is the stock instance.  In the
multi-object setting no such family of maps can exist unless both object
maps are constant and agree, which the obstruction check reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .category import (
    PcmCategory,
    PcmFunctor,
    check_pcm_functor,
    cyclotomic_category,
    from_semiring,
)
from .cauchy import CauchyArrow, cauchy_product, eta_functor, gamma_functor
from .errors import BadResidueError, NotPrimeError, NotSummableError, ValidationError
from .family import IndexedFamily, family_of
from .fincat import FinCategory, cyclic_category
from .pcm import Cyclotomic, Summable
from .report import Report, failing, passing


@dataclass(frozen=True, eq=False)
class SubstitutionData:
    """A scalar hom out of the base and a monoid hom out of the index."""

    source: PcmCategory        # one-object base A
    index: FinCategory         # one-object finite monoid M
    target: PcmCategory        # one-object target B
    scalar_map: Callable       # f : A -> B
    monoid_map: Mapping[str, object]  # g : arrows of M -> B

    def __post_init__(self):
        for cat, label in ((self.source, "source"), (self.target, "target")):
            if len(cat.objects) != 1:
                raise ValidationError(f"{label} must have a single object")
        if len(self.index.objects) != 1:
            raise ValidationError("index must be a one-object category")


def validate_substitution_data(data: SubstitutionData) -> Report:
    """Check that f is a semiring hom and g a monoid hom.

    f is checked by ``check_pcm_functor`` as a functor between the two
    one-object categories: unit, every product of two grid values, every
    summable grid family of at most 3 members (the empty one, so the zero,
    included); a failure keeps its witness and detail.  g is checked on
    every pair.
    """
    name = "substitution-data"
    b_obj = data.target.objects[0]
    scalar = check_pcm_functor(PcmFunctor(lambda x: b_obj, data.scalar_map),
                               data.source, data.target)
    if not scalar.passed:
        return failing(name, scalar.witness, detail=scalar.detail)
    unit = data.index.identity_of[data.index.objects[0]]
    if data.monoid_map[unit] != data.target.identity(b_obj):
        return failing(name, unit, detail="monoid unit not preserved")
    for m in data.index.arrows:
        for k in data.index.arrows:
            lhs = data.monoid_map[data.index.compose(m, k)]
            rhs = data.target.compose(data.monoid_map[m], data.monoid_map[k])
            if lhs != rhs:
                return failing(name, (m, k), detail="monoid product not preserved")
    return passing(name)


def substitution_hom(data: SubstitutionData, alpha: CauchyArrow):
    """Evaluate h(alpha) = sum over m of f(alpha(m)) * g(m) in the target."""
    b_obj = data.target.objects[0]
    b_pcm = data.target.hom_pcm(b_obj, b_obj)
    terms = IndexedFamily(
        tuple(
            (m, data.target.compose(data.scalar_map(value), data.monoid_map[m]))
            for m, value in alpha.coeffs
        )
    )
    result = b_pcm.sum(terms)
    if not isinstance(result, Summable):
        raise NotSummableError(f"target refused the substitution family {terms.entries}")
    return result.value


def require_prime(p: int) -> None:
    """Raise NotPrimeError unless ``p`` is prime."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise NotPrimeError(f"{p} is not prime")


def dft_substitute(p: int, s: int, alpha: list[int]) -> Cyclotomic:
    """Character sum: evaluate integer coefficients at the p-th roots of unity.

    Specializes the substitution map with the inclusion of the integers into
    the cyclotomic field Q(zeta_p) and the character z_m -> zeta_p**(m s), so
    the value is exact.
    """
    require_prime(p)
    if not 0 < s < p:
        raise BadResidueError(f"s must lie strictly between 0 and {p}")
    if len(alpha) != p or any(a < 0 for a in alpha):
        raise ValidationError(f"alpha must be {p} nonnegative integers")
    data = SubstitutionData(
        source=from_semiring("int"),
        index=cyclic_category(p),
        target=cyclotomic_category(p),
        scalar_map=lambda n: Cyclotomic.of(p, n),
        monoid_map={f"z{m}": Cyclotomic.root(p, m * s) for m in range(p)},
    )
    cc = cauchy_product(data.source, data.index)
    obj = cc.objects[0]
    arrow = cc.make_arrow(obj, obj, {f"z{m}": int(a) for m, a in enumerate(alpha)})
    return substitution_hom(data, arrow)


def check_triangles(data: SubstitutionData) -> Report:
    """h composed with the two embeddings restricts to f and g."""
    name = "substitution-triangles"
    cc = cauchy_product(data.source, data.index)
    a_obj = data.source.objects[0]
    eta = eta_functor(cc, data.index.objects[0])
    for value in data.source.hom_pcm(a_obj, a_obj).sample_elements:
        if substitution_hom(data, eta.on_arr(value)) != data.scalar_map(value):
            return failing(name, value, detail="h after eta differs from f")
    gamma = gamma_functor(cc, a_obj)
    for m in data.index.arrows:
        if substitution_hom(data, gamma.on_arr(m)) != data.monoid_map[m]:
            return failing(name, m, detail="h after gamma differs from g")
    return passing(name)


def check_hom_property(data: SubstitutionData) -> Report:
    """h is additive and multiplicative on 100 sampled pairs, and is forced
    by its values on the embedded generators (extensional uniqueness); the
    coefficients are drawn from the first 7 grid values of the source."""
    name = "substitution-hom"
    cc = cauchy_product(data.source, data.index)
    obj = cc.objects[0]
    b_obj = data.target.objects[0]
    b_pcm = data.target.hom_pcm(b_obj, b_obj)
    a_obj = data.source.objects[0]
    a_grid = [v for v in data.source.hom_pcm(a_obj, a_obj).grid][:7]
    rng = random.Random("0:hom-property")
    eta = eta_functor(cc, data.index.objects[0])
    gamma = gamma_functor(cc, a_obj)

    def random_arrow():
        return cc.make_arrow(obj, obj, {m: rng.choice(a_grid) for m in data.index.arrows})

    for _ in range(100):
        alpha, beta = random_arrow(), random_arrow()
        total = cc.sum_arrows(family_of([alpha, beta]))
        if isinstance(total, Summable):
            lhs = substitution_hom(data, total.value)
            rhs = b_pcm.sum(
                family_of([substitution_hom(data, alpha), substitution_hom(data, beta)])
            )
            if not isinstance(rhs, Summable) or lhs != rhs.value:
                return failing(name, (alpha, beta), detail="additivity fails")
        lhs = substitution_hom(data, cc.compose(alpha, beta))
        rhs = data.target.compose(
            substitution_hom(data, alpha), substitution_hom(data, beta)
        )
        if lhs != rhs:
            return failing(name, (alpha, beta), detail="multiplicativity fails")
        # uniqueness on samples: alpha decomposes along the embeddings, so any
        # additive multiplicative map agreeing with f and g is forced to h's value
        pieces = [
            cc.compose(eta.on_arr(value), gamma.on_arr(m)) for m, value in alpha.coeffs
        ]
        rebuilt = cc.sum_arrows(family_of(pieces), src=obj, tgt=obj)
        if not isinstance(rebuilt, Summable) or rebuilt.value != alpha:
            return failing(name, alpha, detail="arrow does not decompose along embeddings")
        forced_terms = family_of(
            [
                data.target.compose(
                    substitution_hom(data, eta.on_arr(value)),
                    substitution_hom(data, gamma.on_arr(m)),
                )
                for m, value in alpha.coeffs
            ]
        )
        forced = b_pcm.sum(forced_terms)
        if not isinstance(forced, Summable) or forced.value != substitution_hom(data, alpha):
            return failing(name, alpha, detail="value not forced by the embeddings")
    return passing(name)


# --------------------------------------------------------------------------
# the multi-object obstruction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionResult:
    consistent: bool
    forced: tuple
    witness: tuple | None = None


def object_obstruction(gamma_objects: Mapping, delta_objects: Mapping) -> ObstructionResult:
    """Forced equalities between the two object maps into a common target.

    Commutation with both embeddings forces the images of every base object
    and every index object to coincide; the maps are consistent only when
    both are constant at the same target object.
    """
    forced = tuple(
        (x, u, gamma_objects[x], delta_objects[u])
        for x in sorted(gamma_objects)
        for u in sorted(delta_objects)
    )
    for x, u, gx, du in forced:
        if gx != du:
            return ObstructionResult(False, forced, witness=(x, u))
    return ObstructionResult(True, forced)
