"""The unit-ball oracles on integer numerators against the plain Fraction oracle.

``plain.unit_ball_oracle`` decides membership of the ball with Fraction
norms and a Fraction comparison of square-root sums, and adds vectors one
Fraction coordinate at a time.  The integer kernel must give the same
verdict and the same coordinates, ``repr`` included.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from plain import unit_ball_oracle
from pcmcat.errors import CarrierMismatchError
from pcmcat.family import family_of
from pcmcat.pcm import NOT_SUMMABLE, UNIT_BALL_NORMS, Summable, Vec, make_unit_ball_pcm

DIMS = (1, 2, 3)
COPRIME = (7, 11, 13, 17, 19, 23, 25)

# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------


def _typed(result):
    if result is NOT_SUMMABLE:
        return result
    return tuple((type(c), repr(c)) for c in result.value.coords)


def _coordinate(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4, 5, 10)))
    if kind == 1:
        return Fraction(rng.randint(-3, 3), rng.choice(COPRIME))
    return Fraction(rng.randint(-10**6, 10**6), rng.choice(COPRIME) * 10**6)


def random_families(pcm, dim, rng, per_size=60):
    """Families of sizes 0..6 mixing grid vectors and random rational ones."""
    for size in range(7):
        for _ in range(per_size):
            yield family_of([
                rng.choice(pcm.sample_elements) if rng.random() < 0.4
                else Vec(tuple(_coordinate(rng) for _ in range(dim)))
                for _ in range(size)
            ])


def _pad(dim, *coords):
    return Vec.of(*coords, *([0] * (dim - len(coords))))


def _just_off_one(digits):
    """x below and above 1 - sqrt(1/2), by one unit in the last of ``digits``."""
    scale = 10**digits
    below = scale - isqrt(scale * scale // 2) - 1
    return Fraction(below, scale), Fraction(below + 1, scale)


def _close_pair(c, step):
    """Two vectors with norms sqrt(m*m + 1)/D and sqrt(n*n - 1)/D, D = m + n.

    With n = 2*c*c + 1 and m = n + step, the norms sum to 1 minus about
    step/(2*n*n*D): just below 1 for step 1, just above for step -1.  Each
    root is irrational and within 1/(2n) of an integer over D, so an integer
    comparison at scale 2**32 cannot decide the sum for large c.
    """
    n = 2 * c * c + 1
    m = n + step
    d = m + n
    return [Vec.of(Fraction(m, d), Fraction(1, d)),
            Vec.of(Fraction(2 * c * c, d), Fraction(2 * c, d))]


def boundary_families(dim):
    """Norm sums at exactly 1, and irrational l2 sums just above and below 1."""
    half = _pad(dim, Fraction(1, 2))
    families = [family_of([half, half]), family_of([half, half, _pad(dim)]),
                family_of([_pad(dim, 1)]), family_of([_pad(dim, -1), _pad(dim)])]
    if dim >= 2:
        root_half = _pad(dim, Fraction(1, 2), Fraction(1, 2))
        families += [family_of([_pad(dim, Fraction(3, 5), Fraction(4, 5))]),
                     family_of([_pad(dim, Fraction(3, 10), Fraction(4, 10))] * 2),
                     family_of([_pad(dim, Fraction(1, 3), Fraction(1, 3))] * 2),
                     family_of([_pad(dim, Fraction(1, 3), Fraction(1, 3))] * 3)]
        for digits in (6, 12, 20, 30):
            below, above = _just_off_one(digits)
            families += [family_of([root_half, _pad(dim, below)]),
                         family_of([_pad(dim, 0, above), root_half])]
        for c in (2**10, 2**20, 2**30):
            for step in (1, -1):
                families.append(family_of([_pad(dim, *v.coords) for v in _close_pair(c, step)]))
    return families


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("norm", UNIT_BALL_NORMS)
@pytest.mark.parametrize("dim", DIMS)
def test_the_oracle_matches_the_fraction_reference(dim, norm):
    pcm = make_unit_ball_pcm(dim, norm)
    reference = unit_ball_oracle(dim, norm)
    rng = random.Random(f"unit-ball:{dim}:{norm}")
    verdicts = {True: 0, False: 0}
    for fam in list(random_families(pcm, dim, rng)) + boundary_families(dim):
        result = pcm.sum(fam)
        assert _typed(result) == _typed(reference(fam)), fam
        verdicts[isinstance(result, Summable)] += 1
    # both verdicts are exercised, each on many families
    assert min(verdicts.values()) >= 50, verdicts


@pytest.mark.parametrize("digits", (6, 12, 20, 30))
def test_irrational_l2_sums_just_off_one(digits):
    pcm = make_unit_ball_pcm(2, "l2")
    root_half = Vec.of(Fraction(1, 2), Fraction(1, 2))
    below, above = _just_off_one(digits)
    assert isinstance(pcm.sum(family_of([root_half, Vec.of(below, 0)])), Summable)
    assert pcm.sum(family_of([root_half, Vec.of(0, above)])) is NOT_SUMMABLE


@pytest.mark.parametrize("c", (2**10, 2**20, 2**30))
def test_two_irrational_l2_norms_summing_just_off_one(c):
    pcm = make_unit_ball_pcm(2, "l2")
    assert isinstance(pcm.sum(family_of(_close_pair(c, 1))), Summable)
    assert pcm.sum(family_of(_close_pair(c, -1))) is NOT_SUMMABLE


@pytest.mark.parametrize("norm,edge_summable", [("l1", False), ("l2", True), ("linf", True)])
def test_norm_sums_at_exactly_one(norm, edge_summable):
    pcm = make_unit_ball_pcm(2, norm)
    half = Vec.of(Fraction(1, 2), 0)
    assert pcm.sum(family_of([half, half])) == Summable(Vec.of(1, 0))
    # l2 norm exactly 1, l1 norm 7/5, linf norm 4/5
    edge = Vec.of(Fraction(3, 5), Fraction(4, 5))
    assert isinstance(pcm.sum(family_of([edge])), Summable) is edge_summable


@pytest.mark.parametrize("coords", [(0.5, 0.0), (Fraction(1, 2), 0), (Fraction(1, 2), 0.5)])
def test_a_vector_with_a_coordinate_that_is_not_a_fraction_is_outside_the_ball(coords):
    pcm = make_unit_ball_pcm(2, "l1")
    with pytest.raises(CarrierMismatchError, match="entry 'i0' = .* is outside the carrier"):
        pcm.sum(family_of([Vec(coords)]))
    assert not pcm.contains(Vec(coords))
