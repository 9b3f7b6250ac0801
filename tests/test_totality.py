"""Which builtin carriers declare ``Pcm.total``, and that the declaration holds.

A total carrier's ``admits`` checks membership only and never asks the
oracle, and the sums of its members are not checked for membership, so the
flag is safe only where the oracle cannot refuse or raise on any family of
carrier elements and sums every such family into the carrier.
"""

import itertools
import random

import pytest

from plain import Recorder
from pcmcat.category import BUILTIN_BASES, matrix_category, resolve_base
from pcmcat.errors import CarrierMismatchError, PcmcatError
from pcmcat.family import families_over, family_of
from pcmcat.pcm import Pcm, Summable

TOTAL_KINDS = ("finite-families[", "relations[", "matrices[", "abs-convergence[")
PARTIAL_KINDS = ("1-bounded[", "2-bounded[", "partial-fns[",
                 "partial-injections-disjoint[", "partial-injections-overlap[", "unit-ball[")


def builtin_carriers() -> dict[str, Pcm]:
    """Every builtin carrier by name: the hom carriers of every builtin base,
    and rational matrices of mixed shapes."""
    carriers: dict[str, Pcm] = {}
    targets = [resolve_base(descriptor) for descriptor in BUILTIN_BASES]
    targets.append(matrix_category([1, 2]))
    for target in targets:
        if isinstance(target, Pcm):
            homs = [target]
        else:
            homs = [target.hom_pcm(x, y) for x, y in itertools.product(target.objects, repeat=2)]
        for pcm in homs:
            carriers.setdefault(pcm.name, pcm)
    return carriers


CARRIERS = builtin_carriers()
TOTAL = sorted(name for name, pcm in CARRIERS.items() if pcm.total)
PARTIAL = sorted(name for name, pcm in CARRIERS.items() if not pcm.total)


def test_total_is_declared_exactly_on_finite_families_relations_matrices_and_complex():
    for name in TOTAL:
        assert name.startswith(TOTAL_KINDS), name
    for name in PARTIAL:
        assert name.startswith(PARTIAL_KINDS), name
    for kind in TOTAL_KINDS:
        assert any(name.startswith(kind) for name in TOTAL), kind
    for kind in PARTIAL_KINDS:
        assert any(name.startswith(kind) for name in PARTIAL), kind
    assert "matrices[2x1,rational]" in TOTAL


def grid_and_random_families(name: str) -> list:
    """Every family of size 4 or less over the grid, and 200 seeded random ones."""
    pcm = CARRIERS[name]
    rng = random.Random(f"totality:{name}")
    families = list(families_over(pcm.grid, 4))
    families += [family_of([rng.choice(pcm.sample_elements) for _ in range(rng.randint(0, 6))])
                 for _ in range(200)]
    return families


@pytest.mark.parametrize("name", TOTAL)
def test_a_total_carrier_admits_every_family(name):
    pcm = CARRIERS[name]
    for fam in grid_and_random_families(name):
        assert isinstance(pcm.oracle(fam), Summable), fam
        assert pcm.admits(fam)


@pytest.mark.parametrize("name", TOTAL)
def test_a_total_carrier_sums_into_the_carrier(name):
    """The promise that lets ``CauchyCategory.compose`` skip checking its sums."""
    pcm = CARRIERS[name]
    for fam in grid_and_random_families(name):
        assert pcm.contains(pcm.oracle(fam).value), fam


def _refused_or_raises(pcm: Pcm, fam) -> bool:
    try:
        return not isinstance(pcm.oracle(fam), Summable)
    except PcmcatError:
        return True


@pytest.mark.parametrize("name", PARTIAL)
def test_a_partial_carrier_refuses_or_raises_on_some_family(name):
    pcm = CARRIERS[name]
    families = list(families_over(pcm.sample_elements[:8], 3))
    families = [fam for fam in families if all(pcm.contains(v) for v in fam.values)]
    assert any(_refused_or_raises(pcm, fam) for fam in families)


@pytest.mark.parametrize("name", [TOTAL[0], PARTIAL[0]])
def test_admits_asks_the_oracle_only_on_a_partial_carrier(name):
    rec = Recorder()
    pcm = rec.pcm(CARRIERS[name])
    fam = family_of([pcm.zero, pcm.zero])
    rec.log.clear()
    assert pcm.admits(fam)
    assert rec.calls("sum") == ([] if pcm.total else [fam])


@pytest.mark.parametrize("name", [TOTAL[0], PARTIAL[0]])
def test_admits_checks_membership_with_the_message_of_sum(name):
    pcm = CARRIERS[name]
    fam = family_of([pcm.zero, "x"])
    with pytest.raises(CarrierMismatchError) as by_sum:
        pcm.sum(fam)
    with pytest.raises(CarrierMismatchError) as by_admits:
        pcm.admits(fam)
    assert str(by_admits.value) == str(by_sum.value)
    assert "entry 'i1' = x is outside the carrier" in str(by_sum.value)
