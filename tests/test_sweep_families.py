"""The sweep's families, built from grid indices, against ``families_over``.

``laws._SweepMemo.families`` builds each family, and the memo code of its
total, straight from grid indices.  Each family must be the one
``families_over`` yields at that place, with the same labels on the
identical objects, and each code must be the key an identity lookup gives:
field j holds 1 + the last grid index of the object at entry j, so an
object the grid holds twice keys alike at both of its indices.
"""

import dataclasses
from fractions import Fraction

import pytest

from pcmcat import laws
from pcmcat.category import Matrix, shipped_pcm_instances
from pcmcat.family import EXHAUSTIVE_PARTITION_LIMIT, families_over
from pcmcat.pcm import INT_ADD, make_finite_families_pcm
from test_sweep_reference import (
    _equal_but_distinct,
    _one_hom,
    _positions,
    distinct_inputs,
    sweep_log,
)

HALF = Fraction(1, 2)


def _repeated_objects():
    """Grids that hold one object at two indices: small ints are one object,
    and ``HALF`` is one object beside an equal copy built apart."""
    ints = make_finite_families_pcm(INT_ADD, family_grid=(0, 1, 0))
    fractions = dataclasses.replace(_one_hom("rational"),
                                    family_grid=(Fraction(0), HALF, Fraction(1, 2), HALF))
    return ints, fractions


# the shipped grids, the equal-but-distinct grids of test_sweep_reference.py
# and the grids with a repeated object
CARRIERS = shipped_pcm_instances() + (
    _equal_but_distinct("rational", lambda: Fraction(1, 2)),
    _equal_but_distinct("matrix:2", lambda: Matrix.of([[Fraction(1), Fraction(1, 2)],
                                                       [Fraction(0), Fraction(1)]])),
) + _repeated_objects()


def reference_code(grid, fam):
    """The key of ``fam``'s total, each entry's object found by identity at
    its last index in ``grid``."""
    width = len(grid).bit_length()
    last = {id(value): k for k, value in enumerate(grid)}
    code = 0
    for j, (_, value) in enumerate(fam.entries):
        code |= (last[id(value)] + 1) << (j * width)
    return code


@pytest.mark.parametrize("max_size", range(6))
@pytest.mark.parametrize("pcm", CARRIERS, ids=lambda pcm: f"{pcm.name}:{len(pcm.grid)}")
def test_the_memo_yields_the_families_of_families_over_with_identity_codes(pcm, max_size):
    grid = pcm.grid
    swept = list(laws._SweepMemo(pcm, grid).families(max_size))
    reference = list(families_over(grid, max_size))
    assert len(swept) == len(reference)
    for (fam, code), want in zip(swept, reference):
        assert fam.labels == want.labels
        assert all(a is b for a, b in zip(fam.values, want.values)), want
        assert code == reference_code(grid, want), want


def test_a_repeated_object_keys_alike_at_both_indices():
    pcm, _ = _repeated_objects()
    memo = laws._SweepMemo(pcm, pcm.grid)
    _, (zero_first, first), (_, one), (zero_last, last) = memo.families(1)
    assert zero_first.values[0] is zero_last.values[0]
    assert first == last != one


@pytest.mark.parametrize("pcm", _repeated_objects(), ids=["ints", "fractions"])
def test_the_suite_asks_each_identical_input_once_on_a_grid_with_a_repeated_object(
        pcm, monkeypatch):
    asked = sweep_log(pcm, 3, monkeypatch)
    assert _positions(pcm.grid, asked) == sorted(distinct_inputs(pcm.grid, 3))


@pytest.mark.parametrize("n", range(EXHAUSTIVE_PARTITION_LIMIT + 1))
def test_sweep_labels_sort_in_entry_order(n):
    """So a sweep family's entry j has rank j among its sorted labels."""
    labels = [f"i{k}" for k in range(n)]
    assert sorted(labels) == labels
    assert laws._entry_bits(n) == tuple(1 << labels.index(label) for label in sorted(labels))
