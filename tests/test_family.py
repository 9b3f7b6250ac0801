import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmcat.errors import (
    DuplicateLabelError,
    NotBijectiveError,
    TooLargeError,
    UnknownLabelError,
)
from pcmcat.family import (
    Partition,
    bell_number,
    enumerate_partitions,
    family_of,
    make_family,
    reindex,
    sample_partition,
    subfamily,
)


def test_make_family_empty():
    assert len(make_family([])) == 0


def test_make_family_two_entries():
    fam = make_family([("a", 2), ("b", 3)])
    assert len(fam) == 2
    assert fam.value("a") == 2
    assert fam.labels == ("a", "b")


def test_make_family_rejects_duplicate_label():
    with pytest.raises(DuplicateLabelError):
        make_family([("a", 2), ("a", 3)])


def test_reindex_relabels():
    fam = make_family([("a", 2), ("b", 3)])
    out = reindex(fam, {"a": "x", "b": "y"})
    assert out.entries == (("x", 2), ("y", 3))


def test_reindex_empty():
    assert reindex(make_family([]), {}) == make_family([])


def test_reindex_rejects_non_injective():
    fam = make_family([("a", 2), ("b", 3)])
    with pytest.raises(NotBijectiveError):
        reindex(fam, {"a": "x", "b": "x"})


def test_reindex_rejects_partial_map():
    fam = make_family([("a", 2), ("b", 3)])
    with pytest.raises(NotBijectiveError):
        reindex(fam, {"a": "x"})


def test_subfamily_restricts():
    fam = make_family([("a", 2), ("b", 3)])
    assert subfamily(fam, {"a"}).entries == (("a", 2),)
    assert subfamily(fam, set()) == make_family([])


def test_subfamily_rejects_unknown_label():
    with pytest.raises(UnknownLabelError):
        subfamily(make_family([("a", 2)]), {"z"})


def test_enumerate_partitions_empty_set():
    parts = enumerate_partitions([])
    assert parts == [Partition(())]


def test_enumerate_partitions_pair():
    parts = enumerate_partitions(["a", "b"])
    assert len(parts) == 2
    assert Partition((("a", "b"),)) in parts
    assert Partition((("a",), ("b",))) in parts


def test_enumerate_partitions_triple_count():
    assert len(enumerate_partitions(["a", "b", "c"])) == 5


@pytest.mark.parametrize("n", range(7))
def test_partition_count_matches_bell(n):
    labels = [f"x{i}" for i in range(n)]
    parts = enumerate_partitions(labels)
    assert len(parts) == bell_number(n)
    for part in parts:
        assert part.is_partition_of(labels)


def test_enumerate_partitions_at_the_exhaustive_bound():
    parts = enumerate_partitions([f"x{i}" for i in range(8)])
    assert len(parts) == bell_number(8) == 4140


def test_bell_number_counts_from_one_and_refuses_a_negative_size():
    assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    with pytest.raises(ValueError, match="negative size"):
        bell_number(-1)


def test_enumerate_partitions_rejects_large_sets():
    with pytest.raises(TooLargeError):
        enumerate_partitions([f"x{i}" for i in range(9)])


def test_enumeration_is_deterministic():
    labels = ["b", "a", "c"]
    assert enumerate_partitions(labels) == enumerate_partitions(sorted(labels))


def test_sample_partition_is_valid_and_seeded():
    labels = [f"x{i}" for i in range(12)]
    first = sample_partition(labels, random.Random("seed"))
    second = sample_partition(labels, random.Random("seed"))
    assert first == second
    assert first.is_partition_of(labels)


def test_family_of_auto_labels():
    fam = family_of([5, 6])
    assert fam.entries == (("i0", 5), ("i1", 6))


@st.composite
def families(draw):
    values = draw(st.lists(st.integers(-5, 5), max_size=6))
    return family_of(values)


@given(families(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_reindex_is_involutive_under_inverse(fam, rng):
    fresh = [f"n{k}" for k in range(len(fam))]
    rng.shuffle(fresh)
    bij = dict(zip(fam.labels, fresh))
    inverse = {v: k for k, v in bij.items()}
    assert reindex(reindex(fam, bij), inverse) == fam


@given(families())
@settings(max_examples=30, deadline=None)
def test_subfamily_with_all_labels_is_identity(fam):
    assert subfamily(fam, fam.labels) == fam


@given(st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_partitions_have_disjoint_exhaustive_blocks(n):
    labels = [f"x{i}" for i in range(n)]
    for part in enumerate_partitions(labels):
        flattened = [x for block in part.blocks for x in block]
        assert sorted(flattened) == sorted(labels)
        assert len(set(flattened)) == len(flattened)
