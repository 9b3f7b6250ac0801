"""Finite indexed families, relabelings, subfamilies, and set-partition enumeration."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping

from .errors import (
    DuplicateLabelError,
    NotBijectiveError,
    TooLargeError,
    UnknownLabelError,
)

# Bell(8) = 4140 keeps exhaustive partition sweeps cheap; larger sets must sample.
EXHAUSTIVE_PARTITION_LIMIT = 8


@dataclass(frozen=True)
class IndexedFamily:
    """A finite labeled family of elements.

    Entry order is preserved for deterministic output but carries no
    meaning: any summation must be invariant under relabeling.
    """

    entries: tuple[tuple[str, object], ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    @property
    def values(self) -> tuple:
        return tuple(value for _, value in self.entries)

    def value(self, label: str):
        for key, val in self.entries:
            if key == label:
                return val
        raise UnknownLabelError(f"no entry labeled {label!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return iter(self.entries)


def make_family(entries: Iterable[tuple[str, object]]) -> IndexedFamily:
    """Build a family, rejecting duplicate labels."""
    entries = tuple((str(label), value) for label, value in entries)
    seen = set()
    for label, _ in entries:
        if label in seen:
            raise DuplicateLabelError(f"label {label!r} appears twice")
        seen.add(label)
    return IndexedFamily(entries)


def family_of(values: Iterable, prefix: str = "i") -> IndexedFamily:
    """Auto-label a sequence of values as i0, i1, ..."""
    return IndexedFamily(tuple((f"{prefix}{k}", v) for k, v in enumerate(values)))


def families_over(grid: tuple, max_size: int) -> Iterator[IndexedFamily]:
    """All multiset families over the grid, sizes 0..max_size, fixed order."""
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(grid, size):
            yield family_of(combo)


def random_family(grid: tuple, max_size: int, rng: random.Random,
                  prefix: str = "i") -> IndexedFamily:
    """A family of a random size in 0..max_size, each member drawn from the grid."""
    size = rng.randint(0, max_size)
    return family_of([rng.choice(grid) for _ in range(size)], prefix=prefix)


def reindex(fam: IndexedFamily, bij: Mapping[str, str]) -> IndexedFamily:
    """Relabel a family along a bijection of its label set."""
    images = []
    for label, _ in fam.entries:
        if label not in bij:
            raise NotBijectiveError(f"no image for label {label!r}")
        images.append(bij[label])
    if len(set(images)) != len(images):
        raise NotBijectiveError("relabeling map is not injective on the label set")
    return IndexedFamily(tuple((new, value) for new, (_, value) in zip(images, fam.entries)))


def subfamily(fam: IndexedFamily, keep: Iterable[str]) -> IndexedFamily:
    """Restrict a family to a subset of its labels."""
    keep = set(keep)
    unknown = keep - set(fam.labels)
    if unknown:
        raise UnknownLabelError(f"labels not in family: {sorted(unknown)}")
    return IndexedFamily(tuple(e for e in fam.entries if e[0] in keep))


@dataclass(frozen=True)
class Partition:
    """Disjoint, jointly exhaustive blocks of a label set; empty blocks permitted."""

    blocks: tuple[tuple[str, ...], ...]

    def is_partition_of(self, labels: Iterable[str]) -> bool:
        labels = set(labels)
        seen: set[str] = set()
        for block in self.blocks:
            block_set = set(block)
            if len(block_set) != len(block) or block_set & seen:
                return False
            seen |= block_set
        return seen == labels

    def __len__(self) -> int:
        return len(self.blocks)


def bell_number(n: int) -> int:
    """Count of set partitions of an n-element set (Bell triangle)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


@lru_cache(maxsize=None)
def partition_table(n: int) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
    """All set partitions of the ranks 0..n-1, computed once per n.

    Each entry is ``(blocks, masks)``: the blocks as tuples of ranks and, per
    block, the bitmask of its ranks.  Entries come in the lexicographic order
    of their restricted-growth strings, and every block lists its ranks in
    increasing order.
    """
    if n > EXHAUSTIVE_PARTITION_LIMIT:
        raise TooLargeError(
            f"{n} labels exceeds the exhaustive bound {EXHAUSTIVE_PARTITION_LIMIT}; "
            "use sample_partition"
        )
    if n == 0:
        return (((), ()),)
    table = []
    code = [0] * n

    def grow(i: int, max_used: int) -> None:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(max_used + 1)]
            for rank, block_id in enumerate(code):
                blocks[block_id].append(rank)
            table.append((tuple(tuple(b) for b in blocks),
                          tuple(sum(1 << r for r in b) for b in blocks)))
            return
        for block_id in range(max_used + 2):
            code[i] = block_id
            grow(i + 1, max(max_used, block_id))

    grow(1, 0)
    return tuple(table)


def enumerate_partitions(labels: Iterable[str]) -> list[Partition]:
    """All set partitions of the label set, in a fixed order.

    Relabels ``partition_table`` over the sorted labels, so the result is
    deterministic and has exactly Bell(n) entries.
    """
    labels = sorted(set(labels))
    return [Partition(tuple(tuple(labels[r] for r in block) for block in blocks))
            for blocks, _ in partition_table(len(labels))]


def sample_partition(labels: Iterable[str], rng: random.Random) -> Partition:
    """One uniformly random set partition of the labels.

    Recursively picks the block of the first remaining label: the block size
    is drawn with probability C(n-1, k) * Bell(n-1-k) / Bell(n), which makes
    every set partition equally likely.
    """
    labels = sorted(set(labels))
    bell = [bell_number(k) for k in range(len(labels) + 1)]
    blocks: list[tuple[str, ...]] = []
    remaining = list(labels)
    while remaining:
        n = len(remaining)
        first, rest = remaining[0], remaining[1:]
        weights = [comb(n - 1, k) * bell[n - 1 - k] for k in range(n)]
        (k,) = rng.choices(range(n), weights=weights)
        others = rng.sample(rest, k)
        chosen = set(others)
        blocks.append(tuple([first] + sorted(others)))
        remaining = [x for x in rest if x not in chosen]
    return Partition(tuple(blocks))
