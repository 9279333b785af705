"""Bit-mask encoding of labeled graphs on a small fixed vertex set.

A labeled graph on vertices 0..t-1 is stored as an integer mask over the
t*(t-1)/2 vertex pairs (i, j) with i < j, taken in lexicographic order:
bit k of the mask is pair number k.  This slot order is part of the
serialization contract and every module indexes labeled graphs this way.

The module also precomputes, per vertex partition, the tables driving the
composition calculus: which t-vertex slots lie within each part, and which
ones each slot of the quotient graph on the parts expands to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


def slot_count(t: int) -> int:
    return t * (t - 1) // 2


@lru_cache(maxsize=None)
def pair_slots(t: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (i, j), i < j, in the fixed slot order."""
    return tuple((i, j) for i in range(t) for j in range(i + 1, t))


@lru_cache(maxsize=None)
def slot_of(t: int) -> dict[tuple[int, int], int]:
    """Slot index of each pair, keyed by (min, max)."""
    return {pair: k for k, pair in enumerate(pair_slots(t))}


@lru_cache(maxsize=None)
def permutation_masks(t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Relabeling action on masks, one full table per permutation.

    table[mask] is the graph whose edge (i, j) is present iff the edge
    (sigma(i), sigma(j)) is present in mask.
    """
    m = slot_count(t)
    pairs = pair_slots(t)
    index = slot_of(t)
    tables = {}
    for sigma in itertools.permutations(range(t)):
        source = [0] * m
        for k, (i, j) in enumerate(pairs):
            a, b = sigma[i], sigma[j]
            source[k] = index[(a, b) if a < b else (b, a)]
        table = []
        for mask in range(1 << m):
            out = 0
            for k in range(m):
                if (mask >> source[k]) & 1:
                    out |= 1 << k
            table.append(out)
        tables[sigma] = tuple(table)
    return tables


def permute_bits(bits: int, sigma: tuple[int, ...]) -> int:
    """Relabel a per-vertex bit pattern: new bit i = old bit sigma(i)."""
    out = 0
    for i, s in enumerate(sigma):
        if (bits >> s) & 1:
            out |= 1 << i
    return out


@lru_cache(maxsize=None)
def orbit_index(t: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(index, orbits): index[mask] is the orbit number of mask and
    orbits[k] lists the masks of orbit k.  Orbits are numbered by their
    smallest member, ascending."""
    m = slot_count(t)
    tables = permutation_masks(t).values()
    index = [-1] * (1 << m)
    orbits: list[tuple[int, ...]] = []
    for mask in range(1 << m):
        if index[mask] >= 0:
            continue
        image = sorted({table[mask] for table in tables})
        for im in image:
            index[im] = len(orbits)
        orbits.append(tuple(image))
    return tuple(index), tuple(orbits)


@lru_cache(maxsize=None)
def restriction_map(t: int, ell: int) -> tuple[int, ...]:
    """Per t-mask, the induced mask on vertices 0..ell-1."""
    if not 1 <= ell <= t:
        raise ValueError("restriction order out of range")
    small = slot_of(ell) if ell >= 2 else {}
    moves = [(k, small[(i, j)]) for k, (i, j) in enumerate(pair_slots(t)) if j < ell]
    table = []
    for mask in range(1 << slot_count(t)):
        sub = 0
        for k, k2 in moves:
            if (mask >> k) & 1:
                sub |= 1 << k2
        table.append(sub)
    return tuple(table)


def project_labeled(t: int, values, ell: int) -> list:
    """Marginalize a labeled density vector down to the first ell vertices.

    Sums values over all extensions of each ell-vertex graph; with labeled
    induced densities as input this yields the order-ell labeled densities.
    """
    table = restriction_map(t, ell)
    zero = values[0] * 0
    out = [zero] * (1 << slot_count(ell))
    for mask, v in enumerate(values):
        if v:
            out[table[mask]] = out[table[mask]] + v
    return out


@lru_cache(maxsize=None)
def set_partitions(t: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of range(t), parts ordered by smallest element."""
    results: list[tuple[tuple[int, ...], ...]] = []

    def grow(prefix: list[int], used: int) -> None:
        if len(prefix) == t:
            parts: list[list[int]] = [[] for _ in range(used)]
            for pos, p in enumerate(prefix):
                parts[p].append(pos)
            results.append(tuple(tuple(p) for p in parts))
            return
        for p in range(used + 1):
            prefix.append(p)
            grow(prefix, used + (1 if p == used else 0))
            prefix.pop()

    grow([], 0)
    return tuple(results)


@dataclass(frozen=True)
class PartitionTable:
    """One vertex partition with its composition tables.

    part_slot_masks[p] holds the t-vertex slots inside part p, and
    cross_slot_masks[q] the slots that quotient slot q expands to, the
    quotient graph having the parts as vertices (ordered by smallest
    element); within_mask is the union of the part slot masks.
    """

    parts: tuple[tuple[int, ...], ...]
    size: int
    within_mask: int
    part_slot_masks: tuple[int, ...]
    cross_slot_masks: tuple[int, ...]


@lru_cache(maxsize=None)
def partition_tables(t: int) -> tuple[PartitionTable, ...]:
    out = []
    for parts in set_partitions(t):
        ell = len(parts)
        part_of = [0] * t
        for p, part in enumerate(parts):
            for v in part:
                part_of[v] = p
        qslot = slot_of(ell) if ell >= 2 else {}
        part_masks = [0] * ell
        cross_masks = [0] * slot_count(ell)
        within = 0
        for k, (i, j) in enumerate(pair_slots(t)):
            p, q = part_of[i], part_of[j]
            if p == q:
                part_masks[p] |= 1 << k
                within |= 1 << k
            else:
                a, b = (p, q) if p < q else (q, p)
                cross_masks[qslot[(a, b)]] |= 1 << k
        out.append(
            PartitionTable(
                parts=parts,
                size=ell,
                within_mask=within,
                part_slot_masks=tuple(part_masks),
                cross_slot_masks=tuple(cross_masks),
            )
        )
    return tuple(out)
