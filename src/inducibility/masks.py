"""Bit-mask encoding of labeled graphs on a small fixed vertex set.

A labeled graph on vertices 0..t-1 is stored as an integer mask over the
t*(t-1)/2 vertex pairs (i, j) with i < j, taken in lexicographic order:
bit k of the mask is pair number k.  This slot order is part of the
serialization contract and every module indexes labeled graphs this way.
Relabeling acts on masks, and on per-vertex loop bits, through orbits
built by closure under adjacent transpositions.

The module also precomputes, per vertex partition, the tables driving the
composition calculus: which t-vertex slots lie within each set of parts,
and which ones each mask of the quotient graph on the parts expands to.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .frozen import frozen


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
def _swap_tables(t: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per adjacent transposition (s, s+1), its action on the 15-bit keys
    mask | loops << slot_count(t) of t <= 5 vertices, by 5-bit chunks:
    table[c][bits] is the image of bits in chunk c."""
    m, index = slot_count(t), slot_of(t)
    out = []
    for s in range(t - 1):
        sigma = [s + 1 if v == s else s if v == s + 1 else v for v in range(t)]
        to = [index[tuple(sorted((sigma[i], sigma[j])))] for i, j in pair_slots(t)] + [m + v for v in sigma]
        out.append(tuple(_unions([1 << d for d in to[c:c + 5]]) for c in (0, 5, 10)))
    return tuple(out)


def orbit(t: int, mask: int, loops: int = 0) -> frozenset[tuple[int, int]]:
    """Relabelings of the decorated graph (mask, loop bits) on t <= 5
    vertices, as the closure under the t-1 adjacent transpositions."""
    m, swaps = slot_count(t), _swap_tables(t)
    seen = {mask | loops << m}
    todo = list(seen)
    while todo:
        key = todo.pop()
        low, mid, high = key & 31, key >> 5 & 31, key >> 10
        for a, b, c in swaps:
            image = a[low] | b[mid] | c[high]
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return frozenset((key & ((1 << m) - 1), key >> m) for key in seen)


@lru_cache(maxsize=None)
def orbit_index(t: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(index, orbits): index[mask] is the orbit number of mask and
    orbits[k] lists the masks of orbit k.  Orbits are numbered by their
    smallest member, ascending."""
    index = [-1] * (1 << slot_count(t))
    orbits: list[tuple[int, ...]] = []
    for mask in range(len(index)):
        if index[mask] >= 0:
            continue
        members = tuple(sorted(image for image, _ in orbit(t, mask)))
        for image in members:
            index[image] = len(orbits)
        orbits.append(members)
    return tuple(index), tuple(orbits)


@frozen
class PartitionTable:
    """One vertex partition with its composition tables, the quotient graph
    having the parts as vertices (ordered by smallest element).

    loop_slots[b] holds the t-vertex slots inside the parts in the set b
    (bit p for part p), so loop_slots[-1] holds every slot within a part;
    cross_slots[q] holds the slots that the quotient mask q expands to.
    """

    size: int
    loop_slots: tuple[int, ...]
    cross_slots: tuple[int, ...]


def _unions(singles) -> tuple[int, ...]:
    """Union of singles[k] over the set bits k of b, for every b."""
    out = [0]
    for single in singles:
        out += [u | single for u in out]
    return tuple(out)


@lru_cache(maxsize=None)
def partition_tables(t: int) -> tuple[PartitionTable, ...]:
    """The tables of every partition of range(t), one per restricted growth
    string part_of (each entry at most one above the largest before it,
    so part_of[v] is the part of vertex v and parts are numbered by their
    smallest vertex), in lexicographic order of the strings."""
    out = []
    for part_of in product(*map(range, range(1, t + 1))):
        if any(p > max(part_of[:v]) + 1 for v, p in enumerate(part_of) if v):
            continue
        ell = len(set(part_of))
        qslot = slot_of(ell)
        part_masks = [0] * ell
        cross_masks = [0] * slot_count(ell)
        for k, (i, j) in enumerate(pair_slots(t)):
            p, q = part_of[i], part_of[j]
            if p == q:
                part_masks[p] |= 1 << k
            else:
                cross_masks[qslot[min(p, q), max(p, q)]] |= 1 << k
        out.append(PartitionTable(size=ell, loop_slots=_unions(part_masks), cross_slots=_unions(cross_masks)))
    return tuple(out)
