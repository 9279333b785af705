"""The bitset-class pattern counter and the mask orbits against brute force
over vertex subsets, vertex tuples and permutations.  The package counter
is exact on orbits of relabelings, since it may count a subset's last two
vertices in either order; the oracle counter labels each subset in
increasing vertex order."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from inducibility.graphs import from_edges, mask_of_vertices
from inducibility.masks import orbit, orbit_index, pair_slots, slot_count
from inducibility.profiles import _decorated_subset_counts, _ordered, ordered_counts
from oracles import orbit_by_relabelings, subset_counts


@st.composite
def graphs(draw, max_n, looped=True):
    n = draw(st.integers(1, max_n))
    pairs = pair_slots(n)
    edge_bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    loop_bits = draw(st.integers(0, (1 << n) - 1)) if looped else 0
    edges = [p for k, p in enumerate(pairs) if (edge_bits >> k) & 1]
    return from_edges(n, edges, [v for v in range(n) if (loop_bits >> v) & 1])


def pattern(G, vertices) -> tuple[int, int]:
    """(edge mask, loop bits) induced by an ordered vertex tuple."""
    loops = sum(((G.rows[v] >> v) & 1) << i for i, v in enumerate(vertices))
    return mask_of_vertices(G, vertices), loops


@settings(max_examples=200)
@given(graphs(max_n=14), st.integers(1, 5))
def test_subset_counts_match_brute_force(G, ell):
    expected = Counter(pattern(G, c) for c in itertools.combinations(range(G.n), ell))
    assert subset_counts(G, ell) == dict(expected)


@settings(max_examples=200)
@given(st.booleans().flatmap(lambda looped: graphs(max_n=14, looped=looped)), st.integers(1, 5))
def test_orbit_totals_match_brute_force(G, ell):
    expected = Counter(pattern(G, c) for c in itertools.combinations(range(G.n), ell))
    assert _ordered(ell, _decorated_subset_counts(G, ell)) == _ordered(ell, expected)


def test_orbit_totals_match_oracle_counter():
    rng = random.Random(7)
    half = [(u, v) for v in range(62) for u in range(v) if rng.random() < 0.5]
    cases = [
        (from_edges(40, [(u, v) for u, v in half if v < 40]), 5),
        (from_edges(62, half), 4),
        (from_edges(24, [(u, v) for u, v in half if v < 24], [v for v in range(24) if rng.random() < 0.5]), 5),
    ]
    for G, ell in cases:
        assert _ordered(ell, _decorated_subset_counts(G, ell)) == _ordered(ell, subset_counts(G, ell))


@settings(max_examples=100)
@given(graphs(max_n=7), st.integers(1, 5))
def test_ordered_counts_match_vertex_tuples(G, t):
    counts = ordered_counts(G, t)
    assert sorted(counts) == list(range(1, min(G.n, t) + 1))
    for ell, got in counts.items():
        assert got == dict(Counter(pattern(G, p) for p in itertools.permutations(range(G.n), ell)))


def test_orbit_index_matches_permutations():
    for t in range(2, 6):
        index, orbits = orbit_index(t)
        assert len(index) == 1 << slot_count(t)
        assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
        assert sum(len(o) for o in orbits) == len(index)
        for k, members in enumerate(orbits):
            images = orbit_by_relabelings(t, members[0])
            assert members == tuple(sorted(mask for mask, _ in images))
            assert orbit(t, members[0]) == images
            assert all(index[mask] == k for mask in members)
            assert math.factorial(t) % len(members) == 0


def test_decorated_orbits_match_permutations():
    # every (mask, loops) at t <= 5 lies in the orbit of exactly one of the
    # keys checked, the first of its orbit in this order
    for t in range(1, 6):
        seen = set()
        for mask in range(1 << slot_count(t)):
            for loops in range(1 << t):
                if (mask, loops) in seen:
                    continue
                members = orbit(t, mask, loops)
                assert members == orbit_by_relabelings(t, mask, loops)
                assert math.factorial(t) % len(members) == 0
                seen |= members
        assert len(seen) == 1 << (slot_count(t) + t)
