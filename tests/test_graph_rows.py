"""Differential tests of the bit-parallel graph code against the bit-by-bit
oracles in tests/oracles.py: the block-swap transpose behind the symmetry
check, cayley2 rows by translation, the xor row of xor-invariant graphs,
the row formulas of the complete families and the widened rows of the
product operators."""

from __future__ import annotations

import itertools
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inducibility.graphs import (
    LabeledGraph,
    blow_up,
    build_named,
    complement,
    compose,
    from_edges,
    tensor,
    transpose,
    xor_row,
)
from oracles import cayley2_rows, symmetry_violation, transpose_bits
from oracles import xor_row as xor_row_by_definition


def _random_symmetric(rng: random.Random, n: int) -> list:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return list(from_edges(n, edges, [u for u in range(n) if rng.random() < 0.3]).rows)


@st.composite
def bit_matrices(draw, sizes):
    n = draw(sizes)
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [sum(1 << v for v in range(n) if rng.random() < density) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(bit_matrices(st.integers(3, 300).filter(lambda n: n & (n - 1))))
def test_transpose_matches_bitwise_oracle(rows):
    assert transpose(rows) == transpose_bits(rows)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 128])
def test_transpose_of_power_of_two_sizes(n):
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    assert transpose(rows) == transpose_bits(rows)
    assert transpose(transpose(rows)) == rows


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000])
def test_one_flipped_bit_is_refused(n):
    rng = random.Random(n)
    rows = _random_symmetric(rng, n)
    assert LabeledGraph(n, tuple(rows)).rows == tuple(rows)
    for u in {0, n - 1, rng.randrange(n)}:
        bad = rows.copy()
        bad[u] |= 1 << n
        with pytest.raises(ValueError, match=f"^adjacency row {u} out of range$"):
            LabeledGraph(n, tuple(bad))
    if n == 1:
        return
    picks = [(0, n - 1), (n - 1, 0), (n - 2, n - 1)] + [tuple(rng.sample(range(n), 2)) for _ in range(4)]
    for u, v in picks:
        bad = rows.copy()
        bad[u] ^= 1 << v
        # a cleared bit leaves v with u in its row; a set one leaves u with v
        want = (v, u) if (rows[u] >> v) & 1 else (u, v)
        if n <= 65:
            assert symmetry_violation(bad) == want
        with pytest.raises(ValueError, match=re.escape(f"adjacency not symmetric at {want}")):
            LabeledGraph(n, tuple(bad))


def test_first_asymmetry_in_row_order_is_reported():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 70)
        bad = _random_symmetric(rng, n)
        for _ in range(rng.randint(1, 4)):
            u, v = rng.sample(range(n), 2)
            bad[u] ^= 1 << v
        want = symmetry_violation(bad)
        if want is None:
            assert LabeledGraph(n, tuple(bad)).rows == tuple(bad)
            continue
        with pytest.raises(ValueError, match=re.escape(f"adjacency not symmetric at {want}")):
            LabeledGraph(n, tuple(bad))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(st.just(d), st.sets(st.integers(0, d), min_size=1))))
@example((1, {0}))
@example((8, {0, 3, 8}))
def test_cayley2_rows_match_the_generator_loop(case):
    d, weights = case
    assert list(build_named("cayley2", [d, *sorted(weights)]).rows) == cayley2_rows(d, weights)


def _cayley_graphs() -> list:
    """Every cayley2(d; W) with d <= 5, then tensors, complements, blowups
    by powers of two and composes of the smaller ones."""
    leaves = [build_named("cayley2", [d, *W]) for d in range(1, 6)
              for k in range(1, d + 2) for W in itertools.combinations(range(d + 1), k)]
    rng = random.Random(5)
    small = [G for G in leaves if G.n <= 8]
    loopless = [G for G in small if G.is_loopless]
    out = list(leaves)
    for _ in range(40):
        G, H = rng.sample(small, 2)
        G0, H0 = rng.sample(loopless, 2)
        out += [tensor(G, H), complement(tensor(G, H)), blow_up(G, rng.choice([2, 4])), compose(G0, H0),
                blow_up(tensor(complement(G0), H), 2)]
    return out


def _xor_invariant(d: int, connection: int) -> LabeledGraph:
    """The graph on d-bit vectors with u ~ v iff bit u ^ v of connection is set."""
    n = 1 << d
    return LabeledGraph(n, tuple(sum(1 << v for v in range(n) if connection >> (u ^ v) & 1) for u in range(n)))


@st.composite
def maybe_xor_invariant(draw):
    """A random graph, most often on a power of two of vertices, or a
    random xor-invariant graph."""
    if draw(st.booleans()):
        d = draw(st.integers(0, 6))
        return _xor_invariant(d, draw(st.integers(0, (1 << (1 << d)) - 1)))
    n = draw(st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 40)))
    return LabeledGraph(n, tuple(_random_symmetric(random.Random(draw(st.integers(0, 2**32))), n)))


@settings(max_examples=150, deadline=None)
@given(maybe_xor_invariant())
def test_xor_row_matches_its_definition(G):
    assert xor_row(G) == xor_row_by_definition(G)


def test_xor_row_of_cayley_graphs_and_their_products():
    for G in _cayley_graphs():
        assert xor_row(G) == xor_row_by_definition(G) == G.rows[0], G
    assert xor_row(blow_up(build_named("cayley2", [2, 1]), 3)) is None  # 12 vertices


def test_xor_row_refuses_a_flipped_pair_and_mixed_loops():
    # on 2 vertices the one pair is the whole xor class, so flipping it leaves an xor-invariant graph
    rng = random.Random(9)
    for G in [G for G in _cayley_graphs() if G.n >= 4][::7]:
        rows = list(G.rows)
        u, v = rng.sample(range(G.n), 2)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        flipped = LabeledGraph(G.n, tuple(rows))
        assert xor_row(flipped) is xor_row_by_definition(flipped) is None
        rows = list(G.rows)
        rows[u] ^= 1 << u
        mixed = LabeledGraph(G.n, tuple(rows))
        assert xor_row(mixed) is xor_row_by_definition(mixed) is None


def test_complete_families_match_their_edge_lists():
    rng = random.Random(17)
    for n in list(range(1, 70)) + [127, 128, 129, 300]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert build_named("K", [n]) == from_edges(n, pairs)
        assert build_named("loopK", [n]) == from_edges(n, pairs, loops=range(n))
    for sizes in [[1], [300], [1] * 40, [150, 150]] + [
        [rng.randint(1, 30) for _ in range(rng.randint(1, 9))] for _ in range(30)
    ]:
        part = [i for i, s in enumerate(sizes) for _ in range(s)]
        n = len(part)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
        assert build_named("kpart", sizes) == from_edges(n, pairs)


@st.composite
def small_graphs(draw, loops=True):
    n = draw(st.integers(1, 7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    return from_edges(n, edges, [u for u in range(n) if loops and draw(st.booleans())])


def _by_pairs(n, adjacent) -> LabeledGraph:
    return from_edges(
        n,
        [(a, b) for a in range(n) for b in range(a + 1, n) if adjacent(a, b)],
        [a for a in range(n) if adjacent(a, a)],
    )


@settings(max_examples=80, deadline=None)
@given(small_graphs(), small_graphs(), small_graphs(loops=False), small_graphs(loops=False), st.integers(1, 5))
def test_products_match_their_pair_rules(G, H, G0, H0, m):
    def tensor_rule(a, b):
        (g, h), (g2, h2) = divmod(a, H.n), divmod(b, H.n)
        return G.has_edge(g, g2) != H.has_edge(h, h2)

    def compose_rule(a, b):
        (g, h), (g2, h2) = divmod(a, H0.n), divmod(b, H0.n)
        return G0.has_edge(g, g2) or (g == g2 and H0.has_edge(h, h2))

    assert tensor(G, H) == _by_pairs(G.n * H.n, tensor_rule)
    assert compose(G0, H0) == _by_pairs(G0.n * H0.n, compose_rule)
    assert blow_up(G, m) == _by_pairs(G.n * m, lambda a, b: a != b and G.has_edge(a // m, b // m))


def test_building_holds_at_most_one_extra_copy_of_the_rows():
    tracemalloc.start()
    try:
        G = build_named("cayley2", [12, 1, 2, 3, 4, 5, 6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(sys.getsizeof(row) for row in G.rows)
    # the rows, their transpose, and a few n-pointer lists
    assert peak <= 2 * size + 64 * G.n
