from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from inducibility.graphs import (
    PALEY_ORDERS,
    LabeledGraph,
    blow_up,
    build_named,
    canonical_form,
    complement,
    compose,
    disjoint_union,
    from_edges,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    is_twin_free,
    mask_of,
    mask_of_vertices,
    tensor,
)
from oracles import canonical_by_orders, paley


def _random_graph(rng: random.Random, n: int) -> LabeledGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return from_edges(n, edges)


def _relabel(G: LabeledGraph, sigma: list[int]) -> LabeledGraph:
    edges = [(sigma[u], sigma[v]) for u, v in G.edges()]
    loops = [sigma[u] for u in G.loops()]
    return from_edges(G.n, edges, loops)


def test_from_edges_and_accessors():
    G = from_edges(4, [(0, 1), (2, 3)], loops=[1])
    assert G.n == 4
    assert G.has_edge(0, 1) and G.has_edge(1, 0)
    assert not G.has_edge(0, 2)
    assert G.has_loop(1) and not G.has_loop(0)
    assert G.edges() == [(0, 1), (2, 3)]
    assert G.loops() == [1]
    assert G.edge_count() == 2
    assert G.degree(1) == 1
    assert not G.is_loopless


def test_from_edges_rejects_diagonal_pairs():
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_complement_is_an_involution():
    rng = random.Random(11)
    for _ in range(20):
        G = _random_graph(rng, rng.randrange(2, 9))
        assert complement(complement(G)) == G
    K4 = build_named("K", [4])
    assert complement(K4).edge_count() == 0
    assert all(complement(K4).has_loop(v) for v in range(4))


def test_blow_up_of_an_edge_is_complete_bipartite():
    G = blow_up(build_named("K", [2]), 3)
    assert G.n == 6
    assert G.edge_count() == 9
    assert canonical_form(G) == canonical_form(build_named("kpart", [3, 3]))


def test_blow_up_loop_convention():
    looped = from_edges(1, loops=[0])
    G = blow_up(looped, 4)
    assert G.is_loopless
    assert canonical_form(G) == canonical_form(build_named("K", [4]))
    plain = blow_up(from_edges(1), 4)
    assert plain.edge_count() == 0


def test_compose_complete_with_complete():
    G = compose(build_named("K", [2]), build_named("K", [3]))
    assert canonical_form(G) == canonical_form(build_named("K", [6]))
    H = compose(build_named("A", [2]), build_named("K", [3]))
    assert canonical_form(H) == canonical_form(
        disjoint_union(build_named("K", [3]), build_named("K", [3]))
    )


def test_compose_sizes_multiply():
    G = compose(build_named("C", [5]), build_named("P", [3]))
    assert G.n == 15
    # each C5 edge contributes a 3x3 cross join, each part holds one P3
    assert G.edge_count() == 5 * 9 + 5 * 2
    with pytest.raises(ValueError, match="^composition is defined for loopless graphs$"):
        compose(build_named("C", [5]), build_named("loopK", [2]))


def test_tensor_xor_rule():
    K2 = build_named("K", [2])
    assert canonical_form(tensor(K2, K2)) == canonical_form(build_named("C", [4]))
    K3 = build_named("K", [3])
    T = tensor(K3, K3)
    assert T.n == 9
    assert all(T.degree(v) == 4 for v in range(9))
    assert canonical_form(T) == canonical_form(build_named("paley", [9]))


def test_tensor_is_associative_up_to_labels():
    A = tensor(build_named("K", [2]), tensor(build_named("K", [2]), build_named("P", [2])))
    B = tensor(tensor(build_named("K", [2]), build_named("K", [2])), build_named("P", [2]))
    assert canonical_form(A) == canonical_form(B)
    flat = tensor(build_named("K", [2]), build_named("K", [2]), build_named("P", [2]))
    assert canonical_form(flat) == canonical_form(A)


def test_disjoint_union_counts():
    G = disjoint_union(build_named("K", [3]), build_named("C", [4]), build_named("A", [2]))
    assert G.n == 9
    assert G.edge_count() == 3 + 4


def test_named_families():
    assert build_named("K", [5]).edge_count() == 10
    assert build_named("A", [5]).edge_count() == 0
    assert build_named("C", [6]).edge_count() == 6
    assert build_named("P", [4]).edges() == [(0, 1), (1, 2), (2, 3)]
    loopy = build_named("loopK", [3])
    assert loopy.edge_count() == 3 and len(loopy.loops()) == 3
    assert build_named("kpart", [2, 2, 2]).edge_count() == 12
    assert canonical_form(build_named("paley", [5])) == canonical_form(build_named("C", [5]))


def test_named_fixed_graphs():
    for name, edges in [("K4", 6), ("A4", 0), ("T4", 3), ("S4", 3), ("M4", 2),
                        ("C4", 4), ("Q4", 4), ("V4", 2), ("D4", 5), ("E4", 1),
                        ("P4", 3), ("bull", 5)]:
        G = build_named(name)
        assert G.edge_count() == edges
    with pytest.raises(ValueError):
        build_named("K4", [4])
    with pytest.raises(ValueError):
        build_named("nosuch")


def test_cayley_hypercube_weights():
    Q3 = build_named("cayley2", [3, 1])
    assert Q3.n == 8
    assert all(Q3.degree(v) == 3 for v in range(8))
    G = build_named("cayley2", [4, 1, 4])
    # weight-1 neighbors plus the single antipode
    assert all(G.degree(v) == 5 for v in range(16))


def test_paley_requires_prime_power_1_mod_4():
    with pytest.raises(ValueError):
        build_named("paley", [7])
    P13 = build_named("paley", [13])
    assert all(P13.degree(v) == 6 for v in range(13))
    # x -> 2x is an isomorphism onto the complement: 2 is a nonsquare mod 13
    doubled = _relabel(P13, [(2 * v) % 13 for v in range(13)])
    assert doubled.edges() == complement(P13).edges()


@pytest.mark.parametrize("q", PALEY_ORDERS)
def test_paley_labels_are_the_quadratic_residue_graph(q):
    # the labels, not only the isomorphism class: convert --encode prints them
    assert build_named("paley", [q]).rows == paley(q)


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(2, 9)
        G = _random_graph(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert canonical_form(G) == canonical_form(_relabel(G, sigma))


@given(st.integers(1, 6), st.integers(0, 2**32), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_canonical_form_matches_brute_force(n, seed, density):
    # the minimal code over all n! vertex orders, and how many orders reach it
    rng = random.Random(seed)
    G = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density],
                   [u for u in range(n) if rng.random() < density])
    code = canonical_form(G)
    assert (code.n, code.bits, code.aut_count) == (n, *canonical_by_orders(G))


def test_canonical_form_separates_nonisomorphic_pairs():
    assert canonical_form(build_named("C4")) != canonical_form(build_named("P4"))
    assert canonical_form(build_named("S4")) != canonical_form(build_named("T4"))


def test_automorphism_counts():
    assert canonical_form(build_named("K", [4])).aut_count == 24
    assert canonical_form(build_named("C", [4])).aut_count == 8
    assert canonical_form(build_named("C", [5])).aut_count == 10
    assert canonical_form(build_named("P4")).aut_count == 2
    assert canonical_form(build_named("bull")).aut_count == 2
    assert canonical_form(build_named("A", [5])).aut_count == 120


def test_graph6_anchor_strings():
    assert graph6_encode(build_named("K", [1])) == "@"
    assert graph6_encode(build_named("K", [2])) == "A_"
    assert graph6_decode("A_").edges() == [(0, 1)]
    assert graph6_decode("@").n == 1


def test_graph6_round_trip():
    rng = random.Random(37)
    for _ in range(40):
        G = _random_graph(rng, rng.randrange(1, 14))
        assert graph6_decode(graph6_encode(G)) == G


def test_graph6_rejects_bad_input():
    with pytest.raises(ValueError):
        graph6_encode(from_edges(2, loops=[0]))
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("A")
    with pytest.raises(ValueError):
        graph6_decode("A\x01")


def test_mask_round_trip():
    rng = random.Random(41)
    for t in (2, 3, 4, 5):
        for _ in range(10):
            mask = rng.randrange(1 << (t * (t - 1) // 2))
            assert mask_of(graph_from_mask(t, mask)) == mask


def test_mask_of_vertices_respects_order():
    # slots at t=3 are (0,1), (0,2), (1,2) in bit order
    P = build_named("P", [3])
    assert mask_of_vertices(P, (0, 1, 2)) == 0b101
    assert mask_of_vertices(P, (0, 2, 1)) == 0b110
    assert mask_of_vertices(P, (1, 0, 2)) == 0b011


def test_twin_detection():
    assert is_twin_free(build_named("P4"))
    assert is_twin_free(build_named("C", [5]))
    assert not is_twin_free(build_named("C", [4]))
    assert not is_twin_free(build_named("K", [3]))
    assert is_twin_free(build_named("paley", [9]))


def test_rows_are_validated():
    with pytest.raises(ValueError):
        LabeledGraph(2, (1 << 2, 0))
    with pytest.raises(ValueError):
        LabeledGraph(2, (2, 0))
    assert LabeledGraph(2, (1, 0)).has_loop(0)
    assert math.comb(4, 2) == len(build_named("K", [4]).edges())
