from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from inducibility.graphs import build_named, canonical_form, from_edges, graph_from_mask
from inducibility.models import bernoulli, from_graph, model_union
from inducibility.profiles import (
    BudgetError,
    ProfileVector,
    QuantumGraph,
    _packed_adjacency,
    _packed_source,
    _repetitive_by_assignments,
    _sample_masks,
    divide,
    induced_profile,
    iso_table,
    labeled_repetitive,
    labeled_repetitive_profile,
    monte_carlo_monochromatic,
    monte_carlo_profile,
    quantum_density,
    repetitive_from_induced,
    repetitive_profile,
)


def _random_loopless(rng: random.Random, n: int):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return from_edges(n, edges)


def test_iso_table_sizes():
    assert [len(iso_table(t).entries) for t in (2, 3, 4, 5)] == [2, 4, 11, 34]
    with pytest.raises(ValueError):
        iso_table(1)
    with pytest.raises(ValueError):
        iso_table(6)


def test_iso_table_orbits_cover_the_mask_space():
    for t in (2, 3, 4, 5):
        table = iso_table(t)
        slots = t * (t - 1) // 2
        assert sum(e.orbit_size for e in table.entries) == 1 << slots
        for e in table.entries:
            assert e.orbit_size * e.aut_count == math.factorial(t)


def test_iso_table_automorphism_counts_match_the_certificates():
    # aut_count is t!/|orbit|; canonical_form counts the automorphisms of
    # each representative independently
    for t in (2, 3, 4, 5):
        for e in iso_table(t).entries:
            assert e.aut_count == canonical_form(graph_from_mask(t, e.rep_mask)).aut_count, (t, e.name)


def test_order_four_basis_is_frozen():
    table = iso_table(4)
    assert table.type_names() == (
        "K4", "A4", "T4", "S4", "M4", "C4", "Q4", "V4", "D4", "E4", "P4",
    )
    assert tuple(e.orbit_size for e in table.entries) == (1, 1, 4, 4, 3, 3, 12, 12, 6, 6, 12)
    assert tuple(e.edge_count() for e in table.entries) == (6, 0, 3, 3, 2, 4, 4, 2, 5, 1, 3)


def test_order_five_table_ordering_and_aliases():
    table = iso_table(5)
    counts = [e.edge_count() for e in table.entries]
    assert counts == sorted(counts)
    assert table.type_index("A5") == 0
    assert table.type_index("K5") == 33
    assert table.type_index("P5") == 12
    assert table.type_index("bull") == 16
    assert table.type_index("C5") == 19
    assert table.entry("C5").orbit_size == 12
    # names are graph6 strings of the representatives
    assert all(e.name[0] == "D" for e in table.entries)


def test_type_lookup_errors():
    table = iso_table(4)
    with pytest.raises(KeyError):
        table.type_index("K5")
    with pytest.raises(ValueError):
        table.type_of_graph(build_named("K", [5]))
    assert table.type_of_graph(build_named("C", [4])) == table.type_index("C4")


def test_profile_vector_validation():
    good = tuple([Fraction(1, 2), Fraction(1, 2)])
    ProfileVector(t=2, flavor="induced", values=good)
    with pytest.raises(ValueError):
        ProfileVector(t=2, flavor="induced", values=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        ProfileVector(t=2, flavor="induced", values=(Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        ProfileVector(t=2, flavor="weird", values=good)


def test_labeled_round_trip():
    P = induced_profile(build_named("C", [5]), 4)
    lab = P.as_labeled()
    assert lab.flavor == "p"
    assert lab.to_unlabeled() == P
    R = repetitive_profile(from_graph(build_named("C", [5])), 3)
    assert R.as_labeled().to_unlabeled() == R


def test_induced_profile_cycle_hand_values():
    P3 = induced_profile(build_named("C", [5]), 3)
    assert P3.entry("K3") == 0
    assert P3.entry("A3") == 0
    assert P3.entry("P3") == Fraction(1, 2)
    assert P3.entry("E3") == Fraction(1, 2)
    P2 = induced_profile(build_named("C", [5]), 2)
    assert P2.entry("K2") == Fraction(1, 2)
    P4 = induced_profile(build_named("K", [4]), 4)
    assert P4.entry("K4") == 1


def test_induced_profile_needs_enough_vertices():
    with pytest.raises(ValueError):
        induced_profile(build_named("K", [3]), 4)
    with pytest.raises(ValueError):
        induced_profile(from_edges(4, loops=[0]), 3)


def test_repetitive_profile_hand_values():
    R = repetitive_profile(from_graph(build_named("K", [2])), 2)
    assert R.entry("K2") == Fraction(1, 2)
    assert R.entry("A2") == Fraction(1, 2)
    B = repetitive_profile(bernoulli(Fraction(1, 2)), 3)
    assert B.entry("K3") == Fraction(1, 8)
    assert B.entry("A3") == Fraction(1, 8)
    assert B.entry("P3") == Fraction(3, 8)
    assert B.entry("E3") == Fraction(3, 8)


def test_repetitive_routes_agree():
    rng = random.Random(5)
    for t in (3, 4):
        for _ in range(6):
            G = _random_loopless(rng, rng.randrange(4, 8))
            direct = divide(*_repetitive_by_assignments(from_graph(G), t))
            subset = labeled_repetitive(G, t, 10**9).values
            assert direct == subset


def test_repetitive_matches_lift_of_induced():
    rng = random.Random(9)
    for t in (3, 4):
        for _ in range(6):
            G = _random_loopless(rng, rng.randrange(t, 9))
            R = repetitive_profile(from_graph(G), t)
            lifted = repetitive_from_induced(induced_profile(G, t), G.n, t)
            assert R == lifted


def test_repetitive_from_induced_edge_cases():
    # s == t: the induced profile is a point mass yet the lift still works
    G = build_named("K", [4])
    lifted = repetitive_from_induced(induced_profile(G, 4), 4, 4)
    assert lifted == repetitive_profile(from_graph(G), 4)
    # integer entries are exact too
    point = ProfileVector(t=3, flavor="induced", values=(1, 0, 0, 0))
    assert repetitive_from_induced(point, 5, 3) == repetitive_profile(from_graph(build_named("K", [5])), 3)
    # float entries lift in floats
    floats = repetitive_from_induced(ProfileVector(t=2, flavor="induced", values=(0.5, 0.5)), 3, 2)
    half = Fraction(1, 2)
    exact = repetitive_from_induced(ProfileVector(t=2, flavor="induced", values=(half, half)), 3, 2)
    assert not floats.exact and exact.exact
    assert all(abs(a - b) < 1e-12 for a, b in zip(floats.values, exact.values))
    with pytest.raises(ValueError):
        repetitive_from_induced(induced_profile(G, 4), 3, 4)
    with pytest.raises(ValueError):
        repetitive_from_induced(induced_profile(G, 4), 4, 3)
    with pytest.raises(ValueError):
        repetitive_from_induced(repetitive_profile(from_graph(G), 4), 4, 4)


def test_budget_errors():
    with pytest.raises(BudgetError):
        induced_profile(build_named("C", [30]), 4, budget=10)
    # a 0/1 model is charged C(k, ell) subsets per order: C(30, 2) = 435
    with pytest.raises(BudgetError):
        repetitive_profile(from_graph(build_named("C", [30])), 4, budget=100)
    # any other model is charged k^t assignments: 7^4 = 2401
    K3 = from_graph(build_named("K", [3]))
    weighted = model_union([(K3, 1), (K3, 2), (bernoulli(Fraction(1, 3)), 1)])
    with pytest.raises(BudgetError):
        repetitive_profile(weighted, 4, budget=100)


def test_quantum_graph_merging_and_density():
    Q = QuantumGraph.from_pairs(3, [("K3", 1), ("A3", Fraction(1, 2)), ("A3", Fraction(1, 2))])
    assert Q.describe() == "K3 + A3"
    R = repetitive_profile(from_graph(build_named("K", [2])), 3)
    assert quantum_density(Q, R) == Fraction(1, 4)
    with pytest.raises(ValueError):
        quantum_density(Q, repetitive_profile(from_graph(build_named("K", [2])), 4))
    squashed = QuantumGraph.from_pairs(3, [("K3", 1), ("K3", -1), ("A3", 2)])
    assert squashed.coefficients == ((iso_table(3).type_index("A3"), Fraction(2)),)


def test_monte_carlo_profile_is_deterministic():
    M = from_graph(build_named("C", [5]))
    a = monte_carlo_profile(M, 3, 40000, seed=123)
    b = monte_carlo_profile(M, 3, 40000, seed=123)
    assert a.values == b.values and a.stderr == b.stderr
    c = monte_carlo_profile(M, 3, 40000, seed=124)
    assert c.values != a.values


def test_monte_carlo_profile_matches_exact_within_error():
    G = build_named("paley", [13])
    exact = repetitive_profile(from_graph(G), 3)
    est = monte_carlo_profile(G, 3, 200000, seed=7)
    for name in ("K3", "A3", "P3", "E3"):
        se = max(est.stderr_of(name), 1e-6)
        assert abs(est.entry(name) - float(exact.entry(name))) < 5 * se


def test_monte_carlo_graph_and_model_routes_agree_statistically():
    G = build_named("C", [5])
    ga = monte_carlo_profile(G, 3, 100000, seed=31)
    mo = monte_carlo_profile(from_graph(G), 3, 100000, seed=31)
    for idx in range(4):
        spread = 5 * max(ga.stderr[idx], mo.stderr[idx], 1e-6)
        assert abs(ga.values[idx] - mo.values[idx]) < spread


def test_monte_carlo_monochromatic():
    value, se = monte_carlo_monochromatic(bernoulli(Fraction(1, 2)), 3, 100000, seed=3)
    assert abs(value - 0.25) < 5 * se
    pair, _ = monte_carlo_monochromatic(bernoulli(Fraction(1, 2)), 2, 10000, seed=3)
    assert pair == 1.0
    high, se6 = monte_carlo_monochromatic(bernoulli(Fraction(1, 2)), 6, 50000, seed=5)
    assert abs(high - 2 * 0.5 ** 15) < 5 * max(se6, 1e-6)
    with pytest.raises(ValueError):
        monte_carlo_monochromatic(bernoulli(Fraction(1, 2)), 9, 1000, seed=1)
    with pytest.raises(TypeError, match="^source must be a LabeledGraph or StepModel$"):
        monte_carlo_monochromatic("K3", 3, 10, 1)
    with pytest.raises(BudgetError):
        monte_carlo_monochromatic(bernoulli(Fraction(1, 2)), 3, 10 ** 11, seed=1)


def test_packed_adjacency_holds_one_bit_per_pair():
    n = 4096
    G = from_edges(n, [(0, n - 1), (17, 300), (300, 301)], loops=[5])
    _packed_adjacency(from_edges(1, []))  # numpy is imported on first use
    tracemalloc.start()
    try:
        packed = _packed_adjacency(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed.shape == (n, n // 8) and packed.nbytes == n * n // 8
    # the rows are written into one buffer, not joined from a copy of each
    assert peak <= packed.nbytes * 1.01, peak
    for u, v in ((0, n - 1), (n - 1, 0), (17, 300), (300, 301), (5, 5), (0, 1), (17, 301)):
        assert (packed[u, v >> 3] >> (v & 7)) & 1 == (G.rows[u] >> v) & 1


def test_sampled_masks_follow_the_adjacency_rows():
    import numpy as np
    from inducibility import masks
    from inducibility.profiles import _CHUNK
    G = _random_loopless(random.Random(4), 19)
    t = 4
    count = 2 * _CHUNK + 5
    pairs = masks.pair_slots(t)
    chunks = list(_sample_masks(_packed_source(G, t), t, np.random.default_rng(5), count, pairs))
    assert [len(c) for c in chunks] == [_CHUNK, _CHUNK, 5]
    verts = np.random.default_rng(5).integers(0, G.n, size=(count, t))
    want = [
        sum(((G.rows[row[i]] >> row[j]) & 1) << s for s, (i, j) in enumerate(pairs)) for row in verts.tolist()
    ]
    assert np.concatenate(chunks).tolist() == want
