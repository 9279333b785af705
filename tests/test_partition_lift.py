"""Differential tests of every partition-lift route against the Fraction
per-assignment enumerator of tests/oracles.py, which shares no code with
the lift, and of the integer lift routes against the bit-by-bit Fraction
routes they replaced."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from inducibility.graphs import from_edges
from inducibility.masks import pair_slots, partition_tables, slot_count
from inducibility.models import StepModel, from_graph
from inducibility.nesting import compose_profile, transition_matrix
from inducibility.profiles import (
    LabeledProfile,
    ProfileVector,
    induced_profile,
    iso_table,
    labeled_repetitive,
    labeled_repetitive_profile,
    ordered_counts,
    partition_lift,
    repetitive_from_induced,
    repetitive_profile,
)
from inducibility.spectral import fourier, model_spectrum
from oracles import repetitive_by_assignments

orders = st.integers(2, 5)
# half 0/1, since every fractional pair doubles the oracle's branches
probabilities = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), st.fractions(0, 1, max_denominator=4))


@st.composite
def graphs(draw, min_n=1, max_n=6, loops=True):
    n = draw(st.integers(min_n, max_n))
    pairs = pair_slots(n)
    edge_bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    loop_bits = draw(st.integers(0, (1 << n) - 1)) if loops else 0
    edges = [p for k, p in enumerate(pairs) if (edge_bits >> k) & 1]
    return from_edges(n, edges, [v for v in range(n) if (loop_bits >> v) & 1])


@st.composite
def step_models(draw, max_k=3):
    """Exact models with rational masses and probabilities, diagonal included."""
    k = draw(st.integers(1, max_k))
    weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    masses = tuple(Fraction(w, sum(weights)) for w in weights)
    w = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            w[i][j] = w[j][i] = draw(probabilities)
    return StepModel(masses=masses, w=tuple(map(tuple, w)))


def inner_models(max_k):
    return st.one_of(graphs(max_n=max_k).map(from_graph), step_models(max_k=max_k))


def substitute(G, M: StepModel) -> StepModel:
    """Step model of G with a copy of M in place of every vertex: types
    (g, h), and pairs on one vertex of G follow M."""
    types = [(g, h) for g in range(G.n) for h in range(M.k)]
    masses = tuple(M.masses[h] / G.n for _, h in types)
    w = tuple(
        tuple(
            M.w[h][h2] if g == g2 else Fraction((G.rows[g] >> g2) & 1)
            for g2, h2 in types
        )
        for g, h in types
    )
    return StepModel(masses=masses, w=w)


def oracle(M: StepModel, t: int) -> LabeledProfile:
    return LabeledProfile(t=t, flavor="r", numerators=tuple(repetitive_by_assignments(M, t)))


@st.composite
def substitutions(draw):
    """An order, a loopless outer graph and an inner model whose
    substitution has at most 6 types, or 4 at t = 5, which keeps the
    oracle's k^t assignments few."""
    t = draw(orders)
    G = draw(graphs(max_n=3, loops=False))
    return t, G, draw(inner_models((4 if t == 5 else 6) // G.n))


@settings(max_examples=60)
@given(graphs(), orders)
def test_repetitive_profile_of_graph_matches_oracle(G, t):
    # the graph itself and its 0/1 model take the same route; the oracle
    # enumerates the assignments of the model
    M = from_graph(G)
    expected = oracle(M, t)
    assert labeled_repetitive_profile(M, t) == expected
    assert labeled_repetitive(G, t) == expected
    assert model_spectrum(G, t) == fourier(expected)


@settings(max_examples=60)
@given(st.data())
def test_lift_of_induced_profile_matches_oracle(data):
    t = data.draw(orders)
    G = data.draw(graphs(min_n=t, loops=False))
    lifted = repetitive_from_induced(induced_profile(G, t), G.n, t)
    assert lifted == oracle(from_graph(G), t).to_unlabeled()


@settings(max_examples=60)
@given(substitutions())
def test_compose_profile_matches_oracle(case):
    t, G, M = case
    assert compose_profile(G, labeled_repetitive_profile(M, t)) == oracle(substitute(G, M), t)


@settings(max_examples=60)
@given(substitutions())
def test_transition_matrix_matches_oracle(case):
    t, G, M = case
    applied = transition_matrix(G, t).apply(repetitive_profile(M, t).values)
    assert applied == oracle(substitute(G, M), t).to_unlabeled().values


@pytest.mark.parametrize("t", range(2, 6))
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_lift_of_any_induced_distribution_matches_graph_route(t, data):
    # a distribution that no graph need realize, most types often absent
    size = len(iso_table(t).entries)
    weights = data.draw(st.lists(st.one_of(st.just(0), st.integers(1, 9)), min_size=size, max_size=size))
    weights[data.draw(st.integers(0, size - 1))] += 1
    P = ProfileVector(t=t, flavor="induced", values=tuple(Fraction(w, sum(weights)) for w in weights))
    s = data.draw(st.integers(t, 60))
    assert repetitive_from_induced(P, s, t) == oracles.repetitive_from_induced(P, s, t)


def test_partition_tables_follow_the_set_partitions_in_order():
    assert [len(oracles.set_partitions(t)) for t in range(7)] == [1, 1, 2, 5, 15, 52, 203]  # Bell numbers
    for t in range(1, 7):
        assert len(partition_tables(t)) == len(oracles.set_partitions(t))
        for table, parts in zip(partition_tables(t), oracles.set_partitions(t)):
            within, cross = oracles._partition_slots(t, parts)
            assert table.size == len(parts)
            assert table.cross_slots == tuple(oracles._expand(q, cross) for q in range(1 << len(cross)))
            assert table.loop_slots == tuple(oracles._expand(b, within) for b in range(1 << len(parts)))


@settings(max_examples=60)
@given(graphs(), orders)
def test_partition_lift_matches_bitwise_expansion(G, t):
    ordered = ordered_counts(G, t)
    assert partition_lift(t, ordered) == oracles.partition_lift(t, ordered)


@settings(max_examples=60)
@given(graphs(), orders, st.data())
def test_partition_lift_of_inner_weights_matches_bitwise_expansion(G, t, data):
    keys = st.integers(0, (1 << slot_count(t)) - 1)
    weights = st.one_of(st.integers(1, 10 ** 6), st.fractions(0, 1, max_denominator=30))
    inner = data.draw(st.dictionaries(keys, weights, min_size=1, max_size=40))
    ordered = ordered_counts(G, t)
    assert partition_lift(t, ordered, inner) == oracles.partition_lift(t, ordered, inner)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=5, loops=False), orders, st.data())
def test_compose_profile_matches_fraction_route(G, t, data):
    exact = labeled_repetitive_profile(data.draw(inner_models(3)), t)
    assert compose_profile(G, exact) == oracles.compose_profile(G, exact)
    # floats keep their operation order, so they agree to the bit
    floats = LabeledProfile(t=t, flavor="r", numerators=tuple(float(v) for v in exact.values))
    got, expected = compose_profile(G, floats).values, oracles.compose_profile(G, floats).values
    assert [v.hex() for v in got] == [v.hex() for v in expected]


@pytest.mark.parametrize("t", range(2, 6))
@settings(max_examples=10, deadline=None)
@given(graphs(max_n=7, loops=False), st.data())
def test_transition_matrix_matches_fraction_columns(t, G, data):
    # integer rows over one reduced denominator; column j of the Fraction rows is the by-type
    # profile of G composed over the uniform profile of orbit j, lifted in Fractions
    F = transition_matrix(G, t)
    flat = [x for row in F.numerators for x in row]
    assert all(type(x) is int for x in flat + [F.denominator])
    assert F.denominator > 0 and math.gcd(F.denominator, *flat) == 1
    entries = iso_table(t).entries
    cols = []
    for e in entries:
        uniform = [0] * (1 << slot_count(t))
        for mask in e.orbit:
            uniform[mask] = 1
        composed = oracles.compose_profile(G, LabeledProfile(t, "r", tuple(uniform), e.orbit_size)).values
        cols.append(tuple(sum(composed[mask] for mask in f.orbit) for f in entries))
    rows = tuple(zip(*cols))
    assert F.rows == rows
    weights = data.draw(st.lists(st.integers(0, 9), min_size=len(entries), max_size=len(entries)))
    weights[data.draw(st.integers(0, len(entries) - 1))] += 1
    v = [Fraction(w, sum(weights)) for w in weights]
    assert F.apply(v) == tuple(sum(r * x for r, x in zip(row, v)) for row in rows)
