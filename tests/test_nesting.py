from __future__ import annotations

from fractions import Fraction

import pytest

from inducibility.graphs import build_named, compose, from_edges, tensor
from inducibility.models import from_graph
from inducibility.nesting import (
    DegenerateStationaryError,
    TransitionMatrix,
    compose_profile,
    iterate_profile,
    nested_spectral,
    stationary_profile,
    transition_matrix,
)
from inducibility.profiles import iso_table, labeled_repetitive_profile


def _labeled(G, t):
    return labeled_repetitive_profile(from_graph(G), t)


def test_compose_profile_matches_composed_graph():
    cases = [
        (build_named("K", [2]), build_named("A", [2]), 2),
        (build_named("C", [5]), build_named("K", [2]), 3),
        (build_named("K4"), build_named("P4"), 4),
    ]
    for outer, inner, t in cases:
        predicted = compose_profile(outer, _labeled(inner, t))
        actual = _labeled(compose(outer, inner), t)
        assert predicted.values == actual.values


def test_compose_profile_two_vertex_hand_value():
    # outer edge, empty inner: both samples share a part half the time
    out = compose_profile(build_named("K", [2]), _labeled(build_named("A", [2]), 2))
    assert out.values == (Fraction(1, 2), Fraction(1, 2))
    # composing the edge over its own finite profile drifts toward all-edges
    step = compose_profile(build_named("K", [2]), _labeled(build_named("K", [2]), 2))
    assert step.values == (Fraction(1, 4), Fraction(3, 4))


def test_compose_profile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compose_profile(from_edges(2, loops=[0]), _labeled(build_named("K", [2]), 2))
    from inducibility.profiles import induced_profile

    ordered_p = induced_profile(build_named("C", [5]), 3).as_labeled()
    with pytest.raises(ValueError):
        compose_profile(build_named("K", [2]), ordered_p)


def test_iterate_profile_levels():
    G = build_named("C", [5])
    assert iterate_profile(G, 3, 1).values == _labeled(G, 3).values
    two = iterate_profile(G, 3, 2)
    assert two.values == _labeled(compose(G, G), 3).values
    with pytest.raises(ValueError):
        iterate_profile(G, 3, 0)


def test_transition_matrix_of_an_edge():
    F = transition_matrix(build_named("K", [2]), 2)
    names = iso_table(2).type_names()
    assert names == ("K2", "A2")
    assert F.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1, 2)))
    assert F.entry(0, 1) == Fraction(1, 2)


def test_transition_matrix_columns_are_stochastic():
    for base, t in [(build_named("C", [5]), 3), (build_named("K4"), 4)]:
        F = transition_matrix(base, t)
        size = len(iso_table(t).entries)
        for j in range(size):
            assert sum(F.rows[i][j] for i in range(size)) == 1
    with pytest.raises(ValueError):
        TransitionMatrix(t=2, rows=((Fraction(1), Fraction(1)),) * 2)


def test_apply_preserves_the_simplex():
    F = transition_matrix(build_named("C", [5]), 3)
    size = len(F.rows)
    vec = tuple(Fraction(1, size) for _ in range(size))
    for _ in range(3):
        vec = F.apply(vec)
        assert sum(vec) == 1
        assert all(v >= 0 for v in vec)


def test_stationary_profile_of_an_edge_and_a_cycle():
    q_edge = stationary_profile(build_named("K", [2]), 2)
    assert q_edge.entry("K2") == 1 and q_edge.entry("A2") == 0
    q_cycle = stationary_profile(build_named("C", [5]), 2)
    assert q_cycle.entry("K2") == Fraction(1, 2)


def test_stationary_profile_is_a_fixed_point():
    G = tensor(build_named("K", [3]), build_named("K", [3]))
    nested = stationary_profile(G, 4)
    values = nested.profile.values
    assert nested.matrix.apply(values) == values
    assert sum(values) == 1


def test_iterates_converge_to_the_stationary_profile():
    G = tensor(build_named("K", [3]), build_named("K", [3]))
    target = stationary_profile(G, 4).profile.as_labeled().values
    dists = []
    for n in range(1, 7):
        vals = iterate_profile(G, 4, n).values
        dists.append(sum(abs(a - b) for a, b in zip(vals, target)))
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < Fraction(1, 100)


def test_single_vertex_base_is_degenerate():
    with pytest.raises(DegenerateStationaryError):
        stationary_profile(build_named("K", [1]), 2)


def test_nested_spectral_values():
    spectrum = nested_spectral(build_named("C", [5]), 2)
    assert spectrum.values[0] == 1
    assert spectrum.entry("K2") == 0
    q_hat = nested_spectral(tensor(build_named("K", [3]), build_named("K", [3])), 4)
    assert q_hat.entry("K4") == Fraction(18, 91)
    assert q_hat.entry("C4") == Fraction(9, 91)
    assert q_hat.entry("M4") == 0 and q_hat.entry("Q4") == 0 and q_hat.entry("V4") == 0
