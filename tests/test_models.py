from __future__ import annotations

from fractions import Fraction

import pytest

from inducibility.graphs import build_named, from_edges
from inducibility.models import (
    StepModel,
    bernoulli,
    bipartite_random,
    from_graph,
    model_complement,
    model_tensor,
    model_union,
    support_graph,
)
from inducibility.profiles import LabeledProfile, ProfileVector, labeled_repetitive, repetitive_profile
from inducibility.spectral import SpectralProfile, model_spectrum


def test_model_validation():
    with pytest.raises(ValueError):
        StepModel(masses=(), w=())
    with pytest.raises(ValueError):
        StepModel(masses=(Fraction(1, 2),), w=((Fraction(0),),))
    with pytest.raises(ValueError):
        StepModel(
            masses=(Fraction(1, 2), Fraction(1, 2)),
            w=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
        )
    with pytest.raises(ValueError):
        StepModel(masses=(Fraction(1),), w=((Fraction(3, 2),),))
    with pytest.raises(ValueError):
        StepModel(masses=(Fraction(1, 2), Fraction(1, 2)), w=((Fraction(0),),))


def test_from_graph_copies_adjacency():
    M = from_graph(build_named("C", [5]))
    assert M.k == 5
    assert M.masses == tuple(Fraction(1, 5) for _ in range(5))
    assert M.w[0][1] == 1 and M.w[0][2] == 0 and M.w[0][0] == 0
    assert M.is_zero_one() and M.has_uniform_masses() and M.exact
    looped = from_graph(from_edges(2, [(0, 1)], loops=[0]))
    assert looped.w[0][0] == 1 and looped.w[1][1] == 0


def test_support_graph_inverts_from_graph():
    G = from_edges(3, [(0, 1), (1, 2)], loops=[2])
    assert support_graph(G) is G
    assert support_graph(from_graph(G)) == G
    assert support_graph(bipartite_random(Fraction(1))) == from_edges(2, [(0, 1)])
    assert support_graph(model_complement(bernoulli(Fraction(0)))) == from_edges(1, [], loops=[0])
    unequal = model_union([(bernoulli(Fraction(1)), 1), (bernoulli(Fraction(1)), 2)])
    for M in (bernoulli(Fraction(1, 2)), bernoulli(1.0), unequal):
        with pytest.raises(ValueError, match="support graph"):
            support_graph(M)


def test_bernoulli_and_exactness():
    M = bernoulli(Fraction(1, 2))
    assert M.exact and M.k == 1 and M.w[0][0] == Fraction(1, 2)
    approx = bernoulli(0.3)
    assert not approx.exact
    assert not bernoulli(Fraction(1)).has_uniform_masses() is None


def test_bipartite_random_shape():
    M = bipartite_random(Fraction(5, 6))
    assert M.k == 2
    assert M.w[0][0] == 0 and M.w[1][1] == 0
    assert M.w[0][1] == Fraction(5, 6) and M.w[1][0] == Fraction(5, 6)
    assert M.masses == (Fraction(1, 2), Fraction(1, 2))


def test_union_blocks_and_weights():
    M = model_union([(from_graph(build_named("K", [2])), 1), (bernoulli(Fraction(1)), 3)])
    assert M.k == 3
    assert M.masses == (Fraction(1, 8), Fraction(1, 8), Fraction(3, 4))
    assert M.w[0][1] == 1 and M.w[2][2] == 1
    assert M.w[0][2] == 0 and M.w[1][2] == 0
    with pytest.raises(ValueError):
        model_union([])
    with pytest.raises(ValueError):
        model_union([(bernoulli(Fraction(1)), 0)])


def test_union_float_weight_downgrades_exactness():
    M = model_union([(bernoulli(Fraction(1)), 1.0), (bernoulli(Fraction(0)), 1)])
    assert not M.exact
    assert abs(M.masses[0] - 0.5) < 1e-12


def test_tensor_xor_probability_rule():
    M = model_tensor(bernoulli(Fraction(1, 3)), bernoulli(Fraction(1, 4)))
    # p + q - 2pq with p = 1/3, q = 1/4
    assert M.w[0][0] == Fraction(1, 3) + Fraction(1, 4) - 2 * Fraction(1, 12)
    G = model_tensor(from_graph(build_named("K", [2])), from_graph(build_named("K", [2])))
    assert G.k == 4
    # xor of two 0/1 graphs stays 0/1
    assert G.is_zero_one()
    assert G.w[0][3] == 0 and G.w[0][1] == 1 and G.w[0][2] == 1


def test_complement_flips_diagonal_too():
    M = model_complement(from_graph(build_named("K", [2])))
    assert M.w[0][0] == 1 and M.w[0][1] == 0
    B = model_complement(bernoulli(0.3))
    assert not B.exact
    assert abs(B.w[0][0] - 0.7) < 1e-12


def test_one_float_entry_makes_a_model_approximate():
    M = StepModel(masses=(0.5, 0.5), w=((0.25, 1.0), (1.0, 0.0)))
    assert not M.exact
    assert not repetitive_profile(M, 3).exact
    half = Fraction(1, 2)
    mixed = StepModel(masses=(half, half), w=((Fraction(0), 0.5), (0.5, Fraction(0))))
    assert not mixed.exact
    assert not labeled_repetitive(mixed, 3).exact and not model_spectrum(mixed, 3).exact


def test_integer_and_fraction_models_stay_exact():
    models = (
        StepModel(masses=(1,), w=((0,),)),
        StepModel(masses=(Fraction(1, 3), Fraction(2, 3)), w=((1, Fraction(1, 2)), (Fraction(1, 2), 0))),
        bernoulli(1),
        bernoulli("1/3"),
        bipartite_random(Fraction(1, 4)),
        model_complement(bipartite_random(Fraction(1, 4))),
    )
    for M in models:
        assert M.exact
        for profile in (repetitive_profile(M, 3), labeled_repetitive(M, 3), model_spectrum(M, 3)):
            assert profile.exact
            assert all(isinstance(v, Fraction) for v in profile.values)


@pytest.mark.parametrize(
    "make",
    [
        lambda: StepModel(masses=(Fraction(1),), w=((Fraction(0),),), exact=True),
        lambda: ProfileVector(t=2, flavor="induced", values=(Fraction(1), Fraction(0)), exact=True),
        lambda: LabeledProfile(t=2, flavor="r", values=(Fraction(1), Fraction(0)), exact=True),
        lambda: SpectralProfile(t=2, values=(Fraction(1), Fraction(1)), exact=True),
    ],
)
def test_exactness_is_not_a_constructor_argument(make):
    with pytest.raises(TypeError):
        make()
