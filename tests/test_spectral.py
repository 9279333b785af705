from __future__ import annotations

import random
from fractions import Fraction

import pytest

from inducibility.graphs import build_named, from_edges, tensor
from inducibility.models import APPROX_TOL, bernoulli, from_graph, model_tensor, model_union
from inducibility.profiles import (
    QuantumGraph,
    labeled_repetitive_profile,
    quantum_density,
    repetitive_profile,
)
from inducibility.spectral import (
    SpectralProfile,
    convolve,
    fourier,
    fwht_forward,
    inverse_fourier,
    model_spectrum,
    product_limit_density,
    quantum_functional,
    spectral_product,
)


def test_fwht_round_trip():
    # the transform is its own inverse up to the length, which inverse_fourier divides once
    rng = random.Random(3)
    for _ in range(10):
        vec = [Fraction(rng.randrange(-9, 10), 7) for _ in range(8)]
        assert fwht_forward(fwht_forward(vec)) == [len(vec) * v for v in vec]


def test_approximate_spectrum_round_trips():
    # float values stay floats through the one division of inverse_fourier
    M = model_union([(from_graph(build_named("K", [2])), 1.0), (bernoulli(0.3), 3.7320508075688772)])
    for t in (2, 3, 4):
        lab = labeled_repetitive_profile(M, t)
        back = inverse_fourier(fourier(lab))
        assert not back.exact
        assert all(abs(a - b) <= APPROX_TOL for a, b in zip(back.values, lab.values))


def test_fwht_requires_power_of_two_length():
    with pytest.raises(ValueError):
        fwht_forward([1, 2, 3])


def test_fourier_inverse_identity_on_profiles():
    for source in (from_graph(build_named("C", [5])), bernoulli(Fraction(1, 3))):
        lab = labeled_repetitive_profile(source, 3)
        back = inverse_fourier(fourier(lab))
        assert back.values == lab.values


def test_coin_flip_spectrum_is_a_delta():
    spectrum = model_spectrum(bernoulli(Fraction(1, 2)), 3)
    assert spectrum.values[0] == 1
    assert all(v == 0 for v in spectrum.values[1:])
    flat = inverse_fourier(spectrum)
    assert all(v == Fraction(1, 8) for v in flat.values)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectralProfile(t=2, numerators=(Fraction(1, 2), Fraction(0)))
    with pytest.raises(ValueError):
        SpectralProfile(t=2, numerators=(Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        SpectralProfile(t=2, numerators=(Fraction(1),))


def test_reference_spectra_of_the_two_headline_factors():
    expected_k4 = (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4))
    expected_m4 = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4))
    spec_k4 = model_spectrum(build_named("K4"), 4)
    spec_m4 = model_spectrum(build_named("M4"), 4)
    for name, want_k, want_m in zip(("K4", "M4", "C4", "Q4", "V4"), expected_k4, expected_m4):
        assert spec_k4.entry(name) == want_k
        assert spec_m4.entry(name) == want_m


def test_convolve_matches_direct_tensor():
    pairs = [("K3", "K3"), ("K3", "C5"), ("K4", "M4")]
    for a, b in pairs:
        A = build_named(a) if a in ("K4", "M4") else build_named(a[0], [int(a[1])])
        B = build_named(b) if b in ("K4", "M4") else build_named(b[0], [int(b[1])])
        for t in (3, 4):
            indirect = convolve(
                labeled_repetitive_profile(from_graph(A), t),
                labeled_repetitive_profile(from_graph(B), t),
            )
            direct = labeled_repetitive_profile(from_graph(tensor(A, B)), t)
            assert indirect.values == direct.values


def test_spectral_product_is_the_model_tensor_spectrum():
    M = model_tensor(bernoulli(Fraction(1, 3)), from_graph(build_named("C", [5])))
    combined = model_spectrum(M, 3)
    factored = spectral_product(
        model_spectrum(bernoulli(Fraction(1, 3)), 3),
        model_spectrum(from_graph(build_named("C", [5])), 3),
    )
    assert combined.values == factored.values
    with pytest.raises(ValueError):
        spectral_product()
    with pytest.raises(ValueError):
        spectral_product(combined, model_spectrum(bernoulli(Fraction(1, 2)), 4))


def test_quantum_functional_reference_coefficients():
    thomason = quantum_functional(QuantumGraph.from_pairs(4, [("K4", 1), ("A4", 1)]))
    assert thomason == (
        Fraction(1, 32), Fraction(1, 32), 0, 0,
        Fraction(3, 32), Fraction(3, 32), Fraction(3, 8), Fraction(3, 8),
        0, 0, 0,
    )
    path = quantum_functional(QuantumGraph.from_pairs(4, [("P4", 1)]))
    assert path == (
        Fraction(-3, 16), Fraction(3, 16), 0, 0,
        Fraction(3, 16), Fraction(-3, 16), Fraction(3, 4), Fraction(-3, 4),
        0, 0, 0,
    )


def test_functional_agrees_with_direct_density():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.randrange(4, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        G = from_edges(n, edges)
        M = from_graph(G)
        Q = QuantumGraph.from_pairs(4, [("P4", Fraction(2, 3)), ("K4", -1), ("C4", Fraction(5))])
        spectral_side = sum(
            c * v for c, v in zip(quantum_functional(Q), model_spectrum(G, 4).type_values())
        )
        direct_side = quantum_density(Q, repetitive_profile(M, 4))
        assert spectral_side == direct_side


def test_product_limit_density_equals_convolved_density():
    Q = QuantumGraph.from_pairs(4, [("K4", 1), ("A4", 1)])
    factors = [build_named("M4"), build_named("K4"), build_named("K", [3])]
    spectra = [model_spectrum(G, 4) for G in factors]
    via_spectrum = product_limit_density(Q, *spectra)
    profile = convolve(*(labeled_repetitive_profile(from_graph(G), 4) for G in factors))
    via_profile = quantum_density(Q, profile.to_unlabeled())
    assert via_spectrum == via_profile
