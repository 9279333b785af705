"""Acceptance gate: one test per benchmark criterion.

Run with -v to get one pass/fail line per criterion.  Exact criteria compare
rationals with zero tolerance.  Slow statistical checks are opt-in through
RUN_SLOW=1.
"""
from __future__ import annotations

import os
import random
import time
from fractions import Fraction

import pytest

from inducibility.graphs import (
    build_named,
    canonical_form,
    compose,
    from_edges,
    tensor,
)
from inducibility.models import bernoulli, from_graph
from inducibility.nesting import (
    iterate_profile,
    stationary_profile,
    nested_spectral,
    transition_matrix,
)
from inducibility.profiles import (
    QuantumGraph,
    induced_profile,
    iso_table,
    labeled_repetitive_profile,
    monte_carlo_monochromatic,
    monte_carlo_profile,
    quantum_density,
    repetitive_from_induced,
    repetitive_profile,
)
from inducibility.spectral import convolve, model_spectrum, product_limit_density
from inducibility.catalog import reproduce_table

RUN_SLOW = bool(os.environ.get("RUN_SLOW"))

K3 = build_named("K", [3])
K33 = tensor(K3, K3)


# the 11x11 one-step matrix of the double-triangle base, times 729,
# rows and columns in the fixed order K4 A4 T4 S4 M4 C4 Q4 V4 D4 E4 P4
F4_NUMERATORS = (
    (53, 0, 16, 12, 12, 24, 24, 8, 36, 4, 16),
    (0, 53, 12, 16, 24, 12, 8, 24, 4, 36, 16),
    (112, 0, 53, 48, 32, 64, 68, 32, 88, 16, 48),
    (0, 112, 48, 53, 64, 32, 32, 68, 16, 88, 48),
    (84, 24, 48, 48, 45, 64, 60, 40, 72, 32, 52),
    (24, 84, 48, 48, 64, 45, 40, 60, 32, 72, 52),
    (192, 96, 156, 144, 144, 160, 165, 136, 176, 120, 152),
    (96, 192, 144, 156, 160, 144, 136, 165, 120, 176, 152),
    (48, 24, 48, 60, 32, 56, 56, 44, 57, 32, 48),
    (24, 48, 60, 48, 56, 32, 44, 56, 32, 57, 48),
    (96, 96, 96, 96, 96, 96, 96, 96, 96, 96, 97),
)


def test_criterion_01_transition_matrix_of_double_triangle():
    start = time.perf_counter()
    F = transition_matrix(K33, 4)
    for i in range(11):
        for j in range(11):
            assert F.rows[i][j] == Fraction(F4_NUMERATORS[i][j], 729), (i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 01 PASS: 121 matrix entries exact in {elapsed:.2f}s")


def test_criterion_02_stationary_vector():
    start = time.perf_counter()
    nested = stationary_profile(K33, 4)
    expected = tuple(
        Fraction(k, 728) for k in (17, 17, 50, 50, 51, 51, 150, 150, 48, 48, 96)
    )
    assert nested.profile.values == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 02 PASS: stationary vector exact in {elapsed:.2f}s")


def test_criterion_03_fourier_table():
    start = time.perf_counter()
    probe = ("K4", "M4", "C4", "Q4", "V4")
    spec_k4 = model_spectrum(build_named("K4"), 4)
    spec_m4 = model_spectrum(build_named("M4"), 4)
    q_hat = nested_spectral(K33, 4)
    expected_k4 = (Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(-1, 8), Fraction(1, 4))
    expected_m4 = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(1, 4))
    expected_q = (Fraction(18, 91), 0, Fraction(9, 91), 0, 0)
    for name, k, m, q in zip(probe, expected_k4, expected_m4, expected_q):
        assert spec_k4.entry(name) == k
        assert spec_m4.entry(name) == m
        assert q_hat.entry(name) == q
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 03 PASS: 15 spectral values exact in {elapsed:.2f}s")


def test_criterion_04_headline_limits():
    start = time.perf_counter()
    thomason = QuantumGraph.from_pairs(4, [("K4", 1), ("A4", 1)])
    path = QuantumGraph.from_pairs(4, [("P4", 1)])
    q_hat = nested_spectral(K33, 4)
    value1 = product_limit_density(
        thomason, model_spectrum(build_named("M4"), 4), model_spectrum(build_named("K4"), 4), q_hat
    )
    value2 = product_limit_density(path, model_spectrum(build_named("K4"), 4), q_hat)
    assert value1 == Fraction(1411, 46592)
    assert value2 == Fraction(1173, 5824)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 04 PASS: 1411/46592 and 1173/5824 exact in {elapsed:.2f}s")


def test_criterion_05_finite_tensor_densities():
    start = time.perf_counter()
    thomason = QuantumGraph.from_pairs(4, [("K4", 1), ("A4", 1)])
    factors = [build_named("M4"), build_named("K4"), K3, K3]
    via_spectra = product_limit_density(
        thomason, *(model_spectrum(G, 4) for G in factors)
    )
    big = tensor(*factors)
    assert big.n == 144
    direct = quantum_density(thomason, repetitive_profile(from_graph(big), 4))
    assert via_spectra == Fraction(11411, 373248)
    assert direct == Fraction(11411, 373248)

    g18 = compose(K33, build_named("K", [2]))
    assert g18.n == 18
    via_g18 = product_limit_density(
        thomason,
        model_spectrum(build_named("M4"), 4),
        model_spectrum(build_named("K4"), 4),
        model_spectrum(g18, 4),
    )
    assert via_g18 == Fraction(3769, 124416)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 05 PASS: both routes agree at 11411/373248; 3769/124416 in {elapsed:.2f}s")


def test_criterion_06_nested_benchmarks():
    start = time.perf_counter()
    path = QuantumGraph.from_pairs(4, [("P4", 1)])
    assert quantum_density(path, stationary_profile(build_named("C", [5]), 4).profile) == Fraction(6, 31)
    assert quantum_density(path, stationary_profile(build_named("paley", [17]), 4).profile) == Fraction(60, 307)

    pentagon = QuantumGraph.from_pairs(5, [("C5", 1)])
    assert quantum_density(pentagon, stationary_profile(build_named("C", [5]), 5).profile) == Fraction(1, 26)

    bull = QuantumGraph.from_pairs(5, [("bull", 1)])
    assert quantum_density(bull, stationary_profile(K33, 5).profile) == Fraction(813, 11111)

    house_idx = iso_table(5).type_of_graph(
        from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)])
    )
    house_q = QuantumGraph.from_pairs(5, [(house_idx, 1)])
    triple = tensor(K3, K3, build_named("K", [2]))
    assert quantum_density(house_q, stationary_profile(triple, 5).profile) == Fraction(1968, 20995)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 06 PASS: 6/31, 60/307, 1/26, 813/11111, 1968/20995 in {elapsed:.2f}s")


def test_criterion_07_exact_table_rows():
    start = time.perf_counter()
    reports = reproduce_table("exoo4")
    failed = [r.row_id for r in reports if not r.passed]
    assert not failed, failed
    expected = ["1", "1", "1/2", "1/2", "3/8", "3/8", "3/8", "3/8", "72/125", "72/125"]
    assert [str(r.expected) for r in reports] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 07 PASS: 10 exact rows in {elapsed:.2f}s")


def test_criterion_08_appendix_table_rows():
    start = time.perf_counter()
    reports = reproduce_table("appendix5")
    failed = [r.row_id for r in reports if not r.passed]
    assert not failed, failed
    assert len(reports) == 18
    exact = [r for r in reports if r.row.comparison == "exact"]
    approximate = [r for r in reports if r.row.comparison == "approx"]
    assert len(exact) == 13 and len(approximate) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 08 PASS: 13 exact + 5 approx rows in {elapsed:.2f}s")


def test_criterion_09_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.randrange(5, 13)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < rng.uniform(0.2, 0.8)
        ]
        G = from_edges(n, edges)
        M = from_graph(G)
        for t in (3, 4):
            assert repetitive_profile(M, t) == repetitive_from_induced(
                induced_profile(G, t), n, t
            ), (n, sorted(edges), t)

    pool = {
        "K3": K3,
        "C5": build_named("C", [5]),
        "K4": build_named("K", [4]),
        "M4": build_named("M4"),
    }
    for a in pool.values():
        for b in pool.values():
            for t in (3, 4):
                indirect = convolve(
                    labeled_repetitive_profile(from_graph(a), t),
                    labeled_repetitive_profile(from_graph(b), t),
                )
                direct = labeled_repetitive_profile(from_graph(tensor(a, b)), t)
                assert indirect.values == direct.values

    for base in (pool["C5"], pool["K4"]):
        for t in (3, 4):
            predicted = iterate_profile(base, t, 2)
            actual = labeled_repetitive_profile(from_graph(compose(base, base)), t)
            assert predicted.values == actual.values
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 09 PASS: 400 lifts, 32 tensor checks, 4 nesting checks in {elapsed:.2f}s")


def test_criterion_10_structural_identities():
    start = time.perf_counter()
    assert canonical_form(K33) == canonical_form(build_named("paley", [9]))

    cayley = build_named("cayley2", [10, 1, 2, 5, 6, 9, 10])
    assert cayley.n == 1024
    exact = convolve(
        labeled_repetitive_profile(from_graph(build_named("K4")), 4),
        *(labeled_repetitive_profile(from_graph(build_named("M4")), 4) for _ in range(4)),
    ).to_unlabeled()
    estimate = monte_carlo_profile(cayley, 4, 10_000_000, seed=271828)
    for idx in range(11):
        diff = abs(estimate.values[idx] - float(exact.values[idx]))
        assert diff <= 4 * estimate.stderr[idx] + 1e-15, (idx, diff, estimate.stderr[idx])
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"criterion 10 PASS: canonical identity and 11 entries within 4 SE in {elapsed:.2f}s")


def test_criterion_11_goodman_sanity():
    start = time.perf_counter()
    goodman = QuantumGraph.from_pairs(3, [("K3", 1), ("A3", 1)])
    on_edge = quantum_density(goodman, repetitive_profile(from_graph(build_named("K", [2])), 3))
    on_coin = quantum_density(goodman, repetitive_profile(bernoulli(Fraction(1, 2)), 3))
    assert on_edge == Fraction(1, 4)
    assert on_coin == Fraction(1, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 11 PASS: 1/4 on both models in {elapsed:.2f}s")


@pytest.mark.skipif(not RUN_SLOW, reason="statistical long run; set RUN_SLOW=1")
def test_criterion_12_monochromatic_mass_slow():
    # The target mass belongs to the blow-up with independent parts: the
    # weight-zero class marks the generating pattern, not loops, so the
    # loop class is dropped before measuring (the looped variant measures
    # near 0.798 * 2^-14, a systematic 4.7 sigma away).
    start = time.perf_counter()
    cayley = build_named("cayley2", [10, 0, 2, 5, 6, 9, 10])
    simple = from_edges(cayley.n, cayley.edges())
    value, stderr = monte_carlo_monochromatic(simple, 6, 100_000_000, seed=314159)
    target = 0.74444 * 2.0 ** -14
    assert abs(value - target) <= 0.03 * target, (value, target, stderr)
    elapsed = time.perf_counter() - start
    print(f"criterion 12 PASS: mass {value:.3e} within 3% of {target:.3e} in {elapsed:.2f}s")


@pytest.mark.skipif(not RUN_SLOW, reason="exact 1024-vertex enumeration; set RUN_SLOW=1")
def test_criterion_10_exact_enumeration_slow():
    start = time.perf_counter()
    cayley = build_named("cayley2", [10, 1, 2, 5, 6, 9, 10])
    P = induced_profile(cayley, 4, budget=10**11)
    lifted = repetitive_from_induced(P, cayley.n, 4)
    exact = convolve(
        labeled_repetitive_profile(from_graph(build_named("K4")), 4),
        *(labeled_repetitive_profile(from_graph(build_named("M4")), 4) for _ in range(4)),
    ).to_unlabeled()
    assert lifted == exact
    elapsed = time.perf_counter() - start
    print(f"exact 1024-vertex check PASS in {elapsed:.2f}s")
