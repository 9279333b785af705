"""Differential tests of the integer routes against the Fraction oracles in
tests/oracles.py: the assignments route of step models and the
fraction-free kernel solve; and the reduced numerators over one
denominator that every route hands on."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from inducibility.graphs import build_named
from inducibility.linalg import solve_rational_kernel
from inducibility.models import StepModel, bernoulli, bipartite_random
from inducibility.nesting import compose_profile
from inducibility.profiles import (
    LabeledProfile,
    _repetitive_by_assignments,
    divide,
    induced_profile,
    labeled_repetitive,
)
from inducibility.spectral import convolve, fourier, inverse_fourier, spectral_product
from oracles import rational_kernel, repetitive_by_assignments

# half 0/1, since every fractional pair doubles the oracle's branches
probabilities = st.one_of(st.sampled_from([0, 1]), st.fractions(0, 1, max_denominator=6))


@st.composite
def step_models(draw):
    """Exact or float models, k <= 4, with mass and probability denominators
    up to 6; a float model holds the float values of the exact numbers."""
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    masses = [Fraction(w, sum(weights)) for w in weights]
    w = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            w[i][j] = w[j][i] = Fraction(draw(probabilities))
    if draw(st.booleans()):
        masses = [float(mu) for mu in masses]
        w = [[float(p) for p in row] for row in w]
    return StepModel(masses=tuple(masses), w=tuple(map(tuple, w)))


@settings(max_examples=120)
@given(step_models(), st.integers(2, 5))
def test_assignments_route_matches_fraction_enumerator(M, t):
    # exact models agree as Fractions; float models round the same way
    got = divide(*_repetitive_by_assignments(M, t))
    assert repr(got) == repr(tuple(repetitive_by_assignments(M, t)))


def _with_zero_lines(draw, rows: list, n: int) -> list:
    """Zero a drawn row and a drawn column, each with probability 1/2."""
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [Fraction(0)] * n
    if draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = Fraction(0)
    return rows


entries = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=7))


@st.composite
def matrices(draw):
    """Rational matrices up to 7 x 7 with zero rows and columns, some of
    rank below their row count, each with a vector in its kernel or None."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if n >= 2 and draw(st.booleans()):
        # plant z with z[n-1] = 1: the last entry of each row cancels the rest
        z = draw(st.lists(entries, min_size=n - 1, max_size=n - 1)) + [Fraction(1)]
        rows = []
        for _ in range(m):
            head = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
            rows.append(head + [-sum(a * b for a, b in zip(head, z))])
        if draw(st.booleans()):
            # a combination of the others makes the rank deficient
            rows.append([sum(c * row[j] for c, row in zip(range(1, m + 1), rows)) for j in range(n)])
        return rows, z
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    return _with_zero_lines(draw, rows, n), None


@settings(max_examples=150)
@given(matrices())
def test_kernel_matches_fraction_gauss_jordan(case):
    rows, z = case
    basis = solve_rational_kernel(rows)
    assert repr(basis) == repr(rational_kernel(rows))
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    if z is not None:
        # each basis vector is 1 in its own free column and 0 in the others,
        # so z lies in the span exactly when z = sum of z[free] * vector
        free = [next(c for c in range(len(v)) if v[c] == 1 and all(o[c] == 0 for o in basis if o is not v))
                for v in basis]
        span = [sum(z[c] * v[i] for c, v in zip(free, basis)) for i in range(len(z))]
        assert span == z


def test_kernel_of_empty_and_zero_matrices():
    assert solve_rational_kernel([]) == []
    assert solve_rational_kernel([[0, 0]]) == [[1, 0], [0, 1]]
    assert solve_rational_kernel([[Fraction(1, 2), 1]]) == [[-2, 1]]


def test_elimination_keeps_integers_small():
    # without a gcd reduction per updated row, the integers double in length
    # at every pivot; on a 16 x 16 matrix of rank 15 that is megabytes
    n = 16
    rows = [[Fraction((7 * i + 3 * j * j + i * j) % 19 - 9, 1 + (i + j) % 5) for j in range(n)] for i in range(n - 1)]
    rows.append([sum(row[j] for row in rows) for j in range(n)])
    tracemalloc.start()
    try:
        basis = solve_rational_kernel(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 1 and basis == rational_kernel(rows)
    assert peak < 200_000, peak


def _assert_reduced(profile):
    """Exact: ints over the lowest positive int denominator, rebuilt equal from
    its own values; float: each value over 1.0."""
    if profile.exact:
        assert all(type(v) is int for v in profile.numerators)
        assert type(profile.denominator) is int and profile.denominator > 0
        assert math.gcd(profile.denominator, *profile.numerators) == 1
        flavor = (profile.flavor,) if isinstance(profile, LabeledProfile) else ()
        assert type(profile)(profile.t, *flavor, profile.values) == profile
    else:
        assert type(profile.denominator) is float and profile.denominator == 1.0
        assert profile.numerators == profile.values


def test_profiles_are_reduced_integers_over_one_denominator():
    C5 = build_named("C", [5])
    graph = labeled_repetitive(C5, 3)
    model = labeled_repetitive(bipartite_random(Fraction(1, 4)), 3)  # the assignments route
    floats = labeled_repetitive(bernoulli(0.3), 3)
    assert graph.exact and model.exact and not floats.exact
    routes = [
        graph,
        model,
        floats,
        convolve(graph, model),
        convolve(graph, floats),
        fourier(model),
        fourier(floats),
        spectral_product(fourier(graph), fourier(model)),
        spectral_product(fourier(graph), fourier(floats)),
        inverse_fourier(fourier(model)),
        inverse_fourier(fourier(floats)),
        compose_profile(C5, model),
        compose_profile(C5, floats),
        induced_profile(C5, 3).as_labeled(),
        labeled_repetitive(C5, 3).to_unlabeled().as_labeled(),
    ]
    for profile in routes:
        _assert_reduced(profile)
    # what was passed is kept when it is reduced, and reduced when it is not
    assert LabeledProfile(3, "r", graph.numerators, graph.denominator).numerators is graph.numerators
    doubled = LabeledProfile(3, "r", [2 * v for v in graph.numerators], 2 * graph.denominator)
    assert doubled == graph and type(doubled.numerators) is tuple
