"""Profiles of nested compositions.

Iterating G composed into itself converges to a limit object whose
repetitive profile is a stationary distribution: grouping the t sampled
vertices by their outermost coordinate splits the density into an outer
induced density times an inner marginal, which is linear in the inner
profile.  The induced map on type distributions is column stochastic and
its fixed point in the simplex is the profile of the infinitely nested
construction.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .frozen import frozen
from .graphs import LabeledGraph
from .linalg import solve_rational_kernel
from .profiles import (
    LabeledProfile,
    ProfileVector,
    charge,
    clear_denominators,
    divide,
    iso_table,
    ordered_counts,
    ordered_from_repetitive,
    partition_lift,
    repetitive_cost,
)
from .spectral import SpectralProfile, fourier


class DegenerateStationaryError(RuntimeError):
    """The fixed-point space of the nesting map is not one dimensional."""


def _base(G, t: int, budget: int | None = None):
    """The one intake; its result is the cache key.  A loopless LabeledGraph is checked and charged
    as labeled_repetitive charges it; an (n, labeled repetitive profile) pair is checked for an int
    n >= 1 and a profile of order t, and its counts are read back by ordered_from_repetitive."""
    if isinstance(G, LabeledGraph):
        if not G.is_loopless:
            raise ValueError("composition is defined over loopless outer graphs")
        charge(*repetitive_cost(G.n, True, t), budget)
        return G
    if isinstance(G, tuple) and len(G) == 2 and isinstance(G[1], LabeledProfile):
        if type(G[0]) is not int or G[0] < 1:
            raise ValueError("the n of an (n, LabeledProfile) base must be an int of at least 1")
        if G[1].t != t:
            raise ValueError(f"the profile of an (n, LabeledProfile) base must have order {t}")
        return G
    raise TypeError("a nesting base is a loopless LabeledGraph or an (n, LabeledProfile) pair")


def _ordered(base, t: int) -> tuple:
    """n and the ordered counts N_1..N_t of a checked base: counted in a graph, or read back from a profile."""
    if isinstance(base, LabeledGraph):
        return base.n, ordered_counts(base, t)
    return base[0], ordered_from_repetitive(base[1], base[0])


def compose_profile(G, inner: LabeledProfile) -> LabeledProfile:
    """Labeled repetitive profile of G composed over an inner limit with
    labeled profile `inner`.

    Sampled vertices sharing an outer coordinate form the parts of a
    partition; cross-part adjacency follows an ordered pattern of distinct
    vertices of G, while within-part adjacency marginalizes the inner
    profile.  The inner profile's numerators are lifted, over its
    denominator d times n^t.
    """
    if inner.flavor != "r":
        raise ValueError("inner profile must be repetitive")
    return _compose(_ordered(_base(G, inner.t), inner.t), inner)


def _compose(counts: tuple, inner: LabeledProfile) -> LabeledProfile:
    """compose_profile from a base's n and ordered counts and the inner profile."""
    n, ordered = counts
    nums = partition_lift(inner.t, ordered, {mask: v for mask, v in enumerate(inner.numerators) if v})
    return LabeledProfile(inner.t, "r", nums, inner.denominator * n ** inner.t)


def iterate_profile(G: LabeledGraph, t: int, n: int) -> LabeledProfile:
    """Labeled repetitive t-profile of G composed into itself n times; G's patterns are counted once."""
    if n < 1:
        raise ValueError("need at least one composition level")
    counts = _ordered(_base(G, t), t)
    lab = LabeledProfile(t, "r", partition_lift(t, counts[1]), counts[0] ** t)  # the blow-up limit of G
    for _ in range(n - 1):
        lab = _compose(counts, lab)
    return lab


@frozen
class TransitionMatrix:
    """Column-stochastic action of one nesting step on type distributions, as integer rows over one denominator."""

    t: int
    numerators: tuple
    denominator: int = 1

    def __post_init__(self):
        """Check the shape and the signs, write the pair back reduced (clear_denominators) where it
        differs from what was passed, as the profiles do, then check the column sums."""
        nums, den, size = self.numerators, self.denominator, len(iso_table(self.t).entries)
        if len(nums) != size or any(len(r) != size for r in nums):
            raise ValueError("matrix shape does not match the type table")
        flat = [x for row in nums for x in row]
        if den < 1 or any(x < 0 for x in flat):
            raise ValueError("entries must be nonnegative over a denominator of at least 1")
        d, scaled = clear_denominators(flat, den)
        if {type(nums), type(den), *map(type, nums), *map(type, flat)} != {tuple, type(d)} or d != den:
            self.__dict__.update(numerators=tuple(scaled[i:i + size] for i in range(0, len(flat), size)), denominator=d)
        if any(sum(col) != d for col in zip(*self.numerators)):
            raise ValueError("columns must sum to one")

    @cached_property
    def rows(self) -> tuple:
        return tuple(divide(row, self.denominator) for row in self.numerators)

    def apply(self, values) -> tuple:
        """The matrix times a distribution: the values cleared once, multiplied in integers, divided once."""
        d, scaled = clear_denominators(values)
        return divide([sum(r * v for r, v in zip(row, scaled) if v) for row in self.numerators], d * self.denominator)

    def entry(self, i: int, j: int):
        return self.rows[i][j]


def transition_matrix(G, t: int, budget: int | None = None) -> TransitionMatrix:
    """Matrix F with F[i][j] = density of type i after composing G over a
    limit concentrated on type j.

    Column j lifts orbit j's 0/1 indicator over G's ordered counts in
    integers; entry i is its type-i mask times |orbit i| aut_j / (n^t t!), reduced once on construction.
    A graph G is charged at the budget on every call, before the cached lookup.
    """
    return _transition_matrix(_base(G, t, budget), t)


@lru_cache(maxsize=32)
def _transition_matrix(base, t: int) -> TransitionMatrix:
    table = iso_table(t)
    n, ordered = _ordered(base, t)
    lifts = [(partition_lift(t, ordered, dict.fromkeys(e.orbit, 1)), e.aut_count) for e in table.entries]
    rows = tuple(tuple(lift[f.rep_mask] * f.orbit_size * aut for lift, aut in lifts) for f in table.entries)
    return TransitionMatrix(t, rows, n ** t * math.factorial(t))


transition_matrix.cache_info = _transition_matrix.cache_info  # the cache's handles, as lru_cache names them
transition_matrix.cache_clear = _transition_matrix.cache_clear


@frozen
class NestedProfile:
    """Stationary type distribution of iterated composition of a base."""

    profile: ProfileVector
    matrix: TransitionMatrix

    @property
    def t(self) -> int:
        return self.profile.t

    def entry(self, key):
        return self.profile.entry(key)


def stationary_profile(G, t: int, budget: int | None = None) -> NestedProfile:
    """Unique fixed point of the nesting map of G in the simplex.

    The budget bounds the ell-subsets of a graph G, ell <= t, whose
    patterns are counted.  Raises DegenerateStationaryError when the
    fixed-point space does not pin down a single distribution.
    """
    F = transition_matrix(G, t, budget)
    shifted = [[x - (F.denominator if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(F.numerators)]
    basis = solve_rational_kernel(shifted)
    if len(basis) != 1:
        raise DegenerateStationaryError(
            f"fixed-point space has dimension {len(basis)}"
        )
    _, nums = clear_denominators(basis[0])
    if sum(nums) == 0:
        raise DegenerateStationaryError("fixed vector has zero total mass")
    values = divide(nums, sum(nums))
    if any(v < 0 for v in values):
        raise DegenerateStationaryError("fixed vector leaves the simplex")
    if F.apply(values) != values:
        raise AssertionError("stationary residual is nonzero")
    profile = ProfileVector(t=t, flavor="repetitive", values=values)
    return NestedProfile(profile=profile, matrix=F)


def nested_spectral(G, t: int, budget: int | None = None) -> SpectralProfile:
    """Transform of the stationary profile of nested composition of G."""
    return fourier(stationary_profile(G, t, budget).profile)
