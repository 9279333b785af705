"""Step models: finitely many vertex types with masses and a symmetric
matrix of edge probabilities.

These are the limit objects of the constructions: a blow-up limit is the
step model of its base graph, weighted unions place blocks side by side
with zero cross probability, and tensor products combine entrywise.  Pair
events are independent given the types, and the diagonal entry w[i][i]
governs pairs of samples landing on the same type.

A model is exact when none of its masses and probabilities is a float, and
one float entry makes it approximate; nothing else decides it.  Approximate
models exist for irrational mass ratios only.
"""

from __future__ import annotations

from fractions import Fraction

from .frozen import frozen
from .graphs import LabeledGraph

APPROX_TOL = 1e-9  # float comparisons of approximate models, profiles and table rows


def is_exact(values) -> bool:
    """True when none of the numbers is a float: exact models and profiles
    hold integers and Fractions, and one float makes them approximate."""
    return not any(isinstance(v, float) for v in values)


@frozen
class StepModel:
    """k vertex types with masses summing to one and symmetric edge
    probabilities in [0, 1], diagonal included.  `exact`, set on
    construction, is False when any of these numbers is a float."""

    masses: tuple
    w: tuple

    def __post_init__(self):
        k = len(self.masses)
        if k < 1:
            raise ValueError("a model needs at least one type")
        if len(self.w) != k or any(len(row) != k for row in self.w):
            raise ValueError("probability matrix shape does not match masses")
        for mu in self.masses:
            if mu <= 0:
                raise ValueError("masses must be positive")
        exact = is_exact(self.masses) and all(is_exact(row) for row in self.w)
        object.__setattr__(self, "exact", exact)
        if abs(sum(self.masses) - 1) > (0 if exact else APPROX_TOL):
            raise ValueError("masses must sum to one")
        for i in range(k):
            for j in range(k):
                p = self.w[i][j]
                if p != self.w[j][i]:
                    raise ValueError("probability matrix must be symmetric")
                if not 0 <= p <= 1:
                    raise ValueError("probabilities must lie in [0, 1]")

    @property
    def k(self) -> int:
        return len(self.masses)

    def is_zero_one(self) -> bool:
        return all(p == 0 or p == 1 for row in self.w for p in row)

    def has_uniform_masses(self) -> bool:
        return all(mu == self.masses[0] for mu in self.masses)


def from_graph(G: LabeledGraph) -> StepModel:
    """Blow-up limit of G: uniform masses, 0/1 probabilities from the
    adjacency, loops mapping to diagonal ones."""
    n = G.n
    w = tuple(tuple((row >> v) & 1 for v in range(n)) for row in G.rows)
    return StepModel(masses=(Fraction(1, n),) * n, w=w)


def support_graph(source) -> LabeledGraph:
    """Inverse of from_graph: a graph as it is, an exact 0/1 uniform-mass
    model as the graph of its 1 entries, diagonal ones mapping to loops."""
    if isinstance(source, LabeledGraph):
        return source
    if not (source.exact and source.is_zero_one() and source.has_uniform_masses()):
        raise ValueError("only an exact 0/1 model with uniform masses has a support graph")
    return LabeledGraph(source.k, tuple(sum(1 << j for j, p in enumerate(row) if p == 1) for row in source.w))


def bernoulli(p) -> StepModel:
    """One type; every pair is an edge independently with probability p."""
    q = p if isinstance(p, float) else Fraction(p)
    return StepModel(masses=(type(q)(1),), w=((q,),))


def bipartite_random(p) -> StepModel:
    """Two equal sides, cross pairs with probability p, sides internally empty."""
    q = p if isinstance(p, float) else Fraction(p)
    half, zero = type(q)(1) / 2, type(q)(0)
    return StepModel(masses=(half, half), w=((zero, q), (q, zero)))


def model_union(parts) -> StepModel:
    """Weighted union of models: blocks keep their internal probabilities,
    cross-block probabilities are zero, masses scale with the weights.

    parts is a sequence of (model, weight) with positive weights.  A float
    weight or an approximate part makes the result approximate.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("union of nothing")
    weights = [wt for _, wt in parts]
    if any(wt <= 0 for wt in weights):
        raise ValueError("union weights must be positive")
    exact = all(m.exact for m, _ in parts) and is_exact(weights)
    weights = [Fraction(wt) if exact else float(wt) for wt in weights]
    total = sum(weights)
    zero = Fraction(0) if exact else 0.0
    masses = []
    for (model, _), wt in zip(parts, weights):
        scale = wt / total
        # a float scale turns every mass into a float
        masses.extend(mu * scale for mu in model.masses)
    k = len(masses)
    w = [[zero] * k for _ in range(k)]
    offset = 0
    for model, _ in parts:
        for i in range(model.k):
            for j in range(model.k):
                p = model.w[i][j]
                w[offset + i][offset + j] = p if exact else float(p)
        offset += model.k
    return StepModel(masses=tuple(masses), w=tuple(tuple(row) for row in w))


def model_tensor(M1: StepModel, M2: StepModel) -> StepModel:
    """Tensor of models: product types, probability p + q - 2 p q, the
    xor rule in expectation."""
    exact = M1.exact and M2.exact
    def conv(x):
        return x if exact else float(x)
    masses = tuple(conv(a) * conv(b) for a in M1.masses for b in M2.masses)
    k1, k2 = M1.k, M2.k
    w = []
    for i1 in range(k1):
        for i2 in range(k2):
            row = []
            for j1 in range(k1):
                for j2 in range(k2):
                    p = conv(M1.w[i1][j1])
                    q = conv(M2.w[i2][j2])
                    row.append(p + q - 2 * p * q)
            w.append(tuple(row))
    return StepModel(masses=masses, w=tuple(w))


def model_complement(M: StepModel) -> StepModel:
    """Flip every probability, diagonal included."""
    w = tuple(tuple(1 - p for p in row) for row in M.w)
    return StepModel(masses=M.masses, w=w)
