"""Slow reference routes kept as oracles for the fast ones: the Fraction
enumerator of a step model's labeled repetitive profile, Fraction
Gauss-Jordan elimination, the bit-by-bit graph routines that the
block-swap transpose and the translated cayley2 rows replaced, and stdlib
dataclass twins of the value classes that `inducibility.frozen` makes.
They share no arithmetic with the package."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from inducibility import masks


def repetitive_by_assignments(M, t: int) -> list:
    """Labeled repetitive t-profile of a step model, one assignment of types
    at a time, in Fractions for an exact model and in floats otherwise."""
    exact = M.exact
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    m = masks.slot_count(t)
    out = [zero] * (1 << m)
    pairs = masks.pair_slots(t)
    w = M.w
    mass = M.masses
    for assign in itertools.product(range(M.k), repeat=t):
        weight = one
        for x in assign:
            weight = weight * mass[x]
        det_mask = 0
        branch = []
        for s, (i, j) in enumerate(pairs):
            p = w[assign[i]][assign[j]]
            if p == 1:
                det_mask |= 1 << s
            elif p != 0:
                branch.append((1 << s, p))
        if not branch:
            out[det_mask] += weight
            continue
        acc = {det_mask: weight}
        for bit, p in branch:
            nxt: dict = {}
            for mk, wv in acc.items():
                hit = wv * p
                miss = wv - hit
                nxt[mk | bit] = nxt.get(mk | bit, zero) + hit
                if miss:
                    nxt[mk] = nxt.get(mk, zero) + miss
            acc = nxt
        for mk, wv in acc.items():
            out[mk] += wv
    return out


def rational_kernel(matrix) -> list:
    """Basis of the null space of a rational matrix by Gauss-Jordan
    elimination in Fractions; each basis vector has a 1 in one free column."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def transpose_bits(rows) -> list:
    """Transpose of a square bit matrix, one entry at a time."""
    n = len(rows)
    return [sum(((rows[v] >> u) & 1) << v for v in range(n)) for u in range(n)]


def symmetry_violation(rows):
    """The first (u, v), in row order and then column order, with v set in
    row u and u missing from row v; None for a symmetric matrix."""
    for u, row in enumerate(rows):
        bits = row
        while bits:
            v = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if not (rows[v] >> u) & 1:
                return u, v
    return None


def cayley2_rows(n: int, weights) -> list:
    """Rows of the Cayley graph of n-bit vectors under xor whose connection
    set is the vectors of Hamming weight in `weights`, one generator at a
    time."""
    gens = [g for g in range(1 << n) if g.bit_count() in set(weights)]
    rows = []
    for u in range(1 << n):
        row = 0
        for g in gens:
            row |= 1 << (u ^ g)
        rows.append(row)
    return rows


# Twins of the package's value classes, under the same names: the same
# fields with the same options, as stdlib frozen dataclasses, and no
# validation or other methods.


@dataclass(frozen=True)
class PartitionTable:
    parts: tuple
    size: int
    within_mask: int
    part_slot_masks: tuple
    cross_slot_masks: tuple


@dataclass(frozen=True)
class LabeledGraph:
    n: int
    rows: tuple


@dataclass(frozen=True)
class CanonicalCode:
    n: int
    bits: tuple
    aut_count: int


@dataclass(frozen=True)
class StepModel:
    masses: tuple
    w: tuple
    exact: bool = field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class IsoEntry:
    name: str
    rep_mask: int
    orbit: tuple
    orbit_size: int
    aut_count: int
    code: object


@dataclass(frozen=True)
class IsoTable:
    t: int
    entries: tuple
    index: tuple
    names: dict


@dataclass(frozen=True)
class ProfileVector:
    t: int
    flavor: str
    values: tuple


@dataclass(frozen=True)
class LabeledProfile:
    t: int
    flavor: str
    values: tuple


@dataclass(frozen=True)
class QuantumGraph:
    t: int
    coefficients: tuple


@dataclass(frozen=True)
class EstimatedProfile:
    t: int
    values: tuple
    stderr: tuple
    samples: int
    seed: int


@dataclass(frozen=True)
class SpectralProfile:
    t: int
    values: tuple


@dataclass(frozen=True)
class TransitionMatrix:
    t: int
    rows: tuple


@dataclass(frozen=True)
class NestedProfile:
    profile: object
    matrix: object


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple = ()
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class ClosedFormBounds:
    t: int
    self_nesting_lower: Fraction
    extended_nesting_lower: Fraction
    path_upper: Fraction


@dataclass(frozen=True)
class CatalogRow:
    row_id: str
    t: int
    mode: str
    expected: str
    target: str = ""
    target_edges: tuple = ()
    construction: str = ""
    factors: str = ""
    nested_factor: str = ""
    approx: bool = False


@dataclass(frozen=True)
class BoundReport:
    row: object
    computed: object
    expected: Fraction
    passed: bool
    seconds: float
