"""Profiles of small induced subgraphs.

The induced t-profile of a graph counts isomorphism types over t-subsets;
the repetitive t-profile of a step model samples t vertices independently
with replacement, so collisions contribute and loops matter.  Both reduce
to labeled densities indexed by edge-slot masks, and the two flavors are
linked by an exact partition identity implemented here.

Orders 2 through 5 are supported; the 4-vertex basis order is fixed as
K4, A4, T4, S4, M4, C4, Q4, V4, D4, E4, P4 and is part of the
serialization contract.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from . import masks
from .frozen import frozen
from .graphs import (
    LabeledGraph,
    build_named,
    graph6_encode,
    graph_from_mask,
    mask_of,
)
from .models import APPROX_TOL, StepModel, is_exact, support_graph

MIN_ORDER = 2
MAX_ORDER = 5
DEFAULT_BUDGET = 10 ** 9
MC_SHARDS = 32

TYPE_NAMES_4 = ("K4", "A4", "T4", "S4", "M4", "C4", "Q4", "V4", "D4", "E4", "P4")


class BudgetError(RuntimeError):
    """Exact enumeration would exceed the configured budget."""


def charge(cost: int, unit: str, budget: int | None = None) -> None:
    """Refuse `cost` units of work above the budget: the one budget check,
    and the one place where no budget (None) means DEFAULT_BUDGET."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if cost > budget:
        hint = "; consider monte_carlo_profile" if unit == "assignments" else ""
        raise BudgetError(f"{cost} {unit} exceed the budget of {budget}{hint}")


def _check_order(t: int) -> None:
    if not MIN_ORDER <= t <= MAX_ORDER:
        raise ValueError(f"profile order must be in {MIN_ORDER}..{MAX_ORDER}")


@frozen
class IsoEntry:
    """One isomorphism type: representative mask, orbit and automorphism
    count t!/|orbit|."""

    name: str
    rep_mask: int
    orbit: tuple[int, ...]
    orbit_size: int
    aut_count: int

    def edge_count(self) -> int:
        return self.rep_mask.bit_count()


@frozen
class IsoTable:
    """Isomorphism types of order t with the mask-to-type index."""

    t: int
    entries: tuple[IsoEntry, ...]
    index: tuple[int, ...]
    names: dict

    def entry(self, key) -> IsoEntry:
        return self.entries[self.type_index(key)]

    def type_index(self, key) -> int:
        if isinstance(key, int):
            return key
        if key in self.names:
            return self.names[key]
        raise KeyError(f"unknown type name {key!r} at order {self.t}")

    def type_of_graph(self, G: LabeledGraph) -> int:
        if G.n != self.t:
            raise ValueError("graph order does not match the table")
        if not G.is_loopless:
            raise ValueError("profile types are loopless")
        return self.index[mask_of(G)]

    def type_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)


@lru_cache(maxsize=None)
def iso_table(t: int) -> IsoTable:
    _check_order(t)
    raw_index, orbits = masks.orbit_index(t)
    order: list[int]
    names: list[str]
    if t == 2:
        order = [raw_index[1], raw_index[0]]
        names = ["K2", "A2"]
    elif t == 3:
        by_edges = {orbits[k][0].bit_count(): k for k in range(len(orbits))}
        order = [by_edges[3], by_edges[0], by_edges[2], by_edges[1]]
        names = ["K3", "A3", "P3", "E3"]
    elif t == 4:
        order = [raw_index[mask_of(build_named(n))] for n in TYPE_NAMES_4]
        names = list(TYPE_NAMES_4)
    else:
        order = sorted(range(len(orbits)), key=lambda k: (orbits[k][0].bit_count(), orbits[k][0]))
        names = [graph6_encode(graph_from_mask(t, orbits[k][0])) for k in order]
    entries = []
    fact = math.factorial(t)
    for name, k in zip(names, order):
        orbit = orbits[k]
        entries.append(
            IsoEntry(name=name, rep_mask=orbit[0], orbit=orbit, orbit_size=len(orbit), aut_count=fact // len(orbit))
        )
    position = {k: pos for pos, k in enumerate(order)}
    index = tuple(position[raw_index[mask]] for mask in range(len(raw_index)))
    name_map = {e.name: i for i, e in enumerate(entries)}
    if t == 5:
        for alias in ("K5", "A5", "C5", "P5", "bull"):
            g = build_named(alias) if alias == "bull" else build_named(alias[0], [5])
            name_map[alias] = index[mask_of(g)]
    return IsoTable(t=t, entries=tuple(entries), index=index, names=name_map)


def _validate_distribution(values, what: str) -> list:
    """Check that values are a distribution; return them cleared of
    denominators (clear_denominators), as integers when exact."""
    tol = 0 if is_exact(values) else APPROX_TOL
    d, values = clear_denominators(values)
    if abs(sum(values) - d) > tol:
        raise ValueError(f"{what} must sum to one")
    if any(v < -tol for v in values):
        raise ValueError(f"{what} must be nonnegative")
    return values


@frozen
class ProfileVector:
    """Density per isomorphism type, aligned with iso_table(t).entries."""

    t: int
    flavor: str
    values: tuple

    def __post_init__(self):
        if self.flavor not in ("induced", "repetitive"):
            raise ValueError("flavor must be induced or repetitive")
        if len(self.values) != len(iso_table(self.t).entries):
            raise ValueError("value count does not match the type table")
        _validate_distribution(self.values, "profile entries")

    @property
    def exact(self) -> bool:
        return is_exact(self.values)

    def entry(self, key):
        return self.values[iso_table(self.t).type_index(key)]

    def as_labeled(self) -> "LabeledProfile":
        table = iso_table(self.t)
        out = [None] * (1 << masks.slot_count(self.t))
        for e, value in zip(table.entries, self.values):
            share = Fraction(value) / e.orbit_size if self.exact else value / e.orbit_size
            for mask in e.orbit:
                out[mask] = share
        flavor = "p" if self.flavor == "induced" else "r"
        return LabeledProfile(t=self.t, flavor=flavor, values=tuple(out))


def check_orbits(t: int, scaled, tol, what: str) -> None:
    """Refuse mask-indexed values, cleared of denominators, that differ by more than tol on an orbit."""
    for e in iso_table(t).entries:
        ref = scaled[e.rep_mask]
        if any(scaled[m] != ref and abs(scaled[m] - ref) > tol for m in e.orbit):
            raise ValueError(f"{what} is not constant on orbits")


@frozen
class LabeledProfile:
    """Density per labeled graph, indexed by edge-slot mask."""

    t: int
    flavor: str
    values: tuple

    def __post_init__(self):
        if self.flavor not in ("p", "r"):
            raise ValueError("labeled flavor must be p or r")
        if len(self.values) != 1 << masks.slot_count(self.t):
            raise ValueError("value count does not match the mask space")
        # exact entries are compared as integers over one denominator
        scaled = _validate_distribution(self.values, "labeled entries")
        check_orbits(self.t, scaled, 0 if self.exact else APPROX_TOL, "labeled profile")

    @property
    def exact(self) -> bool:
        return is_exact(self.values)

    def to_unlabeled(self) -> ProfileVector:
        table = iso_table(self.t)
        vals = tuple(self.values[e.rep_mask] * e.orbit_size for e in table.entries)
        flavor = "induced" if self.flavor == "p" else "repetitive"
        return ProfileVector(t=self.t, flavor=flavor, values=vals)


@frozen
class QuantumGraph:
    """Rational combination of isomorphism types of one order."""

    t: int
    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a quantum graph needs at least one term")
        seen = set()
        for idx, coeff in self.coefficients:
            if not 0 <= idx < len(iso_table(self.t).entries):
                raise ValueError("type index out of range")
            if idx in seen:
                raise ValueError("duplicate type in quantum graph")
            seen.add(idx)
            if coeff == 0:
                raise ValueError("zero coefficient in quantum graph")

    @classmethod
    def from_pairs(cls, t: int, pairs) -> "QuantumGraph":
        table = iso_table(t)
        merged: dict[int, Fraction] = {}
        for key, coeff in pairs:
            idx = table.type_index(key)
            merged[idx] = merged.get(idx, Fraction(0)) + Fraction(coeff)
        coeffs = tuple((idx, c) for idx, c in sorted(merged.items()) if c != 0)
        return cls(t=t, coefficients=coeffs)

    def describe(self) -> str:
        table = iso_table(self.t)
        parts = []
        for idx, coeff in self.coefficients:
            name = table.entries[idx].name
            if coeff == 1:
                term = name
            else:
                term = f"{coeff}*{name}"
            parts.append(term)
        return " + ".join(parts)


def quantum_density(Q: QuantumGraph, prof: ProfileVector):
    """Evaluate a quantum graph against a profile of the same order."""
    if Q.t != prof.t:
        raise ValueError("order mismatch between quantum graph and profile")
    return reduce(operator.add, [coeff * prof.values[idx] for idx, coeff in Q.coefficients])


def _decorated_subset_counts(G: LabeledGraph, ell: int) -> dict:
    """Counts of ell-subsets by (edge mask, loop bits), exact on orbits: a
    subset's last two vertices may be counted in either order.

    The (ell-2)-subsets are enumerated in increasing order, the vertices
    above them kept in classes (members, code) by adjacency to them (bit i
    of code) and by loop (bit ell).  The last two vertices are counted by
    popcount once per pair of classes i <= j, class i's at position ell-2."""
    n, rows = G.n, G.rows
    looped = sum(1 << v for v in range(n) if (rows[v] >> v) & 1)
    start = [(members, code) for members, code in ((((1 << n) - 1) ^ looped, 0), (looped, 1 << ell)) if members]
    if ell == 1:
        return {(0, code >> ell): members.bit_count() for members, code in start}
    m = masks.slot_count(ell)
    slot = masks.slot_of(ell)
    # key[d][code]: the slots and loop bit that the d-th vertex adds to a
    # pattern, packed as mask | loop bits << m
    key = [
        [
            sum(1 << slot[(i, d)] for i in range(d) if (code >> i) & 1) | (((code >> ell) & 1) << (m + d))
            for code in range(2 << ell)
        ]
        for d in range(ell)
    ]
    last = key[ell - 1]
    counts = [0] * (1 << (m + ell if looped else m))  # a loopless graph sets no loop bit

    def descend(depth: int, pattern: int, classes: list) -> None:
        bit = 1 << depth
        paired = depth + 2 == ell  # the next two vertices are the last
        for i, (members, code) in enumerate(classes):
            base = pattern | key[depth][code]
            member_rows, inside = [], 0
            while members:
                low = members & -members
                members ^= low
                row = rows[low.bit_length() - 1]
                if paired:
                    inside += (members & row).bit_count()
                    member_rows.append(row)
                    continue
                refined = []
                for rest, code2 in classes:
                    rest &= -(low << 1)  # the members above this vertex
                    hit = rest & row
                    if hit:
                        refined.append((hit, code2 | bit))
                    if rest ^ hit:
                        refined.append((rest ^ hit, code2))
                descend(depth + 1, base, refined)
            if paired:
                size = len(member_rows)
                counts[base | last[code | bit]] += inside
                counts[base | last[code]] += size * (size - 1) // 2 - inside
                for rest, code2 in classes[i + 1:]:
                    hit = 0
                    for row in member_rows:
                        hit += (rest & row).bit_count()
                    counts[base | last[code2 | bit]] += hit
                    counts[base | last[code2]] += size * rest.bit_count() - hit

    descend(0, 0, start)
    low_mask = (1 << m) - 1
    return {(k & low_mask, k >> m): c for k, c in enumerate(counts) if c}


def induced_profile(G: LabeledGraph, t: int, budget: int | None = None) -> ProfileVector:
    """Exact induced t-profile of a loopless graph on at least t vertices."""
    _check_order(t)
    if not G.is_loopless:
        raise ValueError("induced profiles are defined for loopless graphs")
    if G.n < t:
        raise ValueError("graph has fewer vertices than the profile order")
    total = math.comb(G.n, t)
    charge(total, "subsets", budget)
    return _induced(t, _decorated_subset_counts(G, t), total)


def _induced(t: int, counts: dict, total: int) -> ProfileVector:
    """Induced t-profile from counts of t-vertex patterns keyed by (mask,
    loop bits), tallied by type and divided once by their total."""
    table = iso_table(t)
    tally = [0] * len(table.entries)
    for (mask, _), c in counts.items():
        tally[table.index[mask]] += c
    return ProfileVector(t=t, flavor="induced", values=divide(tally, total))


def _repetitive_by_assignments(M: StepModel, t: int) -> tuple:
    """Numerators and denominator of the labeled repetitive t-profile of a
    step model, over its k^t type assignments.  With masses scaled by D and
    probabilities by E to integers (clear_denominators), a deterministic
    slot multiplies a weight by E and a slot of probability p splits a
    weight v into v*p and v*E - v*p; the total is D^t * E^m."""
    m = masks.slot_count(t)
    pairs = masks.pair_slots(t)
    D, mass = clear_denominators(M.masses)
    E, flat = clear_denominators([p for row in M.w for p in row])
    w = [flat[i:i + M.k] for i in range(0, len(flat), M.k)]
    det_factor = [E ** c for c in range(m + 1)]
    out = [0] * (1 << m)
    for assign in itertools.product(range(M.k), repeat=t):
        det_mask = 0
        branch = []
        for s, (i, j) in enumerate(pairs):
            p = w[assign[i]][assign[j]]
            if p == E:
                det_mask |= 1 << s
            elif p:
                branch.append((1 << s, p))
        weight = det_factor[m - len(branch)]
        for x in assign:
            weight = weight * mass[x]
        if not branch:
            out[det_mask] += weight
            continue
        acc = {det_mask: weight}
        for bit, p in branch:
            nxt: dict = {}
            for mk, wv in acc.items():
                hit = wv * p
                miss = wv * E - hit
                nxt[mk | bit] = nxt.get(mk | bit, 0) + hit
                if miss:
                    nxt[mk] = nxt.get(mk, 0) + miss
            acc = nxt
        for mk, wv in acc.items():
            out[mk] += wv
    return out, D ** t * E ** m


def _ordered(ell: int, unordered: dict) -> dict:
    """Ordered pattern counts from counts of ell-subsets: every member of a
    pattern's orbit gets the orbit's unordered total times ell!/|orbit|,
    the number of orderings of one subset that produce it."""
    out: dict = {}
    fact = math.factorial(ell)
    index, orbits = masks.orbit_index(ell)
    for pattern in unordered:
        if pattern in out:
            continue
        members = masks.orbit(ell, *pattern) if pattern[1] else [(image, 0) for image in orbits[index[pattern[0]]]]
        share = sum(unordered.get(k, 0) for k in members) * (fact // len(members))
        for k in members:
            out[k] = share
    return out


def ordered_counts(G: LabeledGraph, t: int) -> dict:
    """Ordered decorated pattern counts of G at every order 1..t, the input
    of partition_lift; orders above G.n have no patterns."""
    return {ell: _ordered(ell, _decorated_subset_counts(G, ell)) for ell in range(1, min(G.n, t) + 1)}


def partition_lift(t: int, ordered: dict, inner=None) -> list:
    """Numerators of a labeled repetitive t-profile, lifted from patterns on
    the distinct vertices the samples hit.

    Grouping the t samples by the vertex they land on gives a partition of
    the sample positions into ell parts.  ordered[ell] maps (quotient mask,
    loop bits) of ell distinct vertices in order to a count; the quotient
    mask sets the slots between parts.  Slots within a part are set from
    its loop bit or, when inner (a mapping from mask to weight) is given,
    are distributed as the marginal of inner on those slots.  The caller
    divides the result once by its total weight.
    """
    out = [0] * (1 << masks.slot_count(t))
    for pt in masks.partition_tables(t):
        counts = ordered.get(pt.size)
        if not counts:
            continue
        cross, loop = pt.cross_slots, pt.loop_slots
        if inner is None:
            for (qmask, qloops), cnt in counts.items():
                out[cross[qmask] | loop[qloops]] += cnt
            continue
        within = loop[-1]
        marginal: dict = {}
        for mask, value in inner.items():
            marginal[mask & within] = marginal.get(mask & within, 0) + value
        for (qmask, _), cnt in counts.items():
            spread = cross[qmask]
            for slots, value in marginal.items():
                out[spread | slots] += cnt * value
    return out


def clear_denominators(values) -> tuple:
    """The lcm d of the denominators and the values times d, as integers;
    floats stay as they are under d = 1.0, so they round as unscaled."""
    if not is_exact(values):
        return 1.0, list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def divide(numerators, denominator: int) -> tuple:
    """Numerators over one denominator, as Fractions unless one is a float."""
    if is_exact(numerators):
        return tuple(Fraction(v, denominator) for v in numerators)
    return tuple(v / denominator for v in numerators)


def repetitive_cost(size: int, lifted: bool, t: int) -> tuple:
    """What labeled_repetitive charges a source of `size` vertices or types
    at an order t in 2..5, checked first: C(size, ell) subsets at the largest
    order when it takes the partition lift, size^t assignments otherwise."""
    _check_order(t)
    return (max(math.comb(size, ell) for ell in range(1, t + 1)), "subsets") if lifted else (size ** t, "assignments")


def labeled_repetitive(source, t: int, budget: int | None = None) -> LabeledProfile:
    """Labeled repetitive t-profile of a graph's blow-up limit or of a step
    model; the one place where a route is chosen.

    A graph, or an exact 0/1 uniform-mass model through its support graph,
    takes the partition lift of its ordered patterns, charged C(n, ell)
    subsets per order before any pattern is counted.  Every other model
    enumerates its k^t assignments.
    """
    graph = isinstance(source, LabeledGraph)
    lifted = graph or (source.exact and source.is_zero_one() and source.has_uniform_masses())
    charge(*repetitive_cost(source.n if graph else source.k, lifted, t), budget)
    if not lifted:
        numerators, denominator = _repetitive_by_assignments(source, t)
    else:
        G = support_graph(source)
        numerators, denominator = partition_lift(t, ordered_counts(G, t)), G.n ** t
    return LabeledProfile(t=t, flavor="r", values=divide(numerators, denominator))


def labeled_repetitive_profile(M: StepModel, t: int, budget: int | None = None) -> LabeledProfile:
    """Labeled repetitive t-profile of a step model, by labeled_repetitive."""
    return labeled_repetitive(M, t, budget)


def repetitive_profile(source, t: int, budget: int | None = None) -> ProfileVector:
    """Exact repetitive t-profile of a graph's blow-up limit or a step model."""
    return labeled_repetitive(source, t, budget).to_unlabeled()


def _marginal(values, t: int, ell: int) -> list:
    """Marginal of a labeled t-vector on its first ell vertices: entry m
    sums the values of the masks whose slots among those vertices are m."""
    index = masks.slot_of(ell) if ell >= 2 else {}
    kept = [(k, index[(i, j)]) for k, (i, j) in enumerate(masks.pair_slots(t)) if j < ell]
    out = [0] * (1 << masks.slot_count(ell))
    for mask, v in enumerate(values):
        if v:
            out[sum(1 << b for k, b in kept if (mask >> k) & 1)] += v
    return out


def repetitive_from_induced(P: ProfileVector, s: int, t: int) -> ProfileVector:
    """Repetitive profile of a loopless s-vertex graph from its induced
    t-profile.  The first ell positions of a uniformly random ordered
    t-tuple of distinct vertices form a uniformly random ordered ell-tuple,
    so the ordered ell-pattern counts are s(s-1)...(s-ell+1) times the
    marginal of P's labeled profile on the first ell vertices, and their
    partition lift is the repetitive profile times s^t.  P need not come
    from an actual graph: its labeled profile is cleared to integers over
    one denominator d, and the lift is divided once by d * s^t."""
    if P.flavor != "induced":
        raise ValueError("expected an induced profile")
    if t != P.t:
        raise ValueError("order mismatch")
    if s < t:
        raise ValueError("source graph must have at least t vertices")
    d, scaled = clear_denominators(P.as_labeled().values)
    ordered = {
        ell: {(mask, 0): v * math.perm(s, ell) for mask, v in enumerate(_marginal(scaled, t, ell)) if v}
        for ell in range(1, t + 1)
    }
    values = divide(partition_lift(t, ordered), d * s ** t)
    return LabeledProfile(t=t, flavor="r", values=values).to_unlabeled()


def ordered_from_repetitive(lab: LabeledProfile, s: int) -> dict:
    """N_ell, ell = 1..min(s, t), the nonzero counts of ell distinct vertices
    in order by pattern of a loopless s-vertex graph, as ordered_counts gives
    them, read back from its exact labeled repetitive t-profile r_t.  With
    r_ell the marginal of r_t on the first ell positions, s^ell * r_ell is
    N_ell plus the partition lift of N_1 .. N_(ell-1), so the N_ell come out
    in turn, each a nonnegative integer once r_t is cleared to integers over
    its one denominator d.  Loops would enter the lift; the caller checks
    there are none."""
    if lab.flavor != "r":
        raise ValueError("expected a labeled repetitive profile")
    if not lab.exact:
        raise ValueError("ordered counts are read back from exact profiles only")
    t = lab.t
    d, scaled = clear_denominators(lab.values)
    ordered: dict = {}
    for ell in range(1, min(s, t) + 1):
        scale = s ** ell
        counts = [v * scale - d * low for v, low in zip(_marginal(scaled, t, ell), partition_lift(ell, ordered))]
        if any(c < 0 or c % d for c in counts):
            raise ValueError(f"not the repetitive profile of a loopless {s}-vertex graph")
        ordered[ell] = {(mask, 0): c // d for mask, c in enumerate(counts) if c}
    return ordered


def induced_from_repetitive(lab: LabeledProfile, s: int) -> ProfileVector:
    """Induced t-profile of a loopless s-vertex graph from its labeled
    repetitive t-profile (ordered_from_repetitive's N_t over s!/(s-t)!)."""
    if s < lab.t:
        raise ValueError("graph has fewer vertices than the profile order")
    return _induced(lab.t, ordered_from_repetitive(lab, s)[lab.t], math.perm(s, lab.t))


def _packed_adjacency(G: LabeledGraph):
    """n x ceil(n/8) uint8 adjacency rows: u ~ v is packed[u, v >> 3] >> (v & 7) & 1."""
    import numpy as np
    nbytes = (G.n + 7) // 8
    raw = memoryview(bytearray(G.n * nbytes))
    for start, row in zip(range(0, len(raw), nbytes), G.rows):
        raw[start:start + nbytes] = row.to_bytes(nbytes, "little")
    return np.frombuffer(raw, dtype=np.uint8).reshape(G.n, nbytes)


def _packed_source(source):
    """What sampling reads, converted once per estimate: a graph's packed
    adjacency rows, or a model's normalized float masses and weights."""
    import numpy as np
    if isinstance(source, LabeledGraph):
        return _packed_adjacency(source)
    mass = np.array([float(mu) for mu in source.masses])
    return mass / mass.sum(), np.array([[float(p) for p in row] for row in source.w])


@frozen
class EstimatedProfile:
    """Monte Carlo estimate of a repetitive profile with binomial errors."""

    t: int
    values: tuple
    stderr: tuple
    samples: int
    seed: int

    def entry(self, key) -> float:
        return self.values[iso_table(self.t).type_index(key)]

    def stderr_of(self, key) -> float:
        return self.stderr[iso_table(self.t).type_index(key)]


_BATCH = 1 << 20  # model samples per batch, which fixes a model's draw order
_CHUNK = 1 << 11  # graph samples per chunk, and model samples per comparison


def _sample_masks(packed, t, rng, count, pairs):
    """Yield int64 edge-slot mask arrays for `count` samples from a graph or
    model packed by _packed_source.  A graph's vertices are drawn _CHUNK
    samples at a time, one array per chunk: successive `rng.integers` calls
    continue one stream, so the draws are those of a single call, and the
    live arrays are O(_CHUNK * t) whatever `count` is.  A model keeps its
    draw order per batch of _BATCH samples, the types of the whole batch
    first, drawn _CHUNK samples at a time into one int32 array (rng.choice
    draws its uniforms in order), then one uniform per slot, drawn into one
    buffer per batch and compared chunk by chunk."""
    import numpy as np
    if not isinstance(packed, tuple):
        n, nbytes = packed.shape
        flat = packed.reshape(-1)
        for done in range(0, count, _CHUNK):
            # one contiguous row per sample position, and its row starts in
            # `flat` computed once for all its slots; the byte and shift are
            # taken per slot, since two more arrays raise a small shard's peak
            cols = rng.integers(0, n, size=(min(count - done, _CHUNK), t)).T.copy()
            rows = cols * nbytes
            mask = np.zeros(cols.shape[1], dtype=np.int64)
            for slot, (i, j) in enumerate(pairs):
                v = cols[j]
                mask |= ((flat[rows[i] + (v >> 3)] >> (v & 7)) & 1) << slot
            yield mask
    else:
        mass, wf = packed
        for done in range(0, count, _BATCH):
            batch = min(count - done, _BATCH)
            types = np.empty((batch, t), dtype=np.int32)
            for lo in range(0, batch, _CHUNK):
                types[lo:lo + _CHUNK] = rng.choice(len(mass), size=(min(batch - lo, _CHUNK), t), p=mass)
            mask, uniform = np.zeros(batch, dtype=np.int64), np.empty(batch)
            for slot, (i, j) in enumerate(pairs):
                rng.random(out=uniform)
                for lo in range(0, batch, _CHUNK):
                    part = slice(lo, lo + _CHUNK)
                    hit = uniform[part] < wf[types[part, i], types[part, j]]
                    mask[part] |= hit.astype(np.int64) << slot
            yield mask


def charge_samples(samples: int, budget: int | None = None) -> None:
    """Refuse fewer than one sample, then more samples than the budget."""
    if samples < 1:
        raise ValueError("need at least one sample")
    charge(samples, "samples", budget)


def _sampled_masks(source, t: int, samples: int, seed: int, budget: int | None = None):
    """Yield the edge-slot mask batches of `samples` seeded samples of t
    vertices, in MC_SHARDS shards whose seeds are spawned from `seed`, so
    the result does not depend on how shards are scheduled.  The checks run
    at the first batch, before any sampling."""
    import numpy as np
    charge_samples(samples, budget)
    if not isinstance(source, (LabeledGraph, StepModel)):
        raise TypeError("source must be a LabeledGraph or StepModel")
    packed = _packed_source(source)
    pairs = masks.pair_slots(t)
    base, extra = divmod(samples, MC_SHARDS)
    for shard, seq in enumerate(np.random.SeedSequence(seed).spawn(MC_SHARDS)):
        count = base + (shard < extra)
        if count:
            yield from _sample_masks(packed, t, np.random.default_rng(seq), count, pairs)


def monte_carlo_profile(source, t: int, samples: int, seed: int,
                        budget: int | None = None) -> EstimatedProfile:
    """Estimate the repetitive t-profile of a graph or model by seeded
    sampling.  The budget bounds the samples."""
    import numpy as np
    table = iso_table(t)
    counts = np.zeros(1 << masks.slot_count(t), dtype=np.int64)
    for mask in _sampled_masks(source, t, samples, seed, budget):
        counts += np.bincount(mask, minlength=counts.size)
    type_counts = np.zeros(len(table.entries), dtype=np.int64)
    np.add.at(type_counts, np.array(table.index, dtype=np.int64), counts)
    vals = type_counts / samples
    err = np.sqrt(vals * (1.0 - vals) / samples)
    return EstimatedProfile(
        t=t,
        values=tuple(float(v) for v in vals),
        stderr=tuple(float(e) for e in err),
        samples=samples,
        seed=seed,
    )


def monte_carlo_monochromatic(source, t: int, samples: int, seed: int):
    """Estimate the probability that t sampled vertices induce a clique or
    an anticlique.  Unlike the profile estimator this works above order 5;
    it is the only order-6 quantity the toolkit touches.  Its samples are
    checked against the default budget."""
    import numpy as np
    if t < 2 or t > 8:
        raise ValueError("monochromatic order must be in 2..8")
    full = (1 << masks.slot_count(t)) - 1
    hits = 0
    for mask in _sampled_masks(source, t, samples, seed):
        hits += int(np.count_nonzero(mask == full)) + int(np.count_nonzero(mask == 0))
    est = hits / samples
    err = math.sqrt(est * (1.0 - est) / samples)
    return est, err
