"""Slow reference routes kept as oracles for the fast ones: the Fraction
enumerator of a step model's labeled repetitive profile, Fraction
Gauss-Jordan elimination, the bit-by-bit graph routines that the
block-swap transpose and the translated cayley2 rows replaced, the Paley
graphs by their quadratic residues, the xor row by its definition, the
orbit of a decorated graph over all of its relabelings, the set
partitions from all maps to labels, the partition lift expanded bit by
bit with the routes over it in Fractions, the xor convolution of
profiles a pair of masks at a time, the dense step model of a
construction built node by node, the Monte Carlo sampler that drew each
batch whole, the subset counter that counts the last vertex a class at a
time in increasing order, exact arithmetic in Q(sqrt 3) with Lagrange
interpolation, the canonical code of a graph over all of its vertex
orders, and stdlib dataclass twins of the value classes that
`inducibility.frozen` makes.
They share no arithmetic with the package; the lift routes take their
pattern counts from its counter, and the sampler reads its packed
adjacency or slot tables."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from inducibility import dsl, graphs, masks, models, profiles
from inducibility.graphs import graph_from_mask


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


def paley(q: int) -> tuple:
    """Rows of the quadratic-residue graph of GF(q), u ~ v iff u - v is a
    nonzero square: GF(9) as GF(3)[x]/(x^2 + 1) with a + b x at vertex
    3a + b, and every other order as the integers mod q."""
    if q == 9:
        elems = [(a, b) for a in range(3) for b in range(3)]

        def minus(x, y):
            return (x[0] - y[0]) % 3, (x[1] - y[1]) % 3

        squares = {((a * a - b * b) % 3, 2 * a * b % 3) for a, b in elems[1:]}
    else:
        elems = list(range(q))

        def minus(x, y):
            return (x - y) % q

        squares = {x * x % q for x in elems[1:]}
    return tuple(sum(1 << v for v, y in enumerate(elems) if minus(x, y) in squares) for x in elems)


def xor_row(G):
    """Row 0 of G if bit v of every row u is bit u xor v of row 0, else None."""
    n = G.n
    if n & (n - 1):
        return None
    row = G.rows[0]
    same = all((G.rows[u] >> v & 1) == (row >> (u ^ v) & 1) for u in range(n) for v in range(n))
    return row if same else None


def orbit_by_relabelings(t: int, mask: int, loops: int = 0) -> frozenset:
    """The (mask, loop bits) images of a decorated graph on t vertices under
    all t! relabelings: pair (i, j) of the image is pair (sigma[i], sigma[j])
    of the graph, and loop i its loop sigma[i]."""
    pairs = masks.pair_slots(t)
    adjacent = {frozenset(p) for k, p in enumerate(pairs) if mask >> k & 1}
    out = set()
    for sigma in itertools.permutations(range(t)):
        image = sum(1 << k for k, (i, j) in enumerate(pairs) if frozenset((sigma[i], sigma[j])) in adjacent)
        out.add((image, sum(1 << i for i in range(t) if loops >> sigma[i] & 1)))
    return frozenset(out)


def sample_masks(packed, t, rng, count, pairs):
    """Yield int64 mask arrays for `count` samples from a graph or model
    packed by `profiles._packed_source`, in batches of up to 2^20 samples
    drawn by one call each; every slot reads its own byte and shift, or
    its table at the xor of its two vertices, and a model compares each
    slot over the whole batch."""
    import numpy as np
    done = 0
    if not isinstance(packed, tuple):
        tables = isinstance(packed, list)
        n = len(packed[0]) if tables else len(packed)
        while done < count:
            batch = min(count - done, 1 << 20)
            verts = rng.integers(0, n, size=(batch, t))
            mask = np.zeros(batch, dtype=np.int64)
            for slot, (i, j) in enumerate(pairs):
                u, v = verts[:, i], verts[:, j]
                if tables:
                    mask |= packed[slot][u ^ v]
                else:
                    mask |= ((packed[u, v >> 3] >> (v & 7)) & 1) << slot
            yield mask
            done += batch
    else:
        mass, wf = packed
        k = len(mass)
        while done < count:
            batch = min(count - done, 1 << 20)
            types = rng.choice(k, size=(batch, t), p=mass)
            mask = np.zeros(batch, dtype=np.int64)
            for slot, (i, j) in enumerate(pairs):
                p = wf[types[:, i], types[:, j]]
                bit = rng.random(batch) < p
                mask |= bit.astype(np.int64) << slot
            yield mask
            done += batch


def subset_counts(G, ell: int) -> dict:
    """Counts of ell-subsets by (edge mask, loop bits), each subset labeled
    in increasing vertex order.  The (ell-1)-subsets are enumerated in
    increasing order, the vertices above them kept in classes (members,
    code) by their adjacency to the chosen ones (bit i of code) and their
    loop (bit ell), and the last vertex counted a class at a time by
    popcount."""
    n, rows = G.n, G.rows
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
    counts = [0] * (1 << (m + ell))
    full = (1 << n) - 1
    looped = sum(1 << v for v in range(n) if (rows[v] >> v) & 1)
    start = [(members, code) for members, code in ((full ^ looped, 0), (looped, 1 << ell)) if members]

    def descend(depth: int, pattern: int, classes: list) -> None:
        bit = 1 << depth
        here = key[depth]
        fused = depth + 2 == ell
        targets = [(rest, last[code | bit], last[code]) for rest, code in classes] if fused else ()
        for members, code in classes:
            base = pattern | here[code]
            while members:
                low = members & -members
                members ^= low
                above = full ^ ((low << 1) - 1)
                row = rows[low.bit_length() - 1]
                if fused:
                    for rest, adjacent, apart in targets:
                        rest &= above
                        hit = rest & row
                        counts[base | adjacent] += hit.bit_count()
                        counts[base | apart] += (rest ^ hit).bit_count()
                    continue
                refined = []
                for rest, code2 in classes:
                    rest &= above
                    hit = rest & row
                    if hit:
                        refined.append((hit, code2 | bit))
                    if rest ^ hit:
                        refined.append((rest ^ hit, code2))
                descend(depth + 1, base, refined)

    if ell == 1:
        for members, code in start:
            counts[last[code]] += members.bit_count()
    else:
        descend(0, 0, start)
    low_mask = (1 << m) - 1
    return {(k & low_mask, k >> m): c for k, c in enumerate(counts) if c}


def _expand(bits: int, slot_masks) -> int:
    """Union of slot_masks[k] over the set bits k of bits."""
    out = 0
    while bits:
        low = bits & -bits
        out |= slot_masks[low.bit_length() - 1]
        bits ^= low
    return out


def _partition_slots(t: int, parts) -> tuple:
    """Per part, the t-vertex slots inside it; per quotient slot, the
    t-vertex slots it expands to."""
    part_of = {v: p for p, part in enumerate(parts) for v in part}
    qslot = masks.slot_of(len(parts))
    within = [0] * len(parts)
    cross = [0] * masks.slot_count(len(parts))
    for k, (i, j) in enumerate(masks.pair_slots(t)):
        p, q = sorted((part_of[i], part_of[j]))
        if p == q:
            within[p] |= 1 << k
        else:
            cross[qslot[(p, q)]] |= 1 << k
    return within, cross


@functools.lru_cache(maxsize=None)
def set_partitions(t: int) -> tuple:
    """All partitions of range(t) as tuples of parts, parts numbered by
    their smallest vertex: each of the t^t maps from vertices to labels
    relabeled by first occurrence, deduplicated and sorted, which is the
    order of masks.partition_tables."""
    strings = set()
    for labels in itertools.product(range(t), repeat=t):
        first: dict = {}
        strings.add(tuple(first.setdefault(x, len(first)) for x in labels))
    return tuple(tuple(tuple(v for v in range(t) if s[v] == p) for p in range(len(set(s)))) for s in sorted(strings))


def partition_lift(t: int, ordered: dict, inner=None) -> list:
    """The partition lift of profiles.partition_lift, each quotient mask
    and loop set expanded one bit at a time, in the same order of terms."""
    out = [0] * (1 << masks.slot_count(t))
    for parts in set_partitions(t):
        counts = ordered.get(len(parts))
        if not counts:
            continue
        within, cross = _partition_slots(t, parts)
        if inner is None:
            for (qmask, qloops), cnt in counts.items():
                out[_expand(qmask, cross) | _expand(qloops, within)] += cnt
            continue
        every = _expand((1 << len(parts)) - 1, within)
        marginal: dict = {}
        for mask, value in inner.items():
            marginal[mask & every] = marginal.get(mask & every, 0) + value
        for (qmask, _), cnt in counts.items():
            spread = _expand(qmask, cross)
            for slots, value in marginal.items():
                out[spread | slots] += cnt * value
    return out


def _divide(numerators, denominator: int) -> tuple:
    if any(isinstance(v, float) for v in numerators):
        return tuple(v / denominator for v in numerators)
    return tuple(Fraction(v) / denominator for v in numerators)


def compose_profile(G, inner):
    """Labeled repetitive profile of G composed over `inner`, the inner
    values lifted as they are, Fractions or floats, and divided by n^t."""
    t = inner.t
    weights = {mask: v for mask, v in enumerate(inner.values) if v}
    nums = partition_lift(t, profiles.ordered_counts(G, t), weights)
    return profiles.LabeledProfile(t=t, flavor="r", numerators=_divide(nums, G.n ** t))


def xor_convolve(*profiles) -> tuple:
    """Labeled repetitive values of the tensor product of the profiles'
    sources: out[a ^ b] += p[a] * q[b] over every pair of masks, in Fractions."""
    out = profiles[0].values
    for q in profiles[1:]:
        nxt = [Fraction(0)] * len(out)
        for a, x in enumerate(out):
            for b, y in enumerate(q.values):
                nxt[a ^ b] += x * y
        out = nxt
    return tuple(out)


def dense_model(node, approx: bool = False):
    """The graph or step model of a construction, built node by node with no
    lifted shortcut: a union by models.model_union, a complement of a model
    by model_complement, and a tensor with a model factor by model_tensor,
    each graph operand entering as from_graph of it; graphs under graph
    operators stay graphs, and a graph leaf is dsl.evaluate of it."""
    op, args = node.op, node.args
    if op == "union":
        return models.model_union([(_dense(dense_model(e, approx)), float(w) if approx else w) for e, w in args])
    if op in ("bernoulli", "bipartite"):
        return (models.bernoulli if op == "bernoulli" else models.bipartite_random)(
            float(args[0]) if approx else args[0])
    parts = [dense_model(a, approx) if isinstance(a, dsl.Node) else a for a in args]
    if op == "complement":
        inner = parts[0]
        return graphs.complement(inner) if isinstance(inner, graphs.LabeledGraph) else models.model_complement(inner)
    if op == "tensor" and any(isinstance(p, models.StepModel) for p in parts):
        return functools.reduce(models.model_tensor, map(_dense, parts))
    builders = {"tensor": graphs.tensor, "compose": graphs.compose, "blowup": graphs.blow_up}
    return builders[op](*parts) if op in builders else dsl.evaluate(node, approx)


def _dense(source):
    return source if isinstance(source, models.StepModel) else models.from_graph(source)


def repetitive_from_induced(P, s: int, t: int):
    """Repetitive profile of an s-vertex graph from its induced t-profile
    P, through graphs: each ell-subset lies in C(s-ell, t-ell) of the
    t-subsets, so its unordered ell-pattern counts are those of the type
    representatives weighted by P[type] * C(s, ell) / C(t, ell)."""
    reps = [(graph_from_mask(t, e.rep_mask), v) for e, v in zip(profiles.iso_table(t).entries, P.values) if v]
    ordered = {}
    for ell in range(1, t + 1):
        scale = Fraction(math.comb(s, ell), math.comb(t, ell))
        unordered: dict = {}
        for R, value in reps:
            for pattern, c in profiles._decorated_subset_counts(R, ell).items():
                unordered[pattern] = unordered.get(pattern, 0) + value * scale * c
        ordered[ell] = profiles._ordered(ell, unordered)
    values = _divide(partition_lift(t, ordered), s ** t)
    return profiles.LabeledProfile(t=t, flavor="r", numerators=values).to_unlabeled()


class Surd:
    """a + b * sqrt(3) with Fractions a and b: exact arithmetic in Q(sqrt 3),
    where 2 + sqrt 3, the weight of the catalog's --approx rows, lives."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __eq__(self, other):
        other = _surd(other)
        return (self.a, self.b) == (other.a, other.b)

    def __add__(self, other):
        other = _surd(other)
        return Surd(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        other = _surd(other)
        return Surd(self.a * other.a + 3 * self.b * other.b, self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        other = _surd(other)
        norm = other.a ** 2 - 3 * other.b ** 2  # (a + b sqrt 3)(a - b sqrt 3), nonzero unless other is 0
        return self * Surd(other.a / norm, -other.b / norm)

    def __pow__(self, k: int):
        out = Surd(1)
        for _ in range(k):
            out = out * self
        return out

    __radd__, __rmul__ = __add__, __mul__

    def __repr__(self):
        return f"Surd({self.a}, {self.b})"


def _surd(x) -> Surd:
    return x if isinstance(x, Surd) else Surd(x)


def interpolate(points) -> list:
    """Coefficients, lowest degree first, of the polynomial of degree below
    len(points) through the (x, y) points: Lagrange's formula in Fractions."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                # basis times (x - xj), over xi - xj
                basis = [(basis[k - 1] if k else 0) - (basis[k] * xj if k < len(basis) else 0)
                         for k in range(len(basis) + 1)]
                scale /= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return coeffs


def evaluate_polynomial(coeffs, x):
    """Horner's rule; x may be a Surd."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def canonical_by_orders(G) -> tuple:
    """The minimal row code of G over all n! vertex orders, and how many
    orders reach it.  Row j of an order's code reads, as binary digits, the
    loop bit of its j-th vertex and then that vertex's adjacency to the
    vertices placed before it, first to last."""
    codes = [
        tuple(int("".join(str(int(G.has_edge(v, u) if u != v else G.has_loop(v)))
                          for u in (v,) + order[:j]), 2) for j, v in enumerate(order))
        for order in itertools.permutations(range(G.n))
    ]
    best = min(codes)
    return best, codes.count(best)


# Twins of the package's value classes, under the same names: the same
# fields with the same options, as stdlib frozen dataclasses, and no
# validation or other methods.


@dataclass(frozen=True)
class PartitionTable:
    size: int
    loop_slots: tuple
    cross_slots: tuple


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
    numerators: tuple
    denominator: int = 1


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
    numerators: tuple
    denominator: int = 1


@dataclass(frozen=True)
class TransitionMatrix:
    t: int
    numerators: tuple
    denominator: int = 1


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
