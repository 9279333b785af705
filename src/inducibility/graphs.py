"""Labeled graphs with optional loops and the operators used to assemble
extremal constructions: complement, blow-up, composition, tensor product
and disjoint union, together with a catalogue of named graphs, canonical
forms for small graphs, twin detection, xor-invariance and graph6 interchange.

Loops are first class: a loop marks a vertex whose blow-up copies form a
clique, and complementation flips loops along with edges.
"""

from __future__ import annotations

from functools import reduce

from .frozen import frozen
from .masks import pair_slots, slot_count

CANONICAL_LIMIT = 10
GRAPH6_LIMIT = 62
PALEY_ORDERS = (5, 9, 13, 17, 29)
MAX_VERTICES = 65536  # largest construction that is ever built


@frozen
class LabeledGraph:
    """Undirected graph on vertices 0..n-1 with adjacency rows as bitmasks.

    Bit v of rows[u] is set iff u and v are adjacent; the diagonal bit
    rows[u] >> u marks a loop at u.  Instances are immutable and hashable.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        limit = 1 << self.n
        for u, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"adjacency row {u} out of range")
        for u, extra in enumerate(row & ~col for row, col in zip(self.rows, transpose(self.rows))):
            if extra:
                raise ValueError(f"adjacency not symmetric at ({u}, {(extra & -extra).bit_length() - 1})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def has_loop(self, u: int) -> bool:
        return bool((self.rows[u] >> u) & 1)

    @property
    def is_loopless(self) -> bool:
        return all(not self.has_loop(u) for u in range(self.n))

    def degree(self, u: int) -> int:
        """Number of neighbors other than u itself."""
        return (self.rows[u] & ~(1 << u)).bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Off-diagonal edges as (u, v) with u < v."""
        out = []
        for u in range(self.n):
            bits = self.rows[u] >> (u + 1)
            v = u + 1
            while bits:
                if bits & 1:
                    out.append((u, v))
                bits >>= 1
                v += 1
        return out

    def loops(self) -> list[int]:
        return [u for u in range(self.n) if self.has_loop(u)]

    def edge_count(self) -> int:
        return len(self.edges())

    def __repr__(self):
        tag = "" if self.is_loopless else f", loops={self.loops()}"
        return f"LabeledGraph(n={self.n}, edges={self.edge_count()}{tag})"


def _clear_masks(width: int) -> list[int]:
    """For width a power of two, mask i selects the columns below width
    whose bit i is clear: runs of 2**i ones and 2**i zeros."""
    full = (1 << width) - 1
    runs = (1 << i for i in range(width.bit_length() - 1))
    return [full // ((1 << 2 * j) - 1) * ((1 << j) - 1) for j in runs]


def _xor_columns(row: int, j: int, mask: int) -> int:
    """Row with columns v and v xor j swapped, j = 2**i: a j-block swap under _clear_masks(width)[i]."""
    return ((row >> j) & mask) | ((row & mask) << j)


def xor_row(G: LabeledGraph) -> int | None:
    """Row 0 of a graph whose every row u is row 0 with its columns permuted
    by v -> v xor u, so that u ~ v depends on u xor v alone; else None.
    Row u is checked against row u xor lowbit(u) by the block swap that
    _cayley2 builds it with."""
    n, rows = G.n, G.rows
    if n & (n - 1):
        return None
    clear = _clear_masks(n)
    for u in range(1, n):
        j = u & -u
        if rows[u] != _xor_columns(rows[u ^ j], j, clear[j.bit_length() - 1]):
            return None
    return rows[0]


def transpose(rows) -> list[int]:
    """Transpose of the square bit matrix whose entry (u, v) is bit v of
    rows[u].  Padded to a power of two, it swaps blocks level by level: at
    width j, rows k and k + j (bit j of k clear) exchange the off-diagonal
    j-blocks under one mask (Warren, Hacker's Delight, 7-3)."""
    n = len(rows)
    width = 1 << (n - 1).bit_length()
    out = list(rows) + [0] * (width - n)
    for i, mask in enumerate(_clear_masks(width)):
        j = 1 << i
        for k in range(width):
            if not k & j:
                swap = ((out[k] >> j) ^ out[k + j]) & mask
                out[k] ^= swap << j
                out[k + j] ^= swap
    return out[:n]


def from_edges(n: int, edges=(), loops=()) -> LabeledGraph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("use loops= for diagonal entries")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for u in loops:
        rows[u] |= 1 << u
    return LabeledGraph(n, tuple(rows))


def graph_from_mask(t: int, mask: int, loop_bits: int = 0) -> LabeledGraph:
    """Build the order-t graph encoded by an edge-slot mask."""
    edges = [pair for k, pair in enumerate(pair_slots(t)) if (mask >> k) & 1]
    loops = [v for v in range(t) if (loop_bits >> v) & 1]
    return from_edges(t, edges, loops)


def mask_of_vertices(G: LabeledGraph, vertices) -> int:
    """Edge-slot mask induced by an ordered vertex tuple."""
    mask = 0
    rows = G.rows
    for k, (i, j) in enumerate(pair_slots(len(vertices))):
        if (rows[vertices[i]] >> vertices[j]) & 1:
            mask |= 1 << k
    return mask


def mask_of(G: LabeledGraph) -> int:
    """Edge-slot mask of a loopless graph in its own labeling."""
    return mask_of_vertices(G, range(G.n))


def complement(G: LabeledGraph) -> LabeledGraph:
    """Flip every adjacency, loops included."""
    full = (1 << G.n) - 1
    return LabeledGraph(G.n, tuple(row ^ full for row in G.rows))


def _widen(row: int, n: int, m: int) -> int:
    """Each of the n bits of row widened to a block of m equal bits."""
    return int(format(row, f"0{n}b").translate({48: "0" * m, 49: "1" * m}), 2)


def blow_up(G: LabeledGraph, m: int) -> LabeledGraph:
    """Replace each vertex by m copies; copies of a looped vertex form a
    clique, copies of a loopless vertex stay independent.  The result is
    always loopless."""
    if m < 1:
        raise ValueError("blow-up factor must be at least 1")
    level = [_widen(row, G.n, m) for row in G.rows]
    return LabeledGraph(G.n * m, tuple(level[g] & ~(1 << (g * m + h)) for g in range(G.n) for h in range(m)))


def compose(G: LabeledGraph, H: LabeledGraph) -> LabeledGraph:
    """Substitute a copy of H for every vertex of G: (g, h) ~ (g', h') iff
    g ~ g', or g = g' and h ~ h'.  Both arguments must be loopless."""
    if not G.is_loopless or not H.is_loopless:
        raise ValueError("composition is defined for loopless graphs")
    nh = H.n
    wide = [_widen(row, G.n, nh) for row in G.rows]
    rows = (w | (hrow << (g * nh)) for g, w in enumerate(wide) for hrow in H.rows)
    return LabeledGraph(G.n * nh, tuple(rows))


def tensor(G: LabeledGraph, H: LabeledGraph, *more: LabeledGraph) -> LabeledGraph:
    """Xor product: (g, h) ~ (g', h') iff exactly one of g ~ g', h ~ h'
    holds, the diagonal (loop) entries following the same rule."""
    if more:
        return reduce(tensor, (G, H) + more)
    nh = H.n
    # row (g, h) is row h of H in every block, flipped in the blocks of g's neighbours
    ones = ((1 << (G.n * nh)) - 1) // ((1 << nh) - 1)
    wide = [_widen(row, G.n, nh) for row in G.rows]
    return LabeledGraph(G.n * nh, tuple(hrow * ones ^ w for w in wide for hrow in H.rows))


def disjoint_union(G: LabeledGraph, H: LabeledGraph, *more: LabeledGraph) -> LabeledGraph:
    if more:
        return reduce(disjoint_union, (G, H) + more)
    rows = list(G.rows) + [row << G.n for row in H.rows]
    return LabeledGraph(G.n + H.n, tuple(rows))


# Fixed 4- and 5-vertex graphs referenced by name in profile bases and the
# construction language.
FIXED_EDGES = {
    "K4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "A4": [],
    "S4": [(0, 1), (0, 2), (0, 3)],
    "T4": [(1, 2), (2, 3), (3, 1)],
    "C4": [(0, 1), (1, 3), (3, 2), (2, 0)],
    "M4": [(1, 2), (3, 0)],
    "V4": [(3, 1), (3, 2)],
    "Q4": [(1, 2), (2, 0), (0, 1), (3, 0)],
    "D4": [(0, 1), (0, 2), (0, 3), (2, 3), (3, 1)],
    "E4": [(1, 2)],
    "P4": [(0, 1), (1, 2), (2, 3)],
    "bull": [(3, 1), (3, 2), (1, 2), (1, 0), (3, 4)],
}


# Families with one size parameter, by name: complete, empty, cycle, path,
# and complete with a loop at every vertex.
FAMILIES = {
    "K": lambda n: _complete_multipartite([1] * n),
    "A": from_edges,
    "C": lambda n: from_edges(n, [(i, (i + 1) % n) for i in range(n)]),
    "P": lambda n: from_edges(n, [(i, i + 1) for i in range(n - 1)]),
    "loopK": lambda n: LabeledGraph(n, ((1 << n) - 1,) * n),
}


def _complete_multipartite(sizes) -> LabeledGraph:
    n = sum(sizes)
    full = (1 << n) - 1
    rows = []
    for s in sizes:
        rows += [full ^ (((1 << s) - 1) << len(rows))] * s
    return LabeledGraph(n, tuple(rows))


def _paley(q: int) -> LabeledGraph:
    if q == 9:
        # GF(9) = GF(3)[x]/(x^2 + 1) with a + b x at vertex 3a + b: its nonzero squares are
        # the elements with exactly one zero coordinate, so Paley(9) is the 3x3 rook graph
        return from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 == v // 3 or u % 3 == v % 3])
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q) if (u - v) % q in squares])


def check_order(n: int, shown=None) -> None:
    """Refuse more than MAX_VERTICES vertices; `shown` spells out a huge n."""
    if n > MAX_VERTICES:
        raise ValueError(
            f"construction has {shown or n} vertices, above the limit of {MAX_VERTICES}; "
            "use a step-model or spectral route instead"
        )


def _cayley2(n: int, weights) -> LabeledGraph:
    """Cayley graph of the group of n-bit vectors under xor, connecting u, v
    iff the Hamming weight of u xor v lies in the weight set.  Weight 0 puts
    a loop at every vertex."""
    wset = set(weights)
    size = 1 << n
    clear = _clear_masks(size)
    # row u is row u ^ j with its columns xored by j = lowbit(u)
    rows = [sum(1 << g for g in range(size) if g.bit_count() in wset)]
    for u in range(1, size):
        j = u & -u
        rows.append(_xor_columns(rows[u ^ j], j, clear[j.bit_length() - 1]))
    return LabeledGraph(size, tuple(rows))


def named_order(name: str, params=()) -> int:
    """Vertex count of a catalogue graph, worked out from its parameters.
    The parameters are checked, and the count against MAX_VERTICES, with
    the messages of build_named, so a caller can charge a leaf before
    building it."""
    params = list(params)
    if name in FIXED_EDGES:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return 5 if name == "bull" else 4
    if name in FAMILIES:
        if len(params) != 1 or not isinstance(params[0], int) or params[0] < 1:
            raise ValueError(f"{name} takes one positive integer size")
        check_order(params[0])
        if name == "C" and params[0] < 3:
            raise ValueError("cycles need at least 3 vertices")
        return params[0]
    if name == "kpart":
        if not params or any(s < 1 for s in params):
            raise ValueError("part sizes must be positive")
        check_order(sum(params))
        return sum(params)
    if name == "paley":
        if len(params) != 1:
            raise ValueError("paley takes one parameter")
        if params[0] not in PALEY_ORDERS:
            raise ValueError(f"paley order must be one of {PALEY_ORDERS}")
        return params[0]
    if name == "cayley2":
        if len(params) < 2:
            raise ValueError("cayley2 takes a dimension and at least one weight")
        n = params[0]
        if n < 1:
            raise ValueError(f"cayley2 dimension must be in 1..{MAX_VERTICES.bit_length() - 1}")
        # 2**n is never computed for a dimension past the cap's bit length
        check_order(1 << min(n, MAX_VERTICES.bit_length()), f"2**{n}")
        if not all(isinstance(w, int) and 0 <= w <= n for w in params[1:]):
            raise ValueError("weights must be integers in 0..n")
        return 1 << n
    raise ValueError(f"unknown graph name {name!r}")


def named_looped(name: str, params=()) -> bool:
    """Whether a catalogue graph has loops, from its name and parameters:
    loopK and cayley2 with weight 0 have one at every vertex, every other
    catalogue graph has none."""
    return name == "loopK" or (name == "cayley2" and 0 in list(params)[1:])


def build_named(name: str, params=()) -> LabeledGraph:
    """Construct a catalogue graph: K/A/C/P/loopK families with a size
    parameter, kpart/paley/cayley2 with their own parameters, or one of the
    fixed 4- and 5-vertex names.  named_order checks the parameters and
    the order before any row is built."""
    n = named_order(name, params)
    if name in FIXED_EDGES:
        return from_edges(n, FIXED_EDGES[name])
    if name in FAMILIES:
        return FAMILIES[name](n)
    if name == "kpart":
        return _complete_multipartite(params)
    if name == "paley":
        return _paley(n)
    return _cayley2(params[0], params[1:])


@frozen
class CanonicalCode:
    """Isomorphism certificate: the lexicographically minimal row-by-row
    adjacency code over all relabelings, plus the automorphism count.
    Row j packs the loop bit of the j-th placed vertex followed by its
    adjacency to the previously placed vertices."""

    n: int
    bits: tuple[int, ...]
    aut_count: int


def _row_code(rows, v: int, chosen) -> int:
    code = (rows[v] >> v) & 1
    for u in chosen:
        code = (code << 1) | ((rows[v] >> u) & 1)
    return code


def canonical_form(G: LabeledGraph) -> CanonicalCode:
    """Exhaustive canonical labeling for graphs on at most 10 vertices, by
    one depth-first search over vertex orders.  Each depth tries the unused
    vertices by increasing row code and stops at the first code above the
    best at that depth; a smaller code overwrites the best from that depth
    on and restarts the count.  So every leaf reached carries the best code
    so far, and the leaves counted since the last restart are the
    automorphisms."""
    n = G.n
    if n > CANONICAL_LIMIT:
        raise ValueError(f"canonical forms are limited to {CANONICAL_LIMIT} vertices")
    rows = G.rows
    best = [1 << n] * n  # above every row code, which has at most n bits
    count = 0

    def search(chosen, depth):
        nonlocal count
        if depth == n:
            count += 1
            return
        for r, v in sorted((_row_code(rows, v, chosen), v) for v in range(n) if v not in chosen):
            if r > best[depth]:
                break
            if r < best[depth]:
                best[depth:] = [r] + [1 << n] * (n - depth - 1)
                count = 0
            search(chosen + [v], depth + 1)

    search([], 0)
    return CanonicalCode(n=n, bits=tuple(best), aut_count=count)


def is_twin_free(G: LabeledGraph) -> bool:
    """No two vertices x, y with N(x) - {y} = N(y) - {x}; loopless only."""
    if not G.is_loopless:
        raise ValueError("twin detection is defined for loopless graphs")
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if G.rows[u] & ~(1 << v) == G.rows[v] & ~(1 << u):
                return False
    return True


def check_graph6(n: int, looped: bool) -> None:
    """Refuse what graph6 cannot encode: loops, then more than GRAPH6_LIMIT vertices."""
    if looped:
        raise ValueError("graph6 encodes loopless graphs only")
    if n > GRAPH6_LIMIT:
        raise ValueError(f"graph6 support is limited to {GRAPH6_LIMIT} vertices")


def graph6_encode(G: LabeledGraph) -> str:
    """Standard graph6 string for a loopless graph on at most 62 vertices."""
    check_graph6(G.n, not G.is_loopless)
    bits = []
    for j in range(1, G.n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(G.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def graph6_decode(text: str) -> LabeledGraph:
    if not text:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in text]
    if any(not 0 <= d < 64 for d in data):
        raise ValueError("graph6 characters must be in range 63..126")
    n = data[0]
    if not 1 <= n <= GRAPH6_LIMIT:
        raise ValueError(f"graph6 order must be in 1..{GRAPH6_LIMIT}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need:
        raise ValueError("graph6 string has the wrong length")
    bits = []
    for d in data[1:]:
        for k in range(5, -1, -1):
            bits.append((d >> k) & 1)
    m = n * (n - 1) // 2
    if any(bits[m:]):
        raise ValueError("graph6 padding bits must be zero")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return from_edges(n, edges)
