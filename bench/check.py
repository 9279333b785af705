"""Oracle checks that need the package: each compares a CLI output with a
value computed by another route, never by the route that produced it.

    PYTHONPATH=src python3 bench/check.py SPEC.json

SPEC holds {"oracles": [[kind, *params], ...], "outputs": {name: {"rc": int,
"stdout": str}}}.  Prints one JSON object: "verdicts", a list of [ok,
message], one per oracle, and "versions" of Python, numpy and the package.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction

import numpy

from inducibility import (
    __version__,
    ProfileVector,
    build_named,
    convolve,
    evaluate,
    from_edges,
    from_graph,
    graph6_decode,
    graph_from_mask,
    induced_profile,
    iso_table,
    labeled_repetitive_profile,
    parse_expr,
    repetitive_from_induced,
)


def _values(stdout: str) -> tuple:
    payload = json.loads(stdout)
    return tuple(Fraction(int(v["num"]), int(v["den"])) for v in payload["values"])


def _lift(out, induced: ProfileVector, n: int):
    expected = repetitive_from_induced(induced, n, induced.t).values
    got = _values(out["stdout"])
    return got == expected, "repetitive profile != binomial lift of the induced profile"


def lift(outputs, name, path):
    with open(path, "r", encoding="ascii") as handle:
        G = graph6_decode(handle.read().strip())
    t = json.loads(outputs[name]["stdout"])["t"]
    return _lift(outputs[name], induced_profile(G, t), G.n)


def lift_from(outputs, name, induced_name, n):
    t = json.loads(outputs[induced_name]["stdout"])["t"]
    induced = ProfileVector(t=t, flavor="induced", values=_values(outputs[induced_name]["stdout"]))
    return _lift(outputs[name], induced, n)


def marginal(outputs, low, high):
    """The induced (t-1)-profile is the average over the (t-1)-subsets of
    the t-subsets: checks the subset recursion against the bitset path."""
    t = json.loads(outputs[high]["stdout"])["t"]
    lo_table = iso_table(t - 1)
    expected = [Fraction(0)] * len(lo_table.entries)
    for entry, p in zip(iso_table(t).entries, _values(outputs[high]["stdout"])):
        G = graph_from_mask(t, entry.rep_mask)
        for keep in itertools.combinations(range(t), t - 1):
            pairs = itertools.combinations(enumerate(keep), 2)
            edges = [(i, j) for (i, u), (j, v) in pairs if G.has_edge(u, v)]
            expected[lo_table.type_of_graph(from_edges(t - 1, edges))] += p / t
    return tuple(expected) == _values(outputs[low]["stdout"]), "profile != marginal of the next order"


def _edge_density(expr: str) -> Fraction:
    M = evaluate(parse_expr(expr))
    return sum(M.masses[i] * M.masses[j] * M.w[i][j] for i in range(M.k) for j in range(M.k))


def edge_density(outputs, name, expr):
    t = json.loads(outputs[name]["stdout"])["t"]
    entries = iso_table(t).entries
    got = sum(p * e.edge_count() for p, e in zip(_values(outputs[name]["stdout"]), entries))
    return got / math.comb(t, 2) == _edge_density(expr), "edge density != sum of mu_i mu_j w_ij"


def spectral_edge(outputs, name, expr):
    """The transform is 1 on the empty type and 1 - 2 rho on the one-edge type."""
    t = json.loads(outputs[name]["stdout"])["t"]
    by_edges = {e.edge_count(): v for e, v in zip(iso_table(t).entries, _values(outputs[name]["stdout"]))}
    ok = by_edges[0] == 1 and by_edges[1] == 1 - 2 * _edge_density(expr)
    return ok, "spectrum != (1, 1 - 2 rho) on the empty and one-edge types"


def estimate(outputs, name):
    """Within 4 standard errors of the exact K4 (x) M4^4 profile, as in the
    acceptance suite's structural-identity criterion."""
    exact = convolve(
        labeled_repetitive_profile(from_graph(build_named("K4")), 4),
        *(labeled_repetitive_profile(from_graph(build_named("M4")), 4) for _ in range(4)),
    ).to_unlabeled().values
    values = json.loads(outputs[name]["stdout"])["values"]
    bad = [
        v["type"] for v, x in zip(values, exact)
        if abs(v["approx"] - float(x)) > 4 * v["stderr"] + 1e-15
    ]
    return not bad, f"estimate outside 4 SE of the exact value on {bad}"


def hypercube_probe(outputs, name, dim):
    """Accepts a refusal; an answer must be the repetitive 3-profile of the
    hypercube, from its closed-form induced counts (regular, triangle-free)."""
    out = outputs[name]
    if out["rc"] != 0:
        return True, ""
    n, d = 1 << dim, dim
    p3 = n * math.comb(d, 2)
    e3 = n * d // 2 * (n - 2) - 2 * p3
    counts = {"K3": 0, "P3": p3, "E3": e3, "A3": math.comb(n, 3) - p3 - e3}
    total = math.comb(n, 3)
    induced = ProfileVector(
        t=3, flavor="induced", values=tuple(Fraction(counts[x], total) for x in iso_table(3).type_names())
    )
    return _lift(out, induced, n)


ORACLES = {f.__name__: f for f in (lift, lift_from, marginal, edge_density, spectral_edge, estimate,
                                   hypercube_probe)}


def main(path: str) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    results = []
    for kind, *params in spec["oracles"]:
        try:
            results.append(list(ORACLES[kind](spec["outputs"], *params)))
        except Exception as exc:  # a malformed output fails its check, not the run
            results.append([False, f"{type(exc).__name__}: {exc}"])
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__, "inducibility": __version__}
    print(json.dumps({"verdicts": results, "versions": versions}))


if __name__ == "__main__":
    main(sys.argv[1])
