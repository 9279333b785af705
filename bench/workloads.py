"""Workload definitions: seeded inputs and the CLI commands each workload runs.

Stdlib only.  The graphs are written as graph6 files and reach the program
only through `load("...")` expressions, so the program sees nothing but the
generated inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import NamedTuple

# name, order, and why the input is in the benchmark: the route or cutoff
# side it hits.  DIRECT_ASSIGNMENT_CUTOFF is 200000 assignments.
INPUTS = (
    ("a8", 8, "t=5 repetitive: 8^5 = 32768 assignments, below the cutoff, so the assignments route"),
    ("a10", 10, "t=5 repetitive: 10^5 = 100000 assignments, below the cutoff, so the assignments route"),
    ("a12", 12, "t=5 repetitive: 12^5 = 248832, above the cutoff, so the subsets route; first tensor factor"),
    ("b12", 12, "second tensor factor: tensor(a12, b12) has 144 vertices, past graph6's 62-vertex cap"),
    ("a40", 40, "t=5 induced takes the 5-subset recursion (C(40,5) = 658008); t=5 repetitive the subsets route"),
    ("a62", 62, "largest graph6 order: t=4 induced takes the _mask_counts4 bitset path, t=3 the subset recursion"),
)

CAYLEY = "cayley2(10; 1, 2, 5, 6, 9, 10)"  # isomorphic to K4 (x) M4^4, 1024 vertices


def random_edges(seed: int, name: str, n: int) -> list[tuple[int, int]]:
    """Edges of G(n, 1/2), a function of (seed, name) only."""
    rng = random.Random(f"inducibility-bench:{seed}:{name}")
    return [(u, v) for v in range(1, n) for u in range(v) if rng.random() < 0.5]


def graph6(n: int, edges) -> str:
    """Standard graph6 text of a loopless graph on at most 62 vertices."""
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k : k + 6] for k in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


class Input(NamedTuple):
    path: str
    n: int
    edges: list
    why: str


def write_inputs(seed: int, directory: str) -> dict:
    """Write one graph6 file per input; return them by name."""
    out = {}
    for name, n, why in INPUTS:
        edges = random_edges(seed, name, n)
        path = os.path.join(directory, name + ".g6")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(graph6(n, edges) + "\n")
        out[name] = Input(path, n, edges, why)
    return out


@dataclass(frozen=True)
class Cmd:
    """One CLI invocation and how its output is checked.

    `check` is the check run.py makes: "ok" (exit 0, JSON), "dist" (exit 0,
    exact values that are a probability distribution), "tables" (exit 0,
    every row passed), "values" (exact values pinned in `expect`; a key
    "X+Y" pins the sum of two entries), "edges" (convert payload edges
    equal `expect`), or "probe" (exit 2 with an `error:` message, or exit 0
    with the answer pinned in `expect`, or accepted by an oracle check when
    `expect` is "oracle"; with no `expect` there is no correct answer).
    Every command but a probe runs with `--cache`: cold against an empty
    directory, then again, when it must be answered from the cache.
    """

    name: str
    args: tuple
    check: str = "ok"
    expect: object = None
    smoke: bool = False

    @property
    def cached(self) -> bool:
        return self.check != "probe"


@dataclass
class Workload:
    commands: list
    oracles: list = field(default_factory=list)


def _load(inputs, name):
    return f'load("{inputs[name].path}")'


def catalog(inputs, seed) -> Workload:
    """The paper's tables as a researcher reproduces them; nesting dominates."""
    return Workload([
        Cmd("tables-exoo4", ("tables", "--which", "exoo4"), "tables", smoke=True),
        Cmd("tables-headline", ("tables", "--which", "headline"), "tables"),
        Cmd("tables-appendix5", ("tables", "--which", "appendix5"), "tables"),
        Cmd("nested-paley17-t5", ("nested-profile", "paley(17)", "--t", "5"), "dist"),
    ])


def enumerate_(inputs, seed) -> Workload:
    """Exact profiles of the seeded graphs and of step models on every
    route, Monte Carlo, and a refusal probe; no nesting."""
    tensor = f"tensor({_load(inputs, 'a12')}, {_load(inputs, 'b12')})"

    def prof(name, t, expr, flavor="repetitive", smoke=False):
        check = "ok" if flavor == "spectral" else "dist"
        return Cmd(name, ("profile", "--flavor", flavor, "--t", str(t), expr), check, smoke=smoke)

    cmds = [
        prof("induced-t3-a62", 3, _load(inputs, "a62"), "induced", smoke=True),
        prof("induced-t4-a62", 4, _load(inputs, "a62"), "induced", smoke=True),
        prof("induced-t5-a40", 5, _load(inputs, "a40"), "induced"),
        prof("rep-t5-a8", 5, _load(inputs, "a8")),
        prof("rep-t5-a10", 5, _load(inputs, "a10")),
        prof("rep-t5-a12", 5, _load(inputs, "a12"), smoke=True),
        prof("rep-t5-a40", 5, _load(inputs, "a40")),
        prof("rep-t4-tensor144", 4, tensor),
        prof("induced-t4-tensor144", 4, tensor, "induced"),
        prof("rep-t5-union", 5, "union(K3:1, K3:2, bernoulli(1/3):1)", smoke=True),
        prof("spectral-t5-union", 5, "union(K2:1, K2:2, K2:2)", "spectral", smoke=True),
        Cmd("estimate-2m", ("estimate", "--t", "4", "--samples", "2000000", "--seed", str(seed), CAYLEY),
            smoke=True),
        Cmd("probe-cayley2-10-1", ("profile", "cayley2(10; 1)", "--t", "3", "--budget", "10"), "probe",
            "oracle"),
    ]
    oracles = [
        ("marginal", "induced-t3-a62", "induced-t4-a62"),
        ("lift", "rep-t5-a8", inputs["a8"].path),
        ("lift", "rep-t5-a10", inputs["a10"].path),
        ("lift", "rep-t5-a12", inputs["a12"].path),
        ("lift_from", "rep-t5-a40", "induced-t5-a40", 40),
        ("lift_from", "rep-t4-tensor144", "induced-t4-tensor144", 144),
        ("edge_density", "rep-t5-union", "union(K3:1, K3:2, bernoulli(1/3):1)"),
        ("spectral_edge", "spectral-t5-union", "union(K2:1, K2:2, K2:2)"),
        ("estimate", "estimate-2m"),
        ("hypercube_probe", "probe-cayley2-10-1", 10),
    ]
    return Workload(cmds, oracles)


def cli(inputs, seed) -> Workload:
    """Short README commands; start-up, import, argparse and the cache dominate."""
    a12 = inputs["a12"]
    a12_text = graph6(a12.n, a12.edges)
    a12_edges = [list(e) for e in sorted(a12.edges)]
    cmds = [
        Cmd("profile-c5-t3", ("profile", "C5", "--t", "3"), "values",
            {"K3": "0", "A3": "7/25", "P3": "12/25", "E3": "6/25"}, smoke=True),
        Cmd("density-goodman", ("density", "--t", "3", "--quantum", "K3 + A3", "bernoulli(1/2)"),
            "values", {"K3 + A3": "1/4"}, smoke=True),
        Cmd("limit-factors", ("limit", "--t", "4", "--quantum", "K4 + A4", "--factors", "M4, K4, K3, K3"),
            "values", {"K4 + A4": "11411/373248"}, smoke=True),
        Cmd("limit-nested", ("limit", "--t", "4", "--quantum", "P4", "--factors", "K4",
                             "--nested", "tensor(K3, K3)"), "values", {"P4": "1173/5824"}),
        Cmd("nested-k3k3-t4", ("nested-profile", "tensor(K3, K3)", "--t", "4"), "values",
            {"K4+A4": "17/364"}),
        Cmd("bounds-t5", ("bounds", "--t", "5"), "values",
            {"self-nesting-lower": "1/26", "extended-nesting-lower": "24/259", "path-upper": "15/64"},
            smoke=True),
        Cmd("convert-encode-c5", ("convert", "--encode", "C5"), "edges",
            [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]], smoke=True),
        Cmd("convert-decode-a12", ("convert", "--graph6", a12_text), "edges", a12_edges),
        Cmd("tables-exoo4", ("tables", "--which", "exoo4"), "tables"),
        Cmd("estimate-100k", ("estimate", "--t", "4", "--samples", "100000", "--seed", str(seed), CAYLEY)),
        Cmd("rep-t5-a8", ("profile", "--t", "5", _load(inputs, "a8"))),
        Cmd("probe-parse-error", ("profile", "K(", "--t", "3"), "probe", smoke=True),
        Cmd("probe-limit-budget", ("limit", "--t", "4", "--quantum", "P4", "--nested", "C5",
                                   "--budget", "1"), "probe", {"P4": "6/31"}, smoke=True),
    ]
    oracles = [("estimate", "estimate-100k"), ("lift", "rep-t5-a8", inputs["a8"].path)]
    return Workload(cmds, oracles)


# workload -> (its commands, passes per untraced batch).  A run repeats
# whole batches until --seconds have passed.  A batch outlasts the
# benchmark's --seconds even on a fast machine, so each run is exactly one
# batch and pools a fixed number of samples; more passes average more of
# the machine's speed drift.  BENCHMARK.json lists enumerate and cli only:
# one catalog pass is a few long commands, too few samples to be steady.
WORKLOADS = {"catalog": (catalog, 1), "enumerate": (enumerate_, 3), "cli": (cli, 4)}
