"""The chunked Monte Carlo sampler against the sampler in tests/oracles.py
that drew each batch whole: the same masks, counts, values and standard
errors to the last bit, on graphs with partial loops, on xor-invariant
graphs and on exact and float models, and memory that does not grow with
the sample count.  An xor-invariant graph's slot tables give the masks of
its packed rows."""

from __future__ import annotations

import random
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inducibility import dsl, masks, profiles
from inducibility.graphs import LabeledGraph, blow_up, build_named, complement, compose, from_edges, tensor
from oracles import sample_masks

# around the chunk boundary: 32 shards of _CHUNK - 1, _CHUNK or _CHUNK + 1
SAMPLE_COUNTS = (1, 31, 32, 33, 32 * profiles._CHUNK - 1, 32 * profiles._CHUNK + 1)
MODELS = ("bernoulli(1/3)", "union(K3:1, K3:2, bernoulli(1/3):1)", "union(C5:2, P4:1, bernoulli(2/7):3)")


def _random_graph(n: int, density: float, seed: int):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return from_edges(n, edges, [u for u in range(n) if rng.random() < 0.3])


def _model(text: str, approx: bool):
    return dsl.evaluate(dsl.parse_expr(text), approx=approx)


@st.composite
def xor_invariant_graphs(draw):
    """cayley2(d; W) with d <= 5, or a tensor, complement, blowup by a power
    of two or compose of such graphs."""
    def leaf(max_d, looped=True):
        d = draw(st.integers(1, max_d))
        return build_named("cayley2", [d, *sorted(draw(st.sets(st.integers(0 if looped else 1, d), min_size=1)))])

    op = draw(st.sampled_from(["cayley2", "tensor", "complement", "blowup", "compose"]))
    if op == "cayley2":
        return leaf(5)
    if op == "complement":
        return complement(leaf(5))
    if op == "blowup":
        return blow_up(leaf(3), draw(st.sampled_from([2, 4])))
    if op == "tensor":
        return tensor(leaf(3), leaf(3))
    return compose(leaf(3, looped=False), leaf(3, looped=False))


@st.composite
def sources(draw):
    """A graph on 1..70 vertices with some loops, an xor-invariant graph, or
    a model, exact or float."""
    kind = draw(st.sampled_from(["model", "graph", "xor"]))
    if kind == "model":
        return _model(draw(st.sampled_from(MODELS)), draw(st.booleans()))
    if kind == "xor":
        return draw(xor_invariant_graphs())
    density = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return _random_graph(draw(st.integers(1, 70)), density, draw(st.integers(0, 2**32)))


def at_the_chunk_boundary(t: int):
    """Examples where every shard draws one sample past a chunk: a graph, a
    looped xor-invariant graph, an exact model and a float model."""
    def decorate(test):
        for source in (_random_graph(70, 0.5, 1), build_named("cayley2", [6, 0, 1, 2]),
                       _model(MODELS[1], False), _model(MODELS[2], True)):
            test = example(source, t, 32 * (profiles._CHUNK + 1), 7)(test)
        return test
    return decorate


def _mask_counts(source, t, samples, seed):
    masks = np.concatenate(list(profiles._sampled_masks(source, t, samples, seed, None)))
    return [a.tolist() for a in np.unique(masks, return_counts=True)]


def _masks(source, t, samples, seed) -> list:
    return np.concatenate(list(profiles._sampled_masks(source, t, samples, seed, None))).tolist()


def _chunked_and_whole(estimate, *args):
    got = estimate(*args)
    with mock.patch.object(profiles, "_sample_masks", sample_masks):
        return got, estimate(*args)


def _hex(values) -> list:
    return [float(v).hex() for v in values]


@settings(max_examples=80)
@given(sources(), st.integers(2, 5), st.sampled_from(SAMPLE_COUNTS), st.integers(0, 2**32 - 1))
@at_the_chunk_boundary(5)
def test_profile_estimates_match_the_whole_batch_sampler(source, t, samples, seed):
    got, want = _chunked_and_whole(_mask_counts, source, t, samples, seed)
    assert got == want
    got, want = _chunked_and_whole(profiles.monte_carlo_profile, source, t, samples, seed)
    assert (_hex(got.values), _hex(got.stderr)) == (_hex(want.values), _hex(want.stderr))


@settings(max_examples=60)
@given(sources(), st.integers(2, 8), st.sampled_from(SAMPLE_COUNTS), st.integers(0, 2**32 - 1))
@at_the_chunk_boundary(8)
def test_monochromatic_estimates_match_the_whole_batch_sampler(source, t, samples, seed):
    got, want = _chunked_and_whole(_mask_counts, source, t, samples, seed)
    assert got == want
    got, want = _chunked_and_whole(profiles.monte_carlo_monochromatic, source, t, samples, seed)
    assert _hex(got) == _hex(want)


@settings(max_examples=60)
@given(xor_invariant_graphs(), st.integers(2, 8), st.sampled_from(SAMPLE_COUNTS), st.integers(0, 2**32 - 1))
@example(build_named("cayley2", [10, 1, 2, 5, 6, 9, 10]), 8, 32 * (profiles._CHUNK + 1), 7)
@example(build_named("cayley2", [6, 0, 1, 2]), 5, SAMPLE_COUNTS[-2], 3)
def test_tables_sample_the_masks_of_the_packed_rows(G, t, samples, seed):
    tables = profiles._packed_source(G, t)
    assert len(tables) == masks.slot_count(t) and all(table.size == G.n for table in tables)
    assert tables[0].dtype == {2: np.uint8, 3: np.uint8, 4: np.uint8, 5: np.uint16, 6: np.uint16}.get(t, np.uint32)
    got = _masks(G, t, samples, seed)
    with mock.patch.object(profiles, "_packed_source", lambda source, t: profiles._packed_adjacency(source)):
        assert got == _masks(G, t, samples, seed)


def test_sampling_memory_does_not_grow_with_the_samples():
    cayley = build_named("cayley2", [10, 1, 2, 5, 6, 9, 10])
    profiles.monte_carlo_profile(cayley, 5, 32, seed=3)  # lazy imports and tables

    def peak(samples: int) -> int:
        tracemalloc.start()
        try:
            profiles.monte_carlo_profile(cayley, 5, samples, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    large, small = peak(2_000_000), peak(200_000)
    assert large < 2 << 20, large
    assert abs(large - small) < 1 << 19, (large, small)


def test_packed_sampling_memory_does_not_grow_with_the_samples():
    # one flipped pair leaves the Cayley graph off the table route, so the
    # sampler reads its 1024 packed rows
    rows = list(build_named("cayley2", [10, 1, 2, 5, 6, 9, 10]).rows)
    rows[0] ^= 1 << 3
    rows[3] ^= 1
    G = LabeledGraph(1024, tuple(rows))
    assert not isinstance(profiles._packed_source(G, 5), list)
    profiles.monte_carlo_profile(G, 5, 32, seed=3)

    def peak(samples: int) -> int:
        tracemalloc.start()
        try:
            profiles.monte_carlo_profile(G, 5, samples, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    large, small = peak(2_000_000), peak(200_000)
    assert large < 2 << 20, large
    assert abs(large - small) < 1 << 19, (large, small)


def test_a_model_batch_holds_its_types_once():
    # a full batch of a model holds its int32 types, drawn a chunk at a
    # time, the mask, and one buffer of uniforms that every slot is drawn
    # into; the masks are those of the whole-batch draw
    model, t, batch = _model("union(bernoulli(1/3):1, bernoulli(1/2):2)", False), 4, profiles._BATCH
    packed, pairs = profiles._packed_source(model, t), masks.pair_slots(t)
    list(profiles._sample_masks(packed, t, np.random.default_rng(5), 10, pairs))  # lazy imports
    tracemalloc.start()
    try:
        (got,) = profiles._sample_masks(packed, t, np.random.default_rng(5), batch, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= batch * (4 * t + 8 + 8) + (1 << 20), peak  # 33 MiB at t = 4
    (want,) = sample_masks(packed, t, np.random.default_rng(5), batch, pairs)
    assert np.array_equal(got, want)
