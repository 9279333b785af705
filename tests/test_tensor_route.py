"""Exact tensors profiled from their factors against the built products:
graphs.tensor or models.model_tensor, then labeled_repetitive or
induced_profile, and as nested bases, the transition matrix and stationary
profile of the built product.  Exact trees of unions and complements,
profiled through the graphs that their lifted parts build, against the
dense models built node by node, and every plan building a graph exactly
when it is lifted.  Also the inverted partition lift against the subset
counter, and the integer convolution and limit --factors of a tensor
against a direct Fraction xor convolution."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from inducibility import dsl
from inducibility.catalog import _loopless, _nested, density, induced_of, limit_density, repetitive_of, spectrum_of
from inducibility.dsl import Node, evaluate, parse_expr, plan, print_expr
from inducibility.graphs import LabeledGraph, build_named, from_edges, graph6_encode, named_looped
from inducibility.masks import pair_slots
from inducibility.nesting import DegenerateStationaryError, stationary_profile, transition_matrix
from inducibility.profiles import (
    LabeledProfile,
    QuantumGraph,
    induced_from_repetitive,
    induced_profile,
    iso_table,
    labeled_repetitive,
    ordered_counts,
    ordered_from_repetitive,
    quantum_density,
    repetitive_cost,
)
from inducibility.spectral import convolve, fourier
from test_dsl import _TooLarge, _dense_guard

MAX_WORK = 20000  # the most subsets or assignments the built route may count


@st.composite
def loopless_graphs(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_n, max_n))
    pairs = pair_slots(n)
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [p for k, p in enumerate(pairs) if (bits >> k) & 1])


def _loaded(G: LabeledGraph) -> Node:
    """A load(...) leaf that evaluates to G through dsl.LOADED."""
    text = graph6_encode(G)
    path = f"tensor-route-{G.n}-{text}.g6"
    dsl.LOADED[path] = text.encode()
    return Node("load", (path,))


_WEIGHTS = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
_PROBABILITIES = st.fractions(min_value=0, max_value=1, max_denominator=4)
_SMALL = st.one_of(
    st.sampled_from(["K", "A", "loopK"]).flatmap(lambda op: st.integers(1, 2).map(lambda n: Node(op, (n,)))),
    _PROBABILITIES.map(lambda p: Node("bernoulli", (p,))),
)
# graphs with and without loops (complement loops every vertex)
_GRAPHS = st.one_of(
    loopless_graphs().map(_loaded),
    loopless_graphs().map(lambda G: Node("complement", (_loaded(G),))),
    st.sampled_from(["K", "A", "loopK", "P"]).flatmap(lambda op: st.integers(1, 3).map(lambda n: Node(op, (n,)))),
    st.just(Node("cayley2", (1, 0))),
)
# step models, and unions of two small parts, which can loop some types only
_FACTORS = st.one_of(
    _GRAPHS,
    _PROBABILITIES.map(lambda p: Node("bernoulli", (p,))),
    _PROBABILITIES.map(lambda p: Node("bipartite", (p,))),
    st.tuples(_SMALL, _WEIGHTS, _SMALL, _WEIGHTS).map(lambda a: Node("union", ((a[0], a[1]), (a[2], a[3])))),
)


def _tensors(factors):
    """Two or three factors, a tensor among them nested on either side."""
    return st.one_of(
        st.lists(factors, min_size=2, max_size=3).map(lambda fs: Node("tensor", tuple(fs))),
        st.tuples(factors, factors, factors, st.booleans()).map(
            lambda a: Node("tensor", (Node("tensor", a[:2]), a[2]) if a[3] else (a[2], Node("tensor", a[:2])))
        ),
    )


def _size(source) -> int:
    return source.n if isinstance(source, LabeledGraph) else source.k


def _error(call) -> str:
    try:
        call()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no error")


@settings(max_examples=80)
@given(st.one_of(_tensors(_GRAPHS), _tensors(_FACTORS)), st.data())
def test_tensor_profiles_match_the_built_product(node, data):
    try:
        product = evaluate(node)
        size = _size(product)
        if isinstance(product, LabeledGraph):
            orders = [t for t in range(5, 1, -1) if math.comb(size, t) <= MAX_WORK]
        else:
            orders = [t for t in range(5, 1, -1) if size ** t <= MAX_WORK]
        if not orders:
            return
        t = data.draw(st.sampled_from(orders), label="t")
        built = labeled_repetitive(product, t)
        lab = repetitive_of(node, t)
        assert lab == built
        assert lab.to_unlabeled() == built.to_unlabeled()
        assert fourier(lab) == fourier(built) == spectrum_of(node, t)

        coefficients = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2), label="Q")
        types = len(iso_table(t).entries)
        pairs = [(0, coefficients[0]), (types - 1, coefficients[1])]
        if any(c for _, c in pairs):
            Q = QuantumGraph.from_pairs(t, pairs)
            assert density(Q, print_expr(node)) == quantum_density(Q, built.to_unlabeled())

        if not isinstance(product, LabeledGraph):
            assert _error(lambda: induced_of(node, t)) == "induced profiles need a graph construction"
        elif product.is_loopless and product.n >= t:
            assert induced_of(node, t) == induced_profile(product, t)
        else:
            assert _error(lambda: induced_of(node, t)) == _error(lambda: induced_profile(product, t))
    finally:
        dsl.LOADED.clear()


def _outcome(call):
    try:
        return call()
    except (ValueError, DegenerateStationaryError) as exc:
        return type(exc), str(exc)


def _leaf(op, *args):
    return Node(op, args)


@settings(max_examples=50, deadline=None)
@given(_tensors(_GRAPHS), st.integers(2, 5))
@example(Node("tensor", (_leaf("loopK", 2), _leaf("loopK", 3))), 5)
@example(Node("tensor", (_leaf("K", 3), _leaf("loopK", 2), _leaf("cayley2", 1, 0))), 4)
@example(Node("tensor", (_leaf("loopK", 1), _leaf("loopK", 1))), 3)
@example(Node("tensor", (_leaf("K", 1), _leaf("K", 2))), 4)
def test_nested_tensor_bases_match_the_built_product(node, t):
    # a nested base from its factors against the built product: the ordered
    # counts, the transition matrix and the stationary profile, or the same
    # error.  An even number of looped factors makes a loopless product, and
    # s < t leaves the orders above s without patterns
    try:
        product = evaluate(node)
        t = max(u for u in range(2, t + 1) if repetitive_cost(product.n, True, u)[0] <= MAX_WORK)
        base = _outcome(lambda: _nested(
            _loopless(parse_expr(print_expr(node)), t, False, "nested profiles need a graph"), t, None))
    finally:
        dsl.LOADED.clear()
    if not product.is_loopless:
        looped = (ValueError, "composition is defined over loopless outer graphs")
        assert base == _outcome(lambda: transition_matrix(product, t)) == looped
        assert _outcome(lambda: stationary_profile(product, t)) == looped
        return
    s, lab = base
    assert s == product.n
    assert ordered_from_repetitive(lab, s) == ordered_counts(product, t)
    assert transition_matrix(base, t).rows == transition_matrix(product, t).rows
    assert _outcome(lambda: stationary_profile(base, t)) == _outcome(lambda: stationary_profile(product, t))


@settings(max_examples=100)
@given(st.integers(2, 5).flatmap(lambda t: st.tuples(loopless_graphs(min_n=t, max_n=9), st.just(t))))
def test_inverted_lift_round_trips(case):
    G, t = case
    assert induced_from_repetitive(labeled_repetitive(G, t), G.n) == induced_profile(G, t)


@settings(max_examples=40)
@given(st.lists(_FACTORS, min_size=1, max_size=3), st.integers(2, 4))
def test_integer_convolution_matches_the_fraction_transforms(factors, t):
    try:
        profiles = [labeled_repetitive(evaluate(f), t) for f in factors]
        xor = oracles.xor_convolve(*profiles)
        assert convolve(*profiles).values == xor
        # limit --factors of the drawn tensor: each factor transformed, the spectra multiplied, Q read off
        text = print_expr(factors[0] if len(factors) == 1 else Node("tensor", tuple(factors)))
        expected = LabeledProfile(t, "r", xor).to_unlabeled()
        for idx in range(len(iso_table(t).entries)):
            Q = QuantumGraph.from_pairs(t, [(idx, 1)])
            assert limit_density(Q, factors=text) == quantum_density(Q, expected)
    finally:
        dsl.LOADED.clear()


def test_induced_from_repetitive_checks_its_input():
    lab = labeled_repetitive(from_edges(3, [(0, 1)]), 3)
    assert _error(lambda: induced_from_repetitive(lab, 2)) == "graph has fewer vertices than the profile order"
    # a tensor above the size cap is profiled from its factors
    big = Node("tensor", (Node("K", (300,)), Node("C", (300,))))
    assert math.prod(arg.args[0] for arg in big.args) > 65536
    assert sum(induced_of(big, 3).values) == 1


_NAMED = [
    Node(op, params)
    for op, params in [
        ("K", (3,)), ("A", (4,)), ("C", (5,)), ("P", (2,)), ("loopK", (3,)), ("kpart", (1, 2, 2)),
        ("paley", (5,)), ("cayley2", (2, 1)), ("cayley2", (2, 0, 2)), ("cayley2", (3, 0)), ("bull", ()), ("M4", ()),
    ]
]


def test_named_leaves_are_profiled_as_built():
    # a named leaf is checked and charged from its parameters, then built
    for node in _NAMED:
        G = build_named(node.op, node.args)
        assert named_looped(node.op, node.args) == (not G.is_loopless), node
        for t in (2, 3, 4):
            assert repetitive_of(node, t) == labeled_repetitive(G, t)
            if G.is_loopless and G.n >= t:
                assert induced_of(node, t) == induced_profile(G, t)
            else:
                assert _error(lambda: induced_of(node, t)) == _error(lambda: induced_profile(G, t))


def _unions(parts):
    """One to three weighted parts; in half the examples every type weighs
    the same, so that the union is lifted when its parts are."""
    return st.tuples(st.lists(st.tuples(parts, _WEIGHTS), min_size=1, max_size=3), st.booleans()).map(
        lambda a: Node("union", tuple((e, a[0][0][1] * plan(e).size if a[1] else w) for e, w in a[0])))


# small graphs, random leaves at 0, at 1 and at a fraction, and a small
# tensor, under complements and unions of unions
_LEAVES = st.one_of(
    _GRAPHS,
    st.tuples(st.sampled_from(["bernoulli", "bipartite"]),
              st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), _PROBABILITIES)).map(
        lambda a: Node(a[0], (a[1],))),
    st.lists(_SMALL, min_size=2, max_size=2).map(lambda fs: Node("tensor", tuple(fs))),
)
_TREES = st.recursive(
    _LEAVES, lambda children: st.one_of(children.map(lambda e: Node("complement", (e,))), _unions(children)),
    max_leaves=6,
)


@settings(max_examples=150)
@given(st.one_of(_unions(_TREES), _TREES.map(lambda e: Node("complement", (e,)))))
@example(parse_expr("union(tensor(K3, bernoulli(1)):1, C5:5/3)"))
@example(parse_expr("complement(union(K2:1, bipartite(0):1))"))
@example(parse_expr("union(union(K2:1, bernoulli(1):1/2):1, bipartite(1):2/3)"))
def test_lifted_unions_are_profiled_as_the_built_models(node):
    # the dense model built node by node is the oracle; a lifted union, or
    # the complement of a lifted operand, builds a graph instead, which
    # evaluate takes to the same model
    try:
        with _dense_guard():
            profiled = plan(node, profiled=True)
            dense = oracles.dense_model(node)
            for t in range(2, 5):
                if repetitive_cost(_size(dense), profiled.lifted, t)[0] <= MAX_WORK:
                    assert repetitive_of(node, t) == labeled_repetitive(dense, t)
            if profiled.looped is None:
                assert evaluate(node) == dense
    except _TooLarge:
        return
    finally:
        dsl.LOADED.clear()


@settings(max_examples=150)
@given(st.one_of(_unions(_TREES), _TREES, _tensors(_FACTORS)), st.booleans())
@example(parse_expr("bernoulli(1)"), False)
@example(parse_expr("tensor(union(K2:1, bernoulli(1):1/2), C5)"), True)
@example(parse_expr("complement(bipartite(0))"), False)
def test_a_plan_builds_a_graph_exactly_when_it_is_lifted(node, profiled):
    try:
        with _dense_guard():
            p = plan(node, profiled=profiled)
            assert isinstance(p.build(), LabeledGraph) == p.lifted
    except _TooLarge:
        return
    finally:
        dsl.LOADED.clear()
