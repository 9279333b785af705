from __future__ import annotations

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inducibility import dsl, graphs, models
from inducibility.graphs import FAMILIES, FIXED_EDGES
from inducibility.dsl import (
    ExprError,
    Node,
    evaluate,
    loaded_paths,
    parse_expr,
    parse_factors,
    parse_quantum,
    plan,
    print_expr,
)
from inducibility.graphs import (
    LabeledGraph,
    build_named,
    canonical_form,
    complement,
    disjoint_union,
    graph6_encode,
)
from inducibility.models import StepModel
from inducibility.profiles import iso_table


ROUND_TRIP_CASES = [
    "K3",
    "loopK2",
    "complement(K5)",
    "blowup(C5, 3)",
    "compose(tensor(K3, K3), K2)",
    "tensor(M4, K4, K3, K3)",
    "union(K2:1, K2:1)",
    "union(K2:3/8, A3:5/8)",
    "bernoulli(1/2)",
    "bipartite(5/6)",
    "kpart(2, 2, 2)",
    "paley(17)",
    "cayley2(10; 1, 2, 5, 6, 9, 10)",
    'load("graphs/g18.g6")',
]


def test_print_parse_round_trip():
    for text in ROUND_TRIP_CASES:
        node = parse_expr(text)
        assert print_expr(node) == text
        assert parse_expr(print_expr(node)) == node


_NUMBERS = st.fractions(min_value=0, max_value=4, max_denominator=12)
_INTS = st.integers(1, 12)
_LEAVES = st.one_of(
    # a family spelling a fixed name (K4, C4, ...) parses to the fixed name
    st.tuples(st.sampled_from(sorted(FAMILIES)), _INTS)
    .filter(lambda a: f"{a[0]}{a[1]}" not in FIXED_EDGES)
    .map(lambda a: Node(a[0], (a[1],))),
    st.sampled_from(sorted(FIXED_EDGES)).map(Node),
    st.lists(_INTS, min_size=1, max_size=3).map(lambda a: Node("kpart", tuple(a))),
    _INTS.map(lambda q: Node("paley", (q,))),
    st.lists(st.integers(0, 12), min_size=2, max_size=4).map(lambda a: Node("cayley2", tuple(a))),
    _NUMBERS.map(lambda p: Node("bernoulli", (p,))),
    _NUMBERS.map(lambda p: Node("bipartite", (p,))),
    st.text("ab/._-0", min_size=1, max_size=6).map(lambda path: Node("load", (path,))),
)


def _trees(depth: int):
    """Trees whose first operand chain has exactly `depth` operators."""
    if depth == 0:
        return _LEAVES
    deep = _trees(depth - 1)
    shallow = st.one_of(_LEAVES, deep)
    part = st.tuples(shallow, _NUMBERS)
    return st.one_of(
        deep.map(lambda a: Node("complement", (a,))),
        st.tuples(deep, _INTS).map(lambda a: Node("blowup", a)),
        st.tuples(deep, shallow).map(lambda a: Node("compose", a)),
        st.tuples(deep, st.lists(shallow, min_size=1, max_size=2))
        .map(lambda a: Node("tensor", (a[0], *a[1]))),
        st.tuples(st.tuples(deep, _NUMBERS), st.lists(part, max_size=2))
        .map(lambda a: Node("union", (a[0], *a[1]))),
    )


@settings(max_examples=200)
@given(st.integers(3, 4).flatmap(_trees))
def test_random_trees_round_trip(node):
    text = print_expr(node)
    assert parse_expr(text) == node
    assert print_expr(parse_expr(text)) == text
    assert loaded_paths(node) == re.findall(r'load\("([^"]*)"\)', text)


class _TooLarge(Exception):
    """A dense model larger than the shape test builds."""


def _bounded(build, size):
    def guarded(*args):
        if size(*args) > 256:
            raise _TooLarge
        return build(*args)

    return guarded


def _dense_guard():
    """dsl's dense builders patched to raise _TooLarge past 256 types."""
    return mock.patch.multiple(
        dsl,
        from_graph=_bounded(models.from_graph, lambda G: G.n),
        model_union=_bounded(models.model_union, lambda p: sum(M.k for M, _ in p)),
        model_tensor=_bounded(models.model_tensor, lambda A, B: A.k * B.k),
    )


@settings(max_examples=200)
@given(st.booleans(), st.integers(0, 4).flatmap(_trees))
@example(False, parse_expr("union(K2:1, K3:1)"))  # masses 1/4 and 1/6: not lifted
@example(False, parse_expr("union(K2:1, K3:3/2, bernoulli(1):1/2)"))  # all masses 1/6
@example(True, parse_expr("union(K2:1, K2:1)"))
@example(False, parse_expr("complement(tensor(loopK2, union(K3:1, K3:1)))"))
@example(False, parse_expr("complement(tensor(loopK2, cayley2(2; 0, 1), K3))"))
def test_shape_agrees_with_what_evaluate_builds(approx, node):
    # the built object is the oracle; products are capped at 4096 vertices
    # and dense models at 256 types, so that every example builds quickly
    with mock.patch.object(graphs, "MAX_VERTICES", 4096), _dense_guard():
        try:
            built = evaluate(node, approx)
        except _TooLarge:
            return
        except (ValueError, OSError) as exc:
            # the walk meets the faults in the order that building does
            with pytest.raises(type(exc)) as walked:
                plan(node, approx)
            assert str(walked.value) == str(exc)
            return
        walked = plan(node, approx)[:3]
    if isinstance(built, LabeledGraph):
        assert len(built.loops()) in (0, built.n)  # loops are all or none
        assert walked == (built.n, not built.is_loopless, True)
    else:
        lifted = built.exact and built.is_zero_one() and built.has_uniform_masses()
        assert walked == (built.k, None, lifted)


def test_each_node_is_walked_once(monkeypatch):
    # plan reads a leaf's order once and its build once more, whatever the depth
    calls, original = [], graphs.named_order

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(graphs, "named_order", counted)
    monkeypatch.setattr(dsl, "named_order", counted)
    for text, leaves in (("compose(K2, K2, K2, K2)", 4), ("tensor(blowup(complement(compose(C5, K2)), 2), K3)", 3)):
        calls.clear()
        evaluate(parse_expr(text))
        assert len(calls) == 2 * leaves, text


def test_parse_normalizes_whitespace():
    node = parse_expr("  tensor( K3 ,K3 )  ")
    assert print_expr(node) == "tensor(K3, K3)"


def test_print_normalizes_decimals_to_rationals():
    node = parse_expr("bernoulli(0.3)")
    assert print_expr(node) == "bernoulli(3/10)"
    assert parse_expr(print_expr(node)) == node


def test_compose_folds_left():
    node = parse_expr("compose(K2, K3, K4)")
    assert node.op == "compose"
    assert node.args[0].op == "compose"
    assert print_expr(node) == "compose(compose(K2, K3), K4)"


def test_union_default_weight():
    node = parse_expr("union(K2, K3:2)")
    assert node.op == "union"
    assert node.args[0][1] == Fraction(1)
    assert node.args[1][1] == Fraction(2)


def test_parse_errors_carry_positions():
    cases = [
        ("", 0),
        ("tensor(K3", None),
        ("blowup(K3)", None),
        ("compose(K3)", None),
        ("frob(K3)", 0),
        ("K3 K4", 3),
        ("bernoulli(1/2/3)", None),
        ("cayley2(10)", None),
        ("load(unquoted)", None),
        ("union(K2:%)", None),
    ]
    for text, pos in cases:
        with pytest.raises(ExprError) as err:
            parse_expr(text)
        if pos is not None:
            assert err.value.pos == pos


def test_rational_literals_are_integer_only():
    with pytest.raises(ExprError):
        parse_expr("bernoulli(0.5/2)")
    assert parse_expr("bernoulli(0.25)") == Node("bernoulli", (Fraction(1, 4),))


def test_decimal_literals_are_exact():
    node = parse_expr("bernoulli(0.3)")
    assert node.args == (Fraction(3, 10),)


def test_evaluate_graph_expressions():
    G = evaluate(parse_expr("tensor(K3, K3)"))
    assert isinstance(G, LabeledGraph)
    assert canonical_form(G) == canonical_form(build_named("paley", [9]))
    H = evaluate(parse_expr("blowup(K2, 2)"))
    assert canonical_form(H) == canonical_form(build_named("C", [4]))
    assert evaluate(parse_expr("complement(A4)")).edge_count() == 6


def test_evaluate_cayley_hypercube():
    G = evaluate(parse_expr("cayley2(3; 1)"))
    assert G.n == 8
    assert all(G.degree(v) == 3 for v in range(8))
    looped = evaluate(parse_expr("cayley2(2; 0)"))
    assert all(looped.has_loop(v) for v in range(4))


def test_evaluate_model_expressions():
    M = evaluate(parse_expr("union(K2:1, K2:1)"))
    assert isinstance(M, StepModel)
    assert M.k == 4 and M.exact
    mixed = evaluate(parse_expr("tensor(bernoulli(1/3), K3)"))
    assert isinstance(mixed, StepModel)
    assert mixed.k == 3


def test_family_leaves_parse_to_named_parameters():
    assert parse_expr("K5") == Node("K", (5,))
    assert parse_expr("loopK2") == Node("loopK", (2,))
    assert print_expr(Node("K", (5,))) == "K5"
    # a fixed name wins over its family: C4 keeps its own labeling
    assert parse_expr("C4") == Node("C4")
    assert evaluate(parse_expr("C4")) == build_named("C4")
    assert evaluate(parse_expr("C4")) != build_named("C", [4])
    assert evaluate(parse_expr("C5")) == build_named("C", [5])


def test_evaluate_kpart():
    G = evaluate(parse_expr("kpart(2, 2, 2)"))
    # complement flips loops too, so looped K2 blocks leave a loopless result
    loop_k2 = build_named("loopK", [2])
    assert canonical_form(G) == canonical_form(complement(disjoint_union(loop_k2, loop_k2, loop_k2)))


@pytest.mark.parametrize(
    "text, shown",
    [
        ("K70000", "70000"),
        ("kpart(70000)", "70000"),
        ("cayley2(17; 1)", "2**17"),
        ("cayley2(99999999999; 1)", "2**99999999999"),
    ],
)
def test_over_cap_leaves_are_refused_before_building(text, shown, monkeypatch):
    def refuse(*args):
        raise AssertionError("an over-cap leaf was built")

    monkeypatch.setattr(graphs, "LabeledGraph", refuse)
    with pytest.raises(ValueError) as err:
        evaluate(parse_expr(text))
    assert str(err.value).startswith(
        f"construction has {shown} vertices, above the limit of {graphs.MAX_VERTICES};"
    )


def test_loaded_paths_in_print_order():
    node = parse_expr('union(load("a.g6"):1, tensor(K2, complement(load("b.g6"))):2)')
    assert loaded_paths(node) == ["a.g6", "b.g6"]
    assert loaded_paths(parse_expr("compose(K2, blowup(C5, 2))")) == []


def test_evaluate_type_errors():
    # errors raised while evaluating point at the operator that raised them
    cases = [
        ("blowup(bernoulli(1/2), 2)", "blowup applies to graphs only", 0),
        ("compose(bernoulli(1/2), K2)", "compose applies to graphs only", 0),
        ("union(K2:1, blowup(bipartite(1/3), 2):1)", "blowup applies to graphs only", 12),
        ("tensor(K2, compose(K3, union(K2:1)))", "compose applies to graphs only", 11),
        ("union(K2, tensor(K256, K257))", "construction has 65792 vertices", 10),
    ]
    for text, message, pos in cases:
        with pytest.raises(ExprError) as err:
            evaluate(parse_expr(text))
        assert str(err.value).startswith(message)
        assert str(err.value).endswith(f"(at column {pos + 1})")
        assert err.value.pos == pos


def test_evaluate_approx_mode():
    M = evaluate(parse_expr("bernoulli(1/3)"), approx=True)
    assert not M.exact
    assert abs(M.w[0][0] - 1 / 3) < 1e-12


def test_evaluate_load(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(graph6_encode(build_named("C", [5])) + "\n", encoding="ascii")
    node = parse_expr(f'load("{path}")')
    assert evaluate(node) == build_named("C", [5])


def test_split_top_level():
    def printed(text):
        return [print_expr(node) for node in parse_factors(text)]

    assert printed("K4, M4, tensor(K3, K3)") == ["K4", "M4", "tensor(K3, K3)"]
    assert printed("union(K2:1, K2:1)") == ["union(K2:1, K2:1)"]
    with pytest.raises(ExprError):
        parse_factors("K4,, M4")
    with pytest.raises(ExprError):
        parse_factors("tensor(K3, K3")


def test_parse_quantum_inference_and_errors():
    Q = parse_quantum("K4+A4")
    assert Q.t == 4
    assert Q.describe() == "K4 + A4"
    weighted = parse_quantum("1/2*C4 + 1/2*M4")
    assert weighted.coefficients[0][1] == Fraction(1, 2)
    assert weighted.describe() == "1/2*M4 + 1/2*C4"
    minus = parse_quantum("P4 - K4", t=4)
    names = {iso_table(4).entries[i].name: c for i, c in minus.coefficients}
    assert names == {"P4": Fraction(1), "K4": Fraction(-1)}
    with pytest.raises(ExprError):
        parse_quantum("C5 + K4")
    with pytest.raises(ExprError):
        parse_quantum("nosuchname")
    with pytest.raises(ExprError):
        parse_quantum("")
    # C5 alone resolves only at order five
    assert parse_quantum("C5").t == 5


def test_every_type_name_belongs_to_one_order():
    # parse_quantum infers the order of a term from its type names, aliases
    # included, so no name may appear at two orders
    named = [(name, t) for t in range(2, 6) for name in iso_table(t).names]
    assert len({name for name, _ in named}) == len(named)
    for name, t in named:  # graph6 names at order 5 are outside the term syntax
        if re.fullmatch(r"[A-Za-z]\w*", name):
            assert parse_quantum(name).t == t


def test_quantum_explicit_order():
    Q = parse_quantum("bull + C5", t=5)
    assert Q.t == 5
    with pytest.raises(ExprError, match="^unknown type name 'K4' at order 5$"):
        parse_quantum("K4", t=5)
    # order-5 canonical names use graph6 characters the term syntax rejects
    with pytest.raises(ExprError):
        parse_quantum("D??", t=5)
