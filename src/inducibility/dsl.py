"""Construction expressions.

A small text language for graphs and step models: named leaves (K3, C5,
loopK1, paley(9), cayley2(10; 1,2,5), fixed 4-vertex names, bull), the
operators complement, blowup, compose, tensor and union, and the random
models bernoulli(p) and bipartite(p).  Every construction parses to one
Node named by its operator or leaf.  Numbers are exact rationals; pass
approx=True at evaluation to push every numeric weight to float.  Names and
the size cap belong to graphs.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from pathlib import Path

from .frozen import frozen
from .graphs import (
    FAMILIES,
    FIXED_EDGES,
    blow_up,
    build_named,
    check_order,
    complement,
    compose,
    disjoint_union,
    graph6_decode,
    named_looped,
    named_order,
    tensor,
)
from .models import (
    StepModel,
    bernoulli,
    bipartite_random,
    from_graph,
    model_complement,
    model_tensor,
    model_union,
    support_graph,
)
from .profiles import QuantumGraph, iso_table, MIN_ORDER, MAX_ORDER

_FAMILY_RE = re.compile(rf"^({'|'.join(FAMILIES)})([0-9]+)$")
# bytes by path that load(...) uses in place of reading the file: the CLI
# fills it as it hashes the files for its cache key and clears it per command
LOADED: dict = {}


class ExprError(ValueError):
    """Parse or evaluation error with a source position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at column {pos + 1})"
        super().__init__(message)
        self.pos = pos


@frozen(uncompared=("span",))
class Node:
    """One construction: `op` is the language's own name for it (a family
    such as K, a fixed name such as C4, kpart, paley, cayley2, complement,
    blowup, compose, tensor, union, bernoulli, bipartite or load) and
    `args` holds its child nodes, (node, weight) pairs for union, integers,
    a number or a path, in text order."""

    op: str
    args: tuple = ()
    span: tuple = (0, 0)  # where the node starts and ends in the text


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:\.[0-9]+)?)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r'|(?P<str>"[^"]*")|(?P<sym>[(),:;/+*-]))'
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value[1:-1] if kind == "str" else value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ExprError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def at_symbol(self, value: str) -> bool:
        tok = self.peek()
        return tok[0] == "sym" and tok[1] == value

    def parse_number(self) -> Fraction:
        tok = self.expect("num")
        value = Fraction(tok[1])
        if self.at_symbol("/"):
            self.next()
            den = self.expect("num")
            if "." in den[1] or "." in tok[1]:
                raise ExprError("rational literals take integer parts", den[2])
            if not int(den[1]):
                raise ExprError("zero denominator", den[2])
            value = Fraction(int(tok[1]), int(den[1]))
        return value

    def parse_int(self) -> int:
        tok = self.expect("num")
        if "." in tok[1]:
            raise ExprError("expected an integer", tok[2])
        return int(tok[1])

    def parse_term(self, sign: int = 1) -> tuple:
        """A quantum target's term := ['-'] [number '*'] name, as (name, sign * coefficient)."""
        if self.at_symbol("-"):
            self.next()
            sign = -sign
        coeff = Fraction(1)
        if self.peek()[0] == "num":
            coeff = self.parse_number()
            self.expect("sym", "*")
        tok = self.next()
        if tok[0] != "ident":
            raise ExprError(f"expected a type name, found {tok[1]!r}", tok[2])
        return tok[1], sign * coeff

    def parse_expr(self):
        tok = self.peek()
        if tok[0] != "ident":
            raise ExprError(f"expected a construction, found {tok[1]!r}", tok[2])
        name = tok[1]
        self.next()
        if not self.at_symbol("("):
            return self._leaf(name, tok[2])
        self.expect("sym", "(")
        node = self._call(name, tok[2])
        self.expect("sym", ")")
        return node

    def _leaf(self, name: str, pos: int):
        span = (pos, pos + len(name))
        if name in FIXED_EDGES:  # a fixed name such as C4 wins over its family
            return Node(name, (), span)
        m = _FAMILY_RE.match(name)
        if m:
            return Node(m.group(1), (int(m.group(2)),), span)
        raise ExprError(f"unknown construction {name!r}", pos)

    def _args_until_close(self, parse_one, separators=(",",)):
        args = [parse_one()]
        while True:
            tok = self.peek()
            if tok[0] == "sym" and tok[1] in separators:
                self.next()
                args.append(parse_one())
            else:
                return args

    def _weighted_part(self):
        e = self.parse_expr()
        weight = Fraction(1)
        if self.at_symbol(":"):
            self.next()
            weight = self.parse_number()
        return (e, weight)

    def _call(self, name: str, pos: int):
        if name == "complement":
            args = [self.parse_expr()]
        elif name == "blowup":
            args = [self.parse_expr()]
            if not self.at_symbol(","):
                raise ExprError("blowup takes a construction and a positive count", self.peek()[2])
            self.next()
            args.append(self.parse_int())
            if args[1] < 1:
                raise ExprError("blowup count must be positive", pos)
        elif name in ("compose", "tensor"):
            args = self._args_until_close(self.parse_expr)
            if len(args) < 2:
                raise ExprError(f"{name} takes at least two constructions", pos)
        elif name == "union":
            args = self._args_until_close(self._weighted_part)
        elif name in ("bernoulli", "bipartite"):
            args = [self.parse_number()]
        elif name == "load":
            tok = self.next()
            if tok[0] != "str":
                raise ExprError("load takes a quoted path", tok[2])
            args = [tok[1]]
        elif name == "kpart":
            args = self._args_until_close(self.parse_int)
        elif name == "paley":
            args = [self.parse_int()]
        elif name == "cayley2":
            args = self._args_until_close(self.parse_int, separators=(",", ";"))
            if len(args) < 2:
                raise ExprError("cayley2 takes a dimension and weight classes", pos)
        else:
            raise ExprError(f"unknown operator {name!r}", pos)
        span = (pos, self.peek()[2])
        if name == "compose":  # compose(a, b, c) is compose(compose(a, b), c)
            return reduce(lambda left, right: Node(name, (left, right), span), args)
        return Node(name, tuple(args), span)


def parse_factors(text: str, separators=(",",)) -> list:
    """Nodes of a comma-separated list of constructions."""
    parser = _Parser(text)
    nodes = parser._args_until_close(parser.parse_expr, separators)
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return nodes


def parse_expr(text: str):
    """Node of a single construction."""
    return parse_factors(text, separators=())[0]


def loaded_paths(node) -> list:
    """Paths of the files a construction loads, left to right."""
    if node.op == "load":
        return [node.args[0]]
    children = (arg[0] if isinstance(arg, tuple) else arg for arg in node.args)  # union: (node, weight)
    return [path for child in children if isinstance(child, Node) for path in loaded_paths(child)]


def print_expr(node) -> str:
    """Canonical text form; parsing it reproduces the node."""
    op, args = node.op, node.args
    if op in FAMILIES:
        return f"{op}{args[0]}"
    if not args:
        return op
    if op == "load":
        return f'load("{args[0]}")'
    if op == "union":
        parts = [f"{print_expr(e)}:{w}" for e, w in args]
    else:
        parts = [print_expr(a) if isinstance(a, Node) else str(a) for a in args]
    if op == "cayley2":
        return f"cayley2({parts[0]}; {', '.join(parts[1:])})"
    return f"{op}({', '.join(parts)})"


_GRAPH_OPERATORS = {"blowup": blow_up, "compose": compose, "tensor": tensor}
# the operators, random models and load; every other op names a catalogue graph
OPERATORS = frozenset({*_GRAPH_OPERATORS, "complement", "union", "bernoulli", "bipartite", "load"})


Plan = namedtuple("Plan", "size looped lifted build factors", defaults=((),))


def _check_order(n: int, node) -> None:
    """graphs.check_order, refusing at the node's column."""
    try:
        check_order(n)
    except ValueError as exc:
        raise ExprError(str(exc), node.span[0]) from None


def plan(node, approx: bool = False, profiled: bool = False) -> Plan:
    """Plan of a construction, from one walk of its tree: the vertex or type
    count; whether a graph is looped (all or none), None for a model;
    whether labeled_repetitive takes the partition lift; a no-argument build
    that checks nothing again; and the plans of an exact tensor's factors,
    flattened, when it is `profiled` from them.  A plan builds a graph
    exactly when it is lifted: for looped None, a graph whose loops may be
    mixed, standing for its step model (see `denote`).  `profiled` decides
    only whether an exact tensor keeps its factors, not capped since it is
    never built; every other built graph is capped.  Every fault of the
    tree is raised here; only a load leaf is read and decoded, for its order."""
    op, args = node.op, node.args
    if op not in OPERATORS:
        return Plan(named_order(op, args), named_looped(op, args), True, lambda: build_named(op, args))
    if op == "load":
        data = LOADED[args[0]] if args[0] in LOADED else Path(args[0]).read_bytes()
        G = graph6_decode(data.decode("ascii").strip())
        return Plan(G.n, not G.is_loopless, True, lambda: G)
    if op in ("bernoulli", "bipartite"):
        p = float(args[0]) if approx else args[0]
        if not 0 <= p <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        k, model = (1, bernoulli) if op == "bernoulli" else (2, bipartite_random)
        lifted = not approx and p in (0, 1)
        return Plan(k, None, lifted, lambda: support_graph(model(p)) if lifted else model(p))
    if op == "union":  # a lifted part of n types has masses weight/n before normalizing
        parts = [plan(e, approx) for e, _ in args]
        weights = [float(w) if approx else w for _, w in args]
        if any(w <= 0 for w in weights):
            raise ValueError("union weights must be positive")
        lifted = not approx and all(p.lifted for p in parts) and len(
            {Fraction(w) / p.size for p, w in zip(parts, weights)}) == 1
        size = sum(p.size for p in parts)
        if lifted:  # built as a graph, so capped as one
            _check_order(size, node)
        return Plan(size, None, lifted, lambda: reduce(disjoint_union, [p.build() for p in parts])
                    if lifted else model_union([(denote(p, model=True), w) for p, w in zip(parts, weights)]))
    if op == "complement":
        n, looped, lifted, inner, _ = plan(args[0], approx)
        return Plan(n, None if looped is None else not looped, lifted,
                    lambda: complement(inner()) if lifted else model_complement(inner()))
    profiled = profiled and op == "tensor" and not approx
    # blowup's count is a factor of its size, and builds as itself
    plans = [plan(a, approx, profiled) if isinstance(a, Node) else Plan(a, False, True, lambda a=a: a) for a in args]
    size = math.prod(p.size for p in plans)
    factors = tuple(f for p in plans for f in p.factors or (p,)) if profiled else ()
    mixed = any(p.looped is None for p in plans)  # a model among the factors
    if mixed and op != "tensor":
        raise ExprError(f"{op} applies to graphs only", node.span[0])
    if not all(p.lifted for p in plans):
        return Plan(size, None, False, lambda: reduce(model_tensor, [denote(p, model=True) for p in plans]), factors)
    if not profiled:
        _check_order(size, node)
    if op == "compose" and any(p.looped for p in plans):
        raise ValueError("composition is defined for loopless graphs")
    # blowup and compose are loopless; a tensor vertex is looped iff an odd number of coordinates are
    looped = None if mixed else op == "tensor" and sum(p.looped for p in plans) % 2 == 1
    return Plan(size, looped, True, lambda: _GRAPH_OPERATORS[op](*(p.build() for p in plans)), factors)


def denote(p: Plan, model: bool = False):
    """The graph or step model a plan stands for, a step model if `model`:
    what it builds, where looped is None or `model` is set taken to the step
    model of its blow-up limit (from_graph of a graph, which a lifted plan builds)."""
    built = p.build()
    return from_graph(built) if (model or p.looped is None) and not isinstance(built, StepModel) else built


def evaluate(node, approx: bool = False):
    """Build the graph or step model a construction denotes, once plan has
    checked the whole tree: a graph under graph operators, else a step model,
    from_graph of what a lifted plan builds or the dense model of one that is not."""
    return denote(plan(node, approx))


def parse_quantum(text: str, t: int | None = None) -> QuantumGraph:
    """Parse a rational combination of type names, e.g. "K4+A4" or
    "1/2*C4 - 2*M4": target := term (('+' | '-') term)*, read with the
    tokens and numbers of constructions.  The order is inferred when not
    given."""
    parser = _Parser(text)
    terms = [parser.parse_term()]
    while parser.at_symbol("+") or parser.at_symbol("-"):
        terms.append(parser.parse_term(-1 if parser.next()[1] == "-" else 1))
    parser.expect("end")
    if t is None:
        candidates = [
            order
            for order in range(MIN_ORDER, MAX_ORDER + 1)
            if all(name in iso_table(order).names for name, _ in terms)
        ]
        if not candidates:
            raise ExprError(f"no single order resolves all of {[n for n, _ in terms]}")
        t = candidates[0]  # no type name appears at two orders
    for name, _ in terms:
        if name not in iso_table(t).names:
            raise ExprError(f"unknown type name {name!r} at order {t}")
    return QuantumGraph.from_pairs(t, terms)
