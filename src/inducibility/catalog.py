"""Curated density results with one-command reproduction.

Three bundled tables: exoo4 (the exactly known 4-vertex densities on their
extremal constructions), headline (the tensor and nested limits the
toolkit exists to compute), and appendix5 (5-vertex lower-bound
constructions).  Every row carries its construction as expression text and
its expected value; running a table recomputes each row through the
profile, nesting and spectral pipelines and compares.  The row modes
model, nested and product are the functions density, nested_profile and
limit_density, which the CLI's density, nested-profile and limit commands
call too.  Under each of them, and under the CLI's profile, repetitive_of,
spectrum_of and induced_of take an expression node to its dsl.plan, a
nested base included, and that plan to its profile through three helpers:
_charge charges plans as one product, the sum of what labeled_repetitive
charges each factor; _spectrum transforms each factor once
(model_spectrum) and multiplies them (spectral_product), so an exact
tensor is never built; and _profile inverts that product once, where a
labeled profile is needed.  The spectral flavor is the product itself,
never inverted.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

from .dsl import parse_expr, parse_factors, parse_quantum, plan
from .frozen import frozen
from .graphs import from_edges
from .models import APPROX_TOL
from .nesting import nested_spectral, stationary_profile
from .profiles import (
    LabeledProfile,
    ProfileVector,
    QuantumGraph,
    charge,
    induced_from_repetitive,
    induced_profile,
    iso_table,
    labeled_repetitive,
    quantum_density,
    repetitive_cost,
)
from .spectral import SpectralProfile, inverse_fourier, model_spectrum, product_limit_density, spectral_product

TABLES = ("exoo4", "headline", "appendix5")

# ratio that maximizes p*q^4 + p^4*q over p + q = 1, as its float literal
ALPHA_TEXT = "3.7320508075688772"


@frozen
class ClosedFormBounds:
    """General density bounds at one order, as exact rationals."""

    t: int
    self_nesting_lower: Fraction
    extended_nesting_lower: Fraction
    path_upper: Fraction

    def named(self) -> tuple:
        return (
            ("self-nesting-lower", self.self_nesting_lower),
            ("extended-nesting-lower", self.extended_nesting_lower),
            ("path-upper", self.path_upper),
        )


def max_bounds_order() -> int:
    """Largest order whose bounds print in full: t**t, the largest number
    they involve, has floor(t*log10(t)) + 1 digits, which must not exceed
    sys.get_int_max_str_digits(), or CPython's default of 4300 where the
    limit is off or, before 3.10.7, absent."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    t = 2
    while math.floor((t + 1) * math.log10(t + 1)) + 1 <= limit:
        t += 1
    return t


def closed_form_bounds(t: int) -> ClosedFormBounds:
    """Nesting lower bounds for any t-vertex graph and for graphs one
    vertex short of a vertex-transitive graph, plus the path upper bound.
    The order is checked before any arithmetic."""
    top = max_bounds_order()
    if not 2 <= t <= top:
        raise ValueError(f"order must be in 2..{top}")
    fact = math.factorial(t)
    return ClosedFormBounds(
        t=t,
        self_nesting_lower=Fraction(fact, t ** t - t),
        extended_nesting_lower=Fraction(fact, (t + 1) ** (t - 1) - 1),
        path_upper=Fraction(fact, 2 * (t - 1) ** (t - 1)),
    )


@frozen
class CatalogRow:
    """One expected density: a target, a construction, and the value."""

    row_id: str
    t: int
    mode: str               # model | nested | product
    expected: str
    target: str = ""        # quantum expression over type names
    target_edges: tuple = ()
    construction: str = ""  # model source or nested base
    factors: str = ""       # product mode: plain factors, comma separated
    nested_factor: str = ""  # product mode: nested base
    approx: bool = False    # evaluate numeric weights as floats

    @property
    def comparison(self) -> str:
        """exact, or approx (within APPROX_TOL) for rows evaluated in floats."""
        return "approx" if self.approx else "exact"

    def quantum(self) -> QuantumGraph:
        if self.target:
            return parse_quantum(self.target, self.t)
        idx = iso_table(self.t).type_of_graph(from_edges(self.t, self.target_edges))
        return QuantumGraph.from_pairs(self.t, [(idx, 1)])

    def describe_target(self) -> str:
        return self.target or "edges " + str(list(self.target_edges))

    def describe(self) -> str:
        if self.mode == "product":
            text = f"tensor limit of [{self.factors}]"
            if self.nested_factor:
                text += f" with nested {self.nested_factor}"
            return text
        if self.mode == "nested":
            return f"nested {self.construction}"
        return self.construction


@frozen
class BoundReport:
    row: CatalogRow
    computed: object
    expected: Fraction
    passed: bool
    seconds: float

    @property
    def row_id(self) -> str:
        return self.row.row_id


def _charge(plans, t: int, budget: int | None) -> None:
    """Charge plans as one product: the sum of what labeled_repetitive charges their factors."""
    costs = [repetitive_cost(f.size, f.lifted, t) for p in plans for f in p.factors or (p,)]
    unit = costs[0][1] if len(costs) == 1 else f"subsets and assignments of {len(costs)} tensor factors"
    charge(sum(c for c, _ in costs), unit, budget)


def _spectrum(p, t: int, budget: int | None) -> SpectralProfile:
    """The t-spectrum of a plan: an exact tensor's factors each transformed
    once and multiplied, any other plan's own spectrum as it is."""
    spectra = [model_spectrum(f.build(), t, budget) for f in p.factors or (p,)]
    return spectral_product(*spectra) if len(spectra) > 1 else spectra[0]


def _profile(p, t: int, budget: int | None) -> LabeledProfile:
    """Labeled repetitive t-profile of a plan: an exact tensor's is the inverse of its spectrum."""
    if not p.factors:
        return labeled_repetitive(p.build(), t, budget)
    return inverse_fourier(_spectrum(p, t, budget))


def repetitive_of(node, t: int, approx: bool = False, budget: int | None = None) -> LabeledProfile:
    """Labeled repetitive t-profile of the limit of a construction; the
    dispatch that the CLI and the catalog share."""
    p = plan(node, approx, profiled=True)
    _charge([p], t, budget)
    return _profile(p, t, budget)


def spectrum_of(node, t: int, approx: bool = False, budget: int | None = None) -> SpectralProfile:
    """Spectrum of the limit of a construction, charged as repetitive_of
    charges it; an exact tensor's is its factors' product, never inverted."""
    p = plan(node, approx, profiled=True)
    _charge([p], t, budget)
    return _spectrum(p, t, budget)


def _loopless(node, t: int, approx: bool, message: str,
              loop_message: str = "composition is defined over loopless outer graphs"):
    """The plan of a loopless graph construction; a model or loops get the caller's message."""
    p = plan(node, approx, profiled=True)
    iso_table(t)
    if p.looped is None:
        raise ValueError(message)
    if p.looped:
        raise ValueError(loop_message)
    return p


def induced_of(node, t: int, approx: bool = False, budget: int | None = None) -> ProfileVector:
    """Induced t-profile of a graph construction, checked and charged from
    its plan before it is built: an exact tensor's repetitive profile lifted
    back by induced_from_repetitive, any other graph's t-subsets counted."""
    p = _loopless(node, t, approx, "induced profiles need a graph construction",
                  "induced profiles are defined for loopless graphs")
    if p.size < t:
        raise ValueError("graph has fewer vertices than the profile order")
    if not p.factors:
        charge(math.comb(p.size, t), "subsets", budget)
        return induced_profile(p.build(), t, budget)
    _charge([p], t, budget)
    return induced_from_repetitive(_profile(p, t, budget), p.size)


def _nested(p, t: int, budget: int | None):
    """A nested base's plan as nesting takes it: built, or a tensor's (size, t-profile from its factors' spectra)."""
    return (p.size, _profile(p, t, budget)) if p.factors else p.build()


def density(Q: QuantumGraph, expr: str, approx: bool = False, budget: int | None = None):
    """Repetitive density of Q in the limit of a construction.  The budget
    bounds the work of each route; None means profiles.DEFAULT_BUDGET."""
    return quantum_density(Q, repetitive_of(parse_expr(expr), Q.t, approx, budget).to_unlabeled())


def nested_profile(expr: str, t: int, approx: bool = False, budget: int | None = None):
    """Stationary t-profile of the nested composition of a graph construction."""
    p = _loopless(parse_expr(expr), t, approx, "nested profiles need a loopless graph construction")
    _charge([p], t, budget)
    return stationary_profile(_nested(p, t, budget), t, budget).profile


def limit_density(Q: QuantumGraph, factors: str = "", nested: str = "", approx: bool = False,
                  budget: int | None = None):
    """Repetitive density of Q in the tensor product of the limits of the
    comma-separated factors and of the nested composition of `nested`,
    every input charged as one factor of one product before any is built,
    and the spectra of every factor of every input multiplied at once."""
    plans = [plan(node, approx, profiled=True) for node in (parse_factors(factors) if factors else ())]
    base = [_loopless(parse_expr(nested), Q.t, approx, "the nested factor must be a loopless graph")] if nested else []
    _charge(plans + base, Q.t, budget)
    spectra = [_spectrum(p, Q.t, budget) for p in plans]
    spectra += [nested_spectral(_nested(p, Q.t, budget), Q.t, budget) for p in base]
    return product_limit_density(Q, *spectra)


def run_row(row: CatalogRow, budget: int | None = None) -> BoundReport:
    """Recompute one row; the budget bounds the work of its routes."""
    start = time.perf_counter()
    Q = row.quantum()
    if row.mode == "model":
        computed = density(Q, row.construction, row.approx, budget)
    elif row.mode == "nested":
        computed = quantum_density(Q, nested_profile(row.construction, row.t, row.approx, budget))
    elif row.mode == "product":
        computed = limit_density(Q, row.factors, row.nested_factor, row.approx, budget)
    else:
        raise ValueError(f"unknown row mode {row.mode!r}")
    expected = Fraction(row.expected)
    if row.approx:
        passed = abs(float(computed) - float(expected)) <= APPROX_TOL
    else:
        passed = computed == expected
    return BoundReport(
        row=row,
        computed=computed,
        expected=expected,
        passed=passed,
        seconds=time.perf_counter() - start,
    )


def catalog_rows(which: str) -> tuple:
    if which not in TABLES:
        raise ValueError(f"unknown table {which!r}; expected one of {TABLES}")
    return _ROWS[which]


def reproduce_table(which: str, budget: int | None = None) -> list:
    """Recompute every row of a bundled table; failing rows are reported, not
    raised.  The budget reaches the routes of every row."""
    return [run_row(row, budget) for row in catalog_rows(which)]


_EXOO4_ROWS = (
    CatalogRow("exoo4-01", 4, "model", "1", "K4", construction="loopK1"),
    CatalogRow("exoo4-02", 4, "model", "1", "A4", construction="A1"),
    CatalogRow("exoo4-03", 4, "model", "1/2", "S4", construction="K2"),
    CatalogRow("exoo4-04", 4, "model", "1/2", "T4", construction="complement(K2)"),
    CatalogRow("exoo4-05", 4, "model", "3/8", "C4", construction="K2"),
    CatalogRow("exoo4-06", 4, "model", "3/8", "M4", construction="complement(K2)"),
    CatalogRow("exoo4-07", 4, "model", "3/8", "V4", construction="union(K2:1, K2:1)"),
    CatalogRow("exoo4-08", 4, "model", "3/8", "Q4", construction="complement(union(K2:1, K2:1))"),
    CatalogRow("exoo4-09", 4, "model", "72/125", "D4", construction="K5"),
    CatalogRow("exoo4-10", 4, "model", "72/125", "E4", construction="complement(K5)"),
)

_HEADLINE_ROWS = (
    CatalogRow("headline-01", 4, "product", "11411/373248", "K4+A4", factors="M4, K4, tensor(K3, K3)"),
    CatalogRow("headline-02", 4, "product", "3769/124416", "K4+A4", factors="M4, K4, compose(tensor(K3, K3), K2)"),
    CatalogRow("headline-03", 4, "product", "1411/46592", "K4+A4", factors="M4, K4", nested_factor="tensor(K3, K3)"),
    CatalogRow("headline-04", 4, "product", "1173/5824", "P4", factors="K4", nested_factor="tensor(K3, K3)"),
    CatalogRow("headline-05", 4, "nested", "6/31", "P4", construction="C5"),
    CatalogRow("headline-06", 4, "nested", "60/307", "P4", construction="paley(17)"),
    CatalogRow("headline-07", 5, "nested", "1/26", "C5", construction="C5"),
)

_EIGHT_BLOCKS = ", ".join(["loopK1:1"] * 8)
_TWO_BIPARTITE_C = "complement(union(K2:1, K2:1))"

_APPENDIX5_ROWS = (
    CatalogRow("appendix5-01", 5, "model", "1", "A5", construction="A1"),
    CatalogRow("appendix5-02", 5, "model", "5/8", target_edges=((1, 2), (1, 3), (2, 3), (0, 4)),
               construction="union(loopK1:1, loopK1:1)"),
    CatalogRow("appendix5-03", 5, "model", "10/27", target_edges=((1, 4), (0, 3)),
               construction="union(loopK1:1, loopK1:1, loopK1:1)"),
    CatalogRow("appendix5-04", 5, "model", "0.5126953125", target_edges=((0, 4),),
               construction=f"union({_EIGHT_BLOCKS})"),
    CatalogRow("appendix5-05", 5, "model", "5/18", target_edges=((0, 4), (1, 2), (2, 3)),
               construction="union(K3:1, K3:1)"),
    CatalogRow("appendix5-06", 5, "model", "24/125", target_edges=((4, 0), (0, 1), (1, 3), (1, 2)),
               construction="C5"),
    CatalogRow("appendix5-07", 5, "model", "216/625", target_edges=((0, 4), (0, 2), (4, 2)),
               construction="union(loopK1:3, A1:2)"),
    CatalogRow("appendix5-08", 5, "model", "0.2784", target_edges=((2, 4), (2, 0)),
               construction="union(K2:1, K2:2, K2:2)"),
    CatalogRow("appendix5-09", 5, "model", "5/12", target_edges=((0, 1), (0, 4), (1, 4), (0, 3), (1, 3), (4, 3)),
               construction=f"union(loopK1:1, loopK1:{ALPHA_TEXT})", approx=True),
    CatalogRow("appendix5-10", 5, "model", "5/24", target_edges=((1, 2), (0, 2), (2, 4)),
               construction=f"union(K2:1, K2:{ALPHA_TEXT})", approx=True),
    CatalogRow("appendix5-11", 5, "model", "5/32", target_edges=((4, 1), (1, 3), (0, 3), (4, 0)),
               construction=f"union(K2:1, K2:{ALPHA_TEXT})", approx=True),
    CatalogRow("appendix5-12", 5, "model", "0.15625", target_edges=((0, 4), (0, 2), (4, 2), (0, 3)),
               construction=f"union({_TWO_BIPARTITE_C}:1, {_TWO_BIPARTITE_C}:{ALPHA_TEXT})", approx=True),
    CatalogRow("appendix5-13", 5, "model", "0.24", target_edges=((0, 1), (1, 4), (0, 3), (1, 3), (4, 3)),
               construction=f"union(K5:1, K5:{ALPHA_TEXT})", approx=True),
    CatalogRow("appendix5-14", 5, "nested", "1/26", target_edges=((1, 2), (4, 3), (2, 3), (0, 4), (1, 0)),
               construction="C5"),
    CatalogRow("appendix5-15", 5, "model", "15625/62208", target_edges=((0, 1), (1, 3), (3, 4), (4, 0), (1, 2)),
               construction="bipartite(5/6)"),
    CatalogRow("appendix5-16", 5, "model", "0.133413966", target_edges=((1, 4), (0, 3), (1, 3)),
               construction="bernoulli(3/10)"),
    CatalogRow("appendix5-17", 5, "nested", "1968/20995", target_edges=((0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)),
               construction="tensor(K3, K3, K2)"),
    CatalogRow("appendix5-18", 5, "nested", "813/11111", target_edges=((3, 1), (3, 2), (1, 2), (1, 0), (3, 4)),
               construction="tensor(K3, K3)"),
)

_ROWS = {
    "exoo4": _EXOO4_ROWS,
    "headline": _HEADLINE_ROWS,
    "appendix5": _APPENDIX5_ROWS,
}
