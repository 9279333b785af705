from __future__ import annotations

import math
from fractions import Fraction

import pytest

import oracles
from inducibility.catalog import (
    ALPHA_TEXT,
    TABLES,
    CatalogRow,
    catalog_rows,
    closed_form_bounds,
    density,
    max_bounds_order,
    reproduce_table,
    run_row,
)
from inducibility.dsl import evaluate, parse_expr, parse_quantum
from inducibility.profiles import quantum_density, repetitive_profile


def test_closed_form_bounds_known_values():
    b4 = closed_form_bounds(4)
    assert b4.self_nesting_lower == Fraction(2, 21)
    assert b4.extended_nesting_lower == Fraction(6, 31)
    assert b4.path_upper == Fraction(4, 9)
    b5 = closed_form_bounds(5)
    assert b5.self_nesting_lower == Fraction(1, 26)
    assert b5.extended_nesting_lower == Fraction(24, 259)
    assert b5.path_upper == Fraction(15, 64)
    names = dict(b4.named())
    assert names["path-upper"] == Fraction(4, 9)
    # the order is refused before any arithmetic, up to the largest one
    # whose values still convert to decimal text
    top = max_bounds_order()
    assert str(closed_form_bounds(top).self_nesting_lower.denominator)
    for t in (1, top + 1, 200000):
        with pytest.raises(ValueError, match=f"order must be in 2..{top}"):
            closed_form_bounds(t)


def test_catalog_tables_are_registered():
    assert TABLES == ("exoo4", "headline", "appendix5")
    with pytest.raises(ValueError):
        catalog_rows("nosuch")
    assert len(catalog_rows("exoo4")) == 10
    assert len(catalog_rows("headline")) == 7
    assert len(catalog_rows("appendix5")) == 18


def test_comparison_follows_approx():
    rows = [row for which in TABLES for row in catalog_rows(which)]
    assert sum(row.approx for row in rows) == 5
    assert all(row.comparison == ("approx" if row.approx else "exact") for row in rows)
    with pytest.raises(TypeError):
        CatalogRow(row_id="x", t=4, mode="model", expected="1", comparison="approx", target="K4")


def test_headline_construction_strings():
    # these fill the "construction" field of `tables --which headline`
    assert [row.describe() for row in catalog_rows("headline")] == [
        "tensor limit of [M4, K4, tensor(K3, K3)]",
        "tensor limit of [M4, K4, compose(tensor(K3, K3), K2)]",
        "tensor limit of [M4, K4] with nested tensor(K3, K3)",
        "tensor limit of [K4] with nested tensor(K3, K3)",
        "nested C5",
        "nested paley(17)",
        "nested C5",
    ]


def test_exoo4_table_reproduces():
    reports = reproduce_table("exoo4")
    assert all(r.passed for r in reports)
    assert [str(r.expected) for r in reports[:4]] == ["1", "1", "1/2", "1/2"]


def test_single_row_runner():
    row = catalog_rows("exoo4")[0]
    report = run_row(row)
    assert report.passed
    assert report.computed == report.expected == 1
    assert report.seconds >= 0
    assert report.row_id == row.row_id


def test_unknown_row_mode_rejected():
    row = CatalogRow(
        row_id="x", t=4, mode="bogus", expected="1", target="K4",
    )
    with pytest.raises(ValueError):
        run_row(row)


@pytest.mark.parametrize(
    "mode, fields, message",
    [
        ("nested", {"construction": "bernoulli(1/2)"}, "nested profiles need a loopless graph"),
        ("product", {"factors": "K4", "nested_factor": "bernoulli(1/2)"},
         "nested factor must be a loopless graph"),
    ],
)
def test_nested_base_must_be_a_graph(mode, fields, message):
    # rows share the CLI's checks: a model cannot be nested
    row = CatalogRow(row_id="x", t=4, mode=mode, expected="1", target="K4", **fields)
    with pytest.raises(ValueError, match=message):
        run_row(row)


def test_alpha_weight_is_a_local_maximum():
    # the two-block weight maximizes the target density of the alpha rows
    row = next(r for r in catalog_rows("appendix5") if r.row_id == "appendix5-09")
    target = row.quantum()
    alpha = float(ALPHA_TEXT)

    def density(weight: float) -> float:
        text = f"union(loopK1:1, loopK1:{weight!r})"
        M = evaluate(parse_expr(text), approx=True)
        return quantum_density(target, repetitive_profile(M, 5))

    best = density(alpha)
    assert best == pytest.approx(5 / 12, abs=1e-9)
    assert best > density(alpha * (1 + 1e-4))
    assert best > density(alpha * (1 - 1e-4))


def test_approx_rows_have_exact_certificates():
    # each --approx row is union(A:1, B:alpha) with alpha = 2 + sqrt 3, whose
    # density is P(alpha) / (1 + alpha)^t with deg P <= t: t + 1 exact
    # densities at integer weights fix P, and P(alpha) / (3 + sqrt 3)^t is the
    # row's value at the exact alpha, which the float comparison within
    # APPROX_TOL cannot tell from a value 1e-12 away
    alpha = oracles.Surd(2, 1)
    f = float(ALPHA_TEXT)
    # ALPHA_TEXT is the double nearest alpha: alpha lies between the
    # midpoints to its neighbours, (m - 2)^2 < 3 < (M - 2)^2
    low, high = ((Fraction(f) + Fraction(math.nextafter(f, side))) / 2 for side in (0.0, 4.0))
    assert (low - 2) ** 2 < 3 < (high - 2) ** 2
    rows = [row for row in catalog_rows("appendix5") if row.approx]
    assert [row.row_id for row in rows] == [f"appendix5-{k:02d}" for k in range(9, 14)]
    for row in rows:
        assert row.construction.count(ALPHA_TEXT) == 1
        Q = row.quantum()
        points = [(x, density(Q, row.construction.replace(ALPHA_TEXT, str(x))) * (1 + x) ** row.t)
                  for x in range(1, row.t + 2)]
        P = oracles.interpolate(points)
        certified = oracles.evaluate_polynomial(P, alpha) / (alpha + 1) ** row.t
        assert certified == Fraction(row.expected), row.row_id


def test_headline_table_reproduces():
    reports = reproduce_table("headline")
    assert all(r.passed for r in reports)
    by_id = {r.row_id: r for r in reports}
    assert by_id["headline-01"].computed == Fraction(11411, 373248)
    assert by_id["headline-04"].computed == Fraction(1173, 5824)


def test_appendix_table_reproduces():
    reports = reproduce_table("appendix5")
    assert all(r.passed for r in reports)
    by_id = {r.row_id: r for r in reports}
    assert by_id["appendix5-14"].computed == Fraction(1, 26)
    assert by_id["appendix5-15"].computed == Fraction(15625, 62208)
    assert by_id["appendix5-17"].computed == Fraction(1968, 20995)
    assert by_id["appendix5-18"].computed == Fraction(813, 11111)
    assert abs(float(by_id["appendix5-09"].computed) - 5 / 12) <= 1e-9
