"""Tests of the benchmark itself (not part of the package suite):

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import graph6, random_edges  # noqa: E402


def test_tail_has_ten_samples_beyond():
    xs = list(range(100))
    random.Random(0).shuffle(xs)
    assert run.tail(xs) == (89, 90.0, 100)
    assert run.tail(range(11)) == (0, 100.0 * 1 / 11, 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_span_total_busy_self_calls_work():
    # a(0..10) -> b(1..4) -> a(2..3); c(5..9) under the outer a
    spans = [
        ["a", 0.0, 10.0, -1, 7],
        ["b", 1.0, 4.0, 0, 0],
        ["a", 2.0, 3.0, 1, 5],
        ["c", 5.0, 9.0, 0, 0],
    ]
    assert run.span_total(spans, ("a",), "busy") == 10.0       # the nested a counts once
    assert run.span_total(spans, ("a",), "self") == 10.0 - 7.0 + 1.0
    assert run.span_total(spans, ("b", "c"), "busy") == 7.0
    assert run.span_total(spans, ("a",), "calls") == 2
    assert run.span_total(spans, ("a",), "work") == 12


def test_graph6_matches_the_package():
    graphs = pytest.importorskip("inducibility.graphs")
    for n in (1, 2, 7, 12, 62):
        edges = random_edges(3, f"g{n}", n)
        assert graph6(n, edges) == graphs.graph6_encode(graphs.from_edges(n, edges))


def test_inputs_depend_only_on_the_seed():
    assert random_edges(5, "a40", 40) == random_edges(5, "a40", 40)
    assert random_edges(5, "a40", 40) != random_edges(6, "a40", 40)


def test_smoke():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert out.stdout.strip().endswith("smoke ok")
