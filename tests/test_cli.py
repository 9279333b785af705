from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import math
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import inducibility.cli as cli
from inducibility import catalog, graphs, models
from inducibility.catalog import catalog_rows, reproduce_table, run_row
from inducibility.graphs import build_named, graph6_encode
from inducibility.profiles import iso_table
from inducibility.cli import EXIT_BROKEN_PIPE, run_command

ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, argv):
    try:
        code = run_command(argv)
    except SystemExit as exc:
        # argparse reports usage errors through exit, with the same code
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_profile_default_flavor_is_repetitive(capsys):
    payload = _run_json(capsys, ["profile", "--t", "3", "C5"])
    assert payload["command"] == "profile:repetitive"
    assert payload["basis"] == ["K3", "A3", "P3", "E3"]
    values = {v["type"]: Fraction(int(v["num"]), int(v["den"])) for v in payload["values"]}
    assert values["P3"] == Fraction(12, 25)
    assert values["K3"] == 0 and values["A3"] == Fraction(7, 25)
    assert payload["meta"]["version"]


def test_profile_flavors(capsys):
    induced = _run_json(capsys, ["profile", "--t", "3", "--flavor", "induced", "C5"])
    vals = {v["type"]: Fraction(int(v["num"]), int(v["den"])) for v in induced["values"]}
    assert vals["P3"] == Fraction(1, 2) and vals["K3"] == 0
    labeled = _run_json(capsys, ["profile", "--t", "2", "--flavor", "labeled", "K2"])
    assert len(labeled["values"]) == 2
    spectral = _run_json(capsys, ["profile", "--t", "3", "--flavor", "spectral", "C5"])
    svals = {v["type"]: Fraction(int(v["num"]), int(v["den"])) for v in spectral["values"]}
    assert svals["A3"] == 1


def test_density_known_value(capsys):
    payload = _run_json(
        capsys,
        ["density", "--t", "4", "--quantum", "K4+A4", "tensor(M4, K4, K3, K3)"],
    )
    entry = payload["values"][0]
    assert (entry["num"], entry["den"]) == ("11411", "373248")
    assert entry["approx"] == pytest.approx(11411 / 373248)


def test_nested_profile_known_vector(capsys):
    payload = _run_json(capsys, ["nested-profile", "--t", "4", "tensor(K3, K3)"])
    values = {v["type"]: Fraction(int(v["num"]), int(v["den"])) for v in payload["values"]}
    assert values["K4"] == Fraction(17, 728)
    assert values["P4"] == Fraction(96, 728)
    assert sum(values.values()) == 1


def test_limit_with_factors_and_nested(capsys):
    payload = _run_json(
        capsys,
        ["limit", "--t", "4", "--quantum", "P4", "--factors", "K4",
         "--nested", "tensor(K3, K3)"],
    )
    entry = payload["values"][0]
    assert (entry["num"], entry["den"]) == ("1173", "5824")


def test_limit_requires_some_factor(capsys):
    code, out, err = _run(capsys, ["limit", "--t", "4", "--quantum", "P4"])
    assert code == 2
    assert "factor" in err


def test_estimate_is_seeded(capsys):
    argv = ["estimate", "--t", "3", "--samples", "20000", "--seed", "11", "C5"]
    first = _run_json(capsys, argv)
    second = _run_json(capsys, argv)
    assert first == second
    assert first["meta"]["seed"] == 11
    entry = first["values"][0]
    assert entry["num"] is None and entry["den"] is None
    assert "stderr" in entry
    # one sample is one type with value 1.0, and no spread
    one = _run_json(capsys, ["estimate", "--t", "3", "--samples", "1", "--seed", "3", "C5"])
    assert sorted(v["approx"] for v in one["values"]) == [0.0, 0.0, 0.0, 1.0]
    assert all(v["stderr"] == 0.0 for v in one["values"])


def test_bounds_payload(capsys):
    payload = _run_json(capsys, ["bounds", "--t", "5"])
    values = {v["type"]: (v["num"], v["den"]) for v in payload["values"]}
    assert values["self-nesting-lower"] == ("1", "26")
    assert values["extended-nesting-lower"] == ("24", "259")
    assert values["path-upper"] == ("15", "64")


def test_tables_pass_and_fail_codes(capsys, monkeypatch):
    code, out, err = _run(capsys, ["tables", "--which", "exoo4"])
    assert code == 0
    payload = json.loads(out)
    assert all(row["passed"] for row in payload["rows"])

    real = cli.reproduce_table

    def broken(which, budget=None):
        reports = real(which, budget=budget)
        fake = []
        for r in reports:
            fake.append(r.__class__(row=r.row, computed=r.computed,
                                    expected=r.expected, passed=False,
                                    seconds=r.seconds))
        return fake

    monkeypatch.setattr(cli, "reproduce_table", broken)
    code, out, err = _run(capsys, ["tables", "--which", "exoo4"])
    assert code == 1


def test_convert_anchors(capsys):
    payload = _run_json(capsys, ["convert", "--graph6", "A_"])
    assert payload["n"] == 2 and payload["edges"] == [[0, 1]]
    encoded = _run_json(capsys, ["convert", "--encode", "K1"])
    assert encoded["graph6"] == "@"
    # Paley(9) is K3 x K3 on the same labels
    for expr in ("paley(9)", "tensor(K3, K3)"):
        assert _run_json(capsys, ["convert", "--encode", expr])["graph6"] == "H{S{aSf"
    code, out, err = _run(capsys, ["convert", "--graph6", "A_", "--encode", "K2"])
    assert code == 2


def test_error_paths_exit_two(capsys):
    # refusals that are charged before anything is built or counted
    quick = (["profile", "--t", "3", "--budget", "10", "tensor(K500, bernoulli(1/2))"],)
    for argv in (
        ["profile", "--t", "7", "C5"],
        ["profile", "--t", "4", "frob(K3)"],
        ["density", "--t", "4", "--quantum", "K9", "C5"],
        ["tables", "--which", "nosuch"],
        ["profile", "--t", "4", "--budget", "5", "C30"],
        ["profile", "--t", "4", "--flavor", "spectral", "--budget", "5", "C30"],
        ["limit", "--t", "4", "--quantum", "P4", "--nested", "C5", "--budget", "1"],
        ["nested-profile", "--t", "4", "--budget", "1", "C5"],
        ["profile", "--t", "3", "--budget", "10", "cayley2(11; 1)"],
        ["limit", "--t", "4", "--quantum", "P4", "--factors", "cayley2(10; 1)", "--budget", "10"],
        ["bounds", "--t", "200000"],
        ["estimate", "--t", "3", "--samples", "100000000000", "--budget", "10", "--seed", "1", "C5"],
        ["tables", "--which", "headline", "--budget", "1"],
        ["density", "--t", "4", "--quantum", "K3", "C5"],
        ["profile", "--t", "3", "union(K2:1/0)"],
        ["profile", "--t", "3", "--budget", "10", "K3000"],
        ["profile", "--t", "3", "--budget", "10", "cayley2(12; 1, 2, 3, 4, 5, 6)"],
        *quick,
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert "error:" in err
        if argv in quick:
            assert time.perf_counter() - start < 1, argv


def test_negative_budget_is_refused_when_parsed(capsys, tmp_path):
    cached = ["profile", "C5", "--t", "3", "--cache", str(tmp_path)]
    assert _run(capsys, cached)[0] == 0
    # a cache miss, a cache hit and a command that enumerates nothing alike
    for argv in (["profile", "C4", "--t", "3", "--cache", str(tmp_path), "--budget", "-1"],
                 cached + ["--budget", "-1"],
                 ["bounds", "--t", "4", "--budget", "-7"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "argument --budget: must not be negative" in err
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert _run(capsys, ["bounds", "--t", "4", "--budget", "x"])[2].endswith(
        "argument --budget: invalid int value: 'x'\n")
    assert _run_json(capsys, cached + ["--budget", "0"])["meta"]["budget"] == 0
    assert _run_json(capsys, ["bounds", "--t", "4", "--budget", "0"])["meta"]["budget"] == 0


def test_negative_seed_is_refused_when_parsed(capsys):
    estimate = ["estimate", "--t", "3", "--samples", "5", "C5", "--seed"]
    start = time.perf_counter()
    code, out, err = _run(capsys, estimate + ["-1"])
    assert (code, out) == (2, "") and err.endswith("argument --seed: must not be negative: -1\n")
    assert time.perf_counter() - start < 1
    assert _run(capsys, estimate + ["x"])[2].endswith("argument --seed: invalid int value: 'x'\n")
    assert _run_json(capsys, estimate + ["0"])["meta"]["seed"] == 0


def test_exceptions_without_a_message_are_named(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setitem(cli._RUNNERS, "bounds", out_of_memory)
    assert _run(capsys, ["bounds", "--t", "4"]) == (2, "", "error: MemoryError\n")


def _refuse(*args):
    raise AssertionError("a graph was built")


def test_the_spectral_flavor_of_a_tensor_is_its_factors_product(capsys, monkeypatch):
    # never inverted: the same bytes as the transform of the built Paley(9)
    monkeypatch.setattr(catalog, "inverse_fourier", _refuse)
    argv = ["profile", "--t", "4", "--flavor", "spectral"]
    code, out, err = _run(capsys, argv + ["tensor(K3, K3)"])
    assert (code, err) == (0, "")
    assert _run(capsys, argv + ["paley(9)"]) == (0, out, "")


def test_named_leaves_are_charged_before_building(capsys, monkeypatch):
    monkeypatch.setattr(graphs, "LabeledGraph", _refuse)
    expected = f"error: {math.comb(65536, 3)} subsets exceed the budget of 10\n"
    for flavor in ("repetitive", "labeled", "spectral", "induced"):
        start = time.perf_counter()
        argv = ["profile", "--t", "3", "--flavor", flavor, "--budget", "10", "K65536"]
        assert _run(capsys, argv) == (2, "", expected)
        assert time.perf_counter() - start < 1
    for argv in (
        ["profile", "--t", "3", "--budget", "10", "tensor(K65536, K65536)"],
        ["density", "--t", "3", "--quantum", "K3", "--budget", "10", "tensor(cayley2(16; 1), loopK2)"],
        ["limit", "--t", "3", "--quantum", "K3", "--budget", "10", "--factors", "kpart(9, 65527), K2"],
        ["profile", "--t", "3", "--flavor", "induced", "--budget", "10", "tensor(K65536, C65536)"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2 and "exceed the budget of 10" in err, argv
    # loops come from the parameters too, and are refused before the budget
    for leaf in ("loopK65536", "cayley2(16; 0, 1)", "tensor(loopK65536, K65536)"):
        argv = ["profile", "--t", "3", "--flavor", "induced", "--budget", "10", leaf]
        assert _run(capsys, argv) == (2, "", "error: induced profiles are defined for loopless graphs\n")


def test_operator_trees_are_charged_before_building(capsys, monkeypatch):
    # every construction is sized from its tree (dsl.plan) and refused
    # before any graph or dense model is built, with the message that the
    # built route gave
    for t in (2, 3, 4, 5):
        iso_table(t)
    monkeypatch.setattr(graphs, "LabeledGraph", _refuse)
    assert _refuse_everywhere(monkeypatch, models.from_graph, "a graph was made a dense model")
    assert _refuse_everywhere(monkeypatch, models.model_union, "a union was built")
    capped = "construction has 131072 vertices, above the limit of 65536; use a step-model or spectral route instead"
    capped90000 = capped.replace("131072", "90000")
    capped80000 = capped.replace("131072", "80000")
    looped = "composition is defined over loopless outer graphs"
    profile = ["profile", "--t", "3", "--budget", "10"]
    for argv, message in (
        (profile + ["compose(K65536, K2)"], f"{capped} (at column 1)"),
        (profile + ["blowup(K65536, 2)"], f"{capped} (at column 1)"),
        (profile + ["complement(K65536)"], f"{math.comb(65536, 3)} subsets exceed the budget of 10"),
        (profile + ["union(K1000:1)"], f"{math.comb(1000, 3)} subsets exceed the budget of 10"),
        (profile + ["union(cayley2(10; 1):1, bernoulli(1/2):1)"],
         "1076890625 assignments exceed the budget of 10; consider monte_carlo_profile"),
        (profile + ["union(K65536:1)"], f"{math.comb(65536, 3)} subsets exceed the budget of 10"),
        # a lifted union is built as a graph, so it is capped, at its column
        (["profile", "--t", "2", "--budget", "10000000000", "union(K40000:1, K40000:1)"],
         f"{capped80000} (at column 1)"),
        (["nested-profile", "--t", "3", "--budget", "10", "compose(K200, K200)"],
         f"{math.comb(40000, 3)} subsets exceed the budget of 10"),
        # a tensor base is charged its factors' sum, as repetitive_of charges it
        (["nested-profile", "--t", "5", "--budget", "10", "tensor(paley(17), paley(13))"],
         f"{math.comb(17, 5) + math.comb(13, 5)} subsets and assignments of 2 tensor factors exceed the budget of 10"),
        (["limit", "--t", "4", "--quantum", "P4", "--nested", "blowup(K10000, 2)"],
         f"{math.comb(20000, 4)} subsets exceed the budget of 1000000000"),
        (["profile", "--t", "3", "--budget", "1000", "union(cayley2(11; 7):9/10)"],
         f"{math.comb(2048, 3)} subsets exceed the budget of 1000"),
        (["limit", "--t", "4", "--quantum", "K4", "--factors", "blowup(complement(cayley2(11; 4)), 23)"],
         f"{math.comb(47104, 4)} subsets exceed the budget of 1000000000"),
        # a looped nested base is refused from its plan, before the budget
        (["nested-profile", "--t", "3", "--budget", "100000000000000", "complement(K30000)"], looped),
        (["limit", "--t", "4", "--quantum", "P4", "--nested", "complement(K20000)"], looped),
        (["limit", "--t", "2", "--quantum", "K2", "--nested", "loopK30000"], looped),
        (["nested-profile", "--t", "3", "--budget", "1", "loopK3"], looped),
        # one default budget for every route: 10^9, in subsets, assignments
        # or samples, whatever the flavor
        (["profile", "--t", "3", "union(cayley2(10; 1):1, bernoulli(1/2):1)"],
         "1076890625 assignments exceed the budget of 1000000000; consider monte_carlo_profile"),
        (["profile", "--t", "2", "union(K65536:1)"], "2147450880 subsets exceed the budget of 1000000000"),
        (["profile", "--t", "4", "--flavor", "induced", "K400"], "1050739900 subsets exceed the budget of 1000000000"),
        (["profile", "--t", "4", "--flavor", "repetitive", "K400"],
         "1050739900 subsets exceed the budget of 1000000000"),
        # limit plans every --factors input and the --nested base, and
        # charges their sum as one product; one input keeps its own unit
        (["limit", "--t", "4", "--quantum", "K4", "--factors", "K330, K330, K330"],
         f"{3 * math.comb(330, 4)} subsets and assignments of 3 tensor factors exceed the budget of 1000000000"),
        (["limit", "--t", "4", "--quantum", "K4", "--factors", "K30, K30, K30", "--budget", "30000"],
         "82215 subsets and assignments of 3 tensor factors exceed the budget of 30000"),
        (["limit", "--t", "4", "--quantum", "K4", "--factors", "K30", "--nested", "K30", "--budget", "30000"],
         "54810 subsets and assignments of 2 tensor factors exceed the budget of 30000"),
        (["limit", "--t", "4", "--quantum", "P4", "--nested", "C5", "--budget", "1"],
         "10 subsets exceed the budget of 1"),
        # an exact tensor profiled from its factors is not capped; one that
        # is built, under another operator, is, at the tensor's column
        (profile + ["tensor(tensor(K300, K300), K2)"],
         "8910202 subsets and assignments of 3 tensor factors exceed the budget of 10"),
        (profile + ["compose(tensor(K300, K300), K2)"], f"{capped90000} (at column 9)"),
        (profile + ["complement(tensor(K300, K300))"], f"{capped90000} (at column 12)"),
    ):
        start = time.perf_counter()
        assert _run(capsys, argv) == (2, "", f"error: {message}\n"), argv
        assert time.perf_counter() - start < 1, argv


def test_every_budget_defaults_to_none_and_charge_decides():
    # no route carries its own default: None reaches charge, which reads
    # profiles.DEFAULT_BUDGET, so every route refuses the same cost
    import inspect
    import inducibility
    from inducibility import catalog, nesting, profiles, spectral

    functions = {getattr(inducibility, name) for name in inducibility.__all__}
    for module in (profiles, spectral, nesting, catalog):
        functions |= {f for name, f in vars(module).items() if not name.startswith("_")}
    budgeted = {f.__name__: inspect.signature(f).parameters["budget"].default
                for f in functions if inspect.isfunction(f) and "budget" in inspect.signature(f).parameters}
    assert {"induced_profile", "labeled_repetitive", "monte_carlo_profile", "model_spectrum", "stationary_profile",
            "transition_matrix", "repetitive_of", "spectrum_of", "induced_of", "reproduce_table", "density",
            "limit_density", "charge"} <= set(budgeted)
    assert all(default is None for default in budgeted.values()), budgeted
    profiles.charge(10 ** 9, "subsets")
    with pytest.raises(profiles.BudgetError, match="^1000000001 subsets exceed the budget of 1000000000$"):
        profiles.charge(10 ** 9 + 1, "subsets")


def test_estimate_and_convert_check_before_building(capsys, monkeypatch):
    # both commands plan the tree and run their own checks before anything
    # is built, with the messages that the built route gave
    iso_table(3)
    monkeypatch.setattr(graphs, "LabeledGraph", _refuse)
    assert _refuse_everywhere(monkeypatch, models.from_graph, "a graph was made a dense model")
    assert _refuse_everywhere(monkeypatch, models.model_union, "a union was built")
    capped = "construction has 90000 vertices, above the limit of 65536; use a step-model or spectral route instead"
    for argv, message in (
        (["estimate", "--t", "3", "--samples", "100000000000", "--budget", "10", "--seed", "1", "K65536"],
         "100000000000 samples exceed the budget of 10"),
        (["estimate", "--t", "9", "--samples", "10", "--seed", "1", "K65536"], "profile order must be in 2..5"),
        (["convert", "--encode", "K65536"], "graph6 support is limited to 62 vertices"),
        (["convert", "--encode", "union(K65536:1)"], "convert --encode needs a graph construction"),
        (["convert", "--encode", "loopK3"], "graph6 encodes loopless graphs only"),
        # an exact tensor that is built is capped, before it is built
        (["estimate", "--t", "3", "--samples", "10", "--seed", "1", "tensor(K300, K300)"], f"{capped} (at column 1)"),
        (["convert", "--encode", "tensor(K300, K300)"], f"{capped} (at column 1)"),
        # so is a lifted tensor with a model factor, built as a graph
        (["estimate", "--t", "3", "--samples", "10", "--seed", "1", "tensor(union(K300:1), K300)"],
         f"{capped} (at column 1)"),
        # and so is a lifted union
        (["estimate", "--t", "3", "--samples", "10", "--seed", "1", "union(K40000:1, K40000:1)"],
         f"{capped.replace('90000', '80000')} (at column 1)"),
        # a graph that stands for its step model is charged the model's size^2 entries
        (["estimate", "--t", "3", "--samples", "10", "--seed", "1", "union(K40000:1)"],
         "1600000000 model entries exceed the budget of 1000000000"),
        (["estimate", "--t", "3", "--samples", "10", "--budget", "10", "--seed", "1",
          "union(K20000:1, bernoulli(1/2):1)"], "400040001 model entries exceed the budget of 10"),
    ):
        start = time.perf_counter()
        assert _run(capsys, argv) == (2, "", f"error: {message}\n"), argv
        assert time.perf_counter() - start < 1, argv


def test_bad_input_that_reaches_builtin_errors_exits_two(capsys):
    # a float weight too large for a float, and nesting too deep to parse
    argv = ["profile", "--approx", "--t", "3", f"union(K2:{'9' * 401}, K3:1)"]
    assert _run(capsys, argv) == (2, "", "error: integer division result too large for a float\n")
    code, out, err = _run(capsys, ["profile", "--t", "3", "complement(" * 3000 + "K3" + ")" * 3000])
    assert (code, out) == (2, "") and err.startswith("error: maximum recursion depth exceeded")


def test_programming_errors_are_not_caught():
    # only the errors that bad input reaches exit 2; a bug is a traceback
    code = (
        "import inducibility.cli as cli\n"
        "def broken(args):\n    raise AttributeError('a bug')\n"
        "cli._RUNNERS['bounds'] = broken\n"
        "cli.main()\n"
    )
    result = subprocess.run([sys.executable, "-c", code, "bounds", "--t", "4"],
                            env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 1 and result.stdout == ""
    assert "Traceback" in result.stderr and result.stderr.endswith("AttributeError: a bug\n")


def test_tensor_of_a_large_graph_and_a_model_answers(capsys):
    # every slot of a sample is an independent fair coin, loops included:
    # K500 has none, so a collision also flips the coin of bernoulli(1/2)
    tensor = _run_json(capsys, ["profile", "--t", "3", "tensor(K500, bernoulli(1/2))"])
    coin = _run_json(capsys, ["profile", "--t", "3", "bernoulli(1/2)"])
    assert tensor["values"] == coin["values"]


def _refuse_everywhere(monkeypatch, original, what) -> int:
    """Patch every binding of `original` in the package to raise, a module
    attribute or an entry of a module's dict (dsl's table of operators);
    return how many there were."""
    def refuse(*args):
        raise AssertionError(what)

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "inducibility":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, refuse)
                patched += 1
            elif isinstance(value, dict):
                for key in [key for key, item in value.items() if item is original]:
                    monkeypatch.setitem(value, key, refuse)
                    patched += 1
    return patched


def test_exact_tensors_are_profiled_from_their_factors(capsys, monkeypatch):
    # each command prints the same with every builder of a product or of a
    # dense model refusing; tests/test_tensor_route.py checks the values
    # against the built products
    commands = [
        ["profile", "--t", "4", "--flavor", flavor, "tensor(C5, loopK2, tensor(bipartite(1/3), P3))"]
        for flavor in ("repetitive", "labeled", "spectral")
    ] + [
        ["profile", "--t", "4", "--flavor", "induced", "tensor(C5, loopK2, complement(P4))"],
        ["density", "--t", "4", "--quantum", "K4+A4", "tensor(M4, K4, K3, K3)"],
        ["density", "--t", "3", "--quantum", "P3", "tensor(K3, bernoulli(1/3))"],
        ["limit", "--t", "4", "--quantum", "K4+A4", "--factors", "tensor(M4, K4), tensor(K3, K3)"],
    ]
    before = [_run_json(capsys, argv) for argv in commands]
    assert _refuse_everywhere(monkeypatch, models.from_graph, "a graph was made a dense model")
    assert _refuse_everywhere(monkeypatch, models.model_tensor, "a tensor of models was built")
    assert _refuse_everywhere(monkeypatch, graphs.tensor, "a tensor of graphs was built")
    assert [_run_json(capsys, argv) for argv in commands] == before
    assert before[4]["values"] == before[6]["values"]
    assert (before[4]["values"][0]["num"], before[4]["values"][0]["den"]) == ("11411", "373248")


def test_nested_tensor_bases_are_profiled_from_their_factors(capsys, monkeypatch):
    # a nested base takes repetitive_of's route, so no exact tensor base is
    # built; headline-02 is left out, as its factor compose(tensor(K3, K3),
    # K2) is built whole like every compose
    commands = [
        ["nested-profile", "tensor(K3, K3)", "--t", "4"],
        ["limit", "--t", "4", "--quantum", "P4", "--nested", "tensor(K3, K3)"],
    ]
    before = [_run_json(capsys, argv) for argv in commands]
    assert _refuse_everywhere(monkeypatch, graphs.tensor, "a tensor of graphs was built") >= 3
    assert [_run_json(capsys, argv) for argv in commands] == before
    wanted = {f"headline-0{i}" for i in (1, 3, 4, 5, 6, 7)} | {"appendix5-17", "appendix5-18"}
    rows = [row for which in ("headline", "appendix5") for row in catalog_rows(which) if row.row_id in wanted]
    assert len(rows) == len(wanted) and all(run_row(row).passed for row in rows)


def test_a_tensor_base_past_the_subset_budget_answers():
    # tensor(paley(17), paley(13)) has C(221, 5) > 10^9 five-subsets, but
    # its factors are charged C(17, 5) + C(13, 5); a fresh process, so no
    # cache of an earlier test serves it
    result = subprocess.run(
        [sys.executable, "-m", "inducibility", "nested-profile", "--t", "5", "tensor(paley(17), paley(13))"],
        env=_src_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    values = json.loads(result.stdout)["values"]
    assert len(values) == 34 and sum(Fraction(int(v["num"]), int(v["den"])) for v in values) == 1


def test_expression_errors_read_plainly(capsys):
    # an unknown type name and a zero denominator are expression errors,
    # not the str of a KeyError or a ZeroDivisionError
    for argv, message in (
        (["density", "--t", "4", "--quantum", "K3", "C5"], "unknown type name 'K3' at order 4"),
        (["profile", "--t", "3", "union(K2:1/0)"], "zero denominator (at column 12)"),
        (["density", "--t", "3", "--quantum", "1/0*K3", "C5"], "bad quantum term '1/0*K3'"),
        (["estimate", "--t", "3", "--samples", "0", "--seed", "1", "C5"], "need at least one sample"),
        (["profile", "--t", "3", "Q9"], "unknown construction 'Q9' (at column 1)"),
        (["profile", "--t", "3", "blowup(K2, 0)"], "blowup count must be positive (at column 1)"),
        (["profile", "--t", "3", "kpart(1.5)"], "expected an integer (at column 7)"),
    ):
        assert _run(capsys, argv) == (2, "", f"error: {message}\n")


def test_nested_bases_above_graph6_order(capsys):
    # a nested base is not stored as graph6, which stops at 62 vertices
    payload = _run_json(capsys, ["nested-profile", "C70", "--t", "3"])
    assert (payload["values"][0]["type"], payload["values"][0]["num"], payload["values"][0]["den"]) == (
        "K3", "4", "112677")
    payload = _run_json(capsys, ["limit", "--t", "4", "--quantum", "P4", "--nested", "cayley2(6; 1)"])
    assert (payload["values"][0]["num"], payload["values"][0]["den"]) == ("160", "29127")


def test_budget_verdict_is_monotone_in_size(capsys):
    # a smaller graph is never refused where a larger one answers: both are
    # charged C(n, ell) subsets per order, far below the budget
    for expr in ("C21", "C22"):
        code, out, err = _run(capsys, ["profile", "--t", "4", "--budget", "10000", expr])
        assert code == 0, (expr, err)


def test_cache_round_trip(capsys, tmp_path):
    argv = ["profile", "--t", "3", "--cache", str(tmp_path), "C5"]
    code1, out1, err1 = _run(capsys, argv)
    files = list(tmp_path.glob("*.json"))
    assert code1 == 0 and [f.name for f in files] == [
        "e54f299903c0324cf1c06af70d6843f6b0a02320d65997d26ab19cf51c232e8f.json"]
    code2, out2, err2 = _run(capsys, argv)
    assert code2 == 0
    assert out1 == out2
    # format is presentation only: the cached payload feeds the table view
    code3, out3, err3 = _run(capsys, argv + ["--format", "table"])
    assert code3 == 0 and "K3" in out3 and not out3.startswith("{")
    assert len(list(tmp_path.glob("*.json"))) == 1
    # the budget stays out of the key, but a hit reports this run's budget
    code4, out4, err4 = _run(capsys, argv + ["--budget", "7"])
    assert code4 == 0 and json.loads(out4)["meta"]["budget"] == 7
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_key_ignores_budget_but_not_math(capsys, tmp_path):
    base = ["profile", "--t", "3", "--cache", str(tmp_path), "C5"]
    _run(capsys, base)
    assert len(list(tmp_path.glob("*.json"))) == 1
    _run(capsys, base + ["--budget", "99999999"])
    assert len(list(tmp_path.glob("*.json"))) == 1
    _run(capsys, ["profile", "--t", "4", "--cache", str(tmp_path), "C5"])
    assert len(list(tmp_path.glob("*.json"))) == 2
    # canonical printing collapses spelling differences
    _run(capsys, ["profile", "--t", "3", "--cache", str(tmp_path), "  C5  "])
    assert len(list(tmp_path.glob("*.json"))) == 2


def _key(argv) -> str:
    return cli._cache_key(cli.build_parser().parse_args(argv))


def test_cache_keys_without_load_are_pinned():
    assert _key(["profile", "--t", "3", "C5"]) == (
        "e54f299903c0324cf1c06af70d6843f6b0a02320d65997d26ab19cf51c232e8f")
    limit = ["limit", "--t", "4", "--quantum", "K4 + A4", "--factors", "M4, K4, K3, K3"]
    assert _key(limit) == "12e875da9ab3d71f3e13bb6082870d2f2aaeb875186b472293b3759942f93ee9"
    # spellings of one quantum target and one factor list share the key
    assert _key(["limit", "--t", "4", "--quantum", "K4+A4", "--factors", " M4,K4 ,K3,  K3"]) == _key(limit)
    assert _key(limit + ["--format", "table", "--budget", "5"]) == _key(limit)
    assert _key(limit + ["--approx"]) != _key(limit)
    assert _key(["limit", "--t", "4", "--quantum", "K4", "--factors", "M4, K4, K3, K3"]) != _key(limit)
    assert _key(["limit", "--t", "4", "--quantum", "K4 + A4", "--factors", "M4, K4, K3"]) != _key(limit)
    assert _key(["profile", "--t", "3", "--approx", "C5"]) != _key(["profile", "--t", "3", "C5"])
    # bounds, tables and convert ignore --approx, so it is not keyed there
    for argv in (["bounds", "--t", "5"], ["tables", "--which", "exoo4"], ["convert", "--encode", "C5"]):
        assert _key(argv + ["--approx"]) == _key(argv), argv
    # every operator and every leaf kind, in one canonical form
    every = ("union(blowup(C5, 2):0.25, compose(K2, M4, kpart(1, 2)):1, "
             "tensor(paley(5), cayley2(2; 0)):3/4, bernoulli(1/3):1, bipartite(1/2):2)")
    assert _key(["profile", "--t", "3", every]) == (
        "25caea527d388305ce717bd706f980e8364688fface99c7bbc5655b7c7c7889c")


def test_cache_follows_the_content_of_loaded_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "g.g6"
    argv = ["profile", "--t", "3", "--cache", "cache", 'load("g.g6")']
    k3 = {}
    for name in ("C5", "K5", "C5"):
        path.write_text(graph6_encode(build_named(name[0], [5])) + "\n", encoding="ascii")
        entry = _run_json(capsys, argv)["values"][0]
        k3[name] = (entry["type"], entry["num"], entry["den"])
    assert k3 == {"C5": ("K3", "0", "1"), "K5": ("K3", "12", "25")}
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_cache_key_and_graph_come_from_one_read(capsys, tmp_path, monkeypatch):
    # the file is rewritten after the key hashed it: the answer and the
    # entry stored under that key must both be of the bytes that were hashed
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "g.g6"
    c5, k5 = (graph6_encode(build_named(name, [5])) + "\n" for name in "CK")
    argv = ["profile", "--t", "3", "--cache", "cache", 'load("g.g6")']
    key = cli._cache_key

    def key_then_rewrite(args):
        out = key(args)
        path.write_text(k5, encoding="ascii")
        return out

    path.write_text(c5, encoding="ascii")
    monkeypatch.setattr(cli, "_cache_key", key_then_rewrite)
    assert _run_json(capsys, argv)["values"][0]["num"] == "0"
    monkeypatch.setattr(cli, "_cache_key", key)
    # K5 now, a miss; then C5 again, answered from the entry of the first run
    assert _run_json(capsys, argv)["values"][0]["num"] == "12"
    path.write_text(c5, encoding="ascii")
    entries = sorted((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 2
    assert _run_json(capsys, argv)["values"][0]["num"] == "0"
    assert sorted((tmp_path / "cache").glob("*.json")) == entries


@pytest.mark.parametrize(
    "entry", ["{", "[1]", '{"meta": {}}', '{"command": "profile:repetitive", "meta": {}}', '{"command": [1], "meta": {}}']
)
def test_unreadable_cache_entry_is_a_miss(capsys, tmp_path, entry):
    argv = ["profile", "--t", "3", "--cache", str(tmp_path), "C5"]
    expected = _run(capsys, argv[:3] + argv[5:])
    path = tmp_path / (_key(argv) + ".json")
    path.write_text(entry, encoding="utf-8")
    assert _run(capsys, argv) == expected
    # the entry was replaced by the payload, and now serves a hit
    assert json.loads(path.read_text(encoding="utf-8")) == json.loads(expected[1])
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert _run(capsys, argv) == expected


def test_table_layouts(capsys):
    code, out, err = _run(capsys, ["tables", "--which", "exoo4", "--format", "table"])
    assert code == 0
    assert out.splitlines()[:4] == [
        "row              status                 computed         expected",
        "-----------------------------------------------------------------",
        "exoo4-01         pass                        1/1                1",
        "exoo4-02         pass                        1/1                1",
    ]
    assert out.splitlines()[-1] == "exoo4-10         pass                     72/125           72/125"
    code, out, err = _run(capsys, ["convert", "--encode", "C5", "--format", "table"])
    assert out == "n = 5\ngraph6 = Dhc\nedges = 0-1 0-4 1-2 2-3 3-4\n"
    args = cli.build_parser().parse_args(["estimate", "--t", "3", "--samples", "1", "--seed", "3", "C5"])
    payload = cli._profile_payload(
        "estimate", 3, ("K3", "A3", "P3", "E3"), (0.0, 0.291, 0.48, 0.229), args, seed=3,
        stderr=(0.0, 0.01436, 0.0158, 0.01329),
    )
    assert cli._render_table(payload) == (
        "K3  0  (se 0)\nA3  0.291  (se 0.0144)\nP3  0.48  (se 0.0158)\nE3  0.229  (se 0.0133)"
    )
    code, out, err = _run(capsys, ["profile", "--t", "3", "--format", "table", "union(K2:1, K2:2)"])
    assert out == "K3  0/1  (~0)\nA3  5/12  (~0.416666667)\nP3  1/4  (~0.25)\nE3  1/3  (~0.333333333)\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_graphs_stay_graphs(capsys, monkeypatch):
    # graph sources never become a Fraction matrix: every binding of
    # from_graph and model_union refuses, graph-only commands still answer,
    # and a lifted union of graphs answers as the dense model it replaces did
    assert _refuse_everywhere(monkeypatch, models.from_graph, "a graph source was turned into a step model") >= 2
    assert _refuse_everywhere(monkeypatch, models.model_union, "a union of graphs was made a step model") >= 1
    for flavor in ("repetitive", "labeled", "spectral", "induced"):
        _run_json(capsys, ["profile", "--t", "4", "--flavor", flavor, "C5"])
    _run_json(capsys, ["density", "--t", "4", "--quantum", "K4+A4", "tensor(M4, K4, K3, K3)"])
    _run_json(capsys, ["limit", "--t", "4", "--quantum", "K4+A4", "--factors", "M4, K4, K3, K3"])
    _run_json(capsys, ["limit", "--t", "4", "--quantum", "P4", "--nested", "tensor(K3, K3)"])
    assert all(r.passed for r in reproduce_table("headline"))
    for argv, values in (
        (["profile", "--t", "4", "union(K2:1, K2:1)"],
         "0 15/64 0 1/16 3/32 3/64 0 3/8 0 3/16 0"),
        (["profile", "--t", "3", "--flavor", "labeled", "union(loopK1:1, A1:1)"], "1/8 1/2 0 1/8"),
        (["profile", "--t", "4", "tensor(union(K2:1, K2:1), K3)"],
         "1/48 29/1728 1/18 55/432 5/288 17/192 11/72 1/12 31/144 1/24 13/72"),
        (["limit", "--t", "4", "--quantum", "K4+A4", "--factors", "union(K2:1, K2:1), K4"], "27/512"),
        # a complement flips the loops of a union whose parts' loops differ
        (["profile", "--t", "3", "--flavor", "labeled", "complement(union(loopK1:1, A1:1))"], "1/2 1/8 1/8 0"),
        (["profile", "--t", "4", "union(complement(union(K2:2, loopK1:1)):3, C5:5)"],
         "5/2048 393/2048 21/512 21/512 183/2048 51/2048 3/512 135/512 3/1024 315/1024 15/512"),
    ):
        payload = _run_json(capsys, argv)
        assert [Fraction(int(v["num"]), int(v["den"])) for v in payload["values"]] == [
            Fraction(v) for v in values.split()], argv
    # a union under a complement or inside a union stays a graph too, and so
    # does one with a random part at 0 or 1; as a dense model each of these
    # took one to several seconds
    for expr, twin in (("complement(union(K2000:1))", "complement(K2000)"),
                       ("union(union(K1000:1, K1000:1):1)", "union(K1000:1, K1000:1)"),
                       ("union(K2000:1, bernoulli(1):1/2000)", "union(K2000:1, loopK1:1/2000)"),
                       ("complement(union(K1000:1, bipartite(0):1/500))", "complement(union(K1000:1, A2:1/500))")):
        start = time.perf_counter()
        out = _run(capsys, ["profile", "--t", "2", expr])
        assert time.perf_counter() - start < 1, expr
        assert out == _run(capsys, ["profile", "--t", "2", twin]), expr


def test_a_lifted_union_of_graphs_is_profiled_as_their_disjoint_union(capsys):
    # one part of weight 1 is the part itself; as a dense 2000-type model
    # this took about 4 s
    start = time.perf_counter()
    union = _run(capsys, ["profile", "--t", "2", "union(K2000:1)"])
    assert time.perf_counter() - start < 1
    assert union == _run(capsys, ["profile", "--t", "2", "K2000"])


def test_lifted_estimates_sample_the_model_of_the_built_graph(capsys, monkeypatch):
    # a lifted tree builds a graph and estimate samples from_graph of it: the
    # dense model that model_union, model_complement and model_tensor built,
    # so the draws and the values are the same
    for original in (models.model_union, models.model_complement, models.model_tensor):
        assert _refuse_everywhere(monkeypatch, original, "a dense model was built")
    union = ((0.009, 0.002111752826445368), (0.4375, 0.01109264959331178),
             (0.14, 0.00775886589650833), (0.4135, 0.011011760758389187))
    complemented = tuple(union[i] for i in (1, 0, 3, 2))  # K3 and A3, P3 and E3 trade places
    mixed = ((0.101, 0.006737915107805975), (0.16, 0.008197560612767678),
             (0.353, 0.010686229456641851), (0.386, 0.01088586239119345))
    for expr, pinned in (("union(K3:1, C5:5/3)", union), ("complement(union(K3:1, C5:5/3))", complemented),
                         ("tensor(union(K2:1, bernoulli(1):1/2), C5)", mixed)):
        payload = _run_json(capsys, ["estimate", "--t", "3", "--samples", "2000", "--seed", "1", expr])
        assert tuple((v["approx"], v["stderr"]) for v in payload["values"]) == pinned, expr


def test_xor_invariant_estimates_keep_their_bytes(capsys):
    # a Cayley graph is sampled from its row 0's slot tables, with the draws
    # and the output bytes of its packed rows; the second is looped
    for argv, digest, key, approx in (
        (["estimate", "--t", "4", "--samples", "100000", "--seed", "1", "cayley2(10; 1, 2, 5, 6, 9, 10)"],
         "a8116824dfbb8584bc1ae29ab627e6f5a5a54310ae03c38de32e8182acb2d6d8", "K4", 0.01845),
        (["estimate", "--t", "5", "--samples", "20000", "--seed", "3", "cayley2(6; 0, 1, 2)"],
         "c29a05bff6f50891da13eece6392cbeac0e25a4d0ec2ae1d687eef1306488097", "D_?", 0.063),
    ):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        assert {v["type"]: v["approx"] for v in json.loads(out)["values"]}[key] == approx
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv[-1]


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_broken_pipe_exits_without_traceback():
    # the reader is gone before the first write, as when `| head` exits early
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "inducibility", "bounds", "--t", "4"],
            env=_src_env(), cwd=ROOT, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_BROKEN_PIPE
    assert result.stderr == b""


def test_cli_import_leaves_heavy_modules_out(tmp_path):
    # value classes come from inducibility.frozen, not dataclasses (which
    # brings inspect); only Monte Carlo needs numpy, and each imports it on
    # first use.  The --cache key takes the interpreter's builtin sha256, so
    # a cache hit loads neither hashlib nor OpenSSL's _hashlib
    argv = ["profile", "--t", "3", "--cache", str(tmp_path), "C5"]
    assert run_command(argv) == 0
    code = ("import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "import inducibility.cli\n"
            "imported = set(sys.modules) - before\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert inducibility.cli.run_command({argv!r}) == 0\n"
            "print(*sorted(imported))\n"
            "print(*sorted(set(sys.modules) - before))\n")
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    imported, hit = result.stdout.splitlines()
    added = set(imported.split())
    assert "inducibility.frozen" in added
    assert not added & {"dataclasses", "inspect", "numpy", "hashlib"}
    assert not set(hit.split()) & {"numpy", "hashlib", "_hashlib"}


def test_a_blas_thread_count_that_is_set_is_kept(capsys, monkeypatch):
    # numpy's OpenBLAS starts no idle worker thread at import: no command
    # calls BLAS, so run_command asks for one thread unless told otherwise
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    _run_json(capsys, ["profile", "--t", "3", "C5"])
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    _run_json(capsys, ["profile", "--t", "3", "C5"])
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_benchmark_oracle_checks_import():
    # bench/check.py imports names from the package at load; a name deleted
    # here would fail every oracle of a benchmark run instead of this test
    spec = importlib.util.spec_from_file_location("bench_check", ROOT / "bench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.ORACLES and callable(module.main)


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "C5", "--t", "3", "--flavor", "labeled"],
        ["density", "--t", "4", "--quantum", "C4", "union(K2:1, K2:1)"],
        ["limit", "--t", "4", "--quantum", "P4", "--factors", "K4", "--nested", "tensor(K3, K3)"],
        ["nested-profile", "--t", "4", "tensor(K3, K3)"],
    ],
)
def test_benchmark_tracing_runs(argv, tmp_path):
    # bench/traced.py wraps functions by name; a rename or an argument it
    # cannot read would break every traced benchmark run
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(spans), *argv],
        env=_src_env(), cwd=ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(spans.read_text())["spans"]


# patches the expected value of exoo4's first row, so that the table fails
_FAILING_ROW = (
    "import inducibility.catalog as catalog\n"
    "rows = catalog._ROWS['exoo4']\n"
    "fields = {name: getattr(rows[0], name) for name in catalog.CatalogRow.__annotations__}\n"
    "catalog._ROWS['exoo4'] = (catalog.CatalogRow(**{**fields, 'expected': '1/2'}),) + rows[1:]\n"
)


@pytest.mark.parametrize(
    "argv, code, cached, setup",
    [
        (["profile", "C5", "--t", "3"], 0, True, ""),
        (["profile", "K(", "--t", "3"], 2, False, ""),  # an evaluation error
        (["profile", "C5"], 2, False, ""),  # a usage error
        (["bogus"], 2, False, ""),
        (["--version"], 0, False, ""),
        (["profile", "-h"], 0, False, ""),
        (["tables", "--which", "exoo4"], 1, False, _FAILING_ROW),
    ],
)
def test_a_fresh_command_ends_as_run_command_returns(argv, code, cached, setup, capsys, monkeypatch, tmp_path):
    # main ends the process by os._exit when run_command returns and by
    # sys.exit when it raises; a fresh process prints, exits and caches
    # what run_command gives in process, a --cache miss and then a hit
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    if setup:
        monkeypatch.setitem(catalog._ROWS, "exoo4", catalog._ROWS["exoo4"])  # restored after the test
        exec(setup, {})
        fresh = [sys.executable, "-c", setup + "import inducibility.cli as cli\ncli.main()\n"]
    else:
        fresh = [sys.executable, "-m", "inducibility"]
    results = {}
    for side in ("in process", "fresh"):
        cache = tmp_path / side
        runs = []
        for _ in range(2 if cached else 1):
            full = argv + (["--cache", str(cache)] if cached else [])
            if side == "fresh":
                result = subprocess.run(fresh + full, env=dict(_src_env(), COLUMNS="80"), cwd=ROOT,
                                        capture_output=True, text=True, timeout=60)
                runs.append((result.returncode, result.stdout, result.stderr))
            else:
                runs.append(_run(capsys, full))
        files = sorted((p.name, p.read_bytes()) for p in cache.iterdir()) if cached else None
        results[side] = runs, files
    assert results["fresh"] == results["in process"]
    runs, files = results["fresh"]
    assert {run[0] for run in runs} == {code}
    assert not cached or (len(files) == 1 and runs[0] == runs[1])


def test_main_skips_teardown_unless_a_profiler_watches():
    # an atexit hook runs on sys.exit, which run_command's usage errors take,
    # and not on os._exit; cProfile prints its statistics at teardown
    code = ("import atexit, inducibility.cli as cli\n"
            "atexit.register(print, 'teardown')\n"
            "cli.main()\n")
    env = _src_env()
    for argv, teardown in ((["bounds", "--t", "4"], False), (["bogus"], True)):
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=ROOT,
                                capture_output=True, text=True, timeout=60)
        assert result.stdout.endswith("teardown\n") == teardown, argv
    result = subprocess.run([sys.executable, "-m", "cProfile", "-m", "inducibility", "bounds", "--t", "4"],
                            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith('{\n  "command": "bounds",') and " function calls " in result.stdout


def _help(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: inducibility ")
    return captured


def test_one_subcommand_parses_as_all_of_them(capsys, monkeypatch, tmp_path):
    # run_command builds only the subparser argv[0] names; its help and
    # the namespace it parses are those of the parser of all eight
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks the module up
    try:
        spec.loader.exec_module(workloads)
        inputs = workloads.write_inputs(1, str(tmp_path))
        argvs = [list(cmd.args) for make, _ in workloads.WORKLOADS.values() for cmd in make(inputs, 1).commands]
    finally:
        del sys.modules[spec.name]
    readme = (ROOT / "README.md").read_text().splitlines()
    argvs += [shlex.split(line, comments=True)[2:] for line in readme if line.startswith("$ inducibility ")]
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser()
    assert {argv[0] for argv in argvs} == set(cli._SUBCOMMANDS) == set(cli._RUNNERS)
    for name in cli._SUBCOMMANDS:
        one = cli.build_parser(name)
        assert _help(capsys, one, [name, "-h"]) == _help(capsys, full, [name, "-h"])
        assert one.format_usage() == full.format_usage()
    for argv in argvs:
        assert cli.build_parser(argv[0]).parse_args(argv) == full.parse_args(argv), argv


def test_usage_errors_without_a_command_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: inducibility [-h] [--version]\n"
             "                    {profile,density,nested-profile,limit,estimate,bounds,tables,convert}\n"
             "                    ...\n")
    assert _run(capsys, []) == (2, "", usage + "inducibility: error: the following arguments are required: command\n")
    code, out, err = _run(capsys, ["bogus"])
    assert (code, out) == (2, "") and err.startswith(usage + "inducibility: error: argument command: "
                                                     "invalid choice: 'bogus' (choose from ")
    assert all(name in err.splitlines()[-1] for name in cli._SUBCOMMANDS)
