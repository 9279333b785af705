"""The package namespace: every public name is imported from its submodule
on first use, so `import inducibility` itself loads no submodule.  Each
test runs in a fresh interpreter, since this process has already imported
the package and its submodules."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = set("""
    BoundReport BudgetError CanonicalCode CatalogRow ClosedFormBounds DegenerateStationaryError EstimatedProfile
    ExprError IsoEntry IsoTable LabeledGraph LabeledProfile NestedProfile ProfileVector QuantumGraph SpectralProfile
    StepModel TransitionMatrix bernoulli bipartite_random blow_up build_named canonical_form catalog_rows
    closed_form_bounds complement compose compose_profile convolve disjoint_union evaluate fourier from_edges
    from_graph graph6_decode graph6_encode graph_from_mask induced_from_repetitive induced_of induced_profile
    inverse_fourier is_twin_free iso_table iterate_profile labeled_repetitive labeled_repetitive_profile mask_of
    model_complement model_spectrum model_tensor model_union monte_carlo_monochromatic monte_carlo_profile
    named_looped named_order nested_spectral parse_expr parse_factors parse_quantum print_expr
    product_limit_density quantum_density quantum_functional repetitive_from_induced repetitive_of
    repetitive_profile reproduce_table run_row solve_rational_kernel spectral_product stationary_profile
    support_graph tensor transition_matrix __version__
""".split())


def _run(code: str):
    """Run code in a fresh interpreter on ./src; return its stdout as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_loads_no_submodule():
    loaded = _run("import json, sys, inducibility; print(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if name.startswith("inducibility")] == ["inducibility"]
    assert "fractions" not in loaded


def test_every_public_name_is_its_submodule_object():
    mismatched = _run(
        "import importlib, json, inducibility\n"
        "bad = [name for name in inducibility.__all__ if name != '__version__' and getattr(inducibility, name)\n"
        "       is not getattr(importlib.import_module(getattr(inducibility, name).__module__), name)]\n"
        "print(json.dumps(bad))"
    )
    assert mismatched == []


def test_public_names_are_pinned():
    names = _run("import json, inducibility; print(json.dumps(inducibility.__all__))")
    assert len(names) == len(PUBLIC) == 75
    assert set(names) == PUBLIC


def test_dir_lists_the_public_names():
    listed = _run("import json, inducibility; print(json.dumps(dir(inducibility)))")
    assert "__all__" in listed
    assert PUBLIC <= set(listed)


def test_unknown_name_raises_attribute_error():
    message = _run(
        "import json, inducibility\n"
        "try:\n"
        "    inducibility.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert message == "module 'inducibility' has no attribute 'no_such_name'"


def test_star_import_binds_every_name():
    missing = _run(
        "import json\n"
        "from inducibility import *\n"
        "import inducibility\n"
        "print(json.dumps([name for name in inducibility.__all__ if name not in globals()]))"
    )
    assert missing == []


def test_importing_the_main_module_runs_no_command():
    # `python -m inducibility` runs the command line; an import of the
    # module must not, since main ends the process that calls it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", "import inducibility.__main__; print('alive')"],
                            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "alive\n", "")
