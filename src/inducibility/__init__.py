"""Exact induced-subgraph densities of graph constructions and their
blow-up limits: profiles of orders 2 through 5, step models, spectral
transforms, nested-composition fixed points, and a curated result catalog.

The public names below are imported from their submodules on first use
(PEP 562), so `import inducibility` loads no submodule and
`from inducibility import build_named` loads only what `graphs` needs.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_EXPORTS = {
    "graphs": """CanonicalCode LabeledGraph blow_up build_named canonical_form complement compose
        disjoint_union from_edges graph6_decode graph6_encode graph_from_mask is_twin_free mask_of
        named_looped named_order tensor""",
    "models": "StepModel bernoulli bipartite_random from_graph model_complement model_tensor model_union support_graph",
    "profiles": """BudgetError EstimatedProfile IsoEntry IsoTable LabeledProfile ProfileVector QuantumGraph
        induced_from_repetitive induced_profile iso_table labeled_repetitive labeled_repetitive_profile
        monte_carlo_monochromatic monte_carlo_profile quantum_density repetitive_from_induced
        repetitive_profile""",
    "spectral": """SpectralProfile convolve fourier inverse_fourier model_spectrum product_limit_density
        quantum_functional spectral_product""",
    "linalg": "solve_rational_kernel",
    "nesting": """DegenerateStationaryError NestedProfile TransitionMatrix compose_profile iterate_profile
        nested_spectral stationary_profile transition_matrix""",
    "catalog": """BoundReport CatalogRow ClosedFormBounds catalog_rows closed_form_bounds induced_of
        repetitive_of reproduce_table run_row""",
    "dsl": "ExprError evaluate parse_expr parse_factors parse_quantum print_expr",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    """Import a public name's submodule on first use and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("." + module, __name__), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF))
