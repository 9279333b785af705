"""Run one CLI command with spans around the calls into each module.

    PYTHONPATH=src python3 bench/traced.py SPANS.json ARGV...

Times `import inducibility`, wraps the functions in TRACED at every module
binding site (a name imported into another module is a separate binding),
runs `inducibility.cli.run_command(ARGV)` in this fresh process so the
`lru_cache`s start cold, and writes the spans, kept in memory until then,
to SPANS.json.  Nothing inside the package changes.
"""

from __future__ import annotations

import json
import math
import sys
import time

# module.function -> work count computed from the arguments, or None
TRACED = {
    "cli.run_command": None,
    "dsl.parse_expr": None,
    "dsl.evaluate": None,
    "graphs.build_named": None,
    "graphs.tensor": None,
    "graphs.compose": None,
    "graphs.complement": None,
    "graphs.blow_up": None,
    "graphs.graph6_decode": None,
    "models.from_graph": lambda G, *a, **k: G.n * G.n,
    "masks.orbit_index": None,
    "masks.partition_tables": None,
    "profiles.iso_table": None,
    "profiles.induced_profile": lambda G, t, *a, **k: math.comb(G.n, t),
    "profiles.labeled_repetitive_profile": lambda M, t, *a, **k: M.k ** t,
    "profiles.monte_carlo_profile": lambda source, t, samples, *a, **k: samples,
    "nesting.transition_matrix": None,
    "nesting.compose_profile": None,
    "nesting.stationary_profile": None,
    "linalg.solve_rational_kernel": None,
    "spectral.model_spectrum": None,
    "spectral.product_limit_density": None,
    "catalog.run_row": None,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work]
        self.stack = []

    def wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, work(*args, **kwargs) if work else 0]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced


def install(tracer: Tracer) -> dict:
    """Replace every binding of a traced function in the package's modules;
    return the originals by name."""
    modules = [mod for name, mod in sys.modules.items() if name.startswith("inducibility")]
    originals = {}
    for qualified in TRACED:
        module, func = qualified.split(".")
        originals[qualified] = getattr(sys.modules["inducibility." + module], func)
    wrappers = {id(fn): tracer.wrap(q, fn, TRACED[q]) for q, fn in originals.items()}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
    return originals


def main(out_path: str, argv: list) -> int:
    start = time.perf_counter()
    import inducibility.cli  # noqa: F401  (timed: the import is what users pay)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    originals = install(tracer)
    try:
        code = sys.modules["inducibility.cli"].run_command(argv)
    except SystemExit as exc:  # argparse reports usage errors through exit
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    info = originals["nesting.transition_matrix"].cache_info()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_s": import_s,
                "spans": tracer.spans,
                "transition_matrix_cache": [info.hits, info.misses],
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
