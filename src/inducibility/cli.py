"""Command-line interface.

Subcommands compute profiles, densities, nested fixed points, tensor-limit
densities, Monte Carlo estimates, closed-form bounds, catalog tables, and
graph6 conversions from construction expressions.  Output is JSON by
default (byte-identical across identical invocations) or an aligned text
table; results can be cached in a content-addressed directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import (
    TABLES,
    closed_form_bounds,
    density,
    induced_of,
    limit_density,
    nested_profile,
    repetitive_of,
    reproduce_table,
    spectrum_of,
)
from .dsl import LOADED, denote, loaded_paths, parse_expr, parse_factors, parse_quantum, plan, print_expr
from .graphs import check_graph6, graph6_decode, graph6_encode
from .nesting import DegenerateStationaryError
from .profiles import BudgetError, charge, charge_samples, iso_table, monte_carlo_profile

_FLAVORS = ("induced", "repetitive", "labeled", "spectral")
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer whose reader left


def _natural(text: str) -> int:
    """A --budget or --seed value: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


_T = ("--t", {"type": int, "required": True})
_QUANTUM = ("--quantum", {"required": True})
_EXPR = ("expr", {})
# each subcommand's help line and arguments; a list is one required choice among its flags
_SUBCOMMANDS = {
    "profile": ("profile of a construction", (_T, ("--flavor", {"choices": _FLAVORS, "default": "repetitive"}),
                                              _EXPR)),
    "density": ("density of a quantum target", (_T, _QUANTUM, _EXPR)),
    "nested-profile": ("stationary nested profile", (_T, _EXPR)),
    "limit": ("tensor-limit density", (_T, _QUANTUM, ("--factors", {"default": ""}), ("--nested", {"default": ""}))),
    "estimate": ("Monte Carlo profile", (_T, ("--samples", {"type": int, "required": True}),
                                         ("--seed", {"type": _natural, "required": True}), _EXPR)),
    "bounds": ("closed-form bounds", (_T,)),
    "tables": ("reproduce a result table", (("--which", {"choices": TABLES, "required": True}),)),
    "convert": ("graph6 conversion", (["--graph6", "--encode"],)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names one.

    A command line names its subcommand first, so `build_parser(argv[0])`
    parses it as the full parser would, with the same help and error texts.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--cache", metavar="DIR", default=None)
    common.add_argument("--budget", type=_natural, default=None)
    common.add_argument("--approx", action="store_true")

    parser = argparse.ArgumentParser(
        prog="inducibility",
        description="Exact induced-subgraph densities of graph constructions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    # a usage line names all eight, as the default metavar of the full parser does
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag in argument:
                    group.add_argument(flag)
            else:
                p.add_argument(argument[0], **argument[1])
    return parser


def _value_entry(name: str, value, stderr=None) -> dict:
    if isinstance(value, float):
        entry = {"type": name, "num": None, "den": None, "approx": value}
    else:
        entry = {
            "type": name,
            "num": str(value.numerator),
            "den": str(value.denominator),
            "approx": float(value),
        }
    if stderr is not None:
        entry["stderr"] = stderr
    return entry


def _meta(args, seed=None) -> dict:
    meta = {"version": __version__, "budget": args.budget}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _profile_payload(command, t, names, values, args, seed=None, stderr=None):
    errors = stderr or (None,) * len(names)
    entries = [_value_entry(name, value, err) for name, value, err in zip(names, values, errors)]
    return {"command": command, "t": t, "basis": list(names), "values": entries, "meta": _meta(args, seed)}


def _run_profile(args) -> dict:
    node = parse_expr(args.expr)
    if args.flavor == "induced":
        values = induced_of(node, args.t, args.approx, budget=args.budget).values
    elif args.flavor == "spectral":
        values = spectrum_of(node, args.t, args.approx, budget=args.budget).type_values()
    else:
        lab = repetitive_of(node, args.t, args.approx, budget=args.budget)
        values = lab.to_unlabeled().values if args.flavor == "repetitive" else lab.type_values()
    names = iso_table(args.t).type_names()
    return _profile_payload(f"profile:{args.flavor}", args.t, names, values, args)


def _run_density(args) -> dict:
    Q = parse_quantum(args.quantum, args.t)
    value = density(Q, args.expr, args.approx, budget=args.budget)
    return _profile_payload("density", args.t, (Q.describe(),), (value,), args)


def _run_nested_profile(args) -> dict:
    values = nested_profile(args.expr, args.t, args.approx, budget=args.budget).values
    names = iso_table(args.t).type_names()
    return _profile_payload("nested-profile", args.t, names, values, args)


def _run_limit(args) -> dict:
    if not args.factors and not args.nested:
        raise ValueError("limit needs --factors, --nested, or both")
    Q = parse_quantum(args.quantum, args.t)
    value = limit_density(Q, args.factors, args.nested, args.approx, budget=args.budget)
    return _profile_payload("limit", args.t, (Q.describe(),), (value,), args)


def _run_estimate(args) -> dict:
    p = plan(parse_expr(args.expr), args.approx)
    names = iso_table(args.t).type_names()  # refuses an order outside 2..5
    charge_samples(args.samples, budget=args.budget)
    if p.looped is None:  # sampled from a dense step model of size^2 entries
        charge(p.size ** 2, "model entries", args.budget)
    est = monte_carlo_profile(denote(p), args.t, args.samples, args.seed, budget=args.budget)
    return _profile_payload(
        "estimate", args.t, names, est.values, args, seed=args.seed, stderr=est.stderr
    )


def _run_bounds(args) -> dict:
    bounds = closed_form_bounds(args.t)
    names = tuple(name for name, _ in bounds.named())
    values = tuple(value for _, value in bounds.named())
    return _profile_payload("bounds", args.t, names, values, args)


def _run_tables(args) -> dict:
    rows = [
        {
            "row": r.row_id,
            "t": r.row.t,
            "target": r.row.describe_target(),
            "construction": r.row.describe(),
            "expected": r.row.expected,
            "computed": r.computed
            if isinstance(r.computed, float)
            else f"{r.computed.numerator}/{r.computed.denominator}",
            "comparison": r.row.comparison,
            "passed": r.passed,
        }
        for r in reproduce_table(args.which, budget=args.budget)
    ]
    return {"command": "tables", "which": args.which, "rows": rows, "meta": _meta(args)}


def _run_convert(args) -> dict:
    if args.graph6 is not None:
        g = graph6_decode(args.graph6)
        text = args.graph6
    else:
        n, looped, _, build, *_ = plan(parse_expr(args.encode), args.approx)
        if looped is None:
            raise ValueError("convert --encode needs a graph construction")
        check_graph6(n, looped)
        g = build()
        text = graph6_encode(g)
    return {
        "command": "convert",
        "n": g.n,
        "graph6": text,
        "edges": [list(e) for e in g.edges()],
        "meta": _meta(args),
    }


_RUNNERS = {
    "profile": _run_profile,
    "density": _run_density,
    "nested-profile": _run_nested_profile,
    "limit": _run_limit,
    "estimate": _run_estimate,
    "bounds": _run_bounds,
    "tables": _run_tables,
    "convert": _run_convert,
}


def _cache_key(args) -> str:
    """Content key over command, mathematical parameters, and version.

    Expressions enter in canonical printed form, and every file they load
    by the sha256 of its bytes, which LOADED keeps to build the graph from.
    The output format and the budget do not change the result: not keyed.
    """
    try:  # the interpreter's builtin sha256: hashlib would load OpenSSL for a few hundred bytes
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.11 and earlier
        except ImportError:  # an interpreter built without them
            from hashlib import sha256
    parts = [f"version={__version__}", f"command={args.command}"]
    for name in ("t", "flavor", "samples", "seed", "which", "graph6"):
        if hasattr(args, name) and getattr(args, name) is not None:
            parts.append(f"{name}={getattr(args, name)}")
    if args.approx and args.command not in ("bounds", "tables", "convert"):  # which ignore it
        parts.append("approx=1")
    if getattr(args, "quantum", None):
        parts.append(f"quantum={parse_quantum(args.quantum, args.t).describe()}")
    loaded = []
    for name in ("expr", "encode", "nested", "factors"):
        text = getattr(args, name, None)
        if text:
            nodes = parse_factors(text) if name == "factors" else [parse_expr(text)]
            parts.append(f"{name}={','.join(print_expr(node) for node in nodes)}")
            loaded += [path for node in nodes for path in loaded_paths(node)]
    for path in loaded:
        LOADED[path] = Path(path).read_bytes()
        parts.append(f"load={sha256(LOADED[path]).hexdigest()}")
    blob = "\n".join(parts).encode()
    return sha256(blob).hexdigest()


# the keys of each command's payload; every other command writes a profile
_PAYLOAD_KEYS = {
    "tables": {"command", "which", "rows", "meta"},
    "convert": {"command", "n", "graph6", "edges", "meta"},
}


def _cache_load(directory: str, key: str):
    """The cached payload, or None for a missing or unreadable entry or one
    without the keys its command writes."""
    try:
        payload = json.loads(Path(directory, key + ".json").read_bytes())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    keys = _PAYLOAD_KEYS.get(str(payload.get("command")), {"command", "t", "basis", "values", "meta"})
    return payload if set(payload) == keys and isinstance(payload["meta"], dict) else None


def _cache_store(directory: str, key: str, text: str) -> None:
    import tempfile
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _render_table(payload: dict) -> str:
    lines = []
    if payload["command"] == "tables":
        header = f"{'row':<16} {'status':<6} {'computed':>24} {'expected':>16}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in payload["rows"]:
            status = "pass" if row["passed"] else "FAIL"
            lines.append(
                f"{row['row']:<16} {status:<6} {str(row['computed']):>24} {row['expected']:>16}"
            )
    elif payload["command"] == "convert":
        lines.append(f"n = {payload['n']}")
        lines.append(f"graph6 = {payload['graph6']}")
        lines.append("edges = " + " ".join(f"{u}-{v}" for u, v in payload["edges"]))
    else:
        width = max((len(v["type"]) for v in payload["values"]), default=4)
        for v in payload["values"]:
            if v["num"] is None:
                text = f"{v['approx']:.9g}"
                if "stderr" in v:
                    text += f"  (se {v['stderr']:.3g})"
            else:
                text = f"{v['num']}/{v['den']}  (~{v['approx']:.9g})"
            lines.append(f"{v['type']:<{width}}  {text}")
    return "\n".join(lines)


def run_command(argv) -> int:
    # numpy's OpenBLAS would start an idle worker thread at import; no command calls BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        payload = key = text = None
        if args.cache:
            key = _cache_key(args)
            payload = _cache_load(args.cache, key)
            if payload is not None:
                # the budget stays out of the key; report the one of this run
                payload["meta"]["budget"] = args.budget
        if payload is None:
            payload = _RUNNERS[args.command](args)
            if args.cache:
                text = _render_json(payload)  # the cached JSON, printed as it is
                _cache_store(args.cache, key, text)
    # raised on purpose, or reached by bad input (a float overflow, deep nesting); others are bugs
    except (ValueError, ArithmeticError, RecursionError, BudgetError, DegenerateStationaryError, OSError,
            MemoryError) as exc:
        # some exceptions carry no message, a bare MemoryError() among them
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    finally:
        LOADED.clear()
    text = (text or _render_json(payload)) if args.format == "json" else _render_table(payload)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    if payload["command"] == "tables" and not all(r["passed"] for r in payload["rows"]):
        return 1
    return 0


def main() -> None:
    """Run the command line in sys.argv and end the process with its exit code.

    Once stdout and stderr are flushed, os._exit skips the interpreter's
    teardown. A traced or profiled process (coverage, pdb, cProfile), a
    failed flush, and an exception from run_command take sys.exit instead.
    To run a command in process and go on, call run_command.
    """
    code = run_command(sys.argv[1:])
    monitoring = getattr(sys, "monitoring", None)  # which cProfile uses from CPython 3.12
    if not (sys.gettrace() or sys.getprofile() or monitoring and any(map(monitoring.get_tool, range(6)))):
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError, AttributeError):  # a closed or missing stream
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
