"""Repository benchmark: cold, fresh-process CLI workloads.

    python3 bench/run.py --workload catalog|enumerate|cli|all --seed N
                         --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each workload is a list of `inducibility` commands run one at a time from
this process: a closed loop with one client.  Every command is a fresh
interpreter, so start-up, import and the cold `lru_cache`s are paid as a
CLI user pays them.  A pass runs the commands cold, each against an empty
--cache directory, then repeats the cached ones, which must be answered
from the cache.  Inputs come from --seed only (bench/workloads.py); every
output is checked: exit codes, pinned values, byte-identical payloads,
the cache writes, and the oracle checks of bench/check.py.

With --trace 0 the run repeats whole batches of passes until --seconds
have passed and reports the end-to-end metrics.  With --trace 1 it
alternates an untraced and a traced batch (bench/traced.py) and reports
the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it is a JSON report with the environment,
every metric (bounded or not), the per-command timings and the tail
percentile.  Stdlib only; the package is run from ./src of the checkout
this file sits in.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUPS = 7               # set-ups per run; setup_s is their median
RUN_DEADLINE_S = 150.0   # every command ends before this, so the run exits within 180 s
COMMAND_TIMEOUT_S = 120.0
HELPER_TIMEOUT_S = 20.0

# the end-to-end metrics of BENCHMARK.json, which bound regressions
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# printed and reported but not bounded: on the tuning machine their
# run-to-run spread came close to or above the largest bound allowed
REPORTED = {"cmd_p50_s": "s", "cmd_tail_s": "s", "cached_cmd_p50_s": "s", "failed_ratio": "1"}

_GRAPH_BUILDERS = ("graphs.build_named", "graphs.tensor", "graphs.compose", "graphs.complement",
                   "graphs.blow_up", "graphs.graph6_decode")
_TABLES = ("masks.orbit_index", "masks.partition_tables", "profiles.iso_table")

# metric, unit, how it is computed from the spans, the span names it reads
PER_LAYER = (
    ("init.import.s", "s", "import", ()),
    ("cli.run_command.self_s", "s", "self", ("cli.run_command",)),
    ("cli.cache.hit_ratio", "1", "cache_hits", ()),
    ("dsl.parse_expr.s", "s", "busy", ("dsl.parse_expr",)),
    ("dsl.evaluate.self_s", "s", "self", ("dsl.evaluate",)),
    ("graphs.build.s", "s", "busy", _GRAPH_BUILDERS),
    ("models.from_graph.s", "s", "busy", ("models.from_graph",)),
    ("models.from_graph.cells", "count", "work", ("models.from_graph",)),
    ("masks.tables.s", "s", "busy", _TABLES),
    ("profiles.induced_profile.s", "s", "busy", ("profiles.induced_profile",)),
    ("profiles.induced_profile.subsets", "count", "work", ("profiles.induced_profile",)),
    ("profiles.labeled_repetitive_profile.s", "s", "busy", ("profiles.labeled_repetitive_profile",)),
    ("profiles.labeled_repetitive_profile.assignments", "count", "work",
     ("profiles.labeled_repetitive_profile",)),
    ("profiles.monte_carlo_profile.samples_per_s", "1/s", "rate", ("profiles.monte_carlo_profile",)),
    ("nesting.transition_matrix.s", "s", "busy", ("nesting.transition_matrix",)),
    ("nesting.transition_matrix.cache_hit_ratio", "1", "tm_cache", ()),
    ("nesting.compose_profile.s", "s", "busy", ("nesting.compose_profile",)),
    ("nesting.compose_profile.calls", "count", "calls", ("nesting.compose_profile",)),
    ("nesting.stationary_profile.self_s", "s", "self", ("nesting.stationary_profile",)),
    ("linalg.solve_rational_kernel.s", "s", "busy", ("linalg.solve_rational_kernel",)),
    ("spectral.model_spectrum.s", "s", "busy", ("spectral.model_spectrum",)),
    ("spectral.product_limit_density.s", "s", "busy", ("spectral.product_limit_density",)),
    ("catalog.run_row.s", "s", "busy", ("catalog.run_row",)),
    ("catalog.run_row.calls", "count", "calls", ("catalog.run_row",)),
    ("trace.wall_s", "s", "trace_wall", ()),
    ("trace.overhead_s", "s", "trace_overhead", ()),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- processes

def run_process(argv, env, timeout, out_path, err_path):
    """Run argv to completion; return (exit code, seconds, max RSS in MB, timed out)."""
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=str(ROOT))

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, killed.is_set()


def child_env() -> dict:
    """The caller's environment, running ./src, with the package's bytecode
    cached (in ./src) as an installed package has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ---------------------------------------------------------------- statistics

def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count).  Below eleven samples no percentile
    has ten beyond it; the maximum is reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------- one run

class Run:
    """One benchmark run of one workload: set-up, batches of passes, checks, metrics.

    A pass runs the workload's commands in order, each cold (every command
    but a probe writes into the pass's empty --cache directory), and then
    runs each cached command again, when it must be answered from the cache.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.work = work
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.records = []   # one dict per command run
        self.passes = []    # (traced, records of the pass)
        self.setup_times = []
        self.versions = {}
        self.inputs = {}
        self.cache_dir = None

    def setup(self):
        """Generate the seeded inputs, create the cache directory, and start
        one interpreter that imports the package: SETUPS times, keeping the
        last set of files."""
        for _ in range(SETUPS):
            start = time.perf_counter()
            directory = tempfile.mkdtemp(prefix="inputs-", dir=self.work)
            inputs = write_inputs(self.seed, directory)
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work)
            out = subprocess.run([sys.executable, "-c", "import inducibility"], env=self.env,
                                 cwd=str(ROOT), capture_output=True, text=True, timeout=HELPER_TIMEOUT_S)
            self.setup_times.append(time.perf_counter() - start)
            if out.returncode != 0:
                raise BenchError("cannot import inducibility from ./src:\n" + out.stderr)
            self.inputs, self.cache_dir = inputs, cache_dir

    def spec(self):
        return WORKLOADS[self.workload][0](self.inputs, self.seed)

    def run_command(self, cmd, phase, traced, cache_dir):
        index = len(self.records)
        stem = self.work / f"c{index}"
        args = list(cmd.args) + (["--cache", cache_dir] if cmd.cached else [])
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), f"{stem}.spans", *args]
        else:
            argv = [sys.executable, "-m", "inducibility", *args]
        before = set(os.listdir(cache_dir))
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())
        rc, seconds, rss, timed_out = run_process(argv, self.env, timeout, f"{stem}.out", f"{stem}.err")
        record = {
            "cmd": cmd, "pass": len(self.passes), "phase": phase, "traced": traced, "rc": rc,
            "seconds": seconds, "rss_mb": rss, "timed_out": timed_out,
            "wrote_cache": bool(set(os.listdir(cache_dir)) - before),
            "stdout": Path(f"{stem}.out").read_text(errors="replace"),
            "stderr": Path(f"{stem}.err").read_text(errors="replace"),
            "spans": f"{stem}.spans" if traced else None, "failures": [],
        }
        self.records.append(record)
        return record

    def run_pass(self, traced: bool):
        cache_dir = self.cache_dir if not self.passes else tempfile.mkdtemp(prefix="cache-", dir=self.work)
        cmds = [c for c in self.spec().commands if c.smoke or not self.smoke]
        records = [self.run_command(c, "cold", traced, cache_dir) for c in cmds]
        records += [self.run_command(c, "hit", traced, cache_dir) for c in cmds if c.cached]
        self.passes.append((traced, records))

    def run_batch(self, traced: bool):
        """Passes of one batch: one when smoke testing or tracing (the
        per-layer metrics have no bounds), else the workload's count."""
        for _ in range(1 if self.smoke or self.trace else WORKLOADS[self.workload][1]):
            self.run_pass(traced)

    def measure(self):
        """Whole batches until --seconds have passed (at least one), and
        none that would run into the deadline."""
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self.run_batch(traced=False)
            if self.trace:
                self.run_batch(traced=True)
            now = time.perf_counter()
            if now - start >= self.seconds or now + (now - began) > self.deadline:
                break

    # ------------------------------------------------------------ checks

    def check(self):
        first = {}
        for r in self.records:
            try:
                r["failures"].extend(check_record(r))
            except (KeyError, TypeError, ValueError) as exc:
                r["failures"].append(f"malformed output: {exc!r}")
            if r["cmd"].cached and r["phase"] == "cold" and not r["wrote_cache"]:
                r["failures"].append("cold run with --cache wrote no cache entry")
            if r["phase"] == "hit" and r["wrote_cache"]:
                r["failures"].append("not answered from --cache")
            ref = first.setdefault(r["cmd"].name, r)
            if r["stdout"] != ref["stdout"]:
                r["failures"].append(f"output differs from the {ref['phase']} run of pass {ref['pass']}")
        self.run_oracles({r["cmd"].name: r for r in self.passes[0][1] if r["phase"] == "cold"})

    def run_oracles(self, outputs):
        """Oracle checks (bench/check.py) on the first pass's outputs; the
        same process reports the Python and numpy versions."""
        spec = self.spec()
        known = {c.name for c in spec.commands}
        oracles = [o for o in spec.oracles if all(p in outputs for p in o[1:] if p in known)]
        spec_path = self.work / "oracles.json"
        spec_path.write_text(json.dumps({
            "oracles": oracles,
            "outputs": {n: {"rc": r["rc"], "stdout": r["stdout"]} for n, r in outputs.items()},
        }))
        out = subprocess.run([sys.executable, str(BENCH / "check.py"), str(spec_path)], env=self.env,
                             cwd=str(ROOT), capture_output=True, text=True, timeout=HELPER_TIMEOUT_S)
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.versions, verdicts = result["versions"], result["verdicts"]
        except (ValueError, IndexError, KeyError):
            verdicts = [[False, "oracle process failed: " + out.stderr[-500:]]] * len(oracles)
        for (kind, name, *_), (ok, message) in zip(oracles, verdicts):
            if not ok:
                for r in self.records:
                    if r["cmd"].name == name:
                        r["failures"].append(f"{kind}: {message}")

    # ------------------------------------------------------------ metrics

    def end_to_end(self):
        passes = [rs for traced, rs in self.passes if not traced]
        cold = [r["seconds"] for rs in passes for r in rs if r["phase"] == "cold"]
        value, pct, count = tail(cold)
        metrics = {
            "setup_s": statistics.median(self.setup_times),
            # the fastest pass: the machine's speed drift only ever adds time
            "wall_s": min(pass_wall(rs) for rs in passes),
            "cmd_p50_s": statistics.median(cold),
            "cmd_tail_s": value,
            "cached_cmd_p50_s": statistics.median(
                r["seconds"] for rs in passes for r in rs if r["phase"] == "hit"),
            "peak_rss_mb": max(r["rss_mb"] for rs in passes for r in rs),
        }
        extra = {"cmd_tail_percentile": pct, "cmd_tail_samples": count}
        return {k: (v, END_TO_END.get(k) or REPORTED[k]) for k, v in metrics.items()}, extra

    def per_layer(self):
        traced = [rs for t, rs in self.passes if t]
        n = len(traced)
        docs = []
        for r in (r for rs in traced for r in rs):
            try:
                docs.append(json.loads(Path(r["spans"]).read_text()))
            except (OSError, ValueError):
                r["failures"].append("traced run wrote no spans")
        cached = [r for rs in traced for r in rs if r["cmd"].cached]
        traced_wall = statistics.median(pass_wall(rs) for rs in traced)
        untraced_wall = statistics.median(pass_wall(rs) for t, rs in self.passes if not t)
        out = {}
        for metric, unit, kind, names in PER_LAYER:
            if kind == "import":
                value = sum(d["import_s"] for d in docs) / n
            elif kind == "cache_hits":
                value = sum(not r["wrote_cache"] for r in cached) / len(cached) if cached else 0.0
            elif kind == "tm_cache":
                hits = sum(d["transition_matrix_cache"][0] for d in docs)
                calls = hits + sum(d["transition_matrix_cache"][1] for d in docs)
                value = hits / calls if calls else 0.0
            elif kind == "trace_wall":
                value = traced_wall
            elif kind == "trace_overhead":
                value = traced_wall - untraced_wall
            elif kind == "rate":
                busy = sum(span_total(d["spans"], names, "busy") for d in docs)
                work = sum(span_total(d["spans"], names, "work") for d in docs)
                value = work / busy if busy else 0.0
            else:
                value = sum(span_total(d["spans"], names, kind) for d in docs) / n
            out[metric] = (value, unit)
        return out

    def env_info(self):
        return {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": cpu_model(),
            "python": self.versions.get("python"),
            "numpy": self.versions.get("numpy"),
            "inducibility": self.versions.get("inducibility"),
            "git_commit": git_commit(),
            "seed": self.seed,
            "trace": self.trace,
            "smoke": self.smoke,
            "seconds": self.seconds,
        }


def pass_wall(records) -> float:
    """Wall time of one pass over the workload's commands in order: the
    cold runs, not the repeats answered from the cache."""
    return sum(r["seconds"] for r in records if r["phase"] == "cold")


def check_record(r) -> list:
    """Checks of one command run that need no package import; returns failure messages."""
    cmd, rc, out, err = r["cmd"], r["rc"], r["stdout"], r["stderr"]
    if r["timed_out"]:
        return ["timed out"]
    if cmd.check == "probe":
        if rc == 2 and "error:" in err:
            return []
        if rc != 0:
            return [f"probe exit {rc} without an error: message"]
        if cmd.expect == "oracle":
            return []
        if cmd.expect is None:
            return ["exit 0, but this input has no correct answer"]
        return check_values(out, cmd.expect)
    if rc != 0:
        return [f"exit {rc}: {err.strip()[-300:]}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    if cmd.check == "tables":
        bad = [row["row"] for row in payload["rows"] if not row["passed"]]
        return [f"rows failed: {bad}"] if bad or not payload["rows"] else []
    if cmd.check == "dist":
        values = [fraction(v) for v in payload["values"]]
        if sum(values) != 1 or min(values) < 0:
            return ["values are not a probability distribution"]
    if cmd.check == "values":
        return check_values(out, cmd.expect)
    if cmd.check == "edges" and payload["edges"] != cmd.expect:
        return ["decoded edges differ from the generated graph"]
    return []


def fraction(entry):
    return Fraction(int(entry["num"]), int(entry["den"]))


def check_values(out: str, expect: dict) -> list:
    try:
        values = {v["type"]: fraction(v) for v in json.loads(out)["values"]}
    except (ValueError, KeyError, TypeError):
        return ["output has no exact values"]
    bad = []
    for key, want in expect.items():
        got = values.get(key)
        if got is None and "+" in key:
            parts = [values.get(p.strip()) for p in key.split("+")]
            got = None if None in parts else sum(parts)
        if got != Fraction(want):
            bad.append(f"{key} = {got}, expected {want}")
    return bad


def span_total(spans, names, kind) -> float:
    """Busy time (outermost spans of the group only, so recursion and
    nesting inside the group count once), self time (duration minus direct
    children), call count or summed work of the spans named `names`."""
    names = set(names)
    total = 0.0
    if kind == "self":
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] in names)
    for name, start, end, parent, work in spans:
        if name not in names:
            continue
        if kind == "calls":
            total += 1
        elif kind == "work":
            total += work
        else:
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += end - start
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- entry point

def run_workload(workload, seed, seconds, trace, smoke):
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        run = Run(workload, seed, seconds, trace, smoke, work)
        run.setup()
        run.measure()
        run.check()
        if trace:
            metrics, extra = run.per_layer(), {}
        else:
            metrics, extra = run.end_to_end()
        failed = sum(bool(r["failures"]) for r in run.records)
        attempted = len(run.records)
        if not trace:
            metrics["failed_ratio"] = (failed / attempted, REPORTED["failed_ratio"])
        report = {
            "workload": workload,
            "env": run.env_info(),
            "inputs": {k: {"n": v.n, "why": v.why} for k, v in run.inputs.items()},
            "passes": [{"traced": t, "wall_s": pass_wall(rs), "commands": len(rs)} for t, rs in run.passes],
            "setup_times_s": run.setup_times,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **extra,
            "commands": command_table(run.records),
            "failures": [f"pass {r['pass']} {r['phase']} {r['cmd'].name}: {m}"
                         for r in run.records for m in r["failures"]],
        }
        bounded = {k: v for k, v in metrics.items() if trace or k in END_TO_END}
        return bounded, report, attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def command_table(records):
    table = {}
    for r in records:
        key = r["cmd"].name + (" [hit]" if r["phase"] == "hit" else "") + (" [traced]" if r["traced"] else "")
        row = table.setdefault(key, {"seconds": [], "rss_mb": 0.0, "rc": r["rc"]})
        row["seconds"].append(round(r["seconds"], 4))
        row["rss_mb"] = max(row["rss_mb"], round(r["rss_mb"], 1))
    return table


def print_metrics(workload, report):
    print(f"== {workload}: {len(report['passes'])} passes")
    for name, m in report["metrics"].items():
        note = "  (reported, not bounded)" if name in REPORTED else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    if "cmd_tail_percentile" in report:
        print(f"  cmd_tail_s is p{report['cmd_tail_percentile']:.1f} of {report['cmd_tail_samples']} samples")
    for line in report["failures"]:
        print("  FAILED " + line)


def smoke() -> int:
    """One short pass of each workload, untraced and traced: every metric
    of BENCHMARK.json must be emitted with its unit and nothing may fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            metrics, report, attempted, failed = run_workload(workload, 0, 0.0, trace, True)
            print_metrics(workload + (" traced" if trace else ""), report)
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: unit for name, (_, unit) in metrics.items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if not trace and set(report["metrics"]) != set(END_TO_END) | set(REPORTED):
                problems.append(f"{workload}: reported metrics {sorted(report['metrics'])}")
            if failed:
                problems.append(f"{workload} trace={trace}: failed_ratio {failed / attempted}")
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up children and files
    if not (ROOT / "src" / "inducibility" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'inducibility'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), False)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (metrics, report, _, _) in results.items():
        print_metrics(name, report)
        print(json.dumps({"report": report}))
    attempted = sum(r[2] for r in results.values())
    failed = sum(r[3] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r[0].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
