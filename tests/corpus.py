"""Byte corpus of the command line: for each command, the sha256 of its exit
code, stdout and stderr, and for a --cache run also of its cache files.

    python tests/corpus.py            check tests/corpus.json
    python tests/corpus.py --write    record tests/corpus.json again

Both run the installed `inducibility` entry point from a temporary working
directory; tests/test_corpus.py checks the same table in process.  The
commands are every catalog, enumerate and cli command of bench/workloads.py
at seed 1, the `$ inducibility` lines of README.md, the commands that the
installed-package step of CI runs, and a list of quantum targets, each run
once plainly and once with --cache.  The table names the input files that
bench/workloads.write_inputs(1, ".") writes as {a8}, {a40}, ... and a --cache
run's fresh directory as {cache}, so no command, cache key or output names a
temporary directory.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("corpus.json")
SEED = 1

# the commands of CI's installed-package step, as the step spells them
CI = """
profile --t 3 C5
estimate --t 3 --samples 1000 --seed 1 C5
estimate --t 3 --samples 1000 --seed 1 "complement(union(K2:1, K3:3/2))"
estimate --t 4 --samples 100000 --seed 1 "cayley2(10; 1, 2, 5, 6, 9, 10)"
nested-profile --t 4 "tensor(K3, K3)"
limit --t 4 --quantum P4 --factors K4 --nested "tensor(K3, K3)"
limit --t 4 --quantum "K4+A4" --factors "tensor(M4, K4), tensor(K3, K3)"
tables --which headline
tables --which appendix5
limit --t 4 --quantum P4 --nested "paley(17)"
profile --t 5 --flavor spectral "union(K2:1, K2:2, K2:2)"
profile --t 3 "K("
tables --which exoo4
profile --t 4 --flavor spectral "tensor(K3, K3)"
profile --t 4 --flavor spectral "paley(9)"
convert --encode "paley(9)"
convert --encode "tensor(K3, K3)"
estimate --t 3 --samples 10 --seed 1 "union(K40000:1)"
"""

# quantum targets, each asked of `density --t 4 ... C5`: the spelling that
# QuantumGraph.describe() gives a negative coefficient, signed terms and a
# decimal coefficient, and malformed targets, which exit 2 at a column
TARGETS = (
    "P4 + -1*K4", "K4 - - A4", "0.5*K4", "1/0*K3",
    "K4+", "+K4", "K4++A4", "K4 + A4 +", "K4*2", "2 K4", "K4 A4",
)


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def write_inputs() -> dict:
    """The bench inputs at SEED, written into the working directory, by name."""
    return _workloads().write_inputs(SEED, ".")


def commands() -> list:
    """Every command of the corpus, input paths written as {name}, in table order."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as directory:
        inputs = {name: i._replace(path=f"{{{name}}}") for name, i in workloads.write_inputs(SEED, directory).items()}
    argvs = [list(c.args) for name in ("catalog", "enumerate", "cli")
             for c in workloads.WORKLOADS[name][0](inputs, SEED).commands]
    argvs += [shlex.split(line[2:], comments=True)[1:]
              for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines() if line.startswith("$ inducibility ")]
    argvs += [shlex.split(line) for line in CI.strip().splitlines()]
    argvs += [["density", "--t", "4", "--quantum", target, "C5"] for target in TARGETS]
    keys = dict.fromkeys(shlex.join(argv) for argv in argvs)
    return [key for plain in keys for key in (plain, shlex.join([*shlex.split(plain), "--cache", "{cache}"]))]


def digest(command: str, run, inputs: dict) -> str:
    """sha256 of what `run(argv)` returns for a command, (exit code, stdout
    bytes, stderr bytes), each length-prefixed; a --cache run is run twice,
    a miss and then a hit, into a fresh directory whose files it also covers."""
    h = sha256()

    def add(label: str, data: bytes) -> None:
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)

    argv = shlex.split(command)
    for name, i in inputs.items():
        argv = [arg.replace(f"{{{name}}}", i.path) for arg in argv]
    with tempfile.TemporaryDirectory(dir=".") as cache:
        for phase in ("miss", "hit") if "{cache}" in argv else ("run",):
            code, out, err = run([arg.replace("{cache}", cache) for arg in argv])
            add(f"{phase} exit", str(code).encode())
            add(f"{phase} stdout", out)
            add(f"{phase} stderr", err)
        for name in sorted(os.listdir(cache)):
            add(f"file {name}", Path(cache, name).read_bytes())
    return h.hexdigest()


def run_installed(argv) -> tuple:
    proc = subprocess.run(["inducibility", *argv], capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    table = {} if write else json.loads(TABLE.read_text())
    keys = commands() if write else list(table)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        inputs = write_inputs()
        digests = {key: digest(key, run_installed, inputs) for key in keys}
    if write:
        TABLE.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {TABLE}")
        return 0
    changed = [key for key in keys if digests[key] != table[key]]
    for key in changed:
        print(f"changed: inducibility {key}")
    print(f"{len(keys) - len(changed)} of {len(keys)} commands print the recorded bytes")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
