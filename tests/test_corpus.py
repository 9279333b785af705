"""The byte corpus of tests/corpus.py, checked in process through cli.run_command."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import corpus
from inducibility.cli import run_command


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run_command(argv)
        except SystemExit as exc:  # argparse reports usage errors through exit
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_corpus_lists_every_command():
    # a command added to the bench, the README or the lists of corpus.py
    # needs its digest recorded with `python tests/corpus.py --write`
    assert list(json.loads(corpus.TABLE.read_text())) == corpus.commands()


def test_every_command_prints_its_recorded_bytes(tmp_path, monkeypatch):
    table = json.loads(corpus.TABLE.read_text())
    monkeypatch.chdir(tmp_path)
    inputs = corpus.write_inputs()
    changed = [key for key, recorded in table.items() if corpus.digest(key, _run, inputs) != recorded]
    assert changed == []
