"""Pinned CLI output.

One sha256 over (command line, exit code, stdout) of in-process
`cli.main(["--format", "json", ...])` runs: every file command on every
`data/*.json` file, `check-theorem --seed 7` and the axiom audits.  A
refactor must leave every byte of that output and every exit code as it
was, so the digest must not move.  Commands whose file lacks the block they
need are part of the grid: their exit code 2 and empty stdout are pinned too.
The same grid in the default human format is checked against the JSON runs.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from godex import cli

DATA = Path(__file__).resolve().parent.parent / "data"
# `oracle` on data/pseudocircle-pushforward.json prints no nerve_betti: its
# restrictions into y are 2, so the sheaf is not constant
DIGEST = "86d216b953df3afe34d39fe32b496e545f5062b4a0f906764805735c8a87d0cc"

FILE_COMMANDS = (
    ("cohomology",),
    ("cohomology", "--open", "EMPTY"),
    ("hyper",),
    ("resolve",),
    ("check-thomason", "--mode", "auto"),
    ("check-thomason", "--mode", "literal"),
    ("check-thomason", "--mode", "reduced"),
    ("oracle",),
    ("pushforward",),
    ("spectral", "--source", "descent"),
    ("spectral", "--source", "descent", "--open", "EMPTY"),
    ("spectral", "--source", "filtered-file", "--r", "0"),
    ("spectral", "--source", "filtered-file", "--r", "2"),
    ("fmt",),
)

RANDOM_COMMANDS = (
    ("check-theorem", "--seed", "7"),
    ("check-axioms",),
    ("check-axioms", "--filtered"),
    ("check-axioms", "--mutant", "drop_d1_sign"),
)


def grid():
    for path in sorted(DATA.glob("*.json")):
        for command in FILE_COMMANDS:
            yield command + (str(path),), (command, path.name)
    for command in RANDOM_COMMANDS:
        yield command, (command, None)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, _ = run(["--format", "json", *argv])
    return code, out


def test_cli_json_output_is_pinned():
    h = hashlib.sha256()
    codes = set()
    for argv, key in grid():
        code, out = run_json(argv)
        codes.add(code)
        h.update(repr((key, code, out)).encode())
    assert codes <= {0, 1, 2}
    assert 0 in codes and 1 in codes and 2 in codes
    assert h.hexdigest() == DIGEST


def test_cli_human_output_follows_the_json_runs():
    # the default format exits as the JSON run does, writes to stdout
    # exactly when it does, and never prints a traceback
    for argv, key in grid():
        code, out = run_json(argv)
        human_code, human_out, human_err = run(argv)
        assert human_code == code, key
        assert bool(human_out) == bool(out), key
        assert "Traceback" not in human_out + human_err, key
