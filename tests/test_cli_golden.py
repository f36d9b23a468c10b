"""Pinned CLI output.

One sha256 over (command line, exit code, stdout) of in-process
`cli.main(["--format", "json", ...])` runs: every file command on every
`data/*.json` file, `check-theorem --seed 7` and the axiom audits.  A
refactor must leave every byte of that output and every exit code as it
was, so the digest must not move.  Commands whose file lacks the block they
need are part of the grid: their exit code 2 and empty stdout are pinned too.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from godex import cli

DATA = Path(__file__).resolve().parent.parent / "data"
DIGEST = "bf6f74fb2d66ba8f55ef433c30feee6907ef924a86d03a58f5eb6550990a9bf9"

FILE_COMMANDS = (
    ("cohomology",),
    ("hyper",),
    ("resolve",),
    ("check-thomason", "--mode", "auto"),
    ("check-thomason", "--mode", "literal"),
    ("check-thomason", "--mode", "reduced"),
    ("oracle",),
    ("pushforward",),
    ("spectral", "--source", "descent"),
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


def run_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", "json", *argv])
    return code, out.getvalue()


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
