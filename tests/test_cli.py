import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from godex import cli
from godex.errors import InvariantError

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "godex.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_cohomology_pseudocircle_constant():
    code, out, _ = run_cli("--format", "json", "cohomology", "--open", "ALL",
                           str(DATA / "pseudocircle-constant.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"0": 1, "1": 1}


def test_cohomology_pseudosphere_constant():
    code, out, _ = run_cli("--format", "json", "cohomology", "--max-degree", "4",
                           str(DATA / "pseudosphere-constant.json"))
    assert code == 0
    assert json.loads(out)["betti"] == {"0": 1, "2": 1}


def test_fmt_idempotent():
    f = DATA / "pseudocircle-constant.json"
    code, out1, _ = run_cli("fmt", str(f))
    assert code == 0
    assert out1 == f.read_text()
    # canonicalizing the canonical form is a byte-identical no-op
    code, out2, _ = run_cli("fmt", str(f))
    assert out1 == out2


def test_fmt_canonicalizes_scrambled_file(tmp_path):
    f = DATA / "sierpinski-skyscraper.json"
    doc = json.loads(f.read_text())
    scrambled = tmp_path / "scrambled.json"
    scrambled.write_text(json.dumps(doc, indent=None))  # different layout
    code, out, _ = run_cli("fmt", str(scrambled))
    assert code == 0
    assert out == f.read_text()


def test_check_theorem_seed7_reproducible():
    args = ("--format", "json", "check-theorem", "--seed", "7",
            "--poset-size", "4", "--max-dim", "2", "--trials", "6")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_pass"] is True
    assert len(doc["trials"]) == 6
    for t in doc["trials"]:
        assert t["local_equivalence"] and t["stalk_commutation"] and t["thomason_descent"]


def test_check_theorem_on_file():
    code, out, _ = run_cli("--format", "json", "check-theorem", "--max-degree", "4",
                           str(DATA / "sierpinski-skyscraper.json"))
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_check_axioms_exit_codes():
    code, out, _ = run_cli("--format", "json", "check-axioms",
                           "--seed", "1", "--trials", "2", "--bound", "4")
    assert code == 0
    assert json.loads(out)["all_pass"] is True
    # the deliberate sign corruption is reported and exits 1
    code, out, _ = run_cli("--format", "json", "check-axioms", "--seed", "1",
                           "--trials", "1", "--bound", "4",
                           "--mutant", "drop_d1_sign")
    assert code == 1
    assert "fails" in json.loads(out)["mutant"]


def test_check_thomason_exit_zero():
    code, out, _ = run_cli("check-thomason", str(DATA / "sierpinski-skyscraper.json"))
    assert code == 0


def test_invalid_input_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "godex/1", "field": }')
    code, out, err = run_cli("cohomology", str(bad))
    assert code == 2
    assert "line" in err
    code, out, err = run_cli("cohomology", str(tmp_path / "missing.json"))
    assert code == 2


def test_oracle_command():
    code, out, _ = run_cli("--format", "json", "oracle",
                           str(DATA / "pseudocircle-constant.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["holim_betti"] == {"0": 1, "1": 1}
    assert doc["normalized_betti"] == {"0": 1, "1": 1}
    assert doc["nerve_betti"] == {"0": 1, "1": 1}


def test_pushforward_command():
    code, out, _ = run_cli("--format", "json", "pushforward", "--max-degree", "4",
                           str(DATA / "pseudocircle-pushforward.json"))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["stalks"]) == {"c", "o"}


def test_spectral_filtered_file():
    code, out, _ = run_cli("--format", "json", "spectral", "--source",
                           "filtered-file", "--r", "2",
                           str(DATA / "filtered-example.json"))
    assert code == 0
    doc = json.loads(out)
    assert "0" in doc["pages"] and "2" in doc["pages"]
    assert "e_infinity" in doc


def test_spectral_descent():
    code, out, _ = run_cli("--format", "json", "spectral", "--source", "descent",
                           "--open", "ALL", "--r", "2", "--max-degree", "4",
                           str(DATA / "pseudocircle-constant.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["pages"]["2"] == {"0,0": 1, "1,0": 1}


def test_hyper_and_resolve():
    code, out, _ = run_cli("--format", "json", "hyper", "--max-degree", "4",
                           str(DATA / "sierpinski-skyscraper.json"))
    assert code == 0
    code, out, _ = run_cli("--format", "json", "resolve", "--level", "2",
                           str(DATA / "sierpinski-skyscraper.json"))
    assert code == 0
    doc = json.loads(out)
    assert set(doc["levels"]) == {"0", "1", "2"}


def test_file_without_sheaf_exits_two():
    # the filtered example carries only a filtered complex: every command that
    # needs a sheaf reports invalid input, not a crash or a counterexample
    f = str(DATA / "filtered-example.json")
    for args in (("cohomology", f), ("hyper", f), ("resolve", f),
                 ("check-thomason", f), ("spectral", f), ("pushforward", f),
                 ("oracle", f), ("check-theorem", f)):
        code, _, err = run_cli(*args)
        assert code == 2, args
        assert "Traceback" not in err and "sheaf" in err, args


def test_malformed_stalk_exits_two(tmp_path):
    doc = json.loads((DATA / "sierpinski-skyscraper.json").read_text())
    stalk = next(iter(doc["sheaf"]["stalks"]))
    for bad in ({"dims": {"x": 1}}, {"dims": {"0": -1}}, {"dims": {"0": "one"}}, [1, 2]):
        doc["sheaf"]["stalks"][stalk] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("cohomology", "--open", "ALL", str(path))
        assert code == 2, bad
        assert "Traceback" not in err, bad


def test_check_theorem_rejects_nonpositive_sizes():
    # a poset of no elements or stalks of no dimension are usage errors
    for option, value in (("--poset-size", "0"), ("--poset-size", "-3"),
                          ("--max-dim", "0"), ("--max-dim", "-1"), ("--max-dim", "x")):
        code, out, err = run_cli("check-theorem", "--trials", "1", option, value)
        assert code == 2, (option, value, err)
        assert out == ""
        assert "Traceback" not in err and option in err


def test_vacuous_counts_are_usage_errors():
    # no bound, no trial or a negative page would make a check pass vacuously
    spectral = ("spectral", str(DATA / "pseudocircle-constant.json"))
    for args, option in ((("check-axioms", "--bound", "-2"), "--bound"),
                         (("check-axioms", "--bound", "0"), "--bound"),
                         (("check-axioms", "--trials", "0"), "--trials"),
                         (("check-theorem", "--trials", "0"), "--trials"),
                         (("check-axioms", "--filtered", "--r", "-1"), "--r"),
                         (spectral + ("--r", "-1"), "--r")):
        code, out, err = run_cli("--format", "json", *args)
        assert code == 2, (args, err)
        assert out == ""
        assert "Traceback" not in err and option in err


def test_import_sets_one_blas_thread_unless_the_environment_says_otherwise():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    probe = "import os, godex; print(' '.join(os.environ[v] for v in %r))" % (names,)
    env = {k: v for k, v in os.environ.items() if k not in names}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["1", "1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    env["MKL_NUM_THREADS"] = "3"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["2", "1", "3"]


def test_unreadable_files_are_invalid_input(tmp_path):
    # a directory and a file that is not UTF-8 text exit 2, not 1 with a traceback
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"format": "godex/1"}')
    for args in (("fmt", str(tmp_path)), ("cohomology", str(tmp_path)),
                 ("fmt", str(binary)), ("check-thomason", str(binary))):
        code, out, err = run_cli(*args)
        assert code == 2, (args, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("error", [ValueError("matmul too large for exact float64 accumulation"),
                                   InvariantError("d∘d != 0 in degree 1"),
                                   KeyError("x")])
def test_internal_failures_exit_three(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "derived_sections", fail)
    code = cli.main(["--format", "json", "cohomology", str(DATA / "pseudocircle-constant.json")])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert str(error) in err and "Traceback" not in err
