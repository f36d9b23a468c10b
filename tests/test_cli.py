import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from godex import cli
from godex.errors import InvariantError
from godex.problemfile import parse_document

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


def test_oracle_reports_nerve_cohomology_for_constant_sheaves_only(tmp_path):
    # one stalk everywhere is not enough: with b -> y twisted by 2 the sheaf
    # is not constant, and its cohomology is not the nerve's
    doc = json.loads((DATA / "pseudocircle-constant.json").read_text())
    for r in doc["sheaf"]["restrictions"]:
        if (r["from"], r["to"]) == ("b", "y"):
            r["components"]["0"] = [[2]]
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("--format", "json", "oracle", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["holim_betti"] == doc["normalized_betti"] == {}
    assert "nerve_betti" not in doc
    code, out, _ = run_cli("oracle", str(path))
    assert code == 0 and "nerve" not in out


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


def _set_dims(doc):
    doc["sheaf"]["stalks"]["a"]["dims"]["0"] = 1.9


def _set_p(doc):
    doc["field"]["p"] = 5.0


def _set_entry(doc):
    doc["sheaf"]["restrictions"][0]["components"]["0"] = [[True]]


def _set_lower_bound(doc):
    doc["sheaf"]["stalks"]["a"]["lower_bound"] = -0.5


def _pad_dims_key(doc):
    dims = doc["sheaf"]["stalks"]["a"]["dims"]
    dims[" 0"] = dims.pop("0")


def _sign_component_key(doc):
    comps = doc["sheaf"]["restrictions"][0]["components"]
    comps["+0"] = comps.pop("0")


@pytest.mark.parametrize("mutate", [_set_dims, _set_p, _set_entry, _set_lower_bound,
                                    _pad_dims_key, _sign_component_key])
def test_floats_and_booleans_for_integers_are_invalid_input(tmp_path, mutate):
    # int() read 1.9 as 1, 5.0 as 5, true as 1, -0.5 as 0, and the keys " 0"
    # and "+0" as 0, and each of these files gave betti numbers
    doc = json.loads((DATA / "pseudocircle-constant.json").read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("--format", "json", "cohomology", "--open", "ALL", str(path))
    assert code == 2, err
    assert out == "" and err.startswith("error: ")


def test_a_key_given_twice_exits_two(tmp_path):
    # the second "field" won: the file ran over F_3 and exited 0, and `fmt`
    # dropped the first
    text = (DATA / "pseudocircle-constant.json").read_text()
    assert text.startswith('{\n  "field": {\n    "p": 5\n  },\n')
    path = tmp_path / "twice.json"
    path.write_text(text.replace('{\n', '{\n  "field": {"p": 3},\n', 1))
    for args in (("--format", "json", "cohomology", "--open", "ALL"), ("fmt",)):
        code, out, err = run_cli(*args, str(path))
        assert code == 2, (args, err)
        assert out == "" and err == 'error: key "field" is given twice in one object\n', args


def _rational_document(entry):
    """The constant pseudocircle sheaf over Q, with `entry` as one
    restriction entry."""
    doc = json.loads((DATA / "pseudocircle-constant.json").read_text())
    doc["field"] = "Q"
    doc["sheaf"]["restrictions"][0]["components"]["0"] = [[entry]]
    return doc


@pytest.mark.parametrize("entry", ["1_0", " 3", "+2/ 4", "٣", "3/-4", "1/0"])
def test_rational_entries_outside_the_ascii_form_are_invalid_input(tmp_path, entry):
    # int() read "1_0" as 10, " 3" as 3, "+2/ 4" as 1/2, "٣" as 3 and
    # "3/-4" as -3/4; an entry is -?[0-9]+(/[0-9]+)? with a nonzero denominator
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_rational_document(entry)))
    for args in (("fmt",), ("--format", "json", "cohomology", "--open", "ALL")):
        code, out, err = run_cli(*args, str(path))
        assert code == 2, (args, err)
        assert out == "" and err.startswith("error: "), args


def test_rational_entries_in_the_ascii_form_parse():
    # the control of the case above: "1" and "2/2" are the identity
    for entry in ("1", "2/2"):
        pf = parse_document(json.dumps(_rational_document(entry)))
        assert pf.sheaf.restriction("a", "x").component(0).rows_list() == [[1]]


def test_check_theorem_rejects_nonpositive_sizes():
    # a poset of no elements or stalks of no dimension are usage errors
    for option, value in (("--poset-size", "0"), ("--poset-size", "-3"),
                          ("--max-dim", "0"), ("--max-dim", "-1"), ("--max-dim", "x")):
        code, out, err = run_cli("check-theorem", "--trials", "1", option, value)
        assert code == 2, (option, value, err)
        assert out == ""
        assert "Traceback" not in err and option in err


def test_check_theorem_refuses_posets_above_the_enumeration_cap(tmp_path, capsys, monkeypatch):
    # the Thomason check enumerates the opens of at most 12 elements, so a
    # larger --poset-size is a usage error even where a draw would fit (seed
    # 0 draws 7 elements of 13), and a larger problem-file poset is refused
    # before H_X(F) is built
    code, out, err = run_cli("--format", "json", "check-theorem", "--poset-size", "13",
                             "--trials", "1", "--seed", "0")
    assert code == 2, err
    assert out == "" and "--poset-size" in err and "must be an integer <= 12, got 13" in err
    code, out, err = run_cli("--format", "json", "check-theorem", "--poset-size", "12",
                             "--trials", "1", "--seed", "0")
    assert code == 0, err
    assert json.loads(out)["trials"][0]["poset_size"] == 7
    path = _chain13(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("H_X(F) was built")
    monkeypatch.setattr(cli, "hypercohomology_sheaf", refuse)
    code = cli.main(["--format", "json", "check-theorem", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == _ABOVE_THE_CAP


_ABOVE_THE_CAP = "error: poset has 13 > 12 elements; its open sets are not enumerated\n"


def _chain13(tmp_path):
    """A problem file with the constant F_5 sheaf on a 13-element chain,
    one element above the enumeration cap."""
    names = [str(i) for i in range(13)]
    doc = {"format": "godex/1", "field": {"p": 5},
           "poset": {"elements": names, "covers": [[a, b] for a, b in zip(names, names[1:])]},
           "sheaf": {"stalks": {x: {"dims": {"0": 1}, "differentials": {}} for x in names},
                     "restrictions": [{"from": a, "to": b, "components": {"0": [[1]]}}
                                      for a, b in zip(names, names[1:])]}}
    path = tmp_path / "chain13.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mode", ["auto", "literal", "reduced"])
def test_check_thomason_refuses_posets_above_the_enumeration_cap_first(tmp_path, capsys,
                                                                       monkeypatch, mode):
    # the global check would refuse the poset only after both modes had built
    # their model of H_X(H_X F), which on this chain does not fit in memory
    import godex.godement as gm

    def refuse(*args, **kwargs):
        raise AssertionError("a hypercohomology sheaf was built")
    for name in ("hypercohomology_sheaf", "normalized_hypercohomology_sheaf"):
        monkeypatch.setattr(gm, name, refuse)
    code = cli.main(["--format", "json", "check-thomason", str(_chain13(tmp_path)),
                     "--mode", mode])
    out, err = capsys.readouterr()
    assert code == 2, err
    assert out == "" and err == _ABOVE_THE_CAP


def test_vacuous_counts_are_usage_errors():
    # no bound, no trial or a negative page would make a check pass vacuously;
    # a negative resolution level is refused by the parser, naming its option
    spectral = ("spectral", str(DATA / "pseudocircle-constant.json"))
    for args, option in ((("check-axioms", "--bound", "-2"), "--bound"),
                         (("check-axioms", "--bound", "0"), "--bound"),
                         (("check-axioms", "--trials", "0"), "--trials"),
                         (("check-theorem", "--trials", "0"), "--trials"),
                         (("check-axioms", "--filtered", "--r", "-1"), "--r"),
                         (spectral + ("--r", "-1"), "--r"),
                         (("resolve", spectral[1], "--level", "-1"), "--level")):
        code, out, err = run_cli("--format", "json", *args)
        assert code == 2, (args, err)
        assert out == ""
        assert "Traceback" not in err and option in err


@pytest.mark.parametrize("bound", ["1", "2"])
def test_sign_mutant_below_bound_three_is_a_usage_error(bound):
    # d∘d spans three degrees: below that the negative control cannot fail,
    # so it is refused before any trial instead of exiting 0 vacuously
    code, out, err = run_cli("--format", "json", "check-axioms", "--bound", bound,
                             "--trials", "1", "--mutant", "drop_d1_sign")
    assert code == 2
    assert out == ""
    assert err == f"error: the sign mutant needs a bound of at least 3, got {bound}\n"
    code, out, _ = run_cli("--format", "json", "check-axioms", "--bound", "3",
                           "--trials", "1", "--mutant", "drop_d1_sign")
    assert code == 1 and "fails" in json.loads(out)["mutant"]


def test_check_axioms_refuses_flags_its_audit_does_not_read():
    # the filtered audit has no negative control and the plain one no page
    # index: either flag in the other audit is a usage error, not dropped
    for args, message in ((("--filtered", "--mutant", "drop_d1_sign"),
                           "error: --mutant needs the plain audit"),
                          (("--r", "2"), "error: --r needs --filtered"),
                          (("--r", "0"), "error: --r needs --filtered")):
        code, out, err = run_cli("--format", "json", "check-axioms", "--trials", "1", *args)
        assert code == 2, (args, err)
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1, (args, err)
    # an explicit --r 0 with --filtered prints what the default does
    runs = [run_cli("--format", "json", "check-axioms", "--filtered", "--trials", "1",
                    "--bound", "3", *extra) for extra in ((), ("--r", "0"))]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert json.loads(runs[0][1])["r"] == 0


def test_truncation_below_the_top_degree_is_invalid_input():
    # every command that truncates refuses a bound below the input degrees,
    # instead of exiting 0 with empty pages or betti numbers
    data = str(DATA / "pseudocircle-constant.json")
    for command, bound, extra in (("spectral", "-3", ()), ("oracle", "-2", ()),
                                  ("cohomology", "-3", ()),
                                  ("check-thomason", "-3", ("--mode", "reduced"))):
        code, out, err = run_cli("--format", "json", command, data, "--max-degree", bound,
                                 *extra)
        assert code == 2, (command, err)
        assert out == ""
        assert err == f"error: truncation {bound} does not cover the input degrees (top 0)\n"


def test_check_theorem_max_degree_needs_a_file():
    # random trials truncate at their own top degree + 4, so a bound without
    # a file would be ignored
    code, out, err = run_cli("--format", "json", "check-theorem", "--max-degree", "-2",
                             "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-degree needs a problem file") and err.count("\n") == 1


def test_check_theorem_on_a_file_refuses_the_random_trial_flags():
    # a problem file is one instance: a seed, trial count, poset size or
    # stalk dimension would be ignored, and the seed printed as if read
    path = str(DATA / "pseudocircle-constant.json")
    for args in (("--seed", "3"), ("--seed", "0"), ("--trials", "1"), ("--poset-size", "2"),
                 ("--max-dim", "1"), ("--max-dim", "1", "--seed", "3")):
        code, out, err = run_cli("--format", "json", "check-theorem", *args, path)
        assert code == 2, (args, err)
        assert out == ""
        flag = "--seed" if "--seed" in args else args[0]
        assert err.startswith(f"error: {flag} needs random trials") and err.count("\n") == 1, err
    code, out, _ = run_cli("--format", "json", "check-theorem", path)
    assert code == 0
    assert out == ('{"all_pass":true,"command":"check-theorem","seed":0,"trials":[{'
                   '"certified_degree":3,"instance":"file","local_equivalence":true,'
                   '"mode":"literal","stalk_commutation":true,"thomason_descent":true}]}\n')


def test_spectral_from_a_filtered_file_refuses_open_and_max_degree():
    # the filtered file carries its own complex: an open or a truncation
    # would be ignored, as --max-degree -7 was
    path = str(DATA / "filtered-example.json")
    base = ("--format", "json", "spectral", "--source", "filtered-file", "--r", "0")
    for args in (("--open", "a"), ("--open", "ALL"), ("--max-degree", "-7"),
                 ("--open", "a", "--max-degree", "4")):
        code, out, err = run_cli(*base, *args, path)
        assert code == 2, (args, err)
        assert out == ""
        assert err.startswith("error: --open and --max-degree need --source descent") and \
            err.count("\n") == 1, (args, err)
    assert run_cli(*base, path)[0] == 0
    # the descent source still reads --open, and its default is ALL
    descent = ("--format", "json", "spectral", "--source", "descent",
               str(DATA / "pseudocircle-constant.json"))
    assert run_cli(*descent) == run_cli(*descent[:-1], "--open", "ALL", descent[-1])


@pytest.mark.parametrize("args", [("hyper",), ("cohomology",), ("check-thomason",),
                                  ("check-thomason", "--mode", "literal"),
                                  ("check-thomason", "--mode", "reduced"),
                                  ("spectral", "--source", "descent")])
def test_a_problem_file_on_the_empty_poset_runs(tmp_path, args):
    # no element, no stalk and no cover: every sheaf built on it, the
    # labelled ones too, has nothing to check, and one open, the empty one
    doc = {"field": {"p": 5}, "format": "godex/1", "poset": {"covers": [], "elements": []},
           "sheaf": {"restrictions": [], "stalks": {}}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("--format", "json", *args, str(path))
    assert code == 0, err
    want = {"hyper": {"certified_degree": 3, "stalks": {}},
            "cohomology": {"betti": {}, "certified_degree": None, "open": []},
            "check-thomason": {"certified_degree": None, "verdict": True, "witnesses": [],
                               "mode": "literal" if len(args) == 1 else args[-1]},
            "spectral": {"certified_degree": 3, "pages": {"0": {}, "1": {}, "2": {}},
                         "source": "descent"}}[args[0]]
    assert json.loads(out) == {"command": args[0], **want}


def test_filtration_ranges_out_of_order_are_invalid_input(tmp_path):
    # k_min above k_max, and an F^k outside (k_min, k_max], which would
    # otherwise be dropped without a word
    doc = json.loads((DATA / "filtered-example.json").read_text())
    filt = doc["filtered_complex"]["filtration"]
    given = sorted(filt["subspaces"], key=int)
    for k_min, k_max in ((3, 1), (-5, -1), (int(given[-1]) - 3, int(given[-1]) - 1)):
        filt["k_min"], filt["k_max"] = k_min, k_max
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for args in (("spectral", "--source", "filtered-file"), ("fmt",)):
            code, out, err = run_cli(*args, str(path))
            assert code == 2, (k_min, k_max, args, err)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


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


def test_checks_leave_numpy_ma_unimported():
    # numpy imports numpy.ma lazily (np.unique does, for one), which adds
    # over a megabyte to the peak RSS the benchmark reports
    probe = """
import sys
from godex.exactlin import GF
from godex.filtered import check_descent_axioms_filtered
from godex.godement import descent_spectral_sequence, thomason_check
from godex.site import chain_poset, random_sheaf
F = random_sheaf(chain_poset(3), GF(5), 500, max_dim=2, span=2)
pages = descent_spectral_sequence(F, frozenset(F.poset.elements), 2, F.top_degree + 3)[0]
pages[2].terms
check_descent_axioms_filtered(1, trials=1, N=4, r=1)
thomason_check(F, F.top_degree + 3, mode="reduced")
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False"]


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


@pytest.mark.parametrize("block", ["sheaf2", "map", "poset_mapp"])
def test_sheaf2_and_map_blocks_are_invalid_input(tmp_path, capsys, block):
    # no command reads these blocks (the last is a misspelt "poset_map"), so
    # a file that carries one is refused rather than read without it, and
    # `fmt` never drops it
    doc = json.loads((DATA / "pseudocircle-constant.json").read_text())
    doc[block] = doc["sheaf"] if block == "sheaf2" else {"components": {}}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    for args in (["fmt"], ["--format", "json", "cohomology"]):
        code = cli.main([*args, str(path)])
        out, err = capsys.readouterr()
        assert code == 2, (args, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (args, err)
        assert f'"{block}"' in err, (args, err)
