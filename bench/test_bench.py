"""Fast self-test of the benchmark (about 15 s).

    python3 -m pytest -q bench/test_bench.py

Runs every workload on two instances and checks the report's metric names
and units against BENCHMARK.json, then feeds one corrupted result to each
check and asserts that the check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--limit", "2", "--min-verdicts", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_untraced_report(workload):
    res = run(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 5
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_report():
    res = run("theorem-literal", 1)
    assert res["correct"] is True and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["exactlin.rref.calls"] > 0 and m["godement.hypercohomology_sheaf.share"] > 0
    assert 0 < m["exactlin.rref.density"] <= 1
    assert m["exactlin.rref.work"] <= m["exactlin.rref.cells"] * 1000


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "derived",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---- each check rejects a corrupted result ------------------------------------


def test_theorem_check():
    good = (True, True, True, "literal")
    assert W.theorem_ok(good, "literal")
    assert not W.theorem_ok((True, True, False, "literal"), "literal")
    assert not W.theorem_ok(good, "reduced")


def test_separation_check():
    assert W.separation_ok(True, False, [("a", 1)])
    assert not W.separation_ok(True, True, [("a", 1)])   # a verdict that is always True
    assert not W.separation_ok(True, False, [])


def test_betti_checks():
    assert W.betti_ok({0: 1, 1: 2}, {0: 1, 1: 2})
    assert not W.betti_ok({0: 1, 1: 2}, {0: 1, 1: 1})
    assert W.constant_ok({0: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 2: 1})
    assert not W.constant_ok({0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 2: 1})


def test_spectral_checks():
    e2 = {(0, 0): 1, (1, 0): 2, (0, 5): 7}
    assert W.e2_ok(e2, {(0, 0): 1, (1, 0): 2}, cert=3)
    assert not W.e2_ok(e2, {(0, 0): 1, (1, 0): 1}, cert=3)
    einf = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert W.einf_ok(einf, {0: 1, 1: 2}, lower=0, cert=1)
    assert not W.einf_ok(einf, {0: 1, 1: 1}, lower=0, cert=1)


def test_axiom_checks():
    good = {f"S{i}": True for i in range(1, 6)}
    assert W.axioms_ok(good)
    assert not W.axioms_ok({**good, "S3": False})
    assert W.mutant_ok("sign mutant: d∘d != 0 first fails from degree 0")
    assert not W.mutant_ok("sign mutant: no failure detected (object too degenerate)")


def test_instance_lists_follow_the_size_rules():
    """The written-out lists are what the rules in README.md select."""
    sys.path.insert(0, str(ROOT / "src"))
    from run import import_godex
    g = import_godex()
    lit, red, sec = {}, {}, {}
    for name in W.SUITE_POSETS:
        P = W.suite_poset(g, name)
        for t in range(20):
            F = W.suite_sheaf(g, P, name, t)
            literal = W.literal_size(P, F) <= W.LITERAL_LIMIT
            dim = W.total_dim(F)
            if literal and (name != "pseudocircle" or dim <= 9):
                lit.setdefault(name, []).append(t)
            if not literal and dim <= 21:
                red.setdefault(name, []).append(t)
            if dim <= 21:
                sec.setdefault(name, []).append(t)
    tup = lambda d: {k: tuple(v) for k, v in d.items()}  # noqa: E731
    assert tup(lit) == W.THEOREM_LITERAL
    assert tup(red) == W.THEOREM_REDUCED
    assert tup(sec) == W.DERIVED_SECTIONS
