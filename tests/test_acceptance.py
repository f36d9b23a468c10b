"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime once its assertions
hold; every expectation is exact (tolerance zero).  The randomized-suite
posets are: point, Sierpiński, the 3-chain, the pseudocircle and the
6-point pseudo-2-sphere.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from godex.complexes import random_complex, random_map, single_complex
from godex.cosimplicial import check_descent_axioms
from godex.exactlin import GF, QQ
from godex.filtered import (
    decalage, er_page, filtered_simple,
    filtrations_equal, random_filtered_complex, random_filtered_cosimplicial,
)
from godex.godement import (
    derived_sections, descent_spectral_sequence, equivalence_check,
    hypercohomology_sheaf, independent_e2_dims,
    separation_witness, stalk_commutation_check, thomason_check,
)
from godex.oracle import constant_cohomology, holim_replacement
from godex.problemfile import ProblemFile, emit_document, parse_document
from godex.site import (
    chain_poset, constant_sheaf, point_poset, pseudocircle_poset,
    pseudosphere_poset, random_sheaf, SheafMap, sections, sierpinski_poset, skyscraper,
)

from conftest import decalage_levelwise, deligne_reindex, localeq_verdicts

F5 = GF(5)

SUITE_POSETS = {
    "point": point_poset(),
    "sierpinski": sierpinski_poset(),
    "chain3": chain_poset(3),
    "pseudocircle": pseudocircle_poset(),
    "pseudosphere": pseudosphere_poset(),
}

SUITE_TRIALS = 20
SUITE_N = 6


def suite_sheaves(trials=SUITE_TRIALS, max_dim=2, span=3):
    for name, P in SUITE_POSETS.items():
        for t in range(trials):
            yield name, t, random_sheaf(P, F5, 1000 * len(name) + t,
                                        max_dim=max_dim, span=span)


def report(criterion, t0, detail=""):
    dt = time.time() - t0
    print(f"criterion {criterion}: PASS ({dt:.1f} s){'  ' + detail if detail else ''}")


def test_criterion_01_descent_axiom_suite():
    t0 = time.time()
    rep = check_descent_axioms(seed=2026, trials=50, N=6, max_dim=3, span=3)
    assert rep.all_pass, [t.results for t in rep.trials if not t.passed]
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"descent-axiom suite took {elapsed:.1f} s"
    report(1, t0, "50 trials x S1-S5 over F_5, N=6")


def test_criterion_02_theorem_suite():
    t0 = time.time()
    failures = []
    for name, t, F in suite_sheaves():
        hyper = hypercohomology_sheaf(F, SUITE_N)
        cond2 = equivalence_check(hyper.rho, "local")
        cond3 = stalk_commutation_check(F, SUITE_N, hyper=hyper)
        cond4 = thomason_check(F, SUITE_N, hyper=hyper)
        if not (cond2.verdict and cond3.verdict and cond4.verdict):
            failures.append((name, t, cond2.verdict, cond3.verdict, cond4.verdict))
    assert not failures, failures
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"theorem suite took {elapsed:.1f} s"
    report(2, t0, f"{SUITE_TRIALS} sheaves x {len(SUITE_POSETS)} posets, N={SUITE_N}")


def test_criterion_03_ground_truth_cohomology():
    t0 = time.time()
    k = single_complex(F5, 0, 1)
    P = pseudocircle_poset()
    sec, betti = derived_sections(constant_sheaf(P, k), frozenset(P.elements), 4)
    assert betti == {0: 1, 1: 1} and sec.certified_degree is None
    assert constant_cohomology(P, F5, k, 4) == {0: 1, 1: 1}
    S2 = pseudosphere_poset()
    sec, betti = derived_sections(constant_sheaf(S2, k), frozenset(S2.elements), 4)
    assert betti == {0: 1, 2: 1} and sec.certified_degree is None
    assert constant_cohomology(S2, F5, k, 4) == {0: 1, 2: 1}
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(3, t0, "pseudocircle {0:1,1:1}, pseudo-2-sphere {0:1,2:1}, every degree certified")


def test_criterion_04_oracle_equivalence():
    t0 = time.time()
    for name, t, F in suite_sheaves():
        N = F.top_degree + 3
        sec, betti = derived_sections(F, frozenset(F.poset.elements), N)
        oracle_betti = holim_replacement(F, N).betti()
        assert betti == oracle_betti, (name, t, betti, oracle_betti)
    S2 = pseudosphere_poset()
    F = random_sheaf(S2, QQ, 7, max_dim=2, span=3)
    N = F.top_degree + 3
    betti = derived_sections(F, frozenset(S2.elements), N)[1]
    assert betti == holim_replacement(F, N).betti(), betti
    report(4, t0, "derived sections == holim replacement on every suite instance, "
                  "and on a pseudosphere sheaf over Q")


def test_criterion_05_skyscraper_acyclicity():
    t0 = time.time()
    import random as _r
    rng = _r.Random(99)
    for name, P in SUITE_POSETS.items():
        D = random_complex(F5, rng, span=2, max_dim=2)
        while D.total_dim() == 0:
            D = random_complex(F5, rng, span=2, max_dim=2)
        want = D.cohomology().betti
        N = D.upper + 3
        for x in P.elements:
            F = skyscraper(P, x, D)
            hyper = hypercohomology_sheaf(F, N)
            for U in P.up_sets():
                sec = sections(hyper.H, U)
                betti = sec.betti()
                if x in U:
                    assert betti == {n: b for n, b in want.items()
                                     if b and n <= sec.certified_degree}, (name, x, U)
                else:
                    assert betti == {}, (name, x, U)
    report(5, t0, "RΓ(U, skyscraper) = betti(D) iff the point lies in U")


def test_criterion_06_local_global_equivalences_agree():
    t0 = time.time()
    import random as _r
    rng = _r.Random(7)
    plan = [("point", 6), ("sierpinski", 8), ("chain3", 8), ("pseudocircle", 6),
            ("pseudosphere", 2)]
    checked = 0
    for name, count in plan:
        P = SUITE_POSETS[name]
        for t in range(count):
            F = random_sheaf(P, F5, 7000 + 10 * t, max_dim=2, span=2)
            G = random_sheaf(P, F5, 8000 + 10 * t, max_dim=2, span=2)
            f = SheafMap(F, G, random_map(F, G, rng))
            N = max(F.top_degree, G.top_degree) + 2
            v = localeq_verdicts(f, N)
            assert v["local"] == v["T_global"] == v["H_global"], (name, t, v)
            checked += 1
    assert checked == 30
    report(6, t0, "30 maps: f in W <=> T(f) in S <=> H(f) in S")


def test_criterion_07_spectral_coherence():
    t0 = time.time()
    for name, P in SUITE_POSETS.items():
        for t in range(2):
            F = random_sheaf(P, F5, 500 + t, max_dim=2, span=2)
            N = F.top_degree + 3
            U = frozenset(P.elements)
            pages, FC, total, _ = descent_spectral_sequence(F, U, 2, N)
            cert = total.certified_degree
            e2 = {pq: d for pq, d in pages[2].dims().items() if pq[0] + pq[1] <= cert}
            indep = {pq: d for pq, d in independent_e2_dims(F, U, N).items()
                     if pq[0] + pq[1] <= cert}
            assert e2 == indep, (name, t, e2, indep)
            # E_infinity collapses to the cohomology of the derived sections
            width = FC.k_max - FC.k_min + 1
            einf = er_page(FC, width + 1, up_to=cert).dims()
            betti = total.betti()
            for n in range(total.lower, cert + 1):
                got = sum(d for (p, q), d in einf.items() if p + q == n)
                assert got == betti.get(n, 0), (name, t, n)
    report(7, t0, "E_2 = H^p H^q and E_inf sums to RΓ on the spectral sub-suite")


def test_criterion_08_filtered_interchange():
    t0 = time.time()
    import random as _r
    rng = _r.Random(41)
    N = 4
    for t in range(20):
        XF = random_filtered_cosimplicial(F5, rng, p_max=N, span=2, max_dim=2)
        for r in (0, 1):
            lhs = decalage(filtered_simple(XF, r + 1, N))
            rhs = filtered_simple(decalage_levelwise(XF), r, N)
            assert lhs.base == rhs.base
            assert filtrations_equal(lhs, rhs, up_to=N - 1), (t, r)
    # Deligne's shift: E_{r+1}(FC) = E_r(Dec FC) dimensionwise (r >= 1)
    for t in range(8):
        FC = random_filtered_complex(F5, rng, span=2, max_dim=2)
        D = decalage(FC)
        for r in (1, 2):
            remapped = {deligne_reindex(pq): d for pq, d in er_page(D, r).dims().items()}
            assert remapped == er_page(FC, r + 1).dims(), (t, r)
    report(8, t0, "Dec(s,δ_{r+1}) = (s,δ_r)Dec literally, r in {0,1}; Deligne shift")


def test_criterion_09_separation_witness(tmp_path):
    t0 = time.time()
    rho, local, glob = separation_witness(F5)
    assert local.verdict and not glob.verdict
    # archive the witness: the map, its verdicts and the failing opens
    artifacts = Path(__file__).resolve().parent / "artifacts"
    artifacts.mkdir(exist_ok=True)
    F = rho.source
    payload = {
        "description": "sheaf map in W but not in S: the unit of the "
                       "hypercohomology model of the constant sheaf on the "
                       "pseudocircle",
        "problem_file": json.loads(emit_document(ProblemFile(F5, F.poset, F))),
        "local_equivalence": local.verdict,
        "global_equivalence": glob.verdict,
        "failing_opens": [[list(w[0]), w[1]] for w in glob.witnesses],
    }
    out = artifacts / "w_not_s_witness.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    recovered = json.loads(out.read_text())
    assert recovered["local_equivalence"] is True
    assert recovered["global_equivalence"] is False
    assert recovered["failing_opens"]
    parse_document(json.dumps(recovered["problem_file"]))
    report(9, t0, f"archived to {out.name}: stalkwise quis failing on "
                  f"{len(glob.witnesses)} open/degree pairs")


def test_criterion_10_cli_determinism():
    t0 = time.time()
    data = Path(__file__).resolve().parent.parent / "data"

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "godex.cli", *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    f = data / "pseudocircle-constant.json"
    code, out1 = run("fmt", str(f))
    assert code == 0 and out1 == f.read_text()
    args = ("--format", "json", "check-theorem", "--seed", "7", "--poset-size", "4",
            "--max-dim", "2", "--trials", "20")
    code1, run1 = run(*args)
    code2, run2 = run(*args)
    assert code1 == code2 == 0
    assert run1 == run2
    doc = json.loads(run1)
    assert doc["all_pass"] is True and len(doc["trials"]) == 20
    report(10, t0, "fmt idempotent; check-theorem --seed 7 byte-reproducible")
