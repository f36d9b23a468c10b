"""The benchmark's workloads: fixed instance lists, verdicts and checks.

Every function that needs godex takes `g`, a namespace of freshly imported
godex modules (see `run.import_godex`), so that each pass of a run works on
modules and objects that no earlier pass has touched.

Instance lists are fixed lists of acceptance-suite instances, picked once by
the rules in README.md and written out below.  `--seed` does not pick other
instances: for the sheaf workloads it moves every stalk to a random basis
(seed 0 keeps the suite sheaves as they are); for `axioms` it shuffles the
order of the trials.  That keeps the work of a pass fixed while the numbers
the program sees change with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SUITE_POSETS = ("point", "sierpinski", "chain3", "pseudocircle", "pseudosphere")
SUITE_N = 6           # criterion 2
LITERAL_LIMIT = 60    # the size rule thomason_check(mode="auto") applies today

# Criterion-2 sheaves are random_sheaf(P, F_5, 1000 * len(name) + t,
# max_dim=2, span=3); the lists hold t.  See README.md for how they were cut.
THEOREM_LITERAL = {
    "point": tuple(range(20)),
    "sierpinski": tuple(range(20)),
    "chain3": (2, 5, 7, 10, 12, 19),
    "pseudocircle": (1, 4, 6, 8, 12, 13),
}
THEOREM_REDUCED = {
    "chain3": (0, 1, 3, 4, 6, 8, 11, 15, 16, 17, 18),
    "pseudocircle": (9, 14, 17, 18),
    "pseudosphere": (1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 14, 15, 17, 18, 19),
}
# Criterion-4 sheaves are the criterion-2 sheaves; criterion-7 sheaves are
# random_sheaf(P, F_5, 500 + t, max_dim=2, span=2).
DERIVED_SECTIONS = {
    "point": tuple(range(20)),
    "sierpinski": tuple(range(20)),
    "chain3": (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15, 16, 17, 18, 19),
    "pseudocircle": (0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
    "pseudosphere": (1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 14, 15, 17, 18, 19),
}
DESCENT_SS = {"point": (0, 1), "sierpinski": (0, 1), "chain3": (0, 1),
              "pseudocircle": (0, 1)}
# Criterion 1 parameters; one verdict is one trial of check_descent_axioms.
AXIOM_PLAIN = tuple(2026 + i for i in range(28))
AXIOM_FILTERED = tuple(1 + i for i in range(6))


@dataclass
class Instance:
    key: str          # stable label, e.g. "theorem/pseudocircle/4"
    kind: str         # "theorem", "sections", "descent", "plain", "filtered"
    payload: object   # a Sheaf, or a trial seed
    mode: str = ""    # Thomason mode for "theorem"
    N: int = 0        # truncation degree


# ---- sheaf construction ----------------------------------------------------


def suite_poset(g, name):
    site = g.site
    return {"point": site.point_poset, "sierpinski": site.sierpinski_poset,
            "chain3": lambda: site.chain_poset(3),
            "pseudocircle": site.pseudocircle_poset,
            "pseudosphere": site.pseudosphere_poset}[name]()


def suite_sheaf(g, P, name, t):
    return g.site.random_sheaf(P, g.exactlin.GF(5), 1000 * len(name) + t,
                               max_dim=2, span=3)


def spectral_sheaf(g, P, t):
    return g.site.random_sheaf(P, g.exactlin.GF(5), 500 + t, max_dim=2, span=2)


def change_basis(g, F, rng):
    """F transported along random degreewise automorphisms of its stalks.

    The result is isomorphic to F, so every dimension, rank and verdict is
    unchanged; only the matrices the program works on differ.
    """
    Matrix, CochainComplex = g.exactlin.Matrix, g.complexes.CochainComplex
    field = F.field
    ident = lambda n: Matrix.identity(field, n)  # noqa: E731
    fwd, inv, stalks = {}, {}, {}
    for x in F.poset.elements:
        c = F.stalk(x)
        fwd[x] = {q: g.exactlin.random_invertible(field, c.dim(q), rng) for q in sorted(c.dims)}
        inv[x] = {q: m.inverse() for q, m in fwd[x].items()}
        diffs = {q: fwd[x].get(q + 1, ident(c.dim(q + 1))) @ c.d(q) @ inv[x][q]
                 for q in sorted(c.differentials)}
        stalks[x] = CochainComplex(field, dict(c.dims), diffs, lower=c.lower,
                                   certified_degree=c.certified_degree)
    restr = {}
    for (a, b) in F.poset.pairs():
        r = F.restriction(a, b)
        comps = {q: fwd[b].get(q, ident(m.rows)) @ m @ inv[a].get(q, ident(m.cols))
                 for q, m in sorted(r.components.items())}
        restr[(a, b)] = g.complexes.ChainMap(stalks[a], stalks[b], comps)
    return g.site.Sheaf(F.poset, field, stalks, restr, check=True)


def seeded(g, F, seed, key):
    """The seed's copy of suite sheaf F: F itself for seed 0."""
    if seed == 0:
        return F
    return change_basis(g, F, random.Random(f"{seed}:{key}"))


def literal_size(P, F, N=SUITE_N):
    """The weak-chain size estimate thomason_check(mode="auto") uses today."""
    weak = len(P.weak_chains(max(N - F.lower, 1)))
    return weak * max(1, F.top_degree + 1)


def total_dim(F):
    return sum(F.stalk(x).total_dim() for x in F.poset.elements)


# ---- instance lists ----------------------------------------------------------


def build_theorem(g, seed, lists, mode):
    out = []
    for name, ts in lists.items():
        P = suite_poset(g, name)
        for t in ts:
            key = f"theorem/{name}/{t}"
            F = seeded(g, suite_sheaf(g, P, name, t), seed, key)
            out.append(Instance(key, "theorem", F, mode=mode, N=SUITE_N))
    return out


def build_derived(g, seed):
    out = []
    for name, ts in DERIVED_SECTIONS.items():
        P = suite_poset(g, name)
        for t in ts:
            key = f"sections/{name}/{t}"
            F = seeded(g, suite_sheaf(g, P, name, t), seed, key)
            out.append(Instance(key, "sections", F, N=F.top_degree + 3))
    for name, ts in DESCENT_SS.items():
        P = suite_poset(g, name)
        for t in ts:
            key = f"descent/{name}/{t}"
            F = seeded(g, spectral_sheaf(g, P, t), seed, key)
            out.append(Instance(key, "descent", F, N=F.top_degree + 3))
    return out


def build_axioms(g, seed):
    out = [Instance(f"plain/{s}", "plain", s, N=6) for s in AXIOM_PLAIN]
    out += [Instance(f"filtered/{s}", "filtered", s, N=4) for s in AXIOM_FILTERED]
    if seed:
        random.Random(seed).shuffle(out)
    return out


# ---- verdicts (the timed work) -----------------------------------------------
# Each returns (summary, detail): `summary` is small and comparable between
# passes; `detail` keeps what the independent checks need.


def verdict(g, inst: Instance):
    gm = g.godement
    F, N = inst.payload, inst.N
    if inst.kind == "theorem":
        hyper = gm.hypercohomology_sheaf(F, N)
        local = gm.equivalence_check(hyper.rho, "local")
        theta = gm.stalk_commutation_check(F, N, hyper=hyper)
        desc = gm.thomason_check(F, N, mode=inst.mode, hyper=hyper)
        return (local.verdict, theta.verdict, desc.verdict, desc.mode), None
    if inst.kind == "sections":
        _, betti = gm.derived_sections(F, frozenset(F.poset.elements), N)
        return tuple(sorted(betti.items())), betti
    if inst.kind == "descent":
        pages, FC, total, _ = gm.descent_spectral_sequence(
            F, frozenset(F.poset.elements), 2, N)
        dims = tuple(tuple(sorted(page.dims().items())) for page in pages)
        return dims, (pages, FC, total)
    if inst.kind == "plain":
        rep = g.cosimplicial.check_descent_axioms(seed=inst.payload, trials=1, N=N,
                                                  max_dim=3, span=3)
    else:
        rep = g.filtered.check_descent_axioms_filtered(inst.payload, trials=1, N=N, r=1)
    results = {k: bool(v) for k, v in rep.trials[0].results.items()}
    return tuple(sorted(results.items())), results


# ---- checks (outside the timed region) -----------------------------------------
# Pure predicates, so the self-test can feed them corrupted results.


def theorem_ok(summary, mode) -> bool:
    """ρ local, stalk commutation and Thomason descent all hold, in `mode`."""
    local, theta, thomason, got_mode = summary
    return local is True and theta is True and thomason is True and got_mode == mode


def separation_ok(local, global_, witnesses) -> bool:
    """The W-not-S witness: local equivalence, no global one, witnesses given."""
    return local is True and global_ is False and len(witnesses) > 0


def betti_ok(betti, oracle_betti) -> bool:
    return betti == oracle_betti


def constant_ok(derived_betti, nerve_betti, expected) -> bool:
    return derived_betti == expected and nerve_betti == expected


def e2_ok(e2, independent, cert) -> bool:
    """E_2 equals H^p H^q in certified total degrees."""
    keep = lambda d: {pq: v for pq, v in d.items() if pq[0] + pq[1] <= cert}  # noqa: E731
    return keep(e2) == keep(independent)


def einf_ok(einf, betti, lower, cert) -> bool:
    """E_infinity sums to the cohomology of RΓ in every certified degree."""
    return all(sum(d for (p, q), d in einf.items() if p + q == n) == betti.get(n, 0)
               for n in range(lower, cert + 1))


def axioms_ok(results) -> bool:
    return set(results) == {"S1", "S2", "S3", "S4", "S5"} and all(
        v is True for v in results.values())


def mutant_ok(note) -> bool:
    """The drop_d1_sign corruption is caught (the CLI's criterion)."""
    return note is not None and "fails" in note


def check_instance(g, inst: Instance, summary, detail) -> bool:
    """Check one verdict against an independent computation or property."""
    if inst.kind == "theorem":
        return theorem_ok(summary, inst.mode)
    if inst.kind in ("plain", "filtered"):
        return axioms_ok(detail)
    F, N = inst.payload, inst.N
    if inst.kind == "sections":
        return betti_ok(detail, g.oracle.holim_replacement(F, N).betti())
    pages, FC, total = detail
    U = frozenset(F.poset.elements)
    cert = total.certified_degree
    width = FC.k_max - FC.k_min + 1
    einf = g.filtered.er_page(FC, width + 1, up_to=cert).dims()
    return (e2_ok(pages[2].dims(), g.godement.independent_e2_dims(F, U, N), cert)
            and einf_ok(einf, total.betti(), total.lower, cert))


def controls(g, workload) -> dict:
    """Ground truths and negative controls of a workload, as name -> check.

    Each check takes no argument and returns whether the control held.
    """
    F5 = g.exactlin.GF(5)
    gm = g.godement
    if workload.startswith("theorem"):
        def separation():
            _, local, glob = gm.separation_witness(F5)
            return separation_ok(local.verdict, glob.verdict, glob.witnesses)
        return {"separation_witness": separation}
    if workload == "derived":
        k = g.complexes.single_complex(F5, 0, 1)

        def constant(name, expected):
            P = suite_poset(g, name)
            _, betti = gm.derived_sections(g.site.constant_sheaf(P, k),
                                           frozenset(P.elements), 4)
            return constant_ok(betti, g.oracle.constant_cohomology(P, F5, k, 4), expected)
        return {"constant/pseudocircle": lambda: constant("pseudocircle", {0: 1, 1: 1}),
                "constant/pseudosphere": lambda: constant("pseudosphere", {0: 1, 2: 1})}

    def mutant():
        rep = g.cosimplicial.check_descent_axioms(seed=2026, trials=0, N=6,
                                                  mutate="drop_d1_sign")
        return mutant_ok(rep.mutant_note)
    return {"mutant/drop_d1_sign": mutant}


BUILDERS = {
    "theorem-literal": lambda g, seed: build_theorem(g, seed, THEOREM_LITERAL, "literal"),
    "theorem-reduced": lambda g, seed: build_theorem(g, seed, THEOREM_REDUCED, "reduced"),
    "derived": build_derived,
    "axioms": build_axioms,
}
WORKLOADS = tuple(BUILDERS)
