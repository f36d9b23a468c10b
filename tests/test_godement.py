import random

import pytest

import godex.exactlin as exactlin
from godex.complexes import ChainMap, is_quis, random_complex, random_map, single_complex
from godex.cosimplicial import CosimplicialComplex, collapse_by_extra_degeneracy
from godex.errors import NotExtraDegeneracy, TooLarge
from godex.godement import (
    apply_T, cohomology_sheaf, derived_direct_image, derived_sections,
    descent_spectral_sequence, equivalence_check, godement_eta, godement_nu,
    godement_resolution, godement_T, hypercohomology_map, hypercohomology_sheaf, independent_e2_dims, localeq_verdicts,
    resolution_sections,
    separation_witness, sheaf_extra_degeneracy_top, skyscraper_counit,
    stalk_commutation_check, stalk_extra_degeneracy, t_apply_map, t_chain_layout, thomason_check,
)
from godex.site import (
    STANDARD_POSETS, MonotoneMap, chain_poset, constant_sheaf, point_poset, pseudocircle_poset,
    random_poset, random_sheaf, SheafMap, sections_map, sierpinski_poset, skyscraper,
)

from conftest import basis_quis_per_degree


def test_godement_T_point(f5):
    pt = point_poset()
    F = random_sheaf(pt, f5, 0)
    TF, eta, nu = godement_T(F)
    assert TF.stalk("*").dims == F.stalk("*").dims
    assert eta.component("*") == ChainMap.identity(F.stalk("*"))


def test_godement_T_sierpinski_constant(f5):
    S = sierpinski_poset()
    F = constant_sheaf(S, single_complex(f5, 0, 1))
    TF, eta, nu = godement_T(F)
    assert TF.stalk("c").dim(0) == 2
    assert TF.stalk("o").dim(0) == 1
    assert eta.component("c").component(0).rows_list() == [[1], [1]]


def test_triple_laws_on_random_sheaves(f5):
    for P in (sierpinski_poset(), pseudocircle_poset()):
        for seed in range(2):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            godement_T(F)  # raises on any failed law


def test_resolution_point_poset(f5):
    pt = point_poset()
    F = random_sheaf(pt, f5, 5)
    res = godement_resolution(F, 3)
    for p in range(4):
        assert res.level(p).stalk("*").dims == F.stalk("*").dims
        for i in range(p + 1):
            if p >= 1:
                assert res.cofaces[(p, i)].component("*") == \
                    ChainMap.identity(F.stalk("*"))


def test_resolution_dims_by_chain_count(f5):
    # on the five suite posets: the stalk dims of G^p F count the weak chains
    # x <= y_0 <= ... <= y_p, the flattened layout of an iterated T-stalk
    # lists exactly the chains with F_{y_p}^q != 0 in weak-chain order, and
    # every T-stalk has a block for each y in ↑x in each degree of its base
    for name, make in STANDARD_POSETS.items():
        P = make()
        F = random_sheaf(P, f5, 1)
        res = godement_resolution(F, 3)
        tower = [F] + [res.level(p) for p in range(4)]
        for p in range(4):
            for x in P.elements:
                expect = {}
                chains = P.weak_chains(p + 1, within=P.up_set(x))
                for chain in chains:
                    for q, d in F.stalk(chain[-1]).dims.items():
                        expect[q] = expect.get(q, 0) + d
                assert res.level(p).stalk(x).dims == expect, (name, p, x)
                for q in range(F.lower - 1, F.top_degree + 2):
                    want = [c for c in chains if F.stalk(c[-1]).dim(q)]
                    assert list(t_chain_layout(res.level(p), x, q)) == want, (name, p, x, q)
                blocks = res.level(p).stalk(x).blocks
                assert list(blocks) == list(range(tower[p].lower, tower[p].top_degree + 1))
                assert all(tuple(L) == P.sorted_subset(P.up_set(x)) for L in blocks.values())


def _iterated_structure_maps(tower, p_max):
    """Reference: d^i = T^i η T^{p-i} and s^j = T^j ν T^{p-j}, each built
    from η or ν by i (or j) nested applications of T."""
    cofaces = {}
    for p in range(1, p_max + 1):
        for i in range(p + 1):
            f = godement_eta(tower[p - i], tower[p - i + 1])
            for j in range(i):
                f = t_apply_map(f, tower[p - i + j + 1], tower[p - i + j + 2])
            cofaces[(p, i)] = f
    codegens = {}
    for p in range(p_max):
        for j in range(p + 1):
            base = p - j
            f = godement_nu(tower[base], tower[base + 1], tower[base + 2])
            for k in range(j):
                f = t_apply_map(f, tower[base + k + 3], tower[base + k + 2])
            codegens[(p, j)] = f
    return cofaces, codegens


def test_resolution_structure_maps_equal_iterated_T(f5):
    # the recursion d^i_p = T(d^{i-1}_{p-1}) gives the same matrices as
    # building every map from η or ν on all five suite posets
    for name, make in STANDARD_POSETS.items():
        F = random_sheaf(make(), f5, 31)
        res = godement_resolution(F, 3)
        tower = [F] + [res.level(p) for p in range(4)]
        cofaces, codegens = _iterated_structure_maps(tower, 3)
        assert list(res.cofaces) == list(cofaces), name
        assert list(res.codegeneracies) == list(codegens), name
        for key, f in cofaces.items():
            assert res.cofaces[key] == f, (name, key)
        for key, f in codegens.items():
            assert res.codegeneracies[key] == f, (name, key)


def test_resolution_cosimplicial_identities(f5):
    P = sierpinski_poset()
    F = random_sheaf(P, f5, 2, max_dim=2, span=2)
    res = godement_resolution(F, 3)
    res.validate()


def test_stalkwise_extra_degeneracy_pseudocircle(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 3, max_dim=2, span=2)
    N = 4
    res = godement_resolution(F, N - F.lower)
    for x in P.elements:
        eps, X, extra = stalk_extra_degeneracy(res, x)
        cert = collapse_by_extra_degeneracy(eps, X, extra, N, side="bottom")
        assert cert


def test_mirrored_stalk_extra_degeneracy_is_top_sided(f5):
    # reversing the order of [p] turns a bottom-side extra degeneracy into a
    # top-side one of the mirrored object; at the points where the mirror
    # is not X again it is no bottom-side one
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 3, max_dim=2, span=2)
    N = 4
    res = godement_resolution(F, N - F.lower)
    refused = 0
    for x in P.elements:
        eps, X, extra = stalk_extra_degeneracy(res, x)
        mirror = CosimplicialComplex(
            X.field, X.levels, {(p, i): X.coface(p, p - i) for (p, i) in X.cofaces},
            {(p, j): X.codegeneracy(p, p - j) for (p, j) in X.codegeneracies}, X.p_max)
        assert collapse_by_extra_degeneracy(eps, mirror, extra, N, side="top")
        try:
            collapse_by_extra_degeneracy(eps, mirror, extra, N, side="bottom")
        except NotExtraDegeneracy:
            refused += 1
    assert refused


def test_skyscraper_resolution_extra_degeneracy_on_opens(f5):
    # the resolution of a skyscraper, evaluated on any open, collapses by a
    # top-side extra degeneracy
    rng = random.Random(4)
    S = sierpinski_poset()
    D = random_complex(f5, rng, span=2, max_dim=2)
    F = skyscraper(S, "c", D)
    N = D.upper + 2
    res = godement_resolution(F, N - F.lower)
    counit = skyscraper_counit(res, "c")
    extra_sheaf = sheaf_extra_degeneracy_top(res, "c")
    from godex.site import sections as _sections
    from godex.site import sections_map as _sections_map
    for U in S.up_sets():
        if not U:
            continue
        X, eps, sec_F = resolution_sections(res, U)
        secs = {p: _sections(res.level(p), U) for p in range(res.p_max + 1)}
        extra = [_sections_map(extra_sheaf[0], U, secs[0], sec_F)]
        for p in range(1, res.p_max + 1):
            extra.append(_sections_map(extra_sheaf[p], U, secs[p], secs[p - 1]))
        cert = collapse_by_extra_degeneracy(eps, X, extra, N, side="top")
        assert cert


def test_hypercohomology_point(f5):
    pt = point_poset()
    F = random_sheaf(pt, f5, 6)
    N = F.top_degree + 3
    hyper = hypercohomology_sheaf(F, N)
    assert equivalence_check(hyper.rho, "local").verdict
    assert hyper.H.stalk("*").betti() == F.stalk("*").betti()


@pytest.mark.parametrize("name", list(STANDARD_POSETS))
def test_hypercohomology_sheaf_and_rho_validate_on_suite_sheaves(f5, name):
    """H_X(F) and ρ are built unchecked; here they pass the full sheaf and
    sheaf-map checks, including a common lower bound where a stalk's total
    is zero."""
    P = STANDARD_POSETS[name]()
    for t in range(20):
        F = random_sheaf(P, f5, 1000 * len(name) + t, max_dim=2, span=3)
        hyper = hypercohomology_sheaf(F, F.top_degree + 3)
        hyper.H.validate()
        hyper.rho.validate()


def test_hypercohomology_skyscraper_sections(f5):
    rng = random.Random(7)
    for P in (sierpinski_poset(), pseudocircle_poset()):
        D = random_complex(f5, rng, span=2, max_dim=2)
        x = rng.choice(P.elements)
        F = skyscraper(P, x, D)
        N = D.upper + 3
        sec, betti = derived_sections(F, frozenset(P.elements), N)
        want = {n: b for n, b in D.cohomology().betti.items()
                if b and n <= sec.certified_degree}
        assert betti == want


def test_hypercohomology_pseudocircle_constant(f5):
    P = pseudocircle_poset()
    F = constant_sheaf(P, single_complex(f5, 0, 1))
    sec, betti = derived_sections(F, frozenset(P.elements), 4)
    assert betti == {0: 1, 1: 1}


def test_equivalence_check_identity(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 8)
    from godex.site import SheafMap
    ident = SheafMap.identity(F)
    assert equivalence_check(ident, "local").verdict
    assert equivalence_check(ident, "global").verdict


def test_rho_local_on_small_posets(f5):
    rng = random.Random(9)
    for _ in range(4):
        P = random_poset(rng.randint(1, 5), rng)
        F = random_sheaf(P, f5, rng.randrange(1 << 20), max_dim=2, span=2)
        hyper = hypercohomology_sheaf(F, F.top_degree + 3)
        assert equivalence_check(hyper.rho, "local").verdict


def test_separation_witness_W_not_S(f5):
    rho, local, glob = separation_witness(f5)
    assert local.verdict
    assert not glob.verdict
    # the failing open is the whole pseudocircle, in degree 1
    labels = {w[0] for w in glob.witnesses}
    assert ("a", "b", "x", "y") in labels


def test_equivalence_check_too_large(f5):
    rng = random.Random(10)
    P = random_poset(13, rng)
    F = constant_sheaf(P, single_complex(f5, 0, 1))
    from godex.site import SheafMap
    with pytest.raises(TooLarge):
        equivalence_check(SheafMap.identity(F), "global")
    # supplying opens works
    rep = equivalence_check(SheafMap.identity(F), "global",
                            opens=[frozenset(), frozenset(P.elements)])
    assert rep.verdict


def test_theta_structural_identity(f5):
    for P in (sierpinski_poset(), pseudocircle_poset()):
        F = random_sheaf(P, f5, 11, max_dim=2, span=2)
        rep = stalk_commutation_check(F, F.top_degree + 3)
        assert rep.verdict


def test_thomason_point_trivial(f5):
    pt = point_poset()
    F = random_sheaf(pt, f5, 12)
    rep = thomason_check(F, F.top_degree + 3, mode="literal")
    assert rep.verdict


def test_thomason_literal_vs_reduced_agree(f5):
    for P in (point_poset(), sierpinski_poset(), chain_poset(3)):
        for seed in (13, 14):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            N = F.top_degree + 3
            a = thomason_check(F, N, mode="literal")
            b = thomason_check(F, N, mode="reduced")
            assert a.verdict and b.verdict


def test_rank_only_is_quis_on_a_literal_suite_sheaf(f5, monkeypatch):
    # criterion-2 pseudocircle sheaf t = 4 (checked in literal Thomason mode):
    # ρ_F on every stalk and every open, and ρ_{H_X F} on every open, which is
    # the literal Thomason check; the large complexes take the sparse rank
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 1000 * len("pseudocircle") + 4, max_dim=2, span=3)
    hyper = hypercohomology_sheaf(F, 6)
    hyper2 = hypercohomology_sheaf(hyper.H, 6)
    maps = [hyper.rho.component(x) for x in P.elements]
    maps += [sections_map(rho, U) for rho in (hyper.rho, hyper2.rho) for U in P.up_sets()]
    sparse = []
    rank_sparse = exactlin._rank_sparse
    monkeypatch.setattr(exactlin, "_rank_sparse",
                        lambda a, p: sparse.append(a.shape) or rank_sparse(a, p))
    for f in maps:
        assert is_quis(f).per_degree == basis_quis_per_degree(f)
    assert max(r * c for r, c in sparse) > 20_000


def test_thomason_of_TF(f5):
    # T(F) itself satisfies Thomason descent
    P = sierpinski_poset()
    F = random_sheaf(P, f5, 15, max_dim=2, span=2)
    TF = apply_T(F)
    N = TF.top_degree + 2
    hyper = hypercohomology_sheaf(TF, N)
    assert equivalence_check(hyper.rho, "global").verdict


def test_idempotence_up_to_global_equivalence(f5):
    # rho_{H(F)} and H(rho_F) are both global equivalences (small scale)
    for P in (sierpinski_poset(), chain_poset(3)):
        F = random_sheaf(P, f5, 16, max_dim=2, span=2)
        N = F.top_degree + 3
        hyper = hypercohomology_sheaf(F, N)
        hyper2 = hypercohomology_sheaf(hyper.H, N)
        assert equivalence_check(hyper2.rho, "global").verdict
        hmap, _, _ = hypercohomology_map(hyper.rho, N, hyper_src=hyper)
        assert equivalence_check(hmap, "global").verdict


def test_localeq_triple_agreement(f5):
    rng = random.Random(17)
    P = sierpinski_poset()
    for seed in range(3):
        F = random_sheaf(P, f5, seed + 30, max_dim=2, span=2)
        G = random_sheaf(P, f5, seed + 60, max_dim=2, span=2)
        f = SheafMap(F, G, random_map(F, G, rng))
        N = max(F.top_degree, G.top_degree) + 3
        v = localeq_verdicts(f, N)
        assert v["local"] == v["T_global"] == v["H_global"]


def test_derived_sections_skyscraper_membership(f5):
    rng = random.Random(18)
    P = pseudocircle_poset()
    D = random_complex(f5, rng, span=2, max_dim=2)
    F = skyscraper(P, "x", D)
    N = D.upper + 3
    hyper = hypercohomology_sheaf(F, N)
    want = D.cohomology().betti
    for U in P.up_sets():
        sec, betti = derived_sections(F, U, N, hyper=hyper)
        if "x" in U:
            assert betti == {n: b for n, b in want.items()
                             if b and n <= sec.certified_degree}
        else:
            assert betti == {}


def test_derived_direct_image(f5):
    P = pseudocircle_poset()
    S = sierpinski_poset()
    F = random_sheaf(P, f5, 19, max_dim=2, span=2)
    N = F.top_degree + 3
    hyper = hypercohomology_sheaf(F, N)
    # identity
    idm = MonotoneMap(P, P, {x: x for x in P.elements})
    img = derived_direct_image(idm, F, N, hyper=hyper)
    for x in P.elements:
        assert img.stalk(x).betti() == hyper.H.stalk(x).betti()
    # collapse to a point = global derived sections
    pt = point_poset()
    coll = MonotoneMap(P, pt, {x: "*" for x in P.elements})
    img = derived_direct_image(coll, F, N, hyper=hyper)
    _, betti = derived_sections(F, frozenset(P.elements), N, hyper=hyper)
    assert img.stalk("*").betti() == betti
    # projection to sierpinski: stalkwise = RΓ of the preimage
    proj = MonotoneMap(P, S, {"a": "c", "b": "c", "x": "o", "y": "o"})
    img = derived_direct_image(proj, F, N, hyper=hyper)
    for q in S.elements:
        pre = proj.preimage(S.up_set(q))
        _, betti = derived_sections(F, pre, N, hyper=hyper)
        assert img.stalk(q).betti() == betti


def test_derived_sections_agree_with_replacement_on_every_open(f5):
    from godex.oracle import replacement_complex
    for P in (sierpinski_poset(), chain_poset(3), pseudocircle_poset()):
        F = random_sheaf(P, f5, 23, max_dim=2, span=2)
        N = F.top_degree + 3
        hyper = hypercohomology_sheaf(F, N)
        for U in P.up_sets():
            sec, betti = derived_sections(F, U, N, hyper=hyper)
            if not U:
                assert betti == {}
                continue
            want = replacement_complex(F, N, within=U).betti()
            assert betti == want, U


def test_cohomology_sheaf_functorial(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 20, max_dim=2, span=3)
    for q in range(F.lower, F.top_degree + 1):
        HqF = cohomology_sheaf(F, q)  # constructor validates functoriality
        for x in P.elements:
            assert HqF.stalk(x).dim(q) == F.stalk(x).cohomology().betti.get(q, 0)


def test_spectral_sequence_single_degree_sheaf(f5):
    # F concentrated in one degree: E_2 supported on that row and equal to
    # the sheaf cohomology of the degreewise cohomology sheaf
    rng = random.Random(21)
    P = pseudocircle_poset()
    q0 = 1
    stalk_dims = {x: rng.randint(1, 2) for x in P.elements}
    from godex.complexes import CochainComplex
    from godex.site import Sheaf
    stalks = {x: CochainComplex(f5, {q0: stalk_dims[x]}, {}, lower=q0) for x in P.elements}
    restr = {}
    for (a, b) in P.pairs():
        from godex.exactlin import random_matrix
        restr[(a, b)] = ChainMap(stalks[a], stalks[b],
                                 {q0: random_matrix(f5, stalk_dims[b], stalk_dims[a], rng)},
                                 check=False)
    # force functoriality: pseudocircle has no composable strict pairs
    F = Sheaf(P, f5, stalks, restr)
    N = q0 + 3
    pages, FC, total, _ = descent_spectral_sequence(F, frozenset(P.elements), 2, N)
    e2 = pages[2].dims()
    assert all(q == q0 for (p, q) in e2)
    indep = independent_e2_dims(F, frozenset(P.elements), N)
    cert = total.certified_degree
    assert {pq: d for pq, d in e2.items() if pq[0] + pq[1] <= cert} == \
        {pq: d for pq, d in indep.items() if pq[0] + pq[1] <= cert}


def test_spectral_sequence_pseudocircle_degenerates(f5):
    P = pseudocircle_poset()
    F = constant_sheaf(P, single_complex(f5, 0, 1))
    pages, FC, total, _ = descent_spectral_sequence(F, frozenset(P.elements), 3, 4)
    e2 = pages[2].dims()
    cert = total.certified_degree
    vis = {pq: d for pq, d in e2.items() if pq[0] + pq[1] <= cert}
    assert vis == {(0, 0): 1, (1, 0): 1}
    e3 = pages[3].dims()
    assert {pq: d for pq, d in e3.items() if pq[0] + pq[1] <= cert} == vis


def test_spectral_euler_characteristic(f5):
    # the alternating sum of E_2 dims equals the Euler characteristic of the
    # derived sections, on instances whose cohomology vanishes above the
    # certified range
    P = sierpinski_poset()
    F = random_sheaf(P, f5, 22, max_dim=2, span=2)
    N = F.top_degree + 4
    pages, FC, total, _ = descent_spectral_sequence(F, frozenset(P.elements), 2, N)
    cert = total.certified_degree
    chi_e2 = sum((-1) ** (p + q) * d for (p, q), d in pages[2].dims().items()
                 if p + q <= cert)
    betti = total.betti()
    assert max(betti, default=0) <= cert
    chi_h = sum((-1) ** n * b for n, b in betti.items())
    assert chi_e2 == chi_h
