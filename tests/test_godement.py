import collections
import itertools
import random
import sys

import pytest

import godex.exactlin as exactlin
from godex.exactlin import GF, QQ, Layout, Matrix, alternating_sum
from godex.complexes import (
    _UNBUILT, ChainMap, CochainComplex, is_quis, random_complex, random_map, single_complex,
)
from godex.cosimplicial import (
    CosimplicialComplex, alternating_coface_sum, collapse_by_extra_degeneracy, simple,
)
from godex.errors import InvariantError, NotExtraDegeneracy, TooLarge
from godex.filtered import FilteredComplex, er_page
from godex.godement import (
    GodementResolution, apply_T, cohomology_sheaf, derived_direct_image, derived_sections,
    descent_double_complex, descent_spectral_sequence, equivalence_check, godement_eta, godement_nu,
    godement_resolution, hypercohomology_sheaf, independent_e2_dims, reduced_hypercohomology,
    separation_witness, stalk_commutation_check, t_apply_map, thomason_check, _hypercohomology,
)
from godex.site import (
    STANDARD_POSETS, MonotoneMap, chain_poset, constant_sheaf, point_poset, pseudocircle_poset,
    random_poset, random_sheaf, SheafMap, sections, sections_map, sierpinski_poset, skyscraper,
)

from conftest import (
    basis_quis_per_degree, hypercohomology_map, localeq_verdicts, random_matrix, skyscraper_counit,
    t_chain_layout,
)


def stalk_extra_degeneracy(res: GodementResolution, x):
    """The extra degeneracy of the coaugmented stalkwise resolution at x.

    Returns (eps_x, X_x, extra) for collapse_by_extra_degeneracy with
    side="bottom": extra[p] projects the iterated product onto the chains
    whose first entry is x itself.
    """
    F = res.sheaf
    field = F.field
    X = res.stalkwise(x)
    extra = []
    for p in range(res.p_max + 1):
        here = res.level(p).stalk(x)
        target = F.stalk(x) if p == 0 else res.level(p - 1).stalk(x)
        comps = {n: here.blocks[n].projection(field, [x]) for n in target.dims if here.dim(n)}
        extra.append(ChainMap(X.level(p), target, comps, check=False))
    return res.eta.component(x), X, extra


def sheaf_extra_degeneracy_top(res: GodementResolution, y0):
    """Top-side extra degeneracy family for G•(skyscraper at y0):
    extra[p] = T^p(counit)."""
    out = [skyscraper_counit(res, y0)]
    for p in range(1, res.p_max + 1):
        out.append(t_apply_map(out[-1], res.level(p), res.level(p - 1)))
    return out


def resolution_sections(res: GodementResolution, U):
    """Evaluate the resolution on an open: the coaugmented cosimplicial
    complex (Γ(U, F) -> Γ(U, G•F)) with structure maps Γ(U, d^i), Γ(U, s^j)."""
    secs = {p: sections(res.level(p), U) for p in range(res.p_max + 1)}
    sec_F = sections(res.sheaf, U)
    levels = {p: secs[p].complex for p in range(res.p_max + 1)}
    cofaces = {(p, i): sections_map(f, U) for (p, i), f in res.cofaces.items()}
    codegens = {(p, j): sections_map(f, U) for (p, j), f in res.codegeneracies.items()}
    X = CosimplicialComplex(res.sheaf.field, levels, cofaces, codegens, res.p_max, check=False)
    eps = sections_map(res.eta, U)
    return X, eps, sec_F


def _count_builders(monkeypatch):
    """From now on, count the calls (name -> calls) of the three builders of
    Godement structure maps: η (`godement_eta`), ν and T of a map."""
    import godex.godement as gm
    calls = collections.Counter()
    for name in ("godement_eta", "godement_nu", "t_apply_map"):
        build = getattr(gm, name)
        monkeypatch.setattr(gm, name, lambda *a, b=build, n=name: calls.update([n]) or b(*a))
    return calls


def _scaled_at(f: SheafMap, x, c) -> SheafMap:
    """f with its component at x scaled by c."""
    return SheafMap(f.source, f.target, {**f.components, x: f.component(x).scale(c)},
                    check=False)


# The triple laws ν∘η_T = ν∘Tη = id and ν∘ν_T = ν∘Tν are the identities
# s^0_0 d^0_1 = s^0_0 d^1_1 = id and s^0_0 s^0_1 = s^0_0 s^1_1 of G•F, which
# godement_resolution(F, 2).validate() checks at every stalk.

def test_triple_laws_point(f5):
    pt = point_poset()
    F = random_sheaf(pt, f5, 0)
    res = godement_resolution(F, 2)
    res.validate()
    assert res.level(0).stalk("*").dims == F.stalk("*").dims
    assert res.eta.component("*") == ChainMap.identity(F.stalk("*"))


def test_triple_laws_sierpinski_constant(f5):
    S = sierpinski_poset()
    F = constant_sheaf(S, single_complex(f5, 0, 1))
    res = godement_resolution(F, 2)
    res.validate()
    assert res.level(0).stalk("c").dim(0) == 2
    assert res.level(0).stalk("o").dim(0) == 1
    assert res.eta.component("c").component(0).rows_list() == [[1], [1]]


def test_triple_laws_on_random_sheaves(f5):
    for P in (sierpinski_poset(), pseudocircle_poset()):
        for seed in range(2):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            godement_resolution(F, 2).validate()  # raises on any failed law


@pytest.mark.parametrize("broken", ["nu", "T_eta"])
def test_triple_laws_fail_on_a_broken_nu_or_T_eta(f5, broken):
    # negative controls: ν_F = s^0_0 scaled by 2 at one stalk breaks
    # ν∘η_T = id; T(η_F) = d^1_1 scaled by 2 at one stalk, with δ_1 = d^0_1 -
    # d^1_1 carried to match, breaks ν∘Tη = id
    for P in (sierpinski_poset(), pseudocircle_poset()):
        F = random_sheaf(P, f5, 1, max_dim=2, span=2)
        res = godement_resolution(F, 2)
        x = next(x for x in P.elements if F.stalk(x).dims)
        if broken == "nu":
            nu = res.codegeneracies[(0, 0)]
            res.codegeneracies = {**res.codegeneracies, (0, 0): _scaled_at(nu, x, 2)}
        else:
            t_eta = res.cofaces[(1, 1)]
            res.cofaces = {**res.cofaces, (1, 1): _scaled_at(t_eta, x, 2)}
            delta = res.coface_sums[1]
            res.coface_sums[1] = SheafMap(delta.source, delta.target, {
                **delta.components, x: delta.component(x) + t_eta.component(x).scale(-1)},
                check=False)
        with pytest.raises(InvariantError, match="cosimplicial identity"):
            res.validate()


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
                    assert list(t_chain_layout(res, p, x, q)) == want, (name, p, x, q)
                blocks = res.level(p).stalk(x).blocks
                assert list(blocks) == list(range(tower[p].lower, tower[p].top_degree + 1))
                assert all(tuple(L) == P.sorted_subset(P.up_set(x)) for L in blocks.values())


def test_truncated_levels_count_the_chains_a_total_reads():
    # H_X(F) at N = 6 builds level p in the internal degrees <= 6 - p only:
    # its stalk dims count the weak chains x <= y_0 <= ... <= y_p with
    # F_{y_p}^q != 0 for q <= 6 - p, and on this sheaf (degrees 0..2) that
    # leaves out degrees of levels 5 and 6, which certify through 5 - p
    P = pseudocircle_poset()
    F = random_sheaf(P, GF(5), 1000 * len("pseudocircle") + 9, max_dim=2, span=3)
    res = hypercohomology_sheaf(F, 6).resolution
    assert (F.lower, F.top_degree, res.p_max, res.top) == (0, 2, 6, 6)
    dropped = 0
    for p in range(res.p_max + 1):
        for x in P.elements:
            full = {}
            for chain in P.weak_chains(p + 1, within=P.up_set(x)):
                for q, d in F.stalk(chain[-1]).dims.items():
                    full[q] = full.get(q, 0) + d
            expect = {q: d for q, d in full.items() if q <= 6 - p}
            assert res.level(p).stalk(x).dims == expect, (p, x)
            cert = 5 - p if 6 - p < F.top_degree else None
            assert res.level(p).stalk(x).certified_degree == cert, (p, x)
            dropped += sum(full.values()) - sum(expect.values())
    assert dropped


def _assert_totals_of_the_full_tower(F, N, key):
    """hypercohomology_sheaf(F, N), on its truncated tower, has the stalks,
    restrictions and ρ of the totals of the full tower of F."""
    got = hypercohomology_sheaf(F, N)
    want = _hypercohomology(godement_resolution(F, N - F.lower), N)
    assert got.resolution.top == N and want.resolution.top is None, key
    assert any(got.resolution.level(p).stalk(x).dims != want.resolution.level(p).stalk(x).dims
               for p in range(got.resolution.p_max + 1) for x in F.poset.elements), key
    for x in F.poset.elements:
        Hx, Wx = got.H.stalk(x), want.H.stalk(x)
        assert Hx == Wx and Hx.blocks == Wx.blocks, (key, x)
        assert (Hx.lower, Hx.certified_degree) == (Wx.lower, Wx.certified_degree), (key, x)
    for (a, b) in F.poset.pairs():
        assert got.H.restriction(a, b) == want.H.restriction(a, b), (key, a, b)
    assert got.rho == want.rho, key
    return got


def test_truncated_hypercohomology_equals_the_totals_of_the_full_tower():
    # over F_5 the criterion-2 sheaves t = 1, 4 and 9; over Q sheaves of one
    # building block, as the criterion-2 sheaves are slow over Q at N = 6;
    # on each the truncation leaves out some level degree
    for name, make in STANDARD_POSETS.items():
        for t in (1, 4, 9):
            F = random_sheaf(make(), GF(5), 1000 * len(name) + t, max_dim=2, span=3)
            _assert_totals_of_the_full_tower(F, 6, (name, t))
    for name, seed in (("point", 0), ("sierpinski", 2), ("chain3", 5), ("pseudocircle", 2),
                       ("pseudosphere", 8)):
        F = random_sheaf(STANDARD_POSETS[name](), QQ, seed, max_dim=2, span=3, blocks=1)
        _assert_totals_of_the_full_tower(F, 6, (name, seed))
    # and H_X(H_X F) of a literal-mode pseudocircle sheaf
    P = pseudocircle_poset()
    F = random_sheaf(P, GF(5), 1000 * len("pseudocircle") + 4, max_dim=2, span=3)
    _assert_totals_of_the_full_tower(hypercohomology_sheaf(F, 6).H, 6, "H_X(H_X F)")


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


def test_resolution_structure_maps_equal_iterated_T(monkeypatch):
    # the recursion d^i_p = T(d^{i-1}_{p-1}) gives the same matrices as
    # building every map from η or ν, and the coface sums of the recursion
    # δ_p = η - T(δ_{p-1}) are the alternating sums of those cofaces, on all
    # five suite posets for p <= 3, over F_5 and Q
    cases = itertools.product((GF(5), QQ), STANDARD_POSETS.items(), (1, 4))
    built = _count_builders(monkeypatch)
    for field, (name, make), t in cases:
        F = random_sheaf(make(), field, 1000 * len(name) + t, max_dim=2, span=3)
        built.clear()
        res = godement_resolution(F, 3)
        assert built == {"godement_eta": 1}, name  # η_F, and no structure map
        tower = [F] + [res.level(p) for p in range(4)]
        cofaces, codegens = _iterated_structure_maps(tower, 3)
        assert list(res.cofaces) == list(cofaces), name
        assert list(res.codegeneracies) == list(codegens), name
        for key, f in cofaces.items():
            assert res.cofaces[key] == f, (field, name, key)
        for key, f in codegens.items():
            assert res.codegeneracies[key] == f, (field, name, key)
        assert list(res.coface_sums) == [1, 2, 3], name
        for x in F.poset.elements:
            for p, delta in res.coface_sums.items():
                for q in tower[p].stalk(x).dims:
                    want = alternating_sum(
                        field, tower[p + 1].stalk(x).dim(q), tower[p].stalk(x).dim(q),
                        (cofaces[(p, i)].component(x).component(q) for i in range(p + 1)))
                    assert delta.component(x).component(q) == want, (field, name, p, x, q)


def test_hypercohomology_builds_no_coface_and_stalk_commutation_no_codegeneracy(f5, monkeypatch):
    # H_X(F) reads the coface sums only; condition 3 compares them with the
    # alternating sum of the cofaces, which it builds, and never builds a
    # codegeneracy; validate() refuses the truncated tower before it builds
    # anything, and on the full tower runs every cosimplicial identity
    built = _count_builders(monkeypatch)
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 1000 * len("pseudocircle") + 4, max_dim=2, span=3)
    hyper = hypercohomology_sheaf(F, 6)
    res = hyper.resolution
    p_max = res.p_max
    assert built == {"godement_eta": 1}  # η_F, and no structure map
    assert stalk_commutation_check(F, 6, hyper=hyper).verdict
    # every coface, each d^i_p with i >= 1 one T of the coface below, no ν
    assert built == {"godement_eta": 1 + p_max, "t_apply_map": p_max * (p_max + 1) // 2}
    with pytest.raises(ValueError, match="truncated at 6"):
        res.validate()
    assert built == {"godement_eta": 1 + p_max, "t_apply_map": p_max * (p_max + 1) // 2}
    built.clear()
    full = godement_resolution(F, p_max)
    full.validate()
    # every coface and then every codegeneracy
    assert built == {"godement_eta": 1 + p_max, "godement_nu": p_max,
                     "t_apply_map": p_max * (p_max + 1) // 2 + (p_max - 1) * p_max // 2}
    # a broken codegeneracy fails a cosimplicial identity, and a coface sum
    # that is not the alternating sum of the cofaces fails too
    codegens = full.codegeneracies
    (p, j), s = next(iter(codegens.items()))
    full.codegeneracies = {**codegens, (p, j): SheafMap(
        s.source, s.target, {x: c.scale(2) for x, c in s.components.items()}, check=False)}
    with pytest.raises(InvariantError, match="cosimplicial identity"):
        full.validate()
    full.codegeneracies = codegens
    delta = full.coface_sums[2]
    full.coface_sums[2] = SheafMap(delta.source, delta.target,
                                   {x: c.scale(2) for x, c in delta.components.items()},
                                   check=False)
    with pytest.raises(InvariantError, match="coface sum 2"):
        full.validate()
    full.coface_sums[2] = delta
    # cofaces broken in one degree q of the top level, with their
    # alternating sum kept (d^0 + d^1 and 2 d^1 for d^0 and d^1), fail the
    # identity s d = id there
    p = full.p_max
    x, q = next((x, q) for x in P.elements for q in full.level(p - 1).stalk(x).dims
                if full.level(p).stalk(x).dim(q))
    d0, d1 = full.cofaces[(p, 0)], full.cofaces[(p, 1)]
    one = d1.component(x).component(q)
    for i, d, m in ((0, d0, d0.component(x).component(q) + one), (1, d1, one.scale(2))):
        full.cofaces = {**full.cofaces, (p, i): _changed_at(d, x, q, m)}
    assert next(full.stalkwise(x).coface_sum_mismatches(), None) is None
    with pytest.raises(InvariantError, match="cosimplicial identity"):
        full.validate()


def _changed_at(f: SheafMap, x, q, m) -> SheafMap:
    """f with its component at x replaced by m in degree q."""
    c = f.component(x)
    return SheafMap(f.source, f.target, {**f.components, x: ChainMap(
        c.source, c.target, {**c.components, q: m}, check=False)}, check=False)


def test_stalk_commutation_fails_on_a_scaled_coface(f5, monkeypatch):
    # negative control: condition 3 and validate() share one comparison, so
    # one coface d^i_p scaled by 2 at one stalk x and internal degree q fails
    # both, condition 3 on the truncated tower with the witness
    # (x, p - 1 + q), validate() on the full tower; condition 3 builds no
    # total complex and no codegeneracy
    import godex.godement as gm
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 1000 * len("pseudocircle") + 4, max_dim=2, span=3)
    N = 6
    hyper = hypercohomology_sheaf(F, N)
    res = hyper.resolution
    totals = []
    simple_ = gm.simple
    monkeypatch.setattr(gm, "simple", lambda *a: totals.append(1) or simple_(*a))
    built = _count_builders(monkeypatch)
    assert stalk_commutation_check(F, N, hyper=hyper).verdict
    p, i = 2, 1
    d = res.cofaces[(p, i)]
    x, q = next((x, q) for x in P.elements for q in res.level(p - 1).stalk(x).dims
                if not d.component(x).component(q).is_zero())
    res.cofaces = {**res.cofaces,
                   (p, i): _changed_at(d, x, q, d.component(x).component(q).scale(2))}
    rep = stalk_commutation_check(F, N, hyper=hyper)
    assert (rep.verdict, rep.witnesses, rep.certified_degree) == (False, [(x, p - 1 + q)], N - 1)
    assert totals == [] and built["godement_nu"] == 0
    full = godement_resolution(F, res.p_max)
    d = full.cofaces[(p, i)]
    full.cofaces = {**full.cofaces,
                    (p, i): _changed_at(d, x, q, d.component(x).component(q).scale(2))}
    with pytest.raises(InvariantError, match=f"coface sum {p} in degree {q} "):
        full.validate()


def test_stalkwise_totals_are_the_hypercohomology_stalks(monkeypatch):
    # on the truncated towers of the criterion-2 sheaves t = 1, 4 over F_5:
    # res.stalkwise(x) and its total build no coface or codegeneracy, the
    # total is the stalk of H_X(F), whose blocks are the total's summands
    # (p, q) split into the nonzero blocks y of level p, and it is the total
    # of an eager stalkwise complex whose coface sums are added up from the
    # cofaces
    built = _count_builders(monkeypatch)
    N = 6
    for name, make in STANDARD_POSETS.items():
        for t in (1, 4):
            F = random_sheaf(make(), GF(5), 1000 * len(name) + t, max_dim=2, span=3)
            res = godement_resolution(F, max(N - F.lower, 0), top=N)
            built.clear()
            stalkwise = {x: res.stalkwise(x) for x in F.poset.elements}
            totals = {x: simple(X, N) for x, X in stalkwise.items()}
            assert built == {}, (name, t)
            hyper = hypercohomology_sheaf(F, N)
            for x, S in totals.items():
                X = stalkwise[x]
                eager = simple(CosimplicialComplex(
                    F.field, dict(X.levels),
                    {k: f.component(x) for k, f in res.cofaces.items()},
                    {k: f.component(x) for k, f in res.codegeneracies.items()},
                    res.p_max, check=False), N)
                slots = {n: Layout(((p, q, y), d) for (p, q) in L
                                   for y, (_, d) in X.level(p).blocks[q].items() if d)
                         for n, L in S.blocks.items()}
                for other, blocks in ((hyper.H.stalk(x), slots), (eager, S.blocks)):
                    assert S == other and other.blocks == blocks, (name, t, x)
                    assert (S.lower, S.certified_degree) == \
                        (other.lower, other.certified_degree), (name, t, x)


def _tower_mismatches(got, want) -> list:
    """Where the truncated tower `got` differs from the full tower `want` in
    a degree it builds (level p in the internal degrees <= top - p): the
    levels (blocks and differentials), η, the coface sums, the cofaces and the
    codegeneracies, as (name, x, q) or ("level", p, x)."""
    top, P, lo = got.top, got.sheaf.poset, got.sheaf.lower
    out = []
    for p in range(got.p_max + 1):
        for x in P.elements:
            G, W = got.level(p).stalk(x), want.level(p).stalk(x)
            if G.blocks != {q: L for q, L in W.blocks.items() if q <= top - p} or \
                    any(G.d(q) != W.d(q) for q in range(lo, top - p)):
                out.append(("level", p, x))

    def compare(name, f, g, hi):
        out.extend((name, x, q) for x in P.elements for q in range(lo, hi + 1)
                   if f.component(x).component(q) != g.component(x).component(q))
    compare("eta", got.eta, want.eta, top)
    for p, f in got.coface_sums.items():
        compare(("sum", p), f, want.coface_sums[p], top - p)
    for (p, i), f in got.cofaces.items():
        compare(("coface", p, i), f, want.cofaces[(p, i)], top - p)
    for (p, j), f in got.codegeneracies.items():
        compare(("codegeneracy", p, j), f, want.codegeneracies[(p, j)], top - p - 1)
    return out


def test_truncated_tower_equals_the_full_tower_in_every_built_degree():
    # the 100 criterion-2 sheaves at N = 6: every degree that the truncated
    # tower builds equals the full tower's, which `validate` checks; on each
    # poset some level degree is left out.  A coface changed in its top built
    # degree is found there, and validate() refuses the truncated tower
    dropped = set()
    for name, make in STANDARD_POSETS.items():
        for t in range(20):
            F = random_sheaf(make(), GF(5), 1000 * len(name) + t, max_dim=2, span=3)
            got = godement_resolution(F, 6 - F.lower, top=6)
            want = godement_resolution(F, 6 - F.lower)
            assert _tower_mismatches(got, want) == [], (name, t)
            if any(got.level(p).stalk(x).dims != want.level(p).stalk(x).dims
                   for p in range(got.p_max + 1) for x in F.poset.elements):
                dropped.add(name)
    assert dropped == set(STANDARD_POSETS)
    (p, i), d = next(((p, i), d) for (p, i), d in got.cofaces.items()
                     if not d.component("a").component(6 - p).is_zero())
    m = d.component("a").component(6 - p)
    got.cofaces = {**got.cofaces, (p, i): _changed_at(d, "a", 6 - p, m.scale(2))}
    assert _tower_mismatches(got, want) == [(("coface", p, i), "a", 6 - p)]
    with pytest.raises(ValueError, match="truncated"):
        got.validate()


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
    for U in S.up_sets():
        if not U:
            continue
        X, eps, _ = resolution_sections(res, U)
        extra = [sections_map(f, U) for f in extra_sheaf]
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
    """H_X(F), N H_X(F) and their ρ are built with no sheaf or sheaf-map
    check; here they pass the full checks, including a common lower bound
    where a stalk's total is zero."""
    P = STANDARD_POSETS[name]()
    for t in range(20):
        F = random_sheaf(P, f5, 1000 * len(name) + t, max_dim=2, span=3)
        for hyper in (hypercohomology_sheaf(F, F.top_degree + 3),
                      reduced_hypercohomology(F, F.top_degree + 3)):
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
        # N exceeds the height of both posets plus the top degree
        assert sec.certified_degree is None
        assert betti == {n: b for n, b in D.cohomology().betti.items() if b}


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


def test_thomason_literal_vs_reduced_agree(f5, monkeypatch):
    for P in (point_poset(), sierpinski_poset(), chain_poset(3)):
        for seed in (13, 14):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            N = F.top_degree + 3
            a = thomason_check(F, N, mode="literal")
            b = thomason_check(F, N, mode="reduced")
            assert a.verdict and b.verdict
            assert (a.mode, b.mode) == ("literal", "reduced")
    # any other mode is refused before a model is built
    import godex.godement as gm

    def no_work(*args, **kwargs):
        raise AssertionError("a Thomason model was built for an unknown mode")
    monkeypatch.setattr(gm, "hypercohomology_sheaf", no_work)
    monkeypatch.setattr(gm, "reduced_hypercohomology", no_work)
    for mode in ("litteral", "Reduced", "", None):
        with pytest.raises(ValueError, match="mode"):
            thomason_check(F, N, mode=mode)


def test_reduced_thomason_builds_one_rho(f5, monkeypatch):
    # the inner strict-chain model is read as a sheaf only, so reduced mode
    # builds and validates one ρ, that of the outer model
    import godex.godement as gm
    calls = []
    reduced = gm.reduced_hypercohomology
    monkeypatch.setattr(gm, "reduced_hypercohomology",
                        lambda *a: calls.append(a[1]) or reduced(*a))
    for P in (sierpinski_poset(), pseudocircle_poset()):
        F = random_sheaf(P, f5, 15, max_dim=2, span=2)
        N = F.top_degree + 3
        calls.clear()
        assert thomason_check(F, N, mode="reduced").verdict
        assert calls == [N - 1]


def test_thomason_auto_counts_chains_without_enumerating_them(f5, monkeypatch):
    # chain_poset(12) is inside the up_sets cap; at N = 20 it has 84,672,315
    # weak chains of length 20, so `auto` must count them, not build them
    from godex.site import Poset

    def refuse(*args, **kwargs):
        raise AssertionError("weak_chains called")
    monkeypatch.setattr(Poset, "weak_chains", refuse)
    P = chain_poset(12)
    F = skyscraper(P, "0", single_complex(f5, 0, 1))
    rep = thomason_check(F, 20)
    assert rep.mode == "reduced" and rep.verdict


def test_thomason_check_builds_no_section_basis(f5, monkeypatch):
    # both modes decide every open on the chain route of labelled sheaves:
    # no cover-constraint system is assembled and no kernel is taken, on the
    # criterion-2 pseudosphere sheaf t = 0 in reduced mode and the
    # pseudocircle t = 4 literally
    import godex.site as site

    def refuse(*args, **kwargs):
        raise AssertionError("a constraint system or a kernel was built")
    monkeypatch.setattr(site, "_constraint_system", refuse)
    monkeypatch.setattr(Matrix, "kernel_matrix", refuse)
    for name, t, mode in (("pseudosphere", 0, "reduced"), ("pseudocircle", 4, "literal")):
        F = random_sheaf(STANDARD_POSETS[name](), f5, 1000 * len(name) + t, max_dim=2, span=3)
        rep = thomason_check(F, 6)
        assert rep.mode == mode and rep.verdict


def _built_restrictions(S) -> set:
    """The pairs whose restriction S holds built: every key of a plain dict,
    the read ones of a lazily filled mapping."""
    values = getattr(S.restrictions, "_values", S.restrictions)
    return {pair for pair, r in values.items() if r is not _UNBUILT}


def test_literal_thomason_caches_no_identity_and_no_unread_projection(f5, monkeypatch):
    # criterion-2 chain3 t = 7: every sheaf the literal check builds (the
    # T-levels of H_X F and the model H_X(H_X F)) holds no restriction
    # built, and no sheaf, F and H_X F included, holds an identity r_{x,x};
    # the restrictions of F and H_X F are all read by η of their resolutions;
    # and when the per-open loop starts, the tower of the model is freed
    import gc
    import godex.godement as gm
    from godex.site import Sheaf
    built, towers, init, check = [], [], Sheaf.__init__, gm.equivalence_check

    def recorded(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def per_open(f, kind):
        gc.collect()
        towers.extend(o for o in gc.get_objects()
                      if isinstance(o, gm.GodementResolution) and o.sheaf is hyper.H)
        return check(f, kind)
    P = chain_poset(3)
    F = random_sheaf(P, f5, 1000 * len("chain3") + 7, max_dim=2, span=3)
    hyper = hypercohomology_sheaf(F, 6)
    monkeypatch.setattr(Sheaf, "__init__", recorded)
    monkeypatch.setattr(gm, "equivalence_check", per_open)
    rep = thomason_check(F, 6, "literal", hyper=hyper)
    assert rep.verdict and rep.mode == "literal" and towers == []
    assert len(built) == 6 + 1 + 1  # the p_max + 1 T-levels of H_X F and the model
    for S in [F, hyper.H] + built:
        assert all(a != b for a, b in _built_restrictions(S)), S
    for S in built:
        assert not _built_restrictions(S), S
    assert _built_restrictions(hyper.H) == set(P.pairs())


def test_literal_thomason_peak_memory_on_a_criterion_2_chain3_sheaf(f5):
    # the literal check of chain3 t = 7 (the largest traced peak of the
    # theorem-literal benchmark) allocates at most 27 MB at its peak: about
    # 20.5 MB with no cached identity, evaluation or unread projection, and
    # 35 MB when they were cached
    import gc
    import tracemalloc
    F = random_sheaf(chain_poset(3), f5, 1000 * len("chain3") + 7, max_dim=2, span=3)
    hyper = hypercohomology_sheaf(F, 6)
    gc.collect()
    tracemalloc.start()
    try:
        rep = thomason_check(F, 6, "literal", hyper=hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict and rep.mode == "literal"
    assert peak < 27 * 2**20, peak / 2**20


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
        hmap, _, _ = hypercohomology_map(hyper.rho, N)
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
        sec = sections(hyper.H, U)
        betti = sec.betti()
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
    img = derived_direct_image(idm, F, N)
    for x in P.elements:
        assert img.stalk(x).betti() == hyper.H.stalk(x).betti()
    # collapse to a point = global derived sections
    pt = point_poset()
    coll = MonotoneMap(P, pt, {x: "*" for x in P.elements})
    img = derived_direct_image(coll, F, N)
    betti = sections(hyper.H, frozenset(P.elements)).betti()
    assert img.stalk("*").betti() == betti
    # projection to sierpinski: stalkwise = RΓ of the preimage
    proj = MonotoneMap(P, S, {"a": "c", "b": "c", "x": "o", "y": "o"})
    img = derived_direct_image(proj, F, N)
    for q in S.elements:
        pre = proj.preimage(S.up_set(q))
        betti = sections(hyper.H, pre).betti()
        assert img.stalk(q).betti() == betti


def test_derived_sections_agree_with_replacement_on_every_open(f5):
    from godex.oracle import replacement_complex
    for P in (sierpinski_poset(), chain_poset(3), pseudocircle_poset()):
        F = random_sheaf(P, f5, 23, max_dim=2, span=2)
        N = F.top_degree + 3
        hyper = hypercohomology_sheaf(F, N)
        for U in P.up_sets():
            betti = sections(hyper.H, U).betti()
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


# ---- the descent double complex against the full tower ------------------------


def _descent_reference(F, U, N):
    """The column-filtered double complex as the total of the sections of the
    full tower, with every coface and codegeneracy: Γ(U, −) of each level and
    structure map (`resolution_sections`), totalled by `simple`."""
    p_max = max(N - F.lower, 0)
    total = simple(resolution_sections(godement_resolution(F, p_max), U)[0], N)
    return FilteredComplex.from_blocks(total, k_min=0, k_max=p_max), total


def _e2_reference(F, U, N):
    """dim H^p Γ(U, G•(H^q F)) from the alternating coface sums of the
    sections of the full tower of each H^q F, certified through p + q <= N - 1."""
    out = {}
    for q in range(F.lower, F.top_degree + 1):
        HqF = cohomology_sheaf(F, q)
        if all(c.is_zero_complex() for c in HqF.stalks.values()):
            continue
        X = resolution_sections(godement_resolution(HqF, max(N - q, 0)), U)[0]
        dims = {p: X.level(p).dim(q) for p in range(X.p_max + 1)}
        diffs = {p: alternating_coface_sum(X, p + 1, q) for p in range(X.p_max)}
        C = CochainComplex(F.field, dims, diffs, lower=0, certified_degree=X.p_max - 1)
        out.update(((p, q), b) for p, b in C.cohomology().betti.items()
                   if b and p <= C.certified_degree)
    return out


def _descent_summary(FC, total, last_page):
    return ([er_page(FC, r).dims() for r in range(last_page + 1)], total.betti(),
            total.certified_degree, total.lower)


_DESCENT_CASES = [(name, field) for field in (GF(5), GF(2)) for name in STANDARD_POSETS] + \
    [(name, QQ) for name in ("point", "sierpinski", "chain3")]


@pytest.mark.parametrize("name,field", _DESCENT_CASES,
                         ids=[f"{n}-{f}" for n, f in _DESCENT_CASES])
def test_descent_double_complex_matches_the_full_tower_on_every_open(name, field):
    # the criterion-7 sheaves, on every open but ∅, which the next test pins;
    # E_0..E_{width+1} over F_p, E_0..E_3 over Q, where the later pages of
    # chain3 take seconds each
    P = STANDARD_POSETS[name]()
    for t in range(2):
        F = random_sheaf(P, field, 500 + t, max_dim=2, span=2)
        N = F.top_degree + 3
        hyper = hypercohomology_sheaf(F, N)
        for U in P.up_sets():
            if not U:
                continue
            FC, total = descent_double_complex(hyper, U, N)
            ref_FC, ref_total = _descent_reference(F, U, N)
            last = FC.k_max - FC.k_min + 1 if field.p else 3
            assert _descent_summary(FC, total, last) == \
                _descent_summary(ref_FC, ref_total, last), (name, t, sorted(U))
            assert independent_e2_dims(F, U, N) == _e2_reference(F, U, N), (name, t, sorted(U))


def test_descent_double_complex_on_the_empty_open(f5):
    # Γ(∅) is zero; the double complex is truncated at N all the same and
    # certifies through N - 1, as the sections of the full tower do
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 500, max_dim=2, span=2)
    N = F.top_degree + 3
    pages, FC, total, _ = descent_spectral_sequence(F, frozenset(), 2, N)
    ref_FC, ref_total = _descent_reference(F, frozenset(), N)
    assert [page.dims() for page in pages] == [{}, {}, {}]
    assert (total.certified_degree, total.lower, total.betti()) == \
        (ref_total.certified_degree, ref_total.lower, ref_total.betti()) == (N - 1, 0, {})
    assert independent_e2_dims(F, frozenset(), N) == _e2_reference(F, frozenset(), N) == {}


def test_descent_builds_no_full_tower_coface_or_codegeneracy(f5, monkeypatch):
    # the spectral sequence and its E_2 reference read Γ(U, H_X F) only: the
    # truncated tower, its coface sums and no structure map one by one
    import godex.cosimplicial as cosimplicial
    import godex.godement as gm

    def forbidden(*args, **kwargs):
        raise AssertionError("the descent spectral sequence built a structure map")
    for target, attr in ((gm, "t_apply_map"), (gm, "godement_nu"),
                         (sys.modules[__name__], "resolution_sections"), (cosimplicial, "simple")):
        monkeypatch.setattr(target, attr, forbidden)
    # η_F is the one η each resolution builds: a coface d^0_p would be another
    etas, eta = [], gm.godement_eta
    monkeypatch.setattr(gm, "godement_eta", lambda *a: etas.append(1) or eta(*a))
    tops = []
    resolution = gm.godement_resolution
    monkeypatch.setattr(gm, "godement_resolution",
                        lambda F, p_max, top=None: tops.append(top) or resolution(F, p_max, top))
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 501, max_dim=2, span=2)
    N = F.top_degree + 3
    for U in (frozenset(P.elements), P.up_set("a")):
        pages, FC, total, _ = descent_spectral_sequence(F, U, 2, N)
        assert independent_e2_dims(F, U, N)
    assert tops and None not in tops and len(etas) == len(tops)
