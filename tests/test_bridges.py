"""The structural identifications behind the reduced Thomason checks.

The reduced mode of the descent checks rests on three facts, each verified
here on real instances rather than assumed:

  B1. Sections of the hypercohomology sheaf over any open are canonically
      isomorphic, as complexes, to the weak-chain replacement of the
      restricted diagram, and under that isomorphism Γ(U, ρ_F) is the
      replacement coaugmentation.
  B2. The strict-chain subcomplex of a replacement includes
      quasi-isomorphically (degenerate chains contribute acyclically).
  B3. The strict-chain model of the hypercohomology sheaf includes into the
      literal one by a stalkwise and global equivalence, and ρ factors
      through it; ρ of the strict-chain model is the replacement
      coaugmentation on every stalk.
  B4. The reduced Thomason check, ρ of the strict-chain model of R a global
      equivalence, is the per-open coaugmentation check: Γ(U, R) -> the
      strict replacement of R over U is a quasi-isomorphism for every open U.

Finally, the literal and reduced Thomason checks agree wherever the literal
one is feasible.

The program builds none of the maps these facts are about, so the
coaugmentation, the replacement of a sheaf map and ι_F are built here.
"""

from godex.complexes import BlockComplex, ChainMap, is_quis, min_certified, single_complex
from godex.errors import InvariantError
from godex.exactlin import GF, Layout, Matrix
from godex.godement import (
    Hypercohomology, equivalence_check, hypercohomology_sheaf, reduced_hypercohomology,
    thomason_check,
)
from godex.oracle import replacement_complex
from godex.site import (
    STANDARD_POSETS, Sheaf, SheafMap, chain_poset, constant_sheaf, point_poset,
    pseudocircle_poset, pseudosphere_poset, random_sheaf, sections, sierpinski_poset,
)

from conftest import strict_into_weak, t_chain_layout

SMALL_POSETS = (point_poset, sierpinski_poset, lambda: chain_poset(3))
ALL_POSETS = SMALL_POSETS + (pseudocircle_poset, pseudosphere_poset)


def coaugmentation_into_replacement(F: Sheaf, sec, repl: BlockComplex) -> ChainMap:
    """Γ(U, F) -> replacement: a section maps to its values on 1-chains."""
    field = F.field
    comps = {}
    for n in sec.complex.dims:
        if repl.dim(n) == 0:
            continue
        rows = repl.blocks[n]
        entries = {((p, chain), 0): sec.evaluation(chain[0]).component(n)
                   for (p, chain) in rows if p == 0}
        comps[n] = Matrix.assemble(field, rows, [sec.complex.dim(n)], entries)
    return ChainMap(sec.complex, repl, comps, check=True)


def replacement_map(f, src: BlockComplex, tgt: BlockComplex) -> ChainMap:
    """The replacement of a sheaf map: blockwise f at the last chain vertex."""
    field = src.field
    comps = {}
    for n in src.dims:
        if tgt.dim(n) == 0:
            continue
        rows = tgt.blocks[n]
        cols = src.blocks[n]
        comps[n] = Matrix.assemble(field, rows, cols,
                                   {(c, c): f.component(c[1][-1]).component(n - c[0])
                                    for c in rows if c in cols})
    return ChainMap(src, tgt, comps, check=True)


def reduced_inclusion(F: Sheaf, hyper: Hypercohomology, R: Sheaf) -> SheafMap:
    """ι_F : N H_X(F) -> H_X(F), matching strict chains to their slots."""
    res = hyper.resolution

    def block(x, n):
        # columns: strict-chain slots; rows: the weak chains (y, ...) of each
        # slot (p, q, y) of H_x, flattened
        cols = R.stalk(x).blocks[n]
        rows = Layout(((p, (y,) + c), d) for p, q, y in hyper.H.labels(x, n)
                      for c, (_, d) in t_chain_layout(res, p - 1, y, q).items())
        if any(rows[(p, c)][1] != d for (p, _, c, _), (_, d) in cols.items()):
            raise InvariantError("reduced model block mismatch")
        return rows.inclusion(F.field, [(p, c) for p, _, c, _ in cols])
    iota = SheafMap.from_blocks(R, hyper.H, block)
    for f in iota.components.values():
        f.validate()
    return iota


def canonical_replacement_iso(F, hyper, U, repl):
    """The canonical chain map weak-replacement -> Γ(U, H_X F).

    A replacement element assigns a value to every chain in U; the matching
    section of the hypercohomology sheaf has, at the stalk over x, the
    coordinates of all chains starting at or above x.
    """
    poset = F.poset
    field = F.field
    sec = sections(hyper.H, U)
    order = poset.sorted_subset(U)
    comps = {}
    for n in repl.dims:
        stacked = None
        target = None
        for x in order:
            Hx = hyper.H.stalk(x)
            # matrix taking replacement coordinates to H_x coordinates
            rows = Hx.dim(n)
            entries = {}
            blocks_list = []
            col_layout = repl.blocks[n]
            for (p, q, y), (off, d) in Hx.blocks[n].items():
                for chain, (off2, d2) in t_chain_layout(hyper.resolution, p - 1, y, q).items():
                    src = col_layout.get((p, (y,) + chain))
                    assert src is not None, "stalk chain missing from the replacement"
                    blocks_list.append((off + off2, src[0], d2))
            m = Matrix.zeros(field, rows, repl.dim(n)).rows_list()
            for (roff, coff, d) in blocks_list:
                for k in range(d):
                    m[roff + k][coff + k] = 1
            mx = Matrix(field, rows, repl.dim(n), m)
            ex = sec.evaluation(x).component(n)
            stacked = mx if stacked is None else stacked.vstack(mx)
            target = ex if target is None else target.vstack(ex)
        comps[n] = target.solve(stacked)
    return ChainMap(repl, sec.complex, comps, check=True), sec


def test_b1_sections_of_hyper_equal_replacement(f5):
    for make in ALL_POSETS:
        P = make()
        F = random_sheaf(P, f5, 5, max_dim=2, span=2)
        N = F.top_degree + 2
        hyper = hypercohomology_sheaf(F, N)
        for U in P.up_sets():
            if not U:
                continue
            repl = replacement_complex(F, N, strict=False, within=U)
            iso, sec = canonical_replacement_iso(F, hyper, U, repl)
            # a chain isomorphism degreewise
            for n in set(repl.dims) | set(sec.complex.dims):
                assert repl.dim(n) == sec.complex.dim(n)
                m = iso.component(n)
                assert m.rank() == m.rows == m.cols
            # Γ(U, rho) is the replacement coaugmentation under the iso
            secF = sections(F, U)
            coaug = coaugmentation_into_replacement(F, secF, repl)
            from godex.site import sections_map
            rho_U = sections_map(hyper.rho, U)
            lhs = iso.compose(coaug)
            assert lhs == ChainMap(secF.complex, sec.complex, rho_U.components)


def test_b2_strict_into_weak_is_quis(f5):
    # on plain random sheaves, and on reduced-hypercohomology-shaped sheaves
    # (the inputs the reduced Thomason mode feeds to the replacement)
    for make in ALL_POSETS:
        P = make()
        for seed in (0, 1):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            N = F.top_degree + 2
            weak = replacement_complex(F, N)
            strict = replacement_complex(F, N, strict=True)
            assert is_quis(strict_into_weak(F, strict, weak)).flag
    for make in SMALL_POSETS + (pseudocircle_poset,):
        P = make()
        F = random_sheaf(P, f5, 2, max_dim=2, span=2)
        N = F.top_degree + 2
        R = reduced_hypercohomology(F, N).H
        M = N - 1
        weak = replacement_complex(R, M)
        strict = replacement_complex(R, M, strict=True)
        assert is_quis(strict_into_weak(R, strict, weak)).flag


def test_b3_reduced_inclusion_is_equivalence(f5):
    for make in ALL_POSETS:
        P = make()
        F = random_sheaf(P, f5, 7, max_dim=2, span=2)
        N = F.top_degree + 2
        hyper = hypercohomology_sheaf(F, N)
        red = reduced_hypercohomology(F, N)
        iota = reduced_inclusion(F, hyper, red.H)
        assert equivalence_check(iota, "local").verdict
        if len(P.elements) <= 4:
            assert equivalence_check(iota, "global").verdict
        # rho factors through the strict model: rho_x = iota_x ∘ eps_x
        for x in P.elements:
            assert hyper.rho.component(x) == iota.component(x).compose(red.rho.component(x))


def test_b3_reduced_rho_is_the_replacement_coaugmentation(f5):
    # on every ↑x, ρ of the strict model is the oracle's coaugmentation
    # Γ(↑x, F) = F_x -> strict replacement of F over ↑x, whose matrices
    # the stalk of the strict model equals
    for make in ALL_POSETS:
        P = make()
        for seed in (7, 8):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            N = F.top_degree + 2
            red = reduced_hypercohomology(F, N)
            for x in P.elements:
                repl = replacement_complex(F, N, strict=True, within=P.up_set(x))
                assert red.H.stalk(x) == repl
                eps_x = coaugmentation_into_replacement(F, sections(F, P.up_set(x)), repl)
                assert red.rho.component(x) == eps_x


def per_open_coaugmentation_check(R, M):
    """(verdict, witnesses, certified degree) of the per-open route: for
    every open U, is Γ(U, R) -> strict replacement of R over U, truncated at
    M, a quasi-isomorphism?"""
    witnesses, cert = [], None
    for U in R.poset.up_sets():
        repl = replacement_complex(R, M, strict=True, within=U)
        r = is_quis(coaugmentation_into_replacement(R, sections(R, U), repl))
        cert = min_certified(cert, r.certified_degree)
        witnesses.extend((tuple(sorted(map(str, U))), n) for n in r.failures())
    return not witnesses, witnesses, cert


def test_b4_reduced_thomason_is_the_per_open_check():
    # all 100 criterion-2 sheaves at N = 6: the same verdict, witnesses and
    # certified degree on both routes
    f5, N = GF(5), 6
    for name, make in STANDARD_POSETS.items():
        P = make()
        for t in range(20):
            F = random_sheaf(P, f5, 1000 * len(name) + t, max_dim=2, span=3)
            rep = thomason_check(F, N, mode="reduced")
            R = reduced_hypercohomology(F, N).H
            assert (rep.verdict, rep.witnesses, rep.certified_degree) == \
                per_open_coaugmentation_check(R, N - 1), (name, t)


def test_b4_negative_control_constant_sheaf():
    # ρ of the strict model of a constant sheaf is not a global equivalence
    # on the pseudocircle and the pseudosphere; both routes name the same
    # opens and degrees
    f5, M = GF(5), 4
    expected = {
        "pseudocircle": [(("a", "b", "x", "y"), 1)],
        "pseudosphere": [(("u", "v", "x", "y"), 1), (("a", "b", "u", "v", "x", "y"), 2)],
    }
    for name, make in (("pseudocircle", pseudocircle_poset), ("pseudosphere", pseudosphere_poset)):
        G = constant_sheaf(make(), single_complex(f5, 0, 1))
        rep = equivalence_check(reduced_hypercohomology(G, M).rho, "global")
        verdict, witnesses, cert = per_open_coaugmentation_check(G, M)
        assert not rep.verdict and not verdict
        assert rep.witnesses == witnesses == expected[name]
        assert rep.certified_degree == cert


def test_literal_and_reduced_thomason_agree(f5):
    for make in SMALL_POSETS:
        P = make()
        for seed in (3, 4):
            F = random_sheaf(P, f5, seed, max_dim=2, span=2)
            N = F.top_degree + 2
            a = thomason_check(F, N, mode="literal")
            b = thomason_check(F, N, mode="reduced")
            assert a.verdict == b.verdict == True  # noqa: E712


def test_reduced_naturality_square(f5):
    # eps^strict is natural: strict-replacement(iota) ∘ eps_R = eps_H ∘ Γ(U, iota),
    # and the replacement of the stalkwise equivalence iota is itself a quis
    # (a finite product of quasi-isomorphisms per level)
    from godex.site import sections_map
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 11, max_dim=2, span=2)
    N = F.top_degree + 2
    hyper = hypercohomology_sheaf(F, N)
    R = reduced_hypercohomology(F, N).H
    iota = reduced_inclusion(F, hyper, R)
    for U in P.up_sets():
        if not U:
            continue
        sec_R = sections(R, U)
        sec_H = sections(hyper.H, U)
        strict_R = replacement_complex(R, N - 1, strict=True, within=U)
        strict_H = replacement_complex(hyper.H, N - 1, strict=True, within=U)
        eps_R = coaugmentation_into_replacement(R, sec_R, strict_R)
        eps_H = coaugmentation_into_replacement(hyper.H, sec_H, strict_H)
        repl_iota = replacement_map(iota, strict_R, strict_H)
        g = sections_map(iota, U)
        lhs = repl_iota.compose(eps_R)
        rhs = eps_H.compose(ChainMap(sec_R.complex, sec_H.complex, g.components))
        assert lhs == rhs
        assert is_quis(repl_iota).flag
