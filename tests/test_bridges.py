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
      through it.

Finally, the literal and reduced Thomason checks agree wherever the literal
one is feasible.
"""

from godex.complexes import ChainMap, is_quis
from godex.exactlin import Matrix
from godex.godement import (
    equivalence_check, hypercohomology_sheaf, reduced_hypercohomology,
    reduced_inclusion, t_chain_layout, thomason_check,
)
from godex.oracle import (
    coaugmentation_into_replacement, replacement_complex, strict_into_weak,
)
from godex.site import (
    chain_poset, point_poset, pseudocircle_poset, pseudosphere_poset,
    random_sheaf, sections, sierpinski_poset,
)

SMALL_POSETS = (point_poset, sierpinski_poset, lambda: chain_poset(3))
ALL_POSETS = SMALL_POSETS + (pseudocircle_poset, pseudosphere_poset)


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
            for (p, q), (off, d) in Hx.blocks[n].items():
                level_sheaf = hyper.resolution.tower[p + 1]
                for chain, (off2, d2) in t_chain_layout(level_sheaf, x, q).items():
                    src = col_layout.get((p, chain))
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
        R = reduced_hypercohomology(F, N)
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
        R = reduced_hypercohomology(F, N)
        iota = reduced_inclusion(F, hyper, R)
        assert equivalence_check(iota, "local").verdict
        if len(P.elements) <= 4:
            assert equivalence_check(iota, "global").verdict
        # rho factors through the strict model: rho_x = iota_x ∘ eps_x
        for x in P.elements:
            sec_x = sections(F, P.up_set(x))
            eps_x = coaugmentation_into_replacement(F, sec_x, R.stalk(x))
            assert hyper.rho.component(x) == iota.component(x).compose(eps_x)


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
    from godex.oracle import replacement_map
    from godex.site import sections_map
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 11, max_dim=2, span=2)
    N = F.top_degree + 2
    hyper = hypercohomology_sheaf(F, N)
    R = reduced_hypercohomology(F, N)
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
