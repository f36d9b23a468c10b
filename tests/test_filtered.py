import random

import pytest

from godex.complexes import ChainMap, CochainComplex, random_complex
from godex.cosimplicial import contractible_complex
from godex.errors import NotFiltered
from godex.exactlin import Matrix
from godex.filtered import (
    FilteredComplex, check_descent_axioms_filtered, decalage, decalage_levelwise,
    deligne_reindex, e_infinity_dims, er_page, filtered_simple, filtrations_equal,
    is_er_quis, random_filtered_complex, random_filtered_cosimplicial,
)


def test_trivial_filtration_pages(f5):
    rng = random.Random(0)
    C = random_complex(f5, rng, span=3, max_dim=3)
    FC = FilteredComplex.trivial(C, jump=2)
    p0 = er_page(FC, 0)
    for n in C.dims:
        assert p0.dim(2, n - 2) == C.dim(n)  # whole complex in column 2
    p1 = er_page(FC, 1)
    betti = C.cohomology().betti
    for n in C.degrees():
        assert p1.dim(2, n - 2) == betti.get(n, 0)


def test_two_step_filtration_of_contractible(f5):
    rng = random.Random(1)
    E = contractible_complex(f5, rng, max_dim=2)
    deg = min(E.dims)
    bases = {(1, deg + 1): Matrix.identity(f5, E.dim(deg + 1))}
    FC = FilteredComplex.from_bases(E, bases, 0, 1)
    assert e_infinity_dims(FC) == {}


def test_page_coherence_and_convergence(f5):
    rng = random.Random(2)
    for _ in range(5):
        FC = random_filtered_complex(f5, rng)
        for r in range(3):
            er_page(FC, r, assert_coherence=True)
        einf = e_infinity_dims(FC)
        betti = FC.base.cohomology().betti
        for n in FC.base.degrees():
            assert sum(d for (p, q), d in einf.items() if p + q == n) == betti.get(n, 0)


def test_er_quis_identity_all_pages(f5):
    rng = random.Random(3)
    FC = random_filtered_complex(f5, rng)
    ident = ChainMap.identity(FC.base)
    for r in range(3):
        flag, _ = is_er_quis(ident, FC, FC, r)
        assert flag


def test_er_quis_weight_shift_example(f5):
    # a contractible two-term complex, filtered so that the sub-step cuts
    # through the identity: comparing against the trivial filtration is not
    # an E_0-isomorphism but becomes one at higher pages
    A = CochainComplex(f5, {0: 1, 1: 1}, {0: Matrix.identity(f5, 1)})
    shifted = FilteredComplex.from_bases(A, {(1, 1): Matrix.identity(f5, 1)}, 0, 1)
    trivial = FilteredComplex.trivial(A, jump=0)
    f = ChainMap.identity(A)
    # trivial -> shifted respects filtrations (F^1 = 0 maps into anything)
    flag0, _ = is_er_quis(f, trivial, shifted, 0)
    assert not flag0
    flag1, _ = is_er_quis(f, trivial, shifted, 1)
    assert flag1
    # the reverse direction does not even respect the filtrations
    with pytest.raises(NotFiltered):
        is_er_quis(f, shifted, trivial, 0)


def test_e0_quis_is_graded_quis(f5):
    # an E_0-isomorphism is exactly a quasi-isomorphism on the associated
    # graded, computed directly
    rng = random.Random(4)
    from godex.complexes import is_quis as chain_is_quis
    for _ in range(4):
        FC = random_filtered_complex(f5, rng, span=2, max_dim=2)
        ident = ChainMap.identity(FC.base)
        flag, per = is_er_quis(ident, FC, FC, 0)
        # build Gr^p as an honest complex and test quasi-isomorphism per p
        for p in range(FC.k_min, FC.k_max + 1):
            dims = {}
            diffs = {}
            projs = {}
            for n in FC.base.degrees():
                from godex.exactlin import subquotient
                q, proj, section = subquotient(FC.filtration(p, n), FC.filtration(p + 1, n))
                dims[n] = q
                projs[n] = (proj, section, FC.filtration(p, n))
            for n in FC.base.degrees():
                if dims.get(n, 0) and dims.get(n + 1, 0):
                    projn, secn, Zn = projs[n]
                    projn1, _, Zn1 = projs[n + 1]
                    reps = Zn.basis @ secn
                    img = FC.base.d(n) @ reps
                    diffs[n] = projn1 @ Zn1.coords_of(img)
            gr = CochainComplex(f5, dims, diffs, lower=FC.base.lower, check=True)
            assert chain_is_quis(ChainMap.identity(gr)).flag
        assert flag


def test_filtered_simple_r0_is_summandwise(f5):
    rng = random.Random(5)
    XF = random_filtered_cosimplicial(f5, rng, p_max=3, span=2, max_dim=2)
    FS = filtered_simple(XF, 0, 3)
    total = FS.base
    for n in total.dims:
        for k in range(FS.k_min, FS.k_max + 2):
            expect = sum(XF.levels[p].filtration(k, q).dim
                         for (p, q) in total.blocks[n])
            assert FS.filtration(k, n).dim == expect


def test_filtered_simple_r1_shifts_by_column(f5):
    rng = random.Random(6)
    XF = random_filtered_cosimplicial(f5, rng, p_max=3, span=2, max_dim=2)
    FS = filtered_simple(XF, 1, 3)
    total = FS.base
    for n in total.dims:
        for k in range(FS.k_min, FS.k_max + 2):
            expect = sum(XF.levels[p].filtration(k - p, q).dim
                         for (p, q) in total.blocks[n])
            assert FS.filtration(k, n).dim == expect


def test_decalage_trivial_filtration(f5):
    rng = random.Random(7)
    C = random_complex(f5, rng, span=3, max_dim=2)
    FC = FilteredComplex.trivial(C, jump=0)
    D = decalage(FC)
    D.validate()
    # forced pattern: (Dec F)^k A^n = A^n for k <= -n, ker d for k = -n+... ,
    # in particular the flag is the cocycle-degree ("bête") pattern
    from godex.exactlin import kernel
    for n in C.dims:
        assert D.filtration(-n, n).dim == kernel(C.d(n)).dim
        assert D.filtration(-n - 1, n).dim == C.dim(n)
        assert D.filtration(-n + 1, n).dim == 0


def test_deligne_shift_r_ge_1(f5):
    rng = random.Random(8)
    for _ in range(6):
        FC = random_filtered_complex(f5, rng, span=2, max_dim=2)
        D = decalage(FC)
        for r in (1, 2):
            remapped = {deligne_reindex(pq): d for pq, d in er_page(D, r).dims().items()}
            assert remapped == er_page(FC, r + 1).dims()


def test_decalage_zero(f5):
    from godex.complexes import zero_complex
    FC = FilteredComplex.trivial(zero_complex(f5))
    assert decalage(FC).base.is_zero_complex()


def test_interchange_literal(f5):
    rng = random.Random(9)
    for _ in range(4):
        XF = random_filtered_cosimplicial(f5, rng, p_max=4, span=2, max_dim=2)
        N = 4
        for r in (0, 1):
            lhs = decalage(filtered_simple(XF, r + 1, N))
            rhs = filtered_simple(decalage_levelwise(XF), r, N)
            assert lhs.base == rhs.base
            assert filtrations_equal(lhs, rhs, up_to=N - 1)


def test_filtered_descent_axioms(f5):
    for r in (0, 1):
        rep = check_descent_axioms_filtered(seed=10, trials=3, N=4, r=r)
        assert rep.all_pass, [t.results for t in rep.trials]
