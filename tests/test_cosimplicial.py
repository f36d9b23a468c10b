import random

import pytest

from godex.complexes import ChainMap, CochainComplex, biproduct, is_quis, random_complex, single_complex
from godex.cosimplicial import (
    aw_map, bicosimplicial_from_rows, check_descent_axioms, collapse_by_extra_degeneracy,
    constant_cosimplicial, contractible_complex, cosimplicial_biproduct, CosimplicialMap,
    iterated_simple_map, BicosimplicialMap, lambda_map, path_object,
    random_bicosimplicial, random_cosimplicial, random_levelwise_quis, simple, simple_map,
)
from godex.errors import InsufficientLevels, NotCosimplicial, NotExtraDegeneracy
from godex.exactlin import Matrix


def test_simple_of_constant_matches_cohomology(f5):
    rng = random.Random(0)
    A = random_complex(f5, rng, span=3, max_dim=3)
    N = 6
    lam = lambda_map(A, N)
    rep = is_quis(lam)
    assert rep.flag
    assert rep.certified_degree == N - 1
    # d_1 alternates between zero and identity-like blocks for constants
    X = constant_cosimplicial(A, N)
    T = simple(X, N)
    betti_T = T.cohomology().betti
    betti_A = A.cohomology().betti
    for n in range(A.lower, N):
        assert betti_T.get(n, 0) == betti_A.get(n, 0)


def test_simple_concentrated_level_zero(f5):
    # degenerate control: levels above 0 all zero (builds only with
    # check=False since codegeneracy identities cannot hold), total = X(0)
    rng = random.Random(1)
    A = random_complex(f5, rng, span=2, max_dim=2)
    N = 4
    z = CochainComplex(f5, {}, {}, lower=A.lower, check=False)
    levels = {0: A}
    levels.update({p: z for p in range(1, N + 1)})
    zero_map = {
        (p, i): ChainMap.zero(levels[p - 1], levels[p])
        for p in range(1, N + 1) for i in range(p + 1)}
    zero_cod = {(p, j): ChainMap.zero(levels[p + 1], levels[p])
                for p in range(N) for j in range(p + 1)}
    from godex.cosimplicial import CosimplicialComplex
    X = CosimplicialComplex(f5, levels, zero_map, zero_cod, N, check=False)
    T = simple(X, N)
    for n in range(A.lower, N + 1):
        assert T.dim(n) == A.dim(n)
        assert T.d(n) == A.d(n) or n == N


def test_simple_euler_characteristic_grid(f5):
    rng = random.Random(2)
    X = random_cosimplicial(f5, rng, 4, max_blocks=2, span=2, max_dim=2)
    N = 4
    T = simple(X, N)
    grid = 0
    for n in T.dims:
        for (p, q), (off, d) in T.blocks[n].items():
            grid += (-1) ** (p + q) * d
    assert T.euler_characteristic() == grid


def test_simple_insufficient_levels(f5):
    A = single_complex(f5, 0, 1)
    X = constant_cosimplicial(A, 2)
    with pytest.raises(InsufficientLevels):
        simple(X, 5)


def test_simple_map_identity(f5):
    rng = random.Random(3)
    X = random_cosimplicial(f5, rng, 4, max_blocks=1, span=2, max_dim=2)
    f = CosimplicialMap.identity(X)
    sf = simple_map(f, 4)
    assert sf == ChainMap.identity(simple(X, 4))


def test_simple_map_levelwise_quis_is_quis(f5):
    rng = random.Random(4)
    for _ in range(4):
        X, Y, f = random_levelwise_quis(f5, rng, 4)
        for p in range(X.p_max + 1):
            assert is_quis(f.component(p)).flag
        assert is_quis(simple_map(f, 4)).flag


def test_simple_map_non_quis_witness(f5):
    # inclusion X -> X ⊕ c(B) with H(B) nonzero: the total map is not a quis
    rng = random.Random(5)
    X = random_cosimplicial(f5, rng, 4, max_blocks=1, span=2, max_dim=2)
    B = single_complex(f5, 0, 1)
    Y, (iX, _), _ = cosimplicial_biproduct(X, constant_cosimplicial(B, 4))
    rep = is_quis(simple_map(iX, 4))
    assert not rep.flag
    assert 0 in rep.failures()


def test_simple_map_rejects_non_cosimplicial(f5):
    rng = random.Random(6)
    X = random_cosimplicial(f5, rng, 3, max_blocks=1, span=2, max_dim=2)
    Y, (iX, _), _ = cosimplicial_biproduct(X, X)
    comps = {p: iX.component(p) for p in range(4)}
    comps[1] = comps[1].scale(2)  # breaks commutation with d^i
    with pytest.raises(NotCosimplicial):
        CosimplicialMap(X, Y, comps)


def test_lambda_point_complex(f5):
    A = single_complex(f5, 0, 1)
    N = 5
    rep = is_quis(lambda_map(A, N))
    assert rep.flag
    T = simple(constant_cosimplicial(A, N), N)
    betti = T.cohomology().betti
    assert betti.get(0) == 1
    for n in range(1, N):
        assert betti.get(n, 0) == 0


def test_lambda_naturality(f5):
    rng = random.Random(7)
    from godex.complexes import random_chain_map
    A = random_complex(f5, rng, span=2, max_dim=2)
    B = random_complex(f5, rng, span=2, max_dim=2)
    f = random_chain_map(A, B, rng)
    N = 4
    lamA, lamB = lambda_map(A, N), lambda_map(B, N)
    cf = CosimplicialMap(constant_cosimplicial(A, N - A.lower),
                         constant_cosimplicial(B, N - B.lower),
                         {p: f for p in range(N - A.lower + 1)}, check=False)
    lhs = lamB.compose(f)
    rhs = simple_map(cf, N).compose(lamA)
    assert lhs == rhs


def test_aw_trivial_on_point(f5):
    A = single_complex(f5, 0, 1)
    N = 4
    Z = bicosimplicial_from_rows(constant_cosimplicial(A, N), N, N)
    mu = aw_map(Z, N)
    rep = is_quis(mu)
    assert rep.flag
    bs = mu.source.cohomology().betti
    bt = mu.target.cohomology().betti
    assert bs.get(0) == 1 and bt.get(0) == 1
    for n in range(1, N):
        assert bs.get(n, 0) == 0 and bt.get(n, 0) == 0


def test_aw_random_chain_map_and_quis(f5):
    rng = random.Random(8)
    N = 4
    for _ in range(5):
        Z = random_bicosimplicial(f5, rng, N, N, span=2, max_dim=2)
        mu = aw_map(Z, N)  # constructor verifies the chain-map property
        assert is_quis(mu).flag


def test_aw_insufficient_levels(f5):
    A = single_complex(f5, 0, 1)
    Z = bicosimplicial_from_rows(constant_cosimplicial(A, 2), 2, 2)
    with pytest.raises(InsufficientLevels):
        aw_map(Z, 5)


def test_mu_lambda_compatibility_on_cohomology(f5):
    # both §-composites act as the identity on H^*(s(X))
    rng = random.Random(9)
    N = 4
    for _ in range(3):
        X = random_cosimplicial(f5, rng, N, max_blocks=1, span=2, max_dim=2)
        SX = simple(X, N)
        # composite 1: lambda_{s(X)} then mu of (Δ x X)
        Zc = bicosimplicial_from_rows(X, N, N)  # Z^{n,m} = X^m
        mu1 = aw_map(Zc, N)
        lam = lambda_map(SX, N)
        # identify target of lam with source of mu1 (equal complexes)
        assert mu1.source.dims == lam.target.dims
        comp1 = mu1.compose(ChainMap(lam.source, mu1.source, lam.components))
        # composite 2: s(levelwise lambda) then mu of (X x Δ)
        Zr = bicosimplicial_from_rows(X, N, N).transpose()  # Z^{n,m} = X^n
        mu2 = aw_map(Zr, N)
        lam_lv = CosimplicialMap(
            X, mu2.source.cosimplicial,
            {p: ChainMap(X.level(p), mu2.source.cosimplicial.level(p),
                         lambda_map(X.level(p), N).components)
             for p in range(X.p_max + 1)}, check=False)
        comp2 = mu2.compose(simple_map(lam_lv, N))
        for comp in (comp1, comp2):
            assert comp.source.dims == SX.dims and comp.target.dims == SX.dims
            rep = is_quis(ChainMap(SX, SX, comp.components))
            assert rep.flag
            from godex.complexes import induced_map
            for n in range(SX.lower, (rep.certified_degree or 0) + 1):
                h = induced_map(ChainMap(SX, SX, comp.components), n)
                assert h == Matrix.identity(f5, h.rows)


def test_path_object_dims_and_identities(f5):
    rng = random.Random(10)
    A = random_complex(f5, rng, span=2, max_dim=2)
    P, ev0, ev1 = path_object(A, 4)
    P.validate()  # cosimplicial identities inherited from Δ[1]
    ev0.validate()
    ev1.validate()
    for n in range(5):
        for q in A.dims:
            assert P.level(n).dim(q) == (n + 2) * A.dim(q)


def test_path_object_evaluation_quis(f5):
    rng = random.Random(11)
    A = random_complex(f5, rng, span=3, max_dim=2)
    P, ev0, _ = path_object(A, 5)
    assert is_quis(simple_map(ev0, 5)).flag


def test_collapse_constant_identity_family(f5):
    rng = random.Random(12)
    A = random_complex(f5, rng, span=2, max_dim=2)
    N = 4
    X = constant_cosimplicial(A, N)
    ident = ChainMap.identity(A)
    extra = [ident] * (N + 1)
    for side in ("bottom", "top"):
        cert = collapse_by_extra_degeneracy(ident, X, extra, N, side=side)
        assert cert
        assert cert.report.certified_degree == N - 1


def test_collapse_rejects_corrupted_family(f5):
    rng = random.Random(13)
    A = random_complex(f5, rng, span=2, max_dim=2)
    while A.total_dim() == 0:
        A = random_complex(f5, rng, span=2, max_dim=2)
    N = 4
    X = constant_cosimplicial(A, N)
    ident = ChainMap.identity(A)
    extra = [ident] * (N + 1)
    extra[2] = ident.scale(3)
    with pytest.raises(NotExtraDegeneracy):
        collapse_by_extra_degeneracy(ident, X, extra, N)


def test_diagonal_swap_equivalence(f5):
    # quis of the two iterated totals of a bicosimplicial map agree
    rng = random.Random(14)
    N = 4
    for _ in range(3):
        Z = random_bicosimplicial(f5, rng, N, N, span=2, max_dim=2)
        E = contractible_complex(f5, rng)
        W_extra = bicosimplicial_from_rows(constant_cosimplicial(E, N), N, N)
        from godex.complexes import direct_sum
        W = direct_sum(Z, W_extra)[0]
        comps = {}
        for nm in Z.levels:
            C, (i1, _), _ = biproduct(Z.levels[nm], W_extra.levels[nm])
            comps[nm] = ChainMap(Z.levels[nm], W.levels[nm], i1.components, check=False)
        f = BicosimplicialMap(Z, W, comps)
        a = is_quis(iterated_simple_map(f, N)).flag
        b = is_quis(iterated_simple_map(f.transpose(), N)).flag
        assert a == b
        # and a non-quis comparison: zero map to something with cohomology
        B = single_complex(f5, 0, 1)
        WB = bicosimplicial_from_rows(constant_cosimplicial(B, N), N, N)
        zero = BicosimplicialMap(
            Z, WB, {nm: ChainMap.zero(Z.levels[nm], WB.levels[nm]) for nm in Z.levels},
            check=False)
        a = is_quis(iterated_simple_map(zero, N)).flag
        b = is_quis(iterated_simple_map(zero.transpose(), N)).flag
        assert a == b


def test_simple_commutes_with_biproducts_exactly(f5):
    rng = random.Random(15)
    N = 4
    X = random_cosimplicial(f5, rng, N, max_blocks=1, span=2, max_dim=2)
    Y = random_cosimplicial(f5, rng, N, max_blocks=1, span=2, max_dim=2)
    P, _, (pX, pY) = cosimplicial_biproduct(X, Y)
    SP = simple(P, N)
    SX, SY = simple(X, N), simple(Y, N)
    SXY, (jx, jy), _ = biproduct(SX, SY)
    canon = jx.compose(simple_map(pX, N)) + jy.compose(simple_map(pY, N))
    canon = ChainMap(SP, SXY, canon.components)
    # degreewise equal with identical differentials after the canonical
    # permutation of summands
    for n in SP.dims:
        assert SP.dim(n) == SXY.dim(n)
        m = canon.component(n)
        assert m.rank() == m.rows == m.cols
        for row in m.rows_list():
            assert sum(1 for v in row if v) == 1
    for n in SP.dims:
        lhs = canon.component(n + 1) @ SP.d(n)
        rhs = SXY.d(n) @ canon.component(n)
        assert lhs == rhs
    assert is_quis(canon).flag


def test_check_descent_axioms_all_pass(f5):
    rep = check_descent_axioms(seed=21, trials=6, N=5, max_dim=2, span=2)
    assert rep.all_pass
    for trial in rep.trials:
        assert set(trial.results) == {"S1", "S2", "S3", "S4", "S5"}


def test_check_descent_axioms_zero_object(f5):
    # the degenerate all-zero trial: every axiom holds trivially
    z = CochainComplex(f5, {}, {}, lower=0)
    X = constant_cosimplicial(z, 4)
    T = simple(X, 4)
    assert T.is_zero_complex()
    assert is_quis(lambda_map(z, 4)).flag


def test_mutant_sign_is_caught(f5):
    rep = check_descent_axioms(seed=3, trials=1, N=5, max_dim=2, span=2,
                               mutate="drop_d1_sign")
    assert rep.mutant_note is not None
    assert "fails" in rep.mutant_note
