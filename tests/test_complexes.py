import random

import pytest

from godex.complexes import (
    ChainMap, CochainComplex, biproduct, induced_map, is_quis, random_map,
    random_complex, single_complex, truncate, zero_complex,
)
from godex.errors import FieldMismatch, InvariantError
from godex.exactlin import GF, QQ, Matrix, kernel

from conftest import naive_betti


def contractible_two_term(field):
    return CochainComplex(field, {0: 1, 1: 1}, {0: Matrix.identity(field, 1)})


def test_cohomology_contractible(qq):
    C = contractible_two_term(qq)
    assert all(v == 0 for v in C.cohomology().betti.values())


def test_cohomology_zero_differential(qq):
    C = CochainComplex(qq, {0: 1, 1: 1}, {})
    assert C.betti() == {0: 1, 1: 1}


def test_cohomology_random_vs_rank_oracle(f5):
    rng = random.Random(23)
    for _ in range(8):
        C = random_complex(f5, rng, span=4, max_dim=3)
        got = {n: b for n, b in C.cohomology().betti.items() if b}
        assert got == naive_betti(C)


def test_dd_zero_enforced(f5):
    bad = Matrix.identity(f5, 1)
    with pytest.raises(InvariantError):
        CochainComplex(f5, {0: 1, 1: 1, 2: 1}, {0: bad, 1: bad})


def test_is_quis_identity(f5):
    rng = random.Random(4)
    C = random_complex(f5, rng)
    assert is_quis(ChainMap.identity(C)).flag


def test_is_quis_contractible_to_zero(qq):
    C = contractible_two_term(qq)
    Z = zero_complex(qq)
    assert is_quis(ChainMap.zero(C, Z)).flag


def test_is_quis_cycle_inclusion_witness(f5):
    # inclusion of the degree-0 cycles into a complex with nonzero H^1
    rng = random.Random(6)
    C = random_complex(f5, rng, span=3, max_dim=3)
    while C.cohomology().betti.get(1, 0) == 0:
        C = random_complex(f5, rng, span=3, max_dim=3)
    Z0 = kernel(C.d(0))
    S = CochainComplex(f5, {0: Z0.dim}, {})
    inc = ChainMap(S, C, {0: Z0.basis})
    rep = is_quis(inc)
    assert not rep.flag
    assert rep.per_degree[1] is False
    assert rep.per_degree[0] is True  # H^0 = Z^0 when nothing enters degree 0


def test_biproduct_with_zero(f5):
    rng = random.Random(8)
    C = random_complex(f5, rng)
    S, (i1, _), (p1, _) = biproduct(C, zero_complex(f5))
    assert S.dims == C.dims
    assert is_quis(i1).flag


def test_biproduct_betti_additive(f5):
    rng = random.Random(9)
    for _ in range(5):
        A = random_complex(f5, rng)
        B = random_complex(f5, rng)
        S, (i1, i2), (p1, p2) = biproduct(A, B)
        ba, bb, bs = A.cohomology().betti, B.cohomology().betti, S.cohomology().betti
        for n in set(ba) | set(bb) | set(bs):
            assert bs.get(n, 0) == ba.get(n, 0) + bb.get(n, 0)
        # projections and inclusions are chain maps with the right composites
        p1.validate()
        p2.validate()
        assert p1.compose(i1) == ChainMap.identity(A)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        biproduct(single_complex(QQ), single_complex(GF(5)))


def test_euler_characteristic(f5):
    rng = random.Random(10)
    for _ in range(6):
        C = random_complex(f5, rng, span=4)
        chi_dims = C.euler_characteristic()
        chi_betti = sum((-1) ** n * b for n, b in C.cohomology().betti.items())
        assert chi_dims == chi_betti


def test_quis_closed_under_composition_and_two_out_of_three(f5):
    rng = random.Random(12)
    for _ in range(6):
        A = random_complex(f5, rng, span=3, max_dim=2)
        from godex.cosimplicial import contractible_complex
        E1 = contractible_complex(f5, rng)
        E2 = contractible_complex(f5, rng)
        B, (iA, _), _ = biproduct(A, E1)
        C, (iB, _), _ = biproduct(B, E2)
        f, g = iA, iB
        assert is_quis(f).flag and is_quis(g).flag
        gf = g.compose(f)
        assert is_quis(gf).flag  # composition
        # cancellation: g∘f and g quis => f quis
        assert is_quis(f).flag


def test_random_chain_map_commutes(f5, qq):
    rng = random.Random(14)
    for field in (f5, qq):
        for _ in range(4):
            C = random_complex(field, rng, span=3, max_dim=2)
            D = random_complex(field, rng, span=3, max_dim=2)
            f = random_map(C, D, rng)[0]
            f.validate()


def test_induced_map_functorial(f5):
    rng = random.Random(15)
    C = random_complex(f5, rng, span=3, max_dim=2)
    D = random_complex(f5, rng, span=3, max_dim=2)
    E = random_complex(f5, rng, span=3, max_dim=2)
    f = random_map(C, D, rng)[0]
    g = random_map(D, E, rng)[0]
    for n in C.degrees():
        lhs = induced_map(g.compose(f), n)
        rhs = induced_map(g, n) @ induced_map(f, n)
        assert lhs == rhs


def test_truncate_certifies(f5):
    rng = random.Random(16)
    C = random_complex(f5, rng, span=4, max_dim=2)
    T = truncate(C, C.lower + 1)
    assert T.upper <= C.lower + 1
    assert T.certified_degree == C.lower
    full = C.cohomology().betti
    cut = T.cohomology().betti
    for n in range(C.lower, T.certified_degree + 1):
        assert cut.get(n, 0) == full.get(n, 0)
