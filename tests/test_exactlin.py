import random
from fractions import Fraction

import numpy as np
import pytest

import godex.exactlin as exactlin
from godex.errors import AmbientMismatch, NotContained
from godex.complexes import random_complex
from godex.exactlin import (
    GF, QQ, Field, Layout, Matrix, Subspace, _rank_sparse, _rref_np, _rref_np_simple, image,
    kernel, preimage, random_invertible, random_matrix, subquotient,
)

from conftest import naive_rank


def test_field_primality():
    GF(2)
    GF(97)
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_kernel_identity_is_zero(qq):
    K = kernel(Matrix.identity(qq, 2))
    assert K.dim == 0


def test_kernel_zero_map_is_everything(qq):
    K = kernel(Matrix.zeros(qq, 2, 3))
    assert K.dim == 3


def test_kernel_random_f5_rank_nullity(f5):
    rng = random.Random(11)
    for _ in range(10):
        M = random_matrix(f5, 4, 6, rng)
        K = kernel(M)
        assert K.dim == 6 - naive_rank(M)
        assert (M @ K.basis).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
def test_rank_nullity_property(field):
    rng = random.Random(3)
    for _ in range(8):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(field, r, c, rng)
        assert kernel(M).dim + M.rank() == c
        assert M.rank() == naive_rank(M)


def test_entries_canonical_mod_p(f5):
    rng = random.Random(5)
    A = random_matrix(f5, 3, 3, rng)
    B = random_matrix(f5, 3, 3, rng)
    for m in (A @ B, A + B, A.scale(-1), A.rref()[0], A.kernel_matrix()):
        for row in m.rows_list():
            for v in row:
                assert 0 <= v < 5


def test_subquotient_full_by_zero(qq):
    Z = Subspace.full(qq, 3)
    B = Subspace.zero(qq, 3)
    dim, proj, section = subquotient(Z, B)
    assert dim == 3
    assert (proj @ section) == Matrix.identity(qq, 3)
    assert proj.rank() == 3


def test_subquotient_equal_spaces_is_zero(f5):
    rng = random.Random(1)
    Z = image(random_matrix(f5, 4, 3, rng))
    dim, proj, section = subquotient(Z, Z)
    assert dim == 0


def test_subquotient_nested_5_2_in_7(qq):
    rng = random.Random(2)
    Zb = random_matrix(qq, 7, 5, rng)
    while Zb.rank() < 5:
        Zb = random_matrix(qq, 7, 5, rng)
    Z = Subspace(qq, 7, Zb)
    B = Subspace.spanned_by(qq, 7, Z.basis @ random_matrix(qq, 5, 2, rng))
    while B.dim < 2:
        B = Subspace.spanned_by(qq, 7, Z.basis @ random_matrix(qq, 5, 2, rng))
    dim, proj, section = subquotient(Z, B)
    assert dim == 3
    assert (proj @ section) == Matrix.identity(qq, 3)
    assert proj.rank() == 3  # full row rank equal to the quotient dim


def test_subquotient_errors(f5):
    Z = Subspace.full(f5, 3)
    B = Subspace.full(f5, 4)
    with pytest.raises(AmbientMismatch):
        subquotient(Z, B)
    rng = random.Random(9)
    Z2 = image(random_matrix(f5, 4, 2, rng))
    outside = Subspace.full(f5, 4)
    if not Z2.contains(outside):
        with pytest.raises(NotContained):
            subquotient(Z2, outside)


def test_solve_and_inverse_roundtrip():
    rng = random.Random(7)
    for field in (QQ, GF(7)):
        A = random_invertible(field, 5, rng)
        X = A.inverse()
        assert A @ X == Matrix.identity(field, 5)
        B = random_matrix(field, 5, 2, rng)
        Y = A.solve(B)
        assert A @ Y == B


def test_subspace_operations_consistency(f5):
    rng = random.Random(13)
    for _ in range(6):
        V = image(random_matrix(f5, 6, 3, rng))
        W = image(random_matrix(f5, 6, 3, rng))
        I = V.intersect(W)
        S = V.add(W)
        # modular law of dimensions
        assert I.dim + S.dim == V.dim + W.dim
        assert V.contains(I) and W.contains(I)
        assert S.contains(V) and S.contains(W)
        M = random_matrix(f5, 6, 4, rng)
        pre = preimage(M, V)
        assert V.contains_matrix(M @ pre.basis) or pre.dim == 0


def test_backend_agreement_q_vs_f5():
    # identical integer matrices reduced over Q and over F_101 agree on rank
    rng = random.Random(17)
    for _ in range(6):
        rows = [[rng.randint(0, 4) for _ in range(5)] for _ in range(4)]
        mq = Matrix(QQ, 4, 5, rows)
        mp = Matrix(GF(101), 4, 5, rows)
        assert mq.rank() == mp.rank() == naive_rank(mq)


@pytest.mark.parametrize("p", [2, 5, 65521, 1048573])
def test_panel_rref_matches_references_across_panels(p):
    # 150 columns span three 64-column panels; the product has rank <= 70,
    # so pivots land in every panel and most rows reduce to zero
    field = GF(p)
    rng = random.Random(1)
    A = random_matrix(field, 90, 70, rng) @ random_matrix(field, 70, 150, rng)
    R, pivots = _rref_np(A)
    assert (R, pivots) == _rref_np_simple(A)
    assert len(pivots) == naive_rank(A)
    K = A.kernel_matrix()
    assert K.cols == A.cols - len(pivots)
    assert (A @ K).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(5), GF(1048573)])
def test_kernel_basis_is_identity_on_free_rows(field):
    rng = random.Random(3)
    for rows, rank, cols in [(4, 2, 7), (5, 3, 5), (3, 3, 9), (90, 70, 150)]:
        if field.is_rational and cols > 10:
            continue
        A = random_matrix(field, rows, rank, rng) @ random_matrix(field, rank, cols, rng)
        _, pivots = A.rref()
        free = [j for j in range(cols) if j not in pivots]
        K = A.kernel_matrix()
        assert K.take_rows(free) == Matrix.identity(field, len(free))
        assert (A @ K).is_zero()


def random_sparse(field, rows, cols, density, rng, rank=None):
    """A seeded random matrix with about `density` nonzero entries; with
    `rank`, the product of two such factors through F^rank (then sparse
    columns of the second factor keep the product sparse)."""
    def draw(r, c, dens):
        return Matrix(field, r, c, [[rng.randrange(1, field.p) if rng.random() < dens else 0
                                     for _ in range(c)] for _ in range(r)])
    if rank is None:
        return draw(rows, cols, density)
    return draw(rows, rank, 2.0 / rank) @ draw(rank, cols, density)


def with_dense_block(M, r0, c0, size, rng):
    """M with a random dense size x size block at (r0, c0)."""
    data = M.rows_list()
    for i in range(r0, r0 + size):
        for j in range(c0, c0 + size):
            data[i][j] = M.field.random_element(rng)
    return Matrix(M.field, M.rows, M.cols, data)


@pytest.mark.parametrize("p", [2, 5, 65521, 1048573])
def test_sparse_rank_matches_references(p, monkeypatch):
    field = GF(p)
    rng = random.Random(p)
    handoffs = []
    rref_np = exactlin._rref_np
    monkeypatch.setattr(exactlin, "_rref_np", lambda m: handoffs.append(m.shape) or rref_np(m))
    cases = [Matrix.zeros(field, 0, 0), Matrix.zeros(field, 0, 7), Matrix.zeros(field, 9, 0),
             Matrix.zeros(field, 40, 50), Matrix.identity(field, 33)]
    cases += [random_sparse(field, r, c, dens, rng) for r, c, dens in
              [(1, 60, 0.05), (60, 1, 0.05), (40, 60, 0.03), (70, 50, 0.06), (50, 50, 0.1)]]
    cases += [random_sparse(field, 60, 80, 0.05, rng, rank=k) for k in (5, 20, 35)]
    dense_block = [with_dense_block(random_sparse(field, 60, 70, 0.02, rng), 10, 20, 30, rng),
                   with_dense_block(random_sparse(field, 80, 40, 0.0, rng), 40, 5, 25, rng)]
    for M in cases + dense_block:
        want = naive_rank(M)
        handoffs.clear()
        assert _rank_sparse(M._a, p) == want, M.shape
        if M in dense_block:
            assert handoffs, "the dense block was not handed to _rref_np"
        assert len(rref_np(M)[1]) == want
        assert M.rank() == want


def test_rank_takes_the_sparse_path_on_large_sparse_fp(monkeypatch):
    calls = []
    rank_sparse = exactlin._rank_sparse
    monkeypatch.setattr(exactlin, "_rank_sparse", lambda a, p: calls.append(a.shape) or rank_sparse(a, p))
    rng = random.Random(7)
    big = random_sparse(GF(5), 40, 60, 0.03, rng)
    assert big.rows * big.cols >= exactlin._SPARSE_MIN_CELLS
    assert big.rank() == naive_rank(big) and calls == [(40, 60)]
    small = random_sparse(GF(5), 10, 10, 0.3, rng)
    dense = random_matrix(GF(5), 40, 60, rng)
    rational = Matrix(QQ, 40, 60, big.rows_list())
    for M in (small, dense, rational):
        assert M.rank() == naive_rank(M)
    assert calls == [(40, 60)]


def every_shape_result(field):
    """Results of every Matrix operation, on empty, zero and nonempty shapes."""
    rng = random.Random(4)
    A = random_matrix(field, 3, 4, rng)
    empties = [Matrix.zeros(field, r, c) for r, c in ((0, 0), (0, 3), (3, 0))]
    out = empties + [A, Matrix.identity(field, 0), Matrix.identity(field, 3),
                     Matrix.zeros(field, 3, 0) @ Matrix.zeros(field, 0, 4),
                     Matrix.zeros(field, 0, 3) @ Matrix.zeros(field, 3, 2),
                     A + A, A.scale(3), -A, A - A, A.transpose(), A.hstack(A), A.vstack(A),
                     A.take_rows([]), A.take_columns([2, 0]), A.block((1, 3), (0, 0)),
                     Matrix.assemble(field, [2, 0], [1, 3], {}),
                     Matrix.assemble(field, [3], [4], {(0, 0): A}),
                     A.rref()[0], A.kernel_matrix(), Matrix.zeros(field, 2, 3).kernel_matrix(),
                     A.solve(A @ Matrix.identity(field, 4)),
                     Layout([("a", 2), ("b", 0), ("c", 1)]).projection(field, ["c", "a"]),
                     Layout([("a", 2), ("b", 1)]).inclusion(field, ["b"]),
                     Matrix.from_rows(field, [[1, 2], [3, 4]]), Matrix.column(field, [1, 2])]
    out += [M.rref()[0] for M in empties] + [M.kernel_matrix() for M in empties]
    return out


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_one_storage_array_of_field_elements_on_every_shape(field):
    # over Q the entries are Fractions, never int 0, also on empty shapes and
    # in products over an empty inner dimension; over F_p floats in [0, p)
    for M in every_shape_result(field):
        assert M._a.shape == M.shape and not M._a.flags.writeable
        if field.is_rational:
            assert M._a.dtype == object
            assert all(type(v) is Fraction for v in M._a.flat)
            assert all(type(v) is Fraction for row in M.rows_list() for v in row)
        else:
            assert M._a.dtype == np.float64
            assert ((M._a >= 0) & (M._a < field.p)).all()
            assert all(type(v) is int for row in M.rows_list() for v in row)


def test_layout_selections_are_the_identity_blocks():
    field = GF(3)
    layout = Layout([("a", 2), ("b", 0), ("c", 3), ("d", 1)])
    labels = ["d", "b", "a"]
    P = layout.projection(field, labels)
    sub = Layout((x, layout[x][1]) for x in labels)
    want = Matrix.assemble(field, sub, layout,
                           {(x, x): Matrix.identity(field, d) for x, (_, d) in sub.items()})
    assert P == want
    assert layout.inclusion(field, labels) == want.transpose()
    assert P @ layout.inclusion(field, labels) == Matrix.identity(field, sub.dim)


def subspaces_to_probe(field, rng):
    """Zero, full, spanned (with dependent columns), kernel, preimage and
    cycle subspaces over `field`."""
    out = [Subspace.zero(field, 4), Subspace.full(field, 4), Subspace.zero(field, 0),
           Subspace.full(field, 0)]
    for _ in range(4):
        M = random_matrix(field, 5, 3, rng)
        out.append(Subspace.spanned_by(field, 5, M.hstack(M @ random_matrix(field, 3, 2, rng))))
        out.append(kernel(random_matrix(field, 2, 5, rng)))
        out.append(preimage(random_matrix(field, 4, 5, rng), image(random_matrix(field, 4, 2, rng))))
        C = random_complex(field, rng, span=3, max_dim=3)
        out += [Z for Z in C.cohomology().cycles.values()]
    return out


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
def test_coords_of_reads_the_identity_rows_and_agrees_with_solve(field):
    rng = random.Random(21)
    members = outsiders = 0
    for S in subspaces_to_probe(field, rng):
        assert S.basis.take_rows(S.unit_rows) == Matrix.identity(field, S.dim)
        # equality is of subspaces, whichever rows their bases are the identity on
        assert S == Subspace(field, S.ambient_dim, S.basis) == image(S.basis)
        assert S.dim == S.ambient_dim or S != Subspace.full(field, S.ambient_dim)
        coords = random_matrix(field, S.dim, 3, rng)
        inside = S.basis @ coords
        assert S.coords_of(inside) == coords == S.basis.solve(inside)
        members += 1
        for _ in range(3):
            v = random_matrix(field, S.ambient_dim, 2, rng)
            try:
                want = S.basis.solve(v)
            except NotContained:
                with pytest.raises(NotContained):
                    S.coords_of(v)
                assert not S.contains_matrix(v)
                outsiders += 1
            else:
                assert S.coords_of(v) == want
    assert members >= 20 and outsiders >= 10
