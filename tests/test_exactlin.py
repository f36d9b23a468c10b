import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import godex.exactlin as exactlin
from godex import cli
from godex.errors import AmbientMismatch, InvariantError, NotContained
from godex.complexes import random_complex
from godex.exactlin import (
    GF, QQ, Field, Layout, Matrix, Subspace, _rank_sparse, free_columns, kernel,
    random_automorphism, random_invertible, subquotient,
)

from conftest import (
    block, column, from_rows, naive_rank, naive_rref, preimage, random_matrix,
    reference_automorphism,
)


def test_field_primality():
    GF(2)
    GF(97)
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


@pytest.mark.parametrize("p", [2, 5, 1048573])
def test_fraction_without_a_value_mod_p_raises(p):
    # a fraction whose reduced denominator p divides has no value in F_p;
    # it is refused, never read as 0, on every path into a matrix
    field = GF(p)
    for bad in (Fraction(1, p), Fraction(3, 2 * p)):
        with pytest.raises(ValueError):
            field.element(bad)
        with pytest.raises(ValueError):
            Matrix(field, 1, 1, [[bad]])
        with pytest.raises(ValueError):
            Matrix.identity(field, 2).scale(bad)
    if p != 2:
        assert field.element(Fraction(3, 2)) == 3 * pow(2, p - 2, p) % p


@pytest.mark.parametrize("p", [2, 5, 1048573])
def test_float_that_is_not_an_integer_raises_mod_p(p):
    # int() truncated 0.5 to 0 and 2.5 to 2; an integral float keeps its value
    field = GF(p)
    for bad in (0.5, 2.5):
        with pytest.raises(ValueError):
            field.element(bad)
    assert field.element(3.0) == 3 % p
    with pytest.raises(ValueError):
        Matrix(field, 1, 1, [[2.5]])
    with pytest.raises(ValueError):
        Matrix.identity(field, 1).scale(0.5)


def _element_reference(field, value):
    """`Field.element` before its int fast path: every non-Fraction,
    non-float value went through int(value) % p."""
    if field.p is None:
        return Fraction(value)
    if isinstance(value, Fraction):
        num, den = value.numerator % field.p, value.denominator % field.p
        if den == 0:
            raise ValueError(f"{value} has no value in F_{field.p}")
        return num * pow(den, field.p - 2, field.p) % field.p
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} has no value in F_{field.p}")
    return int(value) % field.p


def _outcome(f, *args):
    try:
        v = f(*args)
    except Exception as e:  # noqa: BLE001 - the exception type is the outcome
        return "raises", type(e)
    return type(v), v


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(1048573), QQ], ids=str)
def test_field_element_agrees_with_the_reference_on_every_kind(field):
    # ints take the fast path; bools, numpy integers, Fractions and floats
    # keep the general one; results and refusals are unchanged
    values = [0, 1, -1, 2, 4, 5, -7, 1048573, 1048574, 10**30, -10**30,
              True, False,
              np.int64(-3), np.int32(7), np.uint8(255), np.int64(2**62),
              Fraction(3, 2), Fraction(-7, 5), Fraction(1, 1048573), Fraction(6, 4), Fraction(0),
              0.0, -3.0, 5.0, 2.0**52, 0.5, -2.25, float("inf"), float("nan"),
              np.float64(4.0), np.float64(1.5)]
    for v in values:
        got, want = _outcome(field.element, v), _outcome(_element_reference, field, v)
        assert got == want, (field, v, got, want)
        if got[0] != "raises":
            assert type(got[1]) is (Fraction if field.is_rational else int)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(65521), GF(1048573), QQ], ids=str)
def test_random_automorphism_matches_the_reference(field):
    # the fast draw builds the reference's g and, from the factors, exactly
    # the reference's elimination inverse, and leaves the rng where it did;
    # over Q the reference elimination is slow, so large n get one seed
    for n in range(25):
        for seed in range(3 if field.p is not None or n <= 16 else 1):
            rng_ref, rng_auto, rng_inv = (random.Random(seed) for _ in range(3))
            g_ref, ginv_ref = reference_automorphism(field, n, rng_ref)
            g, ginv = random_automorphism(field, n, rng_auto)
            g_only = random_invertible(field, n, rng_inv)
            for m, ref in ((g, g_ref), (ginv, ginv_ref), (g_only, g_ref)):
                assert m.shape == (n, n) and m._a.dtype == ref._a.dtype
                assert m.rows_list() == ref.rows_list(), (field, n, seed)
            assert rng_auto.getstate() == rng_ref.getstate() == rng_inv.getstate()


@pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
def test_random_automorphism_checks_its_inverse(field, monkeypatch):
    # a diagonal of U that the inverse reads but g does not: g g^-1 != 1
    draw = exactlin._draw_factors

    def corrupted(*args):
        low, up, diag, perm = draw(*args)
        diag[-1] = 2 * diag[-1]
        return low, up, diag, perm

    monkeypatch.setattr(exactlin, "_draw_factors", corrupted)
    with pytest.raises(InvariantError):
        random_automorphism(field, 4, random.Random(0))


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


@pytest.mark.parametrize("p", [2, 5, 1048573])
def test_mod_agrees_with_python_remainder(p):
    # `_mod` keeps float % below _MOD_INT_CELLS cells and reduces through
    # int64 from there on; both agree with Python's % on integers, negative
    # ones and magnitudes up to 2**53 - p included
    rng = random.Random(p)
    big = 2**53 - p
    for cells in (1, 7, exactlin._MOD_INT_CELLS - 1, exactlin._MOD_INT_CELLS,
                  exactlin._MOD_INT_CELLS + 5, 4096):
        vals = [rng.choice([rng.randint(-3 * p, 3 * p), rng.randint(-big, big),
                            rng.choice([big, -big, big - rng.randrange(p), 0])])
                for _ in range(cells)]
        a = np.array(vals, dtype=np.float64).reshape(1, cells)
        assert a.astype(np.int64).tolist() == [vals]  # every value is exact in float64
        got = exactlin._mod(a, p)
        assert got.dtype == np.float64 and got.shape == a.shape
        assert got.astype(np.int64).tolist() == [[v % p for v in vals]], cells


def test_mod_reduces_in_place_and_refuses_a_stored_array(f5):
    # on both sides of _MOD_INT_CELLS the reduction is written into the
    # array passed, and a stored Matrix array, read-only, is refused
    for cells in (3, exactlin._MOD_INT_CELLS + 3):
        a = np.arange(-cells, cells, dtype=np.float64).reshape(2, cells)
        assert exactlin._mod(a, 5) is a
        assert a.astype(np.int64).tolist() == [[v % 5 for v in range(-cells, 0)],
                                               [v % 5 for v in range(cells)]]
        with pytest.raises(ValueError):
            exactlin._mod(Matrix.zeros(f5, 2, cells)._a, 5)


def test_entries_canonical_mod_p(f5):
    rng = random.Random(5)
    A = random_matrix(f5, 3, 3, rng)
    B = random_matrix(f5, 3, 3, rng)
    for m in (A @ B, A + B, A.scale(-1), A.rref()[0], A.kernel_matrix()):
        for row in m.rows_list():
            for v in row:
                assert 0 <= v < 5


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_constructor_refuses_data_of_another_shape(field):
    # the data must be exactly `rows` rows of `cols` entries: an extra entry
    # or row is refused, not dropped, and a missing one is a ValueError
    for rows, cols, data in [(1, 1, [[1, 2]]), (2, 1, [[1], [2], [3]]), (2, 2, [[1, 2], [3]]),
                             (2, 2, [[1, 2]]), (0, 1, [[1]]), (1, 0, [])]:
        with pytest.raises(ValueError, match="rows of"):
            Matrix(field, rows, cols, data)
    with pytest.raises(ValueError, match="rows of"):
        from_rows(field, [[1, 2], [3]])
    assert Matrix(field, 2, 1, [[1], [2]]).rows_list() == [[1], [2]]
    assert from_rows(field, []).shape == (0, 0)


def test_subquotient_full_by_zero(qq):
    Z = Subspace.full(qq, 3)
    B = Subspace.zero(qq, 3)
    dim, proj, section = subquotient(Z, B)
    assert dim == 3
    assert (proj @ section) == Matrix.identity(qq, 3)
    assert proj.rank() == 3


def test_subquotient_equal_spaces_is_zero(f5):
    rng = random.Random(1)
    Z = Subspace.spanned_by(f5, 4, random_matrix(f5, 4, 3, rng))
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
    Z2 = Subspace.spanned_by(f5, 4, random_matrix(f5, 4, 2, rng))
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
    # 90 x 150 products of rank <= 70 (13500 cells; the 150 columns once
    # spanned three panels of a blocked kernel): most rows reduce to zero
    field = GF(p)
    rng = random.Random(1)
    A = random_matrix(field, 90, 70, rng) @ random_matrix(field, 70, 150, rng)
    R, pivots = A.rref()
    assert (R.rows_list(), pivots) == naive_rref(A)
    assert A.rank() == len(pivots)
    K = A.kernel_matrix()
    assert K.cols == A.cols - len(pivots)
    assert (A @ K).is_zero()


def naive_solution(A, B):
    """The rows of the X that `solve` returns (zero on the free rows), read
    off `naive_rref` of [A | B]; None when A X = B has no solution."""
    rows, pivots = naive_rref(A.hstack(B))
    if pivots and pivots[-1] >= A.cols:
        return None
    X = [[0] * B.cols for _ in range(A.cols)]
    for k, c in enumerate(pivots):
        X[c] = rows[k][A.cols:]
    return X


def naive_kernel(A):
    """The rows of the basis that `kernel_matrix` returns, read off
    `naive_rref`: the identity on the free rows, minus the rref's free
    columns on the pivot rows."""
    rows, pivots = naive_rref(A)
    free = free_columns(A.cols, pivots)
    K = [[A.field.element(0)] * len(free) for _ in range(A.cols)]
    for j, c in enumerate(free):
        K[c][j] = A.field.element(1)
        for k, pc in enumerate(pivots):
            K[pc][j] = A.field.element(-rows[k][c])
    return K


def test_rref_kernel_and_solve_match_naive_on_small_inputs():
    # the sizes the workloads eliminate, 0-12 x 0-12 at densities 0-1, and
    # the shapes on either side of `rank`'s _SPARSE_MIN_CELLS (31 x 33 = 1023
    # and 32 x 32 = 1024 cells), full rank and not
    rng = random.Random(15)
    primes = (2, 3, 5, 65521, 1048573)
    cases = []
    for p in primes:
        field = GF(p)
        cases += [Matrix.zeros(field, 0, 5), Matrix.zeros(field, 5, 0), Matrix.zeros(field, 4, 6),
                  Matrix.identity(field, 7),
                  Matrix(field, 3, 4, [[1, 0, 2, 1], [0, 0, 1, 1], [1, 0, 1, 0]]),  # zero column
                  Matrix(field, 3, 3, [[0, 0, 1], [0, 1, 1], [1, 1, 0]])]  # pivots need row swaps
    for _ in range(200):
        field = GF(rng.choice(primes))
        cases.append(random_sparse(field, rng.randint(0, 12), rng.randint(0, 12), rng.random(), rng))
    split = random.Random(16)
    for p in primes:
        field = GF(p)
        for rows, cols in ((31, 33), (32, 32)):
            cases += [random_matrix(field, rows, cols, split),
                      random_sparse(field, rows, cols, 0.2, split),
                      random_sparse(field, rows, cols, 0.5, split, rank=20),
                      random_matrix(field, rows, 9, split) @ random_matrix(field, 9, cols, split)]
    cases += [Matrix.zeros(QQ, 0, 4), Matrix.zeros(QQ, 3, 0), Matrix.identity(QQ, 4),
              Matrix(QQ, 3, 3, [[0, 0, 1], [0, 1, 1], [1, 1, 0]])]
    for _ in range(20):
        r, k, c = split.randint(1, 6), split.randint(1, 6), split.randint(1, 6)
        cases.append(random_matrix(QQ, r, k, split) @ random_matrix(QQ, k, c, split))
    for A in cases:
        rows, pivots = naive_rref(A)
        R, got = A.rref()
        assert (R.rows_list(), got) == (rows, pivots), A
        assert A.rank() == len(pivots)
        free = free_columns(A.cols, pivots)
        K = A.kernel_matrix()
        assert K.shape == (A.cols, len(free)) and K.rows_list() == naive_kernel(A)
        assert K.take_rows(free) == Matrix.identity(A.field, len(free))
        assert (A @ K).is_zero()
        image = A @ random_matrix(A.field, A.cols, 2, rng)
        other = (random_matrix(A.field, A.rows, rng.randint(0, 3), rng) if A.field.is_rational
                 else random_sparse(A.field, A.rows, rng.randint(0, 3), rng.random(), rng))
        for B in (image, other):
            want = naive_solution(A, B)
            if want is None:
                with pytest.raises(NotContained):
                    A.solve(B)
                continue
            X = A.solve(B)
            assert X.rows_list() == want and A @ X == B


def test_rref_guard_threshold(monkeypatch, capsys):
    # elimination has no guard: with _FLOAT_SAFE = 8 (p-1)**2, far below any
    # real bound, `rref`, `rank`, `kernel_matrix` and `solve` still return
    # the naive results, on small matrices and on dense ones of
    # _SPARSE_MIN_CELLS cells or more (which `rank` sends to `rref`)
    p = 5
    field = GF(p)
    monkeypatch.setattr(exactlin, "_FLOAT_SAFE", 8.0 * (p - 1) ** 2)
    rng = random.Random(8)
    for rows, cols in [(6, 10), (7, 10), (10, 6), (10, 7), (6, 6), (7, 7), (0, 30), (30, 0),
                       (31, 40), (40, 31), (32, 32), (32, 40), (40, 32)]:
        A = random_matrix(field, rows, cols, rng)
        assert (A.rref()[0].rows_list(), A.rref()[1]) == naive_rref(A)
        assert A.rank() == naive_rank(A)
        assert A.kernel_matrix().rows_list() == naive_kernel(A)
        B = random_matrix(field, rows, 2, rng)
        want = naive_solution(A, B)
        if want is None:
            with pytest.raises(NotContained):
                A.solve(B)
        else:
            assert A.solve(B).rows_list() == want
    # a guard deep in a CLI route exits 3 with its message: the descent route
    # reads Γ(U, H_X F), and first meets the guard of `@` in the d∘d check
    # of a stalk of H_X F
    monkeypatch.setattr(exactlin, "_FLOAT_SAFE", 2.0 * (p - 1) ** 2)
    data = Path(__file__).resolve().parent.parent / "data"
    assert cli.main(["--format", "json", "spectral", str(data / "pseudocircle-constant.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ValueError: matmul too large for exact float64")


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
def test_sparse_rank_matches_references(p):
    field = GF(p)
    rng = random.Random(p)
    cases = [Matrix.zeros(field, 0, 0), Matrix.zeros(field, 0, 7), Matrix.zeros(field, 9, 0),
             Matrix.zeros(field, 40, 50), Matrix.identity(field, 33)]
    cases += [random_sparse(field, r, c, dens, rng) for r, c, dens in
              [(1, 60, 0.05), (60, 1, 0.05), (40, 60, 0.03), (70, 50, 0.06), (50, 50, 0.1)]]
    cases += [random_sparse(field, 60, 80, 0.05, rng, rank=k) for k in (5, 20, 35)]
    # a dense block fills in: the sparse elimination carries it to the end
    cases += [with_dense_block(random_sparse(field, 60, 70, 0.02, rng), 10, 20, 30, rng),
              with_dense_block(random_sparse(field, 80, 40, 0.0, rng), 40, 5, 25, rng)]
    for M in cases:
        want = naive_rank(M)
        assert _rank_sparse(M._a, p) == want, M.shape
        assert len(M.rref()[1]) == want
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
                     A.take_rows([]), A.take_columns([2, 0]), block(A, (1, 3), (0, 0)),
                     Matrix.assemble(field, [2, 0], [1, 3], {}),
                     Matrix.assemble(field, [3], [4], {(0, 0): A}),
                     A.rref()[0], A.kernel_matrix(), Matrix.zeros(field, 2, 3).kernel_matrix(),
                     A.solve(A @ Matrix.identity(field, 4)),
                     Layout([("a", 2), ("b", 0), ("c", 1)]).projection(field, ["c", "a"]),
                     Layout([("a", 2), ("b", 1)]).inclusion(field, ["b"]),
                     from_rows(field, [[1, 2], [3, 4]]), column(field, [1, 2])]
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
        out.append(preimage(random_matrix(field, 4, 5, rng),
                            Subspace.spanned_by(field, 4, random_matrix(field, 4, 2, rng))))
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
        assert S == Subspace(field, S.ambient_dim, S.basis) == \
            Subspace.spanned_by(field, S.ambient_dim, S.basis)
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
