"""Shared fixtures and the independent row-reduction oracle.

The oracle is a deliberately naive pure-Python Gaussian elimination kept
separate from the package's elimination kernels; DERIVED expectations in
the tests are computed with it.
"""

from fractions import Fraction

import pytest

from godex.exactlin import GF, QQ


@pytest.fixture
def f5():
    return GF(5)


@pytest.fixture
def qq():
    return QQ


def naive_rank(matrix) -> int:
    """Row-reduce a godex Matrix with plain Python arithmetic and count pivots."""
    field = matrix.field
    rows = [list(r) for r in matrix.rows_list()]
    if field.is_rational:
        rows = [[Fraction(v) for v in r] for r in rows]

        def inv(a):
            return 1 / a

        def norm(a):
            return a
    else:
        p = field.p

        def inv(a):
            return pow(a, p - 2, p)

        def norm(a):
            return a % p
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if norm(rows[i][c]) != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        iv = inv(norm(rows[rank][c]))
        rows[rank] = [norm(v * iv) for v in rows[rank]]
        for i in range(nrows):
            if i != rank and norm(rows[i][c]) != 0:
                f = norm(rows[i][c])
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_betti(complex_) -> dict:
    """Betti numbers from ranks alone: dim ker d^n - rank d^{n-1}."""
    out = {}
    for n in complex_.degrees():
        rk_n = naive_rank(complex_.d(n))
        rk_prev = naive_rank(complex_.d(n - 1))
        b = complex_.dim(n) - rk_n - rk_prev
        if b:
            out[n] = b
    return out


def basis_quis_per_degree(f, up_to=None) -> dict:
    """Per-degree verdicts "H^n(f) is an isomorphism" from kernel bases, over
    the degrees and certificate that `is_quis` reads: the betti numbers
    agree and f(Z_s^n) together with the target coboundaries spans Z_t^n.
    Every rank here is a pivot count of the dense `Matrix.rref`."""
    S, T = f.source, f.target

    def rank(M):
        return len(M.rref()[1])

    lo, hi = min(S.lower, T.lower), max(S.upper, T.upper)
    certs = [c for c in (S.certified_degree, T.certified_degree, up_to) if c is not None]
    if certs:
        hi = min(hi, min(certs))
    out = {}
    for n in range(lo, hi + 1):
        Zs, Zt = S.d(n).kernel_matrix(), T.d(n).kernel_matrix()
        bs = Zs.cols - rank(S.d(n - 1))
        bt = Zt.cols - rank(T.d(n - 1))
        span = (f.component(n) @ Zs).hstack(T.d(n - 1))
        out[n] = bs == bt and rank(span) == Zt.cols
    return out
