"""Exact linear algebra over Q and F_p.

Conventions used throughout godex:
  * vectors are columns,
  * a matrix of shape (rows, cols) maps F^cols -> F^rows,
  * all entries are canonical representatives: Fractions in lowest terms
    over Q, integers in [0, p) over F_p.

Two backends sit behind the single `Matrix` type.  Rational matrices are
tuples of `fractions.Fraction` (arbitrary precision, renormalised by
construction).  Prime-field matrices are numpy float64 arrays holding small
integers; all intermediate values are kept far below 2**53, so every float
operation is exact integer arithmetic.  The numpy path exists purely for
speed on the randomized suites; both paths implement the same contracts and
are cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbientMismatch, FieldMismatch, NotContained

_FLOAT_SAFE = 2.0**53


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The coefficient field: Q when `p` is None, F_p otherwise.

    Primality is certified by trial division at construction.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if self.p > 1 << 20:
                raise ValueError("primes above 2**20 are not supported")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    def element(self, value) -> Fraction | int:
        """Canonical representative of `value` in this field."""
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            num, den = value.numerator % self.p, value.denominator % self.p
            return num * pow(den, self.p - 2, self.p) % self.p
        return int(value) % self.p

    def random_element(self, rng) -> Fraction | int:
        if self.p is None:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(self.p)


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


class Matrix:
    """Immutable exact matrix over a `Field`."""

    __slots__ = ("field", "rows", "cols", "_a", "_q")

    def __init__(self, field: Field, rows: int, cols: int, data, _raw=False):
        self.field = field
        self.rows = rows
        self.cols = cols
        if field.is_rational:
            self._a = None
            if _raw:
                self._q = data
            else:
                self._q = tuple(
                    tuple(field.element(data[i][j]) for j in range(cols))
                    for i in range(rows)
                )
        else:
            self._q = None
            if _raw:
                self._a = data
            else:
                arr = np.array(
                    [[int(field.element(data[i][j])) for j in range(cols)] for i in range(rows)],
                    dtype=np.float64,
                ).reshape(rows, cols)
                self._a = arr
            self._a.flags.writeable = False

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows_data) -> "Matrix":
        rows_data = list(rows_data)
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        for row in rows_data:
            if len(row) != c:
                raise ValueError("ragged rows")
        return Matrix(field, r, c, rows_data)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        if field.is_rational:
            z = Fraction(0)
            return Matrix(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)), _raw=True)
        return Matrix(field, rows, cols, np.zeros((rows, cols)), _raw=True)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        if field.is_rational:
            return Matrix(
                field, n, n,
                tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)),
                _raw=True,
            )
        return Matrix(field, n, n, np.eye(n), _raw=True)

    @staticmethod
    def column(field: Field, entries) -> "Matrix":
        return Matrix(field, len(entries), 1, [[e] for e in entries])

    # ---- accessors ----------------------------------------------------

    def entry(self, i: int, j: int):
        if self.field.is_rational:
            return self._q[i][j]
        return int(self._a[i, j])

    def rows_list(self):
        """Entries as a list of lists of canonical field elements."""
        if self.field.is_rational:
            return [list(r) for r in self._q]
        return [[int(v) for v in row] for row in self._a]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        if self.rows == 0 or self.cols == 0:
            return True
        if self.field.is_rational:
            return all(v == 0 for row in self._q for v in row)
        return not self._a.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.field.is_rational:
            return self._q == other._q
        return bool((self._a == other._a).all())

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    # ---- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        if self.field.is_rational:
            return Matrix(
                self.field, self.rows, self.cols,
                tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self._q, other._q)),
                _raw=True,
            )
        return Matrix(self.field, self.rows, self.cols, (self._a + other._a) % self.field.p, _raw=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.element(c)
        if self.field.is_rational:
            return Matrix(
                self.field, self.rows, self.cols,
                tuple(tuple(c * v for v in row) for row in self._q),
                _raw=True,
            )
        return Matrix(self.field, self.rows, self.cols, (self._a * float(c)) % self.field.p, _raw=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        if self.field.is_rational:
            ot = tuple(zip(*other._q)) if other.rows else tuple(() for _ in range(other.cols))
            data = tuple(
                tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ot)
                for row in self._q
            )
            return Matrix(self.field, self.rows, other.cols, data, _raw=True)
        p = self.field.p
        # products of canonical entries stay exact in float64
        if self.cols * (p - 1) ** 2 >= _FLOAT_SAFE:
            raise ValueError("matmul too large for exact float64 accumulation")
        return Matrix(self.field, self.rows, other.cols, (self._a @ other._a) % p, _raw=True)

    def transpose(self) -> "Matrix":
        if self.field.is_rational:
            data = tuple(zip(*self._q)) if self.rows else tuple(() for _ in range(self.cols))
            return Matrix(self.field, self.cols, self.rows, data, _raw=True)
        return Matrix(self.field, self.cols, self.rows, self._a.T.copy(), _raw=True)

    # ---- block operations ----------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        if self.field.is_rational:
            data = tuple(ra + rb for ra, rb in zip(self._q, other._q))
            return Matrix(self.field, self.rows, self.cols + other.cols, data, _raw=True)
        return Matrix(self.field, self.rows, self.cols + other.cols, np.hstack([self._a, other._a]), _raw=True)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        if self.field.is_rational:
            return Matrix(self.field, self.rows + other.rows, self.cols, self._q + other._q, _raw=True)
        return Matrix(self.field, self.rows + other.rows, self.cols, np.vstack([self._a, other._a]), _raw=True)

    def take_columns(self, idx) -> "Matrix":
        idx = list(idx)
        if self.field.is_rational:
            data = tuple(tuple(row[j] for j in idx) for row in self._q)
            return Matrix(self.field, self.rows, len(idx), data, _raw=True)
        return Matrix(self.field, self.rows, len(idx), self._a[:, idx].copy(), _raw=True)

    def take_rows(self, idx) -> "Matrix":
        idx = list(idx)
        if self.field.is_rational:
            return Matrix(self.field, len(idx), self.cols, tuple(self._q[i] for i in idx), _raw=True)
        return Matrix(self.field, len(idx), self.cols, self._a[idx, :].copy(), _raw=True)

    @staticmethod
    def assemble(field: Field, rows, cols, blocks: dict) -> "Matrix":
        """Block matrix from `blocks[(row label, column label)] = Matrix`.

        `rows` and `cols` are `Layout`s, or lists of block sizes, which are
        read as layouts labelled by position.  Absent blocks are zero.
        """
        rows = rows if isinstance(rows, Layout) else Layout(enumerate(rows))
        cols = cols if isinstance(cols, Layout) else Layout(enumerate(cols))
        if field.is_rational:
            data = [[Fraction(0)] * cols.dim for _ in range(rows.dim)]
        else:
            a = np.zeros((rows.dim, cols.dim))
        for (bi, bj), m in blocks.items():
            (r0, rd), (c0, cd) = rows[bi], cols[bj]
            if m.shape != (rd, cd):
                raise ValueError(f"block {(bi, bj)} has shape {m.shape}, expected {(rd, cd)}")
            if field.is_rational:
                for i in range(rd):
                    data[r0 + i][c0:c0 + cd] = m._q[i]
            else:
                a[r0:r0 + rd, c0:c0 + cd] = m._a
        if field.is_rational:
            return Matrix(field, rows.dim, cols.dim, tuple(tuple(r) for r in data), _raw=True)
        return Matrix(field, rows.dim, cols.dim, a, _raw=True)

    def block(self, row_range, col_range) -> "Matrix":
        """Contiguous submatrix rows[a:b], cols[c:d]."""
        a, b = row_range
        c, d = col_range
        if self.field.is_rational:
            data = tuple(tuple(self._q[i][c:d]) for i in range(a, b))
            return Matrix(self.field, b - a, d - c, data, _raw=True)
        return Matrix(self.field, b - a, d - c, self._a[a:b, c:d].copy(), _raw=True)

    # ---- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column tuple)."""
        if self.field.is_rational:
            return _rref_q(self)
        return _rref_np(self)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_matrix(self, reduced=None) -> "Matrix":
        """Basis of {v : Av = 0} as matrix columns.

        `reduced` may carry a precomputed (rref, pivots) pair.  The basis is
        the identity on its free rows (the non-pivot columns of the rref, in
        increasing order), so the coordinates of any kernel vector in this
        basis are its entries in those rows; `site.sections` relies on this.
        """
        R, pivots = reduced if reduced is not None else self.rref()
        n = self.cols
        free = [j for j in range(n) if j not in set(pivots)]
        k = len(free)
        out = Matrix.zeros(self.field, n, k)
        if k == 0:
            return out
        if self.field.is_rational:
            data = [[Fraction(0)] * k for _ in range(n)]
            for c, j in enumerate(free):
                data[j][c] = Fraction(1)
                for r, pc in enumerate(pivots):
                    data[pc][c] = -R._q[r][j]
            return Matrix(self.field, n, k, tuple(tuple(row) for row in data), _raw=True)
        p = self.field.p
        a = np.zeros((n, k))
        for c, j in enumerate(free):
            a[j, c] = 1.0
            for r, pc in enumerate(pivots):
                a[pc, c] = (-R._a[r, j]) % p
        return Matrix(self.field, n, k, a, _raw=True)

    def solve(self, B: "Matrix") -> "Matrix":
        """X with self @ X = B; raises NotContained if inconsistent."""
        self._check(B)
        if B.rows != self.rows:
            raise ValueError("shape mismatch in solve")
        aug = self.hstack(B)
        R, pivots = aug.rref()
        n = self.cols
        if any(pc >= n for pc in pivots):
            raise NotContained("linear system is inconsistent")
        X = Matrix.zeros(self.field, n, B.cols)
        if self.field.is_rational:
            data = [[Fraction(0)] * B.cols for _ in range(n)]
            for r, pc in enumerate(pivots):
                for j in range(B.cols):
                    data[pc][j] = R._q[r][n + j]
            return Matrix(self.field, n, B.cols, tuple(tuple(row) for row in data), _raw=True)
        a = np.zeros((n, B.cols))
        for r, pc in enumerate(pivots):
            a[pc, :] = R._a[r, n:]
        return Matrix(self.field, n, B.cols, a, _raw=True)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        X = self.solve(Matrix.identity(self.field, self.rows))
        if (self @ X) != Matrix.identity(self.field, self.rows):
            raise ValueError("matrix is singular")
        return X


def _rref_q(m: Matrix):
    rows = [list(r) for r in m._q]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        sel = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.field, nr, nc, tuple(tuple(row) for row in rows), _raw=True), tuple(pivots)


def _rref_np_simple(m: Matrix):
    """Reference elimination: one full-width update per pivot."""
    p = m.field.p
    a = m._a.copy()
    nr, nc = a.shape
    # every entry is updated at most rank times; keep the growth exact
    if (p - 1) ** 2 * (min(nr, nc) + 1) >= _FLOAT_SAFE:
        raise ValueError("matrix too large for deferred-reduction elimination")
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        col = a[r:, c] % p
        a[r:, c] = col
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        a[r, :] %= p
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, :] = (a[r, :] * inv) % p
        f = a[:, c] % p
        f[r] = 0.0
        if f.any():
            a -= np.outer(f, a[r, :])
        a[:, c] = 0.0
        a[r, c] = 1.0
        pivots.append(c)
        r += 1
    a %= p
    out = Matrix(m.field, nr, nc, a, _raw=True)
    return out, tuple(pivots)


_PANEL = 64


def _rref_np(m: Matrix):
    """Panel-blocked exact elimination over F_p.

    Within a panel of columns the per-pivot updates touch the panel only;
    the deferred effect on the remaining columns is applied as one matrix
    product per panel.  Every value that is multiplied is first reduced into
    [0, p), so each product is below (p-1)**2, and the float64 arithmetic is
    exact while every magnitude stays below 2**53:

      * at the start of a panel every entry of `a` is in [0, p), except in
        the columns of an earlier panel that no out-of-panel update has
        reduced since, which hold the panel bound below;
      * a panel entry receives at most one update f * row with f, row in
        [0, p) per pivot of the panel, so it stays below
        p + _PANEL * (p-1)**2;
      * the pivot row is reduced before it is scaled by the pivot inverse;
      * a row u of U is an entry (bounded as above) minus at most _PANEL - 1
        products of reduced values; it is reduced before it is scaled;
      * the out-of-panel update subtracts Fk @ U, at most _PANEL products of
        reduced values, from an entry bounded as above, so every value stays
        below p + 2 * _PANEL * (p-1)**2 <= (2 * _PANEL + 2) * (p-1)**2.

    Cross-checked against `_rref_np_simple` and the naive rank of
    `tests/conftest.py` on multi-panel matrices over primes up to 2**20 in
    `tests/test_exactlin.py`.
    """
    p = m.field.p
    nr, nc = m.rows, m.cols
    if nr == 0 or nc == 0:
        return Matrix(m.field, nr, nc, m._a.copy(), _raw=True), ()
    if (p - 1) ** 2 * (2 * _PANEL + 2) >= _FLOAT_SAFE or \
            (p - 1) ** 2 * (min(nr, nc) + 1) >= _FLOAT_SAFE:
        raise ValueError("matrix too large for deferred-reduction elimination")
    a = m._a % p
    pivots = []
    r = 0
    for c0 in range(0, nc, _PANEL):
        if r == nr:
            break
        c1 = min(c0 + _PANEL, nc)
        panel = a[:, c0:c1]  # view
        Fm = np.zeros((nr, c1 - c0))
        rows_of = []
        invs = []
        for c in range(c0, c1):
            if r == nr:
                break
            j = c - c0
            col = panel[:, j] % p
            panel[:, j] = col
            nz = np.nonzero(col[r:])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i], :] = a[[i, r], :]
                Fm[[r, i], :] = Fm[[i, r], :]
            inv = pow(int(panel[r, j] % p), p - 2, p)
            panel[r, :] = (panel[r, :] % p * inv) % p
            f = panel[:, j] % p
            f[r] = 0.0
            if f.any():
                panel -= np.outer(f, panel[r, :])
            panel[:, j] = 0.0
            panel[r, j] = 1.0
            Fm[:, len(rows_of)] = f
            rows_of.append(r)
            invs.append(inv)
            pivots.append(c)
            r += 1
        k = len(rows_of)
        if k == 0:
            continue
        Fk = Fm[:, :k]
        out_idx = np.concatenate([np.arange(0, c0), np.arange(c1, nc)])
        if out_idx.size:
            aout = a[:, out_idx]
            U = np.zeros((k, out_idx.size))
            for j in range(k):
                rj = rows_of[j]
                u = aout[rj, :]
                if j:
                    u = u - Fk[rj, :j] @ U[:j, :]
                U[j, :] = (u % p * invs[j]) % p
                # hits up to and including a pivot's own step are folded in U
                Fk[rj, :j + 1] = 0.0
            for j in range(k):
                aout[rows_of[j], :] = U[j, :]
            aout = aout - Fk @ U
            a[:, out_idx] = aout % p
    a %= p
    return Matrix(m.field, nr, nc, a, _raw=True), tuple(pivots)


class Layout(dict):
    """The summands of a direct sum, in order: label -> (offset, dim).

    Built from (label, dim) pairs; `dim` is the dimension of the sum.  Every
    block matrix in godex is assembled on layouts (`Matrix.assemble`), so
    summands are addressed by label, never by a hand-kept offset.
    """

    __slots__ = ("dim",)

    def __init__(self, sizes=()):
        super().__init__()
        off = 0
        for label, d in sizes:
            if label in self:
                raise ValueError(f"duplicate block label {label!r}")
            self[label] = (off, d)
            off += d
        self.dim = off

    def inclusion(self, field: Field, labels) -> Matrix:
        """The 0/1 matrix embedding the summands `labels`, in that order."""
        sub = Layout((label, self[label][1]) for label in labels)
        return Matrix.assemble(field, self, sub,
                               {(x, x): Matrix.identity(field, d) for x, (_, d) in sub.items()})

    def projection(self, field: Field, labels) -> Matrix:
        """The 0/1 matrix projecting onto the summands `labels`, in that order."""
        return self.inclusion(field, labels).transpose()


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product A ⊗ B: block (i, j) is A[i, j] B."""
    return Matrix.assemble(A.field, [B.rows] * A.rows, [B.cols] * A.cols,
                           {(i, j): B.scale(v) for i, row in enumerate(A.rows_list())
                            for j, v in enumerate(row) if v})


# ---- subspaces ---------------------------------------------------------


class Subspace:
    """A linear subspace of F^ambient_dim with a canonical (column-rref) basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, canonical=False):
        if basis.rows != ambient_dim:
            raise AmbientMismatch(f"basis rows {basis.rows} != ambient {ambient_dim}")
        if canonical:
            self.basis = basis
        else:
            R, pivots = basis.transpose().rref()
            self.basis = R.take_rows(range(len(pivots))).transpose()
        if self.basis.cols != basis.cols and not canonical:
            # only possible if the supplied columns were dependent
            raise ValueError("basis columns are linearly dependent")
        self.field = field
        self.ambient_dim = ambient_dim

    @staticmethod
    def full(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, Matrix.identity(field, n), canonical=True)

    @staticmethod
    def zero(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, Matrix.zeros(field, n, 0), canonical=True)

    @staticmethod
    def spanned_by(field: Field, ambient_dim: int, vectors: Matrix) -> "Subspace":
        """Span of the columns of `vectors` (dependencies allowed)."""
        R, pivots = vectors.transpose().rref()
        return Subspace(field, ambient_dim, R.take_rows(range(len(pivots))).transpose(), canonical=True)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def coords_of(self, vectors: Matrix) -> Matrix:
        """Coordinates of given columns in this basis; NotContained if outside."""
        return self.basis.solve(vectors)

    def contains_matrix(self, vectors: Matrix) -> bool:
        try:
            self.coords_of(vectors)
            return True
        except NotContained:
            return False

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} vs {other.ambient_dim}")
        return self.contains_matrix(other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} vs {other.ambient_dim}")
        return Subspace.spanned_by(self.field, self.ambient_dim, self.basis.hstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} vs {other.ambient_dim}")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        K = self.basis.hstack(other.basis).kernel_matrix()
        vecs = self.basis @ K.take_rows(range(self.dim))
        return Subspace.spanned_by(self.field, self.ambient_dim, vecs)


def kernel(M: Matrix) -> Subspace:
    """The subspace {v : Mv = 0}."""
    return Subspace(M.field, M.cols, M.kernel_matrix(), canonical=False)


def image(M: Matrix) -> Subspace:
    """The column space of M."""
    return Subspace.spanned_by(M.field, M.rows, M)


def preimage(M: Matrix, W: Subspace) -> Subspace:
    """The subspace {v : Mv ∈ W}."""
    if W.ambient_dim != M.rows:
        raise AmbientMismatch(f"{W.ambient_dim} vs {M.rows}")
    if W.dim == 0:
        return kernel(M)
    K = M.hstack(W.basis.scale(-1)).kernel_matrix()
    vecs = K.take_rows(range(M.cols))
    return Subspace.spanned_by(M.field, M.cols, vecs)


def subquotient(Z: Subspace, B: Subspace):
    """Quotient Z/B of nested subspaces.

    Returns (dim, projection, section): `projection` maps Z-coordinates onto
    quotient coordinates, `section` picks representatives in Z-coordinates,
    and projection @ section is the identity.
    """
    if Z.ambient_dim != B.ambient_dim:
        raise AmbientMismatch(f"{Z.ambient_dim} vs {B.ambient_dim}")
    field = Z.field
    try:
        b_in_z = Z.coords_of(B.basis)  # dim Z x dim B
    except NotContained:
        raise NotContained("B is not contained in Z")
    dz, db = Z.dim, B.dim
    q = dz - db
    if q == 0:
        return 0, Matrix.zeros(field, 0, dz), Matrix.zeros(field, dz, 0)
    # complete the B-coordinates to a basis of the Z-coordinate space,
    # preferring standard basis vectors (greedy, deterministic)
    M = b_in_z.hstack(Matrix.identity(field, dz))
    _, pivots = M.rref()
    extra = [pc - db for pc in pivots if pc >= db]
    assert len(extra) == q
    section = Matrix.identity(field, dz).take_columns(extra)
    T = b_in_z.hstack(section)
    projection = T.inverse().take_rows(range(db, dz))
    assert (projection @ section) == Matrix.identity(field, q)
    return q, projection, section


def random_matrix(field: Field, rows: int, cols: int, rng) -> Matrix:
    return Matrix(field, rows, cols, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)])


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Random invertible matrix: L @ U @ P with unit-triangular L, U."""
    if n == 0:
        return Matrix.identity(field, 0)
    low = [[field.element(0)] * n for _ in range(n)]
    up = [[field.element(0)] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = field.element(1)
        up[i][i] = field.element(rng.randrange(1, field.p)) if not field.is_rational else Fraction(rng.choice([1, 1, 2, -1]))
        for j in range(i):
            low[i][j] = field.random_element(rng)
            up[j][i] = field.random_element(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    P = Matrix.zeros(field, n, n).rows_list()
    for i, j in enumerate(perm):
        P[i][j] = 1
    return Matrix(field, n, n, low) @ Matrix(field, n, n, up) @ Matrix(field, n, n, P)
