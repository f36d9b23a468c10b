"""Exact linear algebra over Q and F_p.

Conventions used throughout godex:
  * vectors are columns,
  * a matrix of shape (rows, cols) maps F^cols -> F^rows,
  * all entries are canonical representatives: Fractions in lowest terms
    over Q, integers in [0, p) over F_p.

A `Matrix` stores its entries in one numpy array: `dtype=object` holding
`fractions.Fraction`s over Q, float64 holding integers in [0, p) over F_p.
Every operation is written once on that array, reduced mod p after
arithmetic over F_p.  Over F_p all intermediate values are kept below 2**53,
so every float operation is exact integer arithmetic; the guards that
enforce this raise ValueError.  Only elimination differs by field: over Q
`_rref_q` reduces lists of Fractions, over F_p `_rref_np` eliminates the
float64 array in panels.

`Matrix.rank()` over F_p takes a third route on large sparse inputs:
`_rank_sparse`, a structured Gaussian elimination on rows held as dicts of
Python ints mod p (sparsest row first, Markowitz pivot column), which hands
its active part to the dense elimination once that part has filled in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbientMismatch, FieldMismatch, NotContained

_FLOAT_SAFE = 2.0**53
_ZERO = Fraction(0)

# `Matrix.rank()` eliminates an F_p matrix sparsely when it has at least
# _SPARSE_MIN_CELLS cells of which at most a _SPARSE_MAX_DENSITY share is
# nonzero, and densely otherwise.  The sparse elimination hands its active
# part to `_rref_np` once that part has at least _SPARSE_HANDOFF_CELLS cells
# of which more than a _SPARSE_HANDOFF_DENSITY share is nonzero.
_SPARSE_MIN_CELLS = 1024
_SPARSE_MAX_DENSITY = 0.1
_SPARSE_HANDOFF_CELLS = 256
_SPARSE_HANDOFF_DENSITY = 0.25


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
        """Canonical representative of `value` in this field; ValueError for a
        fraction whose (reduced) denominator p divides, which has none in F_p."""
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            num, den = value.numerator % self.p, value.denominator % self.p
            if den == 0:
                raise ValueError(f"{value} has no value in F_{self.p}")
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
    """Immutable exact matrix over a `Field`.

    The entries are one read-only numpy array `_a`: `Fraction`s over Q,
    float64 integers in [0, p) over F_p.  Besides the reduction mod p after
    arithmetic, only elimination (`rref`, `rank`), the float64 exactness
    guard of `@` and reading entries out (`entry`, `rows_list`) depend on
    the field.
    """

    __slots__ = ("field", "rows", "cols", "_a")

    def __init__(self, field: Field, rows: int, cols: int, data, _raw=False):
        self.field = field
        self.rows = rows
        self.cols = cols
        if not _raw:
            data = np.array(
                [[field.element(data[i][j]) for j in range(cols)] for i in range(rows)],
                dtype=object if field.p is None else np.float64,
            ).reshape(rows, cols)
        data.flags.writeable = False
        self._a = data

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
        return Matrix(field, rows, cols, _zeros(field, rows, cols), _raw=True)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        a = _zeros(field, n, n)
        a.flat[::n + 1] = field.element(1)
        return Matrix(field, n, n, a, _raw=True)

    @staticmethod
    def column(field: Field, entries) -> "Matrix":
        return Matrix(field, len(entries), 1, [[e] for e in entries])

    # ---- accessors ----------------------------------------------------

    def entry(self, i: int, j: int):
        v = self._a[i, j]
        return v if self.field.p is None else int(v)

    def rows_list(self):
        """Entries as a list of lists of canonical field elements."""
        if self.field.p is None:
            return self._a.tolist()
        return self._a.astype(np.int64).tolist()

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self._a.any()

    def nonzero(self):
        """The (row, column) index arrays of the nonzero entries."""
        return np.nonzero(self._a)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
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
        a = self._a + other._a
        if self.field.p is not None:
            a %= self.field.p
        return Matrix(self.field, self.rows, self.cols, a, _raw=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        a = self._a * self.field.element(c)
        if self.field.p is not None:
            a %= self.field.p
        return Matrix(self.field, self.rows, self.cols, a, _raw=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in @: {self.shape} x {other.shape}")
        p = self.field.p
        # products of canonical entries stay exact in float64
        if p is not None and self.cols * (p - 1) ** 2 >= _FLOAT_SAFE:
            raise ValueError("matmul too large for exact float64 accumulation")
        if self.cols == 0:  # an object array product over no terms is int 0
            return Matrix.zeros(self.field, self.rows, other.cols)
        a = self._a @ other._a
        if p is not None:
            a %= p
        return Matrix(self.field, self.rows, other.cols, a, _raw=True)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, self._a.T.copy(), _raw=True)

    # ---- block operations ----------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.field, self.rows, self.cols + other.cols, np.hstack([self._a, other._a]), _raw=True)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Matrix(self.field, self.rows + other.rows, self.cols, np.vstack([self._a, other._a]), _raw=True)

    def take_columns(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, self.rows, len(idx), self._a[:, idx], _raw=True)

    def take_rows(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, len(idx), self.cols, self._a[idx, :], _raw=True)

    @staticmethod
    def assemble(field: Field, rows, cols, blocks: dict) -> "Matrix":
        """Block matrix from `blocks[(row label, column label)] = Matrix`.

        `rows` and `cols` are `Layout`s, or lists of block sizes, which are
        read as layouts labelled by position.  Absent blocks are zero.
        """
        rows = rows if isinstance(rows, Layout) else Layout(enumerate(rows))
        cols = cols if isinstance(cols, Layout) else Layout(enumerate(cols))
        a = _zeros(field, rows.dim, cols.dim)
        for (bi, bj), m in blocks.items():
            (r0, rd), (c0, cd) = rows[bi], cols[bj]
            if m.shape != (rd, cd):
                raise ValueError(f"block {(bi, bj)} has shape {m.shape}, expected {(rd, cd)}")
            a[r0:r0 + rd, c0:c0 + cd] = m._a
        return Matrix(field, rows.dim, cols.dim, a, _raw=True)

    def block(self, row_range, col_range) -> "Matrix":
        """Contiguous submatrix rows[a:b], cols[c:d]."""
        a, b = row_range
        c, d = col_range
        return Matrix(self.field, b - a, d - c, self._a[a:b, c:d].copy(), _raw=True)

    # ---- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column tuple)."""
        if self.field.p is None:
            return _rref_q(self)
        return _rref_np(self)

    def rank(self) -> int:
        """The rank; large sparse F_p matrices are eliminated by `_rank_sparse`."""
        if self.field.p is not None and self.rows * self.cols >= _SPARSE_MIN_CELLS and \
                np.count_nonzero(self._a) <= _SPARSE_MAX_DENSITY * self.rows * self.cols:
            return _rank_sparse(self._a, self.field.p)
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
        free = free_columns(n, pivots)
        k = len(free)
        a = _zeros(self.field, n, k)
        neg = -R._a[:len(pivots), free]
        if self.field.p is not None:
            neg %= self.field.p
        a[list(pivots), :] = neg
        a[free, range(k)] = self.field.element(1)
        return Matrix(self.field, n, k, a, _raw=True)

    def solve(self, B: "Matrix") -> "Matrix":
        """X with self @ X = B; raises NotContained if inconsistent."""
        self._check(B)
        if B.rows != self.rows:
            raise ValueError("shape mismatch in solve")
        R, pivots = self.hstack(B).rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            raise NotContained("linear system is inconsistent")
        a = _zeros(self.field, n, B.cols)
        a[list(pivots), :] = R._a[:len(pivots), n:]
        return Matrix(self.field, n, B.cols, a, _raw=True)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        X = self.solve(Matrix.identity(self.field, self.rows))
        if (self @ X) != Matrix.identity(self.field, self.rows):
            raise ValueError("matrix is singular")
        return X


def alternating_sum(field: Field, rows: int, cols: int, terms) -> Matrix:
    """Σ_i (-1)^i terms[i] of (rows x cols) matrices, accumulated in place in
    one array and reduced once.  Over F_p a partial sum of k terms in [0, p)
    stays below k * p in magnitude, so it is exact in float64."""
    a = _zeros(field, rows, cols)
    for i, m in enumerate(terms):
        if m.field != field:
            raise FieldMismatch(f"{m.field} vs {field}")
        if m.shape != (rows, cols):
            raise ValueError(f"term {i} has shape {m.shape}, expected {(rows, cols)}")
        if i % 2:
            a -= m._a
        else:
            a += m._a
    if field.p is not None:
        a %= field.p
    return Matrix(field, rows, cols, a, _raw=True)


def _zeros(field: Field, rows: int, cols: int):
    """A zero storage array; over Q its entries are Fraction(0), not int 0."""
    if field.p is None:
        return np.full((rows, cols), _ZERO, dtype=object)
    return np.zeros((rows, cols))


def free_columns(n: int, pivots) -> list:
    """The columns 0..n-1 that are not pivot columns, in increasing order."""
    pivot_set = set(pivots)
    return [j for j in range(n) if j not in pivot_set]


def _rref_q(m: Matrix):
    rows = m._a.tolist()
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
    out = np.array(rows, dtype=object).reshape(nr, nc)
    return Matrix(m.field, nr, nc, out, _raw=True), tuple(pivots)


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


def _rank_sparse(a, p: int) -> int:
    """Rank over F_p of the array `a` (entries in [0, p)) by structured
    Gaussian elimination (LaMacchia–Odlyzko; Bouillaguet–Delaplace).

    Rows are dicts column -> Python int mod p, so the arithmetic is exact for
    every p.  The next pivot row is the sparsest active row, taken from a
    heap (an entry whose length is out of date is skipped); its pivot column
    is the one of its columns held by the fewest active rows (Markowitz), so
    singleton columns go first and cause no fill-in.  The pivot column is
    cleared from every other row that holds it, and the pivot row leaves.
    Once the active rows × active columns have at least
    `_SPARSE_HANDOFF_CELLS` cells of which more than a
    `_SPARSE_HANDOFF_DENSITY` share is nonzero, that active part is
    eliminated by `_rref_np`.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}  # column -> the active rows holding it
    ii, jj = np.nonzero(a)
    for i, j, v in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
        rows.setdefault(i, {})[j] = int(v) % p
        cols.setdefault(j, set()).add(i)
    nnz = len(ii)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while rows:
        cells = len(rows) * len(cols)
        if cells >= _SPARSE_HANDOFF_CELLS and nnz > _SPARSE_HANDOFF_DENSITY * cells:
            break
        length, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None or len(row) != length:
            continue
        c = min(row, key=lambda j: len(cols[j]))
        del rows[i]
        nnz -= length
        holders = cols.pop(c)
        holders.discard(i)
        rest = [(j, v) for j, v in row.items() if j != c]
        for j, _ in rest:
            held = cols[j]
            held.discard(i)
            if not held:
                del cols[j]
        inv = pow(row[c], p - 2, p)
        for s in holders:
            t = rows[s]
            f = t.pop(c) * inv % p
            nnz -= 1
            for j, v in rest:
                w = t.get(j)
                if w is None:
                    t[j] = -f * v % p
                    cols.setdefault(j, set()).add(s)
                    nnz += 1
                    continue
                w = (w - f * v) % p
                if w:
                    t[j] = w
                    continue
                del t[j]
                held = cols[j]
                held.discard(s)
                if not held:
                    del cols[j]
                nnz -= 1
            if t:
                heapq.heappush(heap, (len(t), s))
            else:
                del rows[s]
        rank += 1
    if rows:
        at = {j: k for k, j in enumerate(cols)}
        d = np.zeros((len(rows), len(cols)))
        for r, row in enumerate(rows.values()):
            for j, v in row.items():
                d[r, at[j]] = v
        rank += len(_rref_np(Matrix(Field(p), len(rows), len(cols), d, _raw=True))[1])
    return rank


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

    def projection(self, field: Field, labels) -> Matrix:
        """The 0/1 matrix projecting onto the summands `labels`, in that order."""
        idx = []
        for label in labels:
            off, d = self[label]
            idx.extend(range(off, off + d))
        a = _zeros(field, len(idx), self.dim)
        a[range(len(idx)), idx] = field.element(1)
        return Matrix(field, len(idx), self.dim, a, _raw=True)

    def inclusion(self, field: Field, labels) -> Matrix:
        """The 0/1 matrix embedding the summands `labels`, in that order."""
        return self.projection(field, labels).transpose()


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product A ⊗ B: block (i, j) is A[i, j] B."""
    return Matrix.assemble(A.field, [B.rows] * A.rows, [B.cols] * A.cols,
                           {(i, j): B.scale(v) for i, row in enumerate(A.rows_list())
                            for j, v in enumerate(row) if v})


# ---- subspaces ---------------------------------------------------------


class Subspace:
    """A linear subspace of F^ambient_dim, with a basis that is the identity
    on the rows `unit_rows`.

    The coordinates of a member in that basis are its entries in those rows;
    `coords_of` reads them and checks them with one product.  Given no
    `unit_rows`, the constructor puts the basis in column-rref form, which
    is the identity on its pivot rows; `spanned_by` passes those pivot rows,
    `CohomologyData.cycles` the free rows of `kernel_matrix`.
    """

    __slots__ = ("field", "ambient_dim", "basis", "unit_rows")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, unit_rows=None):
        if basis.rows != ambient_dim:
            raise AmbientMismatch(f"basis rows {basis.rows} != ambient {ambient_dim}")
        if unit_rows is None:
            R, unit_rows = basis.transpose().rref()
            if len(unit_rows) != basis.cols:
                raise ValueError("basis columns are linearly dependent")
            basis = R.transpose()
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.unit_rows = tuple(unit_rows)

    @staticmethod
    def full(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, Matrix.identity(field, n), range(n))

    @staticmethod
    def zero(field: Field, n: int) -> "Subspace":
        return Subspace(field, n, Matrix.zeros(field, n, 0), ())

    @staticmethod
    def spanned_by(field: Field, ambient_dim: int, vectors: Matrix) -> "Subspace":
        """Span of the columns of `vectors` (dependencies allowed)."""
        R, pivots = vectors.transpose().rref()
        return Subspace(field, ambient_dim, R.take_rows(range(len(pivots))).transpose(), pivots)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.dim == other.dim and \
            self.contains(other)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def coords_of(self, vectors: Matrix) -> Matrix:
        """Coordinates of given columns in this basis; NotContained if outside."""
        if vectors.rows != self.ambient_dim:
            raise AmbientMismatch(f"vector rows {vectors.rows} != ambient {self.ambient_dim}")
        coords = vectors.take_rows(self.unit_rows)
        if self.basis @ coords != vectors:
            raise NotContained("vectors are not in the subspace")
        return coords

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


def kernel(M: Matrix) -> Subspace:
    """The subspace {v : Mv = 0}."""
    return Subspace(M.field, M.cols, M.kernel_matrix())


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
