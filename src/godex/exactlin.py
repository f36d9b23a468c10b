"""Exact linear algebra over Q and F_p.

Conventions used throughout godex:
  * vectors are columns,
  * a matrix of shape (rows, cols) maps F^cols -> F^rows,
  * all entries are canonical representatives: Fractions in lowest terms
    over Q, integers in [0, p) over F_p.

A `Matrix` stores its entries in one numpy array: `dtype=object` holding
`fractions.Fraction`s over Q, float64 holding integers in [0, p) over F_p.
Every operation is written once on that array, reduced mod p after
arithmetic over F_p.  Over F_p the arithmetic on the array keeps every
intermediate value below 2**53, so every float operation is exact integer
arithmetic; the one guard that enforces this, on `@`, raises ValueError.
Arithmetic results are reduced in place by `_mod`: float `%` on small arrays,
and from _MOD_INT_CELLS cells on an int64 floor-mod through one temporary,
exact on the same range and cheaper per cell than the float remainder.
Elimination has one dense kernel, `_rref_lists`: a Gauss–Jordan on the rows
as Python lists (Fractions over Q, ints mod p over F_p), exact for every
field and every size, so it has no guard and refuses no matrix.

`Matrix.rank()` over F_p takes a second route on large sparse inputs:
`_rank_sparse`, a structured Gaussian elimination on rows held as dicts of
Python ints mod p (sparsest row first, Markowitz pivot column), carried to
the end.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AmbientMismatch, FieldMismatch, InvariantError, NotContained

_FLOAT_SAFE = 2.0**53
_ZERO = Fraction(0)
# The values of the diagonal of U in a random automorphism L U P over Q.
_Q_UNITS = (1, 1, 2, -1)

# `Matrix.rank()` eliminates an F_p matrix sparsely when it has at least
# _SPARSE_MIN_CELLS cells of which at most a _SPARSE_MAX_DENSITY share is
# nonzero, and through `rref` otherwise.
_SPARSE_MIN_CELLS = 1024
_SPARSE_MAX_DENSITY = 0.1

# `_mod` reduces an array of at least _MOD_INT_CELLS cells through int64.
# Replaying the `_mod` inputs of one pass of each benchmark workload put
# 128 ahead of 1024 on all four (2 cores, numpy 2.4.6).
_MOD_INT_CELLS = 128


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
        fraction whose (reduced) denominator p divides and for a float that is
        not an integer, which have none in F_p."""
        if self.p is None:
            return Fraction(value)
        if type(value) is int:
            return value % self.p
        if isinstance(value, Fraction):
            num, den = value.numerator % self.p, value.denominator % self.p
            if den == 0:
                raise ValueError(f"{value} has no value in F_{self.p}")
            return num * pow(den, self.p - 2, self.p) % self.p
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value} has no value in F_{self.p}")
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
            data = [[field.element(v) for v in row] for row in data]
            if len(data) != rows or any(len(row) != cols for row in data):
                raise ValueError(f"data is not {rows} rows of {cols} entries")
            data = np.array(data, dtype=object if field.p is None else np.float64).reshape(rows, cols)
        data.flags.writeable = False
        self._a = data

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, _zeros(field, rows, cols), _raw=True)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        a = _zeros(field, n, n)
        a.flat[::n + 1] = field.element(1)
        return Matrix(field, n, n, a, _raw=True)

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
            a = _mod(a, self.field.p)
        return Matrix(self.field, self.rows, self.cols, a, _raw=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        a = self._a * self.field.element(c)
        if self.field.p is not None:
            a = _mod(a, self.field.p)
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
            a = _mod(a, p)
        return Matrix(self.field, self.rows, other.cols, a, _raw=True)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, self._a.T.copy(), _raw=True)

    # ---- block operations ----------------------------------------------

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.field, self.rows, self.cols + other.cols, np.hstack([self._a, other._a]), _raw=True)

    def vstack(self, *others: "Matrix") -> "Matrix":
        for other in others:
            self._check(other)
            if self.cols != other.cols:
                raise ValueError("col mismatch in vstack")
        a = np.vstack([self._a] + [o._a for o in others])  # one allocation
        return Matrix(self.field, len(a), self.cols, a, _raw=True)

    def take_columns(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, self.rows, len(idx), self._a[:, idx], _raw=True)

    def take_rows(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix(self.field, len(idx), self.cols, self._a[idx, :], _raw=True)

    def place_columns(self, cols: int, idx) -> "Matrix":
        """The matrix with `cols` columns whose column idx[j] is column j of
        this one, zero elsewhere (`idx` has no repeats)."""
        a = _zeros(self.field, self.rows, cols)
        a[:, list(idx)] = self._a
        return Matrix(self.field, self.rows, cols, a, _raw=True)

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

    # ---- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column tuple), by
        `_rref_lists` over every field and at every size."""
        return _rref_lists(self)

    def rank(self) -> int:
        """The rank: the pivot count of `rref`, except that F_p matrices of at
        least _SPARSE_MIN_CELLS cells and at most _SPARSE_MAX_DENSITY nonzero
        are eliminated by `_rank_sparse`."""
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
            neg = _mod(neg, self.field.p)
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
        a = _mod(a, field.p)
    return Matrix(field, rows, cols, a, _raw=True)


def units_minus_blocks(field: Field, rows: "Layout", cols: "Layout", units, blocks: dict) -> Matrix:
    """The block matrix with a 1 at each (row, column) index pair of `units`
    minus the blocks `blocks[(row label, column label)]`, written into one
    array: the units are set by index and each block is subtracted in place,
    so no block is widened to full size.  Over F_p an entry is then above
    -p and at most 1, and is reduced once."""
    a = _zeros(field, rows.dim, cols.dim)
    r, c = units
    a[r, c] = field.element(1)
    for (bi, bj), m in blocks.items():
        (r0, rd), (c0, cd) = rows[bi], cols[bj]
        if m.shape != (rd, cd):
            raise ValueError(f"block {(bi, bj)} has shape {m.shape}, expected {(rd, cd)}")
        a[r0:r0 + rd, c0:c0 + cd] -= m._a
    if field.p is not None:
        a = _mod(a, field.p)
    return Matrix(field, rows.dim, cols.dim, a, _raw=True)


def _mod(a, p: int):
    """The float64 array `a` of integers below 2**53 in magnitude, reduced
    into [0, p) in place and returned; callers pass a fresh array (a stored
    `Matrix` array is read-only, so ValueError).  Float `%` is exact on them
    but slow per cell; from _MOD_INT_CELLS cells on, the floor-mod runs in
    place on one int64 copy, exact for the same range, written back."""
    if a.size < _MOD_INT_CELLS:
        return np.remainder(a, p, out=a)
    b = a.astype(np.int64)
    a[...] = np.remainder(b, p, out=b)
    return a


def _zeros(field: Field, rows: int, cols: int):
    """A zero storage array; over Q its entries are Fraction(0), not int 0."""
    if field.p is None:
        return np.full((rows, cols), _ZERO, dtype=object)
    return np.zeros((rows, cols))


def free_columns(n: int, pivots) -> list:
    """The columns 0..n-1 that are not pivot columns, in increasing order."""
    pivot_set = set(pivots)
    return [j for j in range(n) if j not in pivot_set]


def _rref_lists(m: Matrix):
    """Gauss–Jordan elimination on the rows as Python lists: Fractions over
    Q, Python ints mod p over F_p, so every step is exact for every field and
    every size and needs no guard.  The pivot is the leftmost column with a
    nonzero entry in the remaining rows, and its first such row.  A row
    update touches only the nonzero columns of the pivot row."""
    p = m.field.p
    rows = m.rows_list()
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        sel = next((i for i in range(r, nr) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r]
        if p is None:
            inv = 1 / piv[c]
            piv = rows[r] = [v * inv if v else v for v in piv]
        else:
            inv = pow(piv[c], p - 2, p)
            piv = rows[r] = [v * inv % p for v in piv]
        nonzero = [(j, b) for j, b in enumerate(piv) if b]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p is None:
                    for j, b in nonzero:
                        row[j] -= f * b
                else:
                    for j, b in nonzero:
                        row[j] = (row[j] - f * b) % p
        pivots.append(c)
        r += 1
    out = np.array(rows, dtype=object if p is None else np.float64).reshape(nr, nc)
    return Matrix(m.field, nr, nc, out, _raw=True), tuple(pivots)


def _rank_sparse(a, p: int) -> int:
    """Rank over F_p of the array `a` (entries in [0, p)) by structured
    Gaussian elimination (LaMacchia–Odlyzko; Bouillaguet–Delaplace).

    Rows are dicts column -> Python int mod p, so the arithmetic is exact for
    every p; rows and column sets are built in one pass.  The next pivot row
    is the sparsest active row, taken from a heap (an entry whose length is
    out of date is skipped); its pivot column is the one of its columns held
    by the fewest active rows, the lowest on a tie (Markowitz), so singleton
    columns go first and cause no fill-in.  The pivot column is cleared from
    every other row that holds it (with no update when the pivot row has no
    other entry), and the pivot row leaves, until no active row is left;
    each pivot adds one to the rank.
    """
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    cols: defaultdict[int, set[int]] = defaultdict(set)  # column -> the active rows holding it
    ii, jj = np.nonzero(a)
    for i, j, v in zip(ii.tolist(), jj.tolist(), a[ii, jj].astype(np.int64).tolist()):
        rows[i][j] = v
        cols[j].add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while rows:
        length, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None or len(row) != length:
            continue
        del rows[i]
        rank += 1
        c = min(zip(map(len, map(cols.__getitem__, row)), row))[1]
        holders = cols.pop(c)
        holders.discard(i)
        rest = [(j, v) for j, v in row.items() if j != c]
        for j, _ in rest:
            held = cols[j]
            held.discard(i)
            if not held:
                del cols[j]
        inv = pow(row[c], p - 2, p) if rest else 0  # a singleton pivot row updates nothing
        for s in holders:
            t = rows[s]
            f = t.pop(c) * inv % p
            for j, v in rest:
                w = t.get(j)
                if w is None:
                    t[j] = -f * v % p
                    cols[j].add(s)
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
            if t:
                heapq.heappush(heap, (len(t), s))
            else:
                del rows[s]
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
    if len(extra) != q:
        raise InvariantError(f"the completion of B in Z has {len(extra)} vectors, expected {q}")
    section = Matrix.identity(field, dz).take_columns(extra)
    T = b_in_z.hstack(section)
    projection = T.inverse().take_rows(range(db, dz))
    if projection @ section != Matrix.identity(field, q):
        raise InvariantError("projection ∘ section is not the identity")
    return q, projection, section


@lru_cache(maxsize=64)
def _off_diagonal(n: int):
    """The flat indices of the entries (i, j), j < i, of an n x n array, row
    by row, and of their mirror images (j, i), as read-only arrays."""
    i, j = np.tril_indices(n, -1)
    below, above = i * n + j, j * n + i
    below.flags.writeable = above.flags.writeable = False
    return below, above


def _draw_factors(field: Field, n: int, rng):
    """The factors of `random_invertible`'s g = L @ U @ P, drawn in the order
    its docstring states, written straight into storage arrays.  Returns the
    arrays of L and U, the diagonal of U as a list, and perm: row i of P has
    its 1 in column perm[i]."""
    p = field.p
    draw = field.random_element
    diag, pairs = [], []
    for i in range(n):
        diag.append(rng.randrange(1, p) if p is not None else Fraction(rng.choice(_Q_UNITS)))
        pairs.extend([draw(rng) for _ in range(2 * i)])
    perm = list(range(n))
    rng.shuffle(perm)
    below, above = _off_diagonal(n)
    low, up = _zeros(field, n, n), _zeros(field, n, n)
    low.flat[::n + 1] = field.element(1)
    low.flat[below] = pairs[0::2]
    up.flat[::n + 1] = diag
    up.flat[above] = pairs[1::2]
    return low, up, diag, perm


def _product_permuted(field: Field, low, up, perm) -> Matrix:
    """L @ U @ P: column k of L @ U is column perm[k] of the product."""
    n = len(perm)
    lu = Matrix(field, n, n, low, _raw=True) @ Matrix(field, n, n, up, _raw=True)
    a = np.empty_like(lu._a)
    a[:, perm] = lu._a
    return Matrix(field, n, n, a, _raw=True)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Random invertible matrix g = L @ U @ P: L lower triangular with 1 on
    its diagonal, U upper triangular with a random nonzero diagonal, P a
    permutation matrix.

    The seeded generators and their pinned digests depend on the order of the
    draws from `rng`: for each row i = 0..n-1, first U[i, i]
    (`rng.randrange(1, p)` over F_p, `rng.choice` of 1, 1, 2, -1 over Q), then
    for each j < i the pair L[i, j], U[j, i] (`Field.random_element` each);
    last one `rng.shuffle` of 0..n-1, whose entry i is the column of the 1 in
    row i of P.  `random_automorphism` makes the same draws and also returns
    g^-1.
    """
    low, up, _, perm = _draw_factors(field, n, rng)
    return _product_permuted(field, low, up, perm)


def random_automorphism(field: Field, n: int, rng):
    """(g, g^-1) for the g = L @ U @ P that `random_invertible` draws from the
    same rng state, leaving the rng in the same state.

    g^-1 = P^T U^-1 L^-1 is formed from the factors by substitution, row by
    row, with no elimination: row i of L^-1 is e_i − Σ_{j<i} L[i, j] (row j
    of L^-1), and row i of U^-1 is (e_i − Σ_{j>i} U[i, j] (row j of U^-1)) /
    U[i, i].  One product checks it: InvariantError unless g g^-1 = 1.  Over
    F_p the substitution products stay below the bound that the guard of
    L @ U enforces, so they are exact in float64.
    """
    low, up, diag, perm = _draw_factors(field, n, rng)
    g = _product_permuted(field, low, up, perm)
    p = field.p
    dinv = [1 / d for d in diag] if p is None else [pow(d, -1, p) for d in diag]
    linv, uinv = _zeros(field, n, n), _zeros(field, n, n)
    linv.flat[::n + 1] = field.element(1)
    uinv.flat[::n + 1] = dinv
    for i in range(1, n):
        linv[i, :i] = _reduced(-(low[i, :i] @ linv[:i, :i]), p)
    for i in range(n - 2, -1, -1):
        uinv[i, i + 1:] = _reduced(-dinv[i] * _reduced(up[i, i + 1:] @ uinv[i + 1:, i + 1:], p), p)
    z = Matrix(field, n, n, uinv, _raw=True) @ Matrix(field, n, n, linv, _raw=True)
    a = np.empty_like(z._a)
    a[perm, :] = z._a
    ginv = Matrix(field, n, n, a, _raw=True)
    if g @ ginv != Matrix.identity(field, n):
        raise InvariantError("a drawn automorphism times its inverse is not the identity")
    return g, ginv


def _reduced(a, p):
    """The array `a` reduced into [0, p) over F_p; over Q (p None), `a`."""
    return a if p is None else a % p
