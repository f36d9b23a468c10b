"""Filtered complexes, spectral sequences, the filtered simple functor and
the décalage shift.

A filtration is a decreasing flag, saturated outside [k_min, k_max]: F^k =
everything for k <= k_min, zero for k > k_max.  It is held in an adapted
basis: per degree n, an automorphism of A^n (the identity for a block or a
trivial filtration) whose columns carry weights in [k_min, k_max], and F^k
A^n is spanned by the columns of weight >= k.  `graded` is the base written
in that basis, where every filtration is one by coordinates: F is
d-compatible iff graded d has no entry from a column of weight w into a row
of weight < w, and a map is filtered iff the same zero-block check passes on
it in the adapted bases.  The E_r terms use the standard cycle-quotient
convention

    Z_r^{p,q} = F^p A^{p+q} ∩ d^{-1}(F^{p+r} A^{p+q+1})
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

under which E_0 is the associated graded and an E_0-isomorphism is the same
thing as a graded quasi-isomorphism.  In adapted coordinates Z_r^{p,q} is
the kernel of one block of graded d (`_block`: the columns of weight >= p,
the rows of weight < p+r).  `er_page` reads the dims from ranks of blocks,
`is_er_quis` decides from ranks on block kernels, and `decalage` is spanned
by them; the subquotients and d_r are built only when a caller reads them,
and must reproduce those dims.
"""

from __future__ import annotations

import random

import numpy as np

from .complexes import BlockComplex, ChainMap, CochainComplex, random_complex, transport
from .cosimplicial import (
    AxiomAuditReport, AxiomTrial, CosimplicialComplex, aw_map, bicosimplicial_from_rows,
    constant_cosimplicial, contractible_complex, cosimplicial_biproduct, lambda_map,
    path_object, simple, simple_map,
)
from .errors import InvariantError, NotFiltered
from .exactlin import GF, Matrix, Subspace, free_columns, random_invertible, subquotient

_NO_WEIGHTS = np.zeros(0, dtype=np.int64)


def _lowest_break(m: Matrix, row_weights, col_weights):
    """The least k at which m sends a column of weight >= k to a row of
    weight < k, or None: the zero-block check of a filtered map."""
    i, j = m.nonzero()
    low = row_weights[i][row_weights[i] < col_weights[j]]
    return int(low.min()) + 1 if low.size else None


class FilteredComplex:
    """A complex with a decreasing, exhaustive, bounded, d-compatible flag,
    held in an adapted basis (see the module docstring).

    `weights`, `basis` and `inverse` map a degree n to the weights of the
    columns of the adapted basis of A^n, that basis and its inverse; a
    degree that `basis` leaves out has the identity.  Construction runs
    `validate`.
    """

    __slots__ = ("base", "k_min", "k_max", "graded", "_weights", "_basis", "_inverse")

    def __init__(self, base: CochainComplex, k_min: int, k_max: int, weights: dict,
                 basis: dict | None = None, inverse: dict | None = None):
        self.base = base
        self.k_min = k_min
        self.k_max = k_max
        self._weights = weights
        self._basis = basis or {}
        self._inverse = inverse or {}
        self.graded = base
        if self._basis:
            self.graded = CochainComplex(
                base.field, base.dims,
                {n: self.inverse(n + 1) @ d @ self.basis(n) for n, d in base.differentials.items()},
                lower=base.lower, certified_degree=base.certified_degree, check=False)
        self.validate()

    @staticmethod
    def from_bases(base: CochainComplex, bases: dict, k_min: int, k_max: int) -> "FilteredComplex":
        """F^k A^n spanned by the columns of bases[(k, n)] for k_min < k <= k_max
        (an absent one is zero).  The adapted basis extends F^{k_max} ⊆ … ⊆
        F^{k_min+1} ⊆ A^n; a flag that does not decrease is refused."""
        field = base.field
        weights, basis, inverse = {}, {}, {}
        for n, dim in base.dims.items():
            B, w = Matrix.zeros(field, dim, 0), []
            flag = [(k, bases.get((k, n), Matrix.zeros(field, dim, 0)))
                    for k in range(k_max, k_min, -1)]
            for k, S in flag + [(k_min, Matrix.identity(field, dim))]:
                new = [c - B.cols for c in B.hstack(S).rref()[1] if c >= B.cols]
                if B.cols + len(new) != S.rank():
                    raise InvariantError(f"filtration not decreasing at (k={k + 1}, n={n})")
                B = B.hstack(S.take_columns(new))
                w += [k] * len(new)
            weights[n], basis[n], inverse[n] = np.array(w, dtype=np.int64), B, B.inverse()
        return FilteredComplex(base, k_min, k_max, weights, basis, inverse)

    @staticmethod
    def from_blocks(base: BlockComplex, k_min: int, k_max: int) -> "FilteredComplex":
        """The block filtration of a block complex whose labels begin with
        the filtration index p (a total complex): the adapted basis is the
        identity, and the coordinates of a block p weigh p."""
        weights = {}
        for n, layout in base.blocks.items():
            w = weights[n] = np.zeros(layout.dim, dtype=np.int64)
            for label, (off, d) in layout.items():
                w[off:off + d] = label[0]
        return FilteredComplex(base, k_min, k_max, weights)

    @staticmethod
    def trivial(base: CochainComplex, jump: int = 0) -> "FilteredComplex":
        """One jump: F^k = everything for k <= jump, zero above."""
        return FilteredComplex(base, jump, jump, {n: np.full(d, jump, dtype=np.int64)
                                                  for n, d in base.dims.items()})

    def weights(self, n: int) -> np.ndarray:
        """The weight of each column of the adapted basis of A^n."""
        return self._weights.get(n, _NO_WEIGHTS)

    def basis(self, n: int) -> Matrix:
        """The adapted basis of A^n, as columns."""
        return self._basis.get(n) or Matrix.identity(self.base.field, self.base.dim(n))

    def inverse(self, n: int) -> Matrix:
        """The inverse of `basis(n)`."""
        return self._inverse.get(n) or Matrix.identity(self.base.field, self.base.dim(n))

    def columns(self, k: int, n: int) -> np.ndarray:
        """The columns of the adapted basis of A^n that span F^k A^n."""
        return np.flatnonzero(self.weights(n) >= k)

    def filtration(self, k: int, n: int) -> Subspace:
        """F^k A^n in the coordinates of the base."""
        return Subspace(self.base.field, self.base.dim(n),
                        self.basis(n).take_columns(self.columns(k, n)))

    def subspaces(self) -> dict:
        """The nonzero F^k A^n for k_min < k <= k_max, keyed (k, n)."""
        return {(k, n): self.filtration(k, n) for n in self.base.dims
                for k in range(self.k_min + 1, self.k_max + 1) if self.columns(k, n).size}

    def validate(self):
        """Every column has a weight in [k_min, k_max], and graded d passes
        the zero-block check."""
        for n, dim in self.base.dims.items():
            w = self.weights(n)
            if w.size != dim or not (self.k_min <= w.min() and w.max() <= self.k_max):
                raise InvariantError(f"the weights of degree {n} are missing or lie "
                                     f"outside [{self.k_min}, {self.k_max}]")
        for n, d in self.graded.differentials.items():
            k = _lowest_break(d, self.weights(n + 1), self.weights(n))
            if k is not None:
                raise InvariantError(f"filtration not d-compatible at (k={k}, n={n})")

    def degrees(self):
        return self.base.degrees()

    def __eq__(self, other):
        """Literal equality: same base and the same subspaces per (k, n)."""
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        if self.base != other.base:
            return False
        return filtrations_equal(self, other)


def filtrations_equal(A: FilteredComplex, B: FilteredComplex, up_to: int | None = None) -> bool:
    """Literal subspace equality per (k, n), restricted to degrees <= up_to.

    When comparing filtrations on truncated total complexes, pass the
    certified degree: at the truncation boundary the dropped differential
    makes Dec-style conditions vacuous.
    """
    lo = min(A.k_min, B.k_min)
    hi = max(A.k_max, B.k_max) + 1
    degrees = [n for n in A.base.degrees() if up_to is None or n <= up_to]
    for n in degrees:
        for k in range(lo, hi + 1):
            if A.filtration(k, n) != B.filtration(k, n):
                return False
    return True


class PageTerm:
    """One (p, q) entry of a spectral page, with quotient coordinates."""

    __slots__ = ("dim", "cycles", "proj", "section")

    def __init__(self, dim, cycles, proj, section):
        self.dim = dim
        self.cycles = cycles
        self.proj = proj
        self.section = section


class SpectralPage:
    """E_r with its differentials d_r : (p,q) -> (p+r, q-r+1).

    `dims` holds dim E_r^{p,q} at every slot the page covers, as `er_page`
    reads them from ranks.  The terms (subquotients with quotient
    coordinates, in adapted coordinates) and d_r are built together by
    `_page_terms` on first access of `terms` or `differentials`, and are
    kept only if they reproduce `dims` and pass d_r ∘ d_r = 0.
    """

    __slots__ = ("r", "filtered", "spots", "_dims", "_terms", "_differentials")

    def __init__(self, r, filtered, spots, dims):
        self.r = r
        self.filtered = filtered
        self.spots = spots
        self._dims = dims
        self._terms = None
        self._differentials = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._build()
        return self._terms

    @property
    def differentials(self) -> dict:
        if self._terms is None:
            self._build()
        return self._differentials

    def _build(self):
        r = self.r
        terms, diffs = _page_terms(self.filtered, r, self.spots)
        built = {pq: t.dim for pq, t in terms.items()}
        if built != self._dims:
            raise InvariantError(f"page {r}: the subquotients have dims {built}, "
                                 f"the ranks give {self._dims}")
        for (p, q), m in diffs.items():
            nxt = diffs.get((p + r, q - r + 1))
            if nxt is not None and not (nxt @ m).is_zero():
                raise InvariantError(f"d_r ∘ d_r != 0 at {(p, q)} on page {r}")
        self._terms, self._differentials = terms, diffs

    def dim(self, p: int, q: int) -> int:
        return self._dims.get((p, q), 0)

    def dims(self) -> dict:
        return {pq: d for pq, d in self._dims.items() if d}

    def differential(self, p: int, q: int) -> Matrix:
        m = self.differentials.get((p, q))
        if m is None:
            field = self.filtered.base.field
            return Matrix.zeros(field, self.dim(p + self.r, q - self.r + 1), self.dim(p, q))
        return m

    def homology_dims(self) -> dict:
        """dim of ker d_r / im d_r per slot; equals the next page's dims."""
        out = {}
        r = self.r
        for (p, q), t in self.terms.items():
            if t.dim == 0:
                continue
            rk_out = self.differential(p, q).rank()
            rk_in = self.differential(p - r, q + r - 1).rank()
            h = t.dim - rk_out - rk_in
            if h:
                out[(p, q)] = h
        return out


def _block(FC: FilteredComplex, n: int, a: int, b: int | None = None) -> Matrix:
    """Graded d^n from the columns of weight >= a (F^a A^n) to the rows of
    weight < b (every row when b is None)."""
    d = FC.graded.d(n).take_columns(FC.columns(a, n))
    return d if b is None else d.take_rows(np.flatnonzero(FC.weights(n + 1) < b))


def _cycle_space(FC: FilteredComplex, p: int, q: int, r: int) -> Subspace:
    """Z_r^{p,q} = F^p A^{p+q} ∩ d^{-1}(F^{p+r} A^{p+q+1}) in adapted
    coordinates: the kernel of `_block(FC, p+q, p, p+r)`, embedded on the
    columns of F^p, with the free rows of that kernel as unit rows.  For
    r <= 0 the block is zero and Z_r = F^p."""
    n = p + q
    field, dim = FC.base.field, FC.base.dim(n)
    cols = FC.columns(p, n)
    if not cols.size:
        return Subspace.zero(field, dim)
    block = _block(FC, n, p, p + r)
    R, pivots = block.rref()
    kernel = block.kernel_matrix(reduced=(R, pivots))
    return Subspace(field, dim, Matrix.identity(field, dim).take_columns(cols) @ kernel,
                    cols[free_columns(cols.size, pivots)])


def _boundaries(FC: FilteredComplex, p: int, q: int, r: int) -> Matrix:
    """Columns spanning Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}, the
    denominator of E_r^{p,q}, in adapted coordinates."""
    lower = _cycle_space(FC, p - r + 1, q + r - 2, r - 1)
    return _cycle_space(FC, p + 1, q - 1, r - 1).basis.hstack(
        FC.graded.d(p + q - 1) @ lower.basis)


def _page_terms(FC: FilteredComplex, r: int, spots) -> tuple:
    """The terms of E_r at `spots` by the cycle/boundary formula, and d_r,
    in adapted coordinates."""
    base = FC.graded
    terms = {}
    for (p, q) in spots:
        n = p + q
        Z = _cycle_space(FC, p, q, r)
        if Z.dim == 0:
            terms[(p, q)] = PageTerm(0, Z, None, None)
            continue
        denom = Subspace.spanned_by(base.field, base.dim(n), _boundaries(FC, p, q, r))
        dim, proj, section = subquotient(Z, denom)
        terms[(p, q)] = PageTerm(dim, Z, proj, section)
    diffs = {}
    for (p, q) in spots:
        t = terms.get((p, q))
        tt = terms.get((p + r, q - r + 1))
        if not t or not tt or t.dim == 0 or tt.dim == 0:
            continue
        n = p + q
        reps = t.cycles.basis @ t.section
        img = base.d(n) @ reps
        coords = tt.cycles.coords_of(img)
        diffs[(p, q)] = tt.proj @ coords
    return terms, diffs


def _rank_dims(FC: FilteredComplex, r: int, spots) -> dict:
    """dim E_r^{p,q} at `spots`, from ranks of graded d.

    With C_a the columns of F^a A^n, ρ(n, a, b) the rank of
    `_block(FC, n, a, b)` and ρ(n, a) that of `_block(FC, n, a)`:
    dim Z_s^a = |C_a| - ρ(n, a, a+s), dim dZ_s^a = ρ(n, a) - ρ(n, a, a+s),
    and dim E_r^{p,q} = Z_r^p - Z_{r-1}^{p+1} - dZ_{r-1}^{p-r+1} +
    dZ_r^{p-r+1}, the dZ terms from degree n-1, because Z_{r-1}^{p+1} ∩
    dZ_{r-1}^{p-r+1} = dZ_r^{p-r+1} (Romero–Rubio–Sergeraert).  The
    zero-block check gives ρ(n, a, b) = 0 for b <= a.
    """
    memo = {}

    def rho(n, a, b=None):
        if b is not None and b <= a:
            return 0
        key = (n, a, b)
        if key not in memo:
            block = _block(FC, n, a, b)
            memo[key] = block.rank() if block.rows and block.cols else 0
        return memo[key]

    def z(n, a, s):
        return FC.columns(a, n).size - rho(n, a, a + s)

    def dz(n, a, s):
        return rho(n, a) - rho(n, a, a + s)

    out = {}
    for (p, q) in spots:
        n = p + q
        cycles = z(n, p, r)
        if cycles == 0:
            out[(p, q)] = 0
            continue
        out[(p, q)] = (cycles - z(n, p + 1, r - 1) - dz(n - 1, p - r + 1, r - 1)
                       + dz(n - 1, p - r + 1, r))
    return out


def er_page(FC: FilteredComplex, r: int, up_to: int | None = None) -> SpectralPage:
    """The E_r page: dims from ranks (`_rank_dims`), the terms and the
    induced d_r on first access (see `SpectralPage`)."""
    if r < 0:
        raise ValueError("page index must be >= 0")
    base = FC.base
    hi = base.upper
    if base.certified_degree is not None:
        hi = min(hi, base.certified_degree)
    if up_to is not None:
        hi = min(hi, up_to)
    spots = [(p, n - p) for n in range(base.lower, hi + 1)
             for p in range(FC.k_min, FC.k_max + 1)]
    return SpectralPage(r, FC, spots, _rank_dims(FC, r, spots))


def e_infinity_dims(FC: FilteredComplex, up_to: int | None = None) -> dict:
    """E_∞ dims: the pages stabilize once r exceeds the filtration width."""
    width = FC.k_max - FC.k_min + 1
    page = er_page(FC, width + 1, up_to=up_to)
    return page.dims()


def check_filtered_map(f: ChainMap, src: FilteredComplex, tgt: FilteredComplex) -> dict:
    """Raise NotFiltered unless f(F^k) ⊆ F^k everywhere.

    Returns f in the adapted bases, degree -> tgt.inverse · f · src.basis,
    the matrices that the zero-block check runs on.
    """
    adapted = {}
    for n in sorted(src.base.dims):
        m = adapted[n] = tgt.inverse(n) @ f.component(n) @ src.basis(n)
        k = _lowest_break(m, tgt.weights(n), src.weights(n))
        if k is not None:
            raise NotFiltered(f"map does not respect the filtration at (k={k}, n={n})")
    return adapted


def is_er_quis(f: ChainMap, src: FilteredComplex, tgt: FilteredComplex, r: int,
               up_to: int | None = None):
    """Is the induced map on E_{r+1} an isomorphism at every (p, q)?

    With s = r+1 and D the span of `_boundaries(tgt, p, q, s)`, f in the
    adapted bases maps Z_s^p(src) into Z_s^p(tgt) ⊇ D, so E_s(f) is an
    isomorphism at (p, q) iff both dims agree and rank[f Z_s^p(src) | D] -
    rank D equals that dim.  Returns (flag, per-slot dict).  Raises
    NotFiltered if f breaks the filtrations.
    """
    adapted = check_filtered_map(f, src, tgt)
    s = r + 1
    ps = er_page(src, s, up_to=up_to)
    pt = er_page(tgt, s, up_to=up_to)
    per = {}
    for (p, q) in set(ps.dims()) | set(pt.dims()):
        dim = ps.dim(p, q)
        if dim != pt.dim(p, q):
            per[(p, q)] = False
            continue
        D = _boundaries(tgt, p, q, s)
        image = adapted[p + q] @ _cycle_space(src, p, q, s).basis
        per[(p, q)] = image.hstack(D).rank() - D.rank() == dim
    return all(per.values()), per


# ---- the filtered simple functor and décalage ------------------------------


class CosimplicialFiltered:
    """A cosimplicial object in filtered complexes.

    The underlying cosimplicial complex carries, per level, a filtration on
    that level; all structure maps are required to be filtered.
    """

    __slots__ = ("cosimplicial", "levels")

    def __init__(self, cosimplicial: CosimplicialComplex, levels: dict, check: bool = True):
        self.cosimplicial = cosimplicial
        self.levels = levels
        if check:
            self.validate()

    def level(self, p: int) -> FilteredComplex:
        return self.levels[p]

    @property
    def p_max(self) -> int:
        return self.cosimplicial.p_max

    def validate(self):
        X = self.cosimplicial
        for p in range(X.p_max + 1):
            if self.levels[p].base != X.level(p):
                raise InvariantError(f"level {p} filtration sits on the wrong complex")
        for (p, i), f in X.cofaces.items():
            check_filtered_map(f, self.levels[p - 1], self.levels[p])
        for (p, j), f in X.codegeneracies.items():
            check_filtered_map(f, self.levels[p + 1], self.levels[p])


def _direct_sum(base: CochainComplex, k_min: int, k_max: int, parts: dict) -> FilteredComplex:
    """The filtration on `base` whose A^n is the direct sum of `parts[n]`, a
    list of (filtered complex, degree, weight shift) in the order of the
    coordinates of A^n: shifted weights, block-diagonal bases and inverses."""
    field = base.field
    weights, basis, inverse = {}, {}, {}
    for n, summands in parts.items():
        summands = [(FC, q, s) for FC, q, s in summands if FC.base.dim(q)]
        if not summands:
            continue
        sizes = [FC.base.dim(q) for FC, q, _ in summands]
        weights[n] = np.concatenate([FC.weights(q) + s for FC, q, s in summands])
        basis[n], inverse[n] = (
            Matrix.assemble(field, sizes, sizes,
                            {(i, i): block(FC, q) for i, (FC, q, _) in enumerate(summands)})
            for block in (FilteredComplex.basis, FilteredComplex.inverse))
    return FilteredComplex(base, k_min, k_max, weights, basis, inverse)


def filtered_simple(XF: CosimplicialFiltered, r: int, N: int) -> FilteredComplex:
    """(s, δ_r): total complex with δ_r(F)^k(s^n) = ⊕_{i+j=n} F^{k-ri} X(i)^j,
    held in the level bases: a column of the summand X(p)^q weighs its
    weight in level p plus r·p."""
    X = XF.cosimplicial
    total = simple(X, N)
    k_min = min(XF.levels[p].k_min + r * p for p in range(X.p_max + 1))
    k_max = max(XF.levels[p].k_max + r * p for p in range(X.p_max + 1))
    return _direct_sum(total, k_min, k_max,
                       {n: [(XF.levels[p], q, r * p) for (p, q) in layout]
                        for n, layout in total.blocks.items()})


def decalage(FC: FilteredComplex) -> FilteredComplex:
    """(Dec F)^k A^n = ker(d : F^{k+n} A^n -> A^{n+1} / F^{k+n+1} A^{n+1}) =
    Z_1^{k+n, -k}, carried back by the adapted basis."""
    base = FC.base
    degs = [n for n in base.degrees() if base.dim(n)]
    if not degs:
        return FilteredComplex.trivial(base, FC.k_min)
    k_min = FC.k_min - 1 - max(degs)
    k_max = FC.k_max - min(degs)
    bases = {(k, n): FC.basis(n) @ _cycle_space(FC, k + n, -k, 1).basis
             for n in degs for k in range(k_min + 1, k_max + 1)}
    return FilteredComplex.from_bases(base, bases, k_min, k_max)


def decalage_levelwise(XF: CosimplicialFiltered) -> CosimplicialFiltered:
    return CosimplicialFiltered(XF.cosimplicial,
                                {p: decalage(XF.levels[p]) for p in XF.levels},
                                check=False)


def deligne_reindex(pq) -> tuple:
    """Deligne's shift E_r^{p,q}(Dec F) = E_{r+1}^{2p+q, -p}(F): the slot of F's
    page that a décalage slot (p, q) lands on."""
    p, q = pq
    return (2 * p + q, -p)


# ---- randomized filtered instances -----------------------------------------


def random_filtered_complex(field, rng, span: int = 3, max_dim: int = 2,
                            weights=(0, 1, 2)):
    """Random filtered complex: weight-graded blocks, transported along a
    random automorphism g, whose columns are then the adapted basis."""
    layout = []
    for w in weights:
        if rng.random() < 0.8:
            layout.append((w, random_complex(field, rng, span=rng.randint(1, span),
                                             max_dim=max_dim, scramble=False)))
    if not layout:
        layout = [(weights[0], random_complex(field, rng, span=1, max_dim=max_dim,
                                              scramble=False))]
    lo = min(C.lower for _, C in layout)
    hi = max(C.upper for _, C in layout)
    diffs = {}
    for n in range(lo, hi):
        entries = {(i, i): C.d(n) for i, (w, C) in enumerate(layout)}
        diffs[n] = Matrix.assemble(field, [C.dim(n + 1) for _, C in layout],
                                   [C.dim(n) for _, C in layout], entries)
    base = CochainComplex(field, {n: sum(C.dim(n) for _, C in layout)
                                  for n in range(lo, hi + 1)}, diffs, lower=lo, check=False)
    k_values = [w for w, _ in layout]
    weights = {n: np.concatenate([np.full(C.dim(n), w, dtype=np.int64) for w, C in layout])
               for n in base.dims}
    g = {n: random_invertible(field, base.dim(n), rng) for n in base.dims}
    return FilteredComplex(transport(base, {0: g}), min(k_values), max(k_values), weights,
                           g, {n: m.inverse() for n, m in g.items()})


def random_filtered_cosimplicial(field, rng, p_max: int, span: int = 2, max_dim: int = 2,
                                 weights=(0, 1)) -> CosimplicialFiltered:
    """Random cosimplicial filtered complex: weight-graded cosimplicial
    blocks (summand of weight w filtered by one jump at w), transported
    along random level automorphisms g, which carry the adapted bases B
    to g·B."""
    parts = []
    for w in weights:
        A = random_complex(field, rng, span=rng.randint(1, span), max_dim=max_dim,
                           scramble=False)
        X = constant_cosimplicial(A, p_max) if rng.random() < 0.5 else path_object(A, p_max)[0]
        parts.append(CosimplicialFiltered(
            X, {p: FilteredComplex.trivial(X.level(p), jump=w) for p in range(p_max + 1)},
            check=False))
    XF = parts[0]
    for part in parts[1:]:
        XF = filtered_cosimplicial_biproduct(XF, part)[0]
    X = XF.cosimplicial
    g = {p: {q: random_invertible(field, X.level(p).dim(q), rng) for q in X.level(p).dims}
         for p in range(p_max + 1)}
    X2 = transport(X, g)
    levels = {}
    for p, L in XF.levels.items():
        levels[p] = FilteredComplex(X2.level(p), L.k_min, L.k_max, L._weights,
                                    {q: m @ L.basis(q) for q, m in g[p].items()},
                                    {q: L.inverse(q) @ m.inverse() for q, m in g[p].items()})
    return CosimplicialFiltered(X2, levels, check=True)


def constant_filtered(FCA: FilteredComplex, p_max: int) -> CosimplicialFiltered:
    X = constant_cosimplicial(FCA.base, p_max)
    return CosimplicialFiltered(X, {p: FCA for p in range(p_max + 1)}, check=False)


def path_filtered(FCA: FilteredComplex, p_max: int):
    """The path object of a filtered complex, with the product filtration.

    Returns (P_filtered, ev0, ev1) exactly as the unfiltered path object.
    """
    P, ev0, ev1 = path_object(FCA.base, p_max)
    levels = {n: _direct_sum(P.level(n), FCA.k_min, FCA.k_max,
                             {q: [(FCA, q, 0)] * (n + 2) for q in FCA.base.dims})
              for n in range(p_max + 1)}
    return CosimplicialFiltered(P, levels, check=False), ev0, ev1


def filtered_cosimplicial_biproduct(XF: CosimplicialFiltered, YF: CosimplicialFiltered):
    """Levelwise direct sum with the sum filtration."""
    X, Y = XF.cosimplicial, YF.cosimplicial
    P, (iX, iY), (pX, pY) = cosimplicial_biproduct(X, Y)
    k_min = min(XF.levels[0].k_min, YF.levels[0].k_min)
    k_max = max(XF.levels[0].k_max, YF.levels[0].k_max)
    levels = {p: _direct_sum(P.level(p), k_min, k_max,
                             {q: [(XF.levels[p], q, 0), (YF.levels[p], q, 0)]
                              for q in P.level(p).dims})
              for p in range(X.p_max + 1)}
    return CosimplicialFiltered(P, levels, check=False), (iX, iY), (pX, pY)


class BicosimplicialFiltered:
    """A bicosimplicial object in filtered complexes."""

    __slots__ = ("Z", "levels")

    def __init__(self, Z, levels):
        self.Z = Z
        self.levels = levels

    def row_filtered(self, n: int) -> CosimplicialFiltered:
        return CosimplicialFiltered(self.Z.row(n),
                                    {m: self.levels[(n, m)] for m in range(self.Z.q_max + 1)},
                                    check=False)

    def diagonal_filtered(self) -> CosimplicialFiltered:
        D = self.Z.diagonal()
        return CosimplicialFiltered(D, {p: self.levels[(p, p)] for p in range(D.p_max + 1)},
                                    check=False)


def bicosimplicial_filtered_from_rows(XF: CosimplicialFiltered, p_max: int,
                                      q_max: int) -> BicosimplicialFiltered:
    Z = bicosimplicial_from_rows(XF.cosimplicial, p_max, q_max)
    levels = {(n, m): XF.levels[m] for n in range(p_max + 1) for m in range(q_max + 1)}
    return BicosimplicialFiltered(Z, levels)


def filtered_aw(ZF: BicosimplicialFiltered, r: int, N: int):
    """(ss(Z), δδ), (sD(Z), δ) and the Alexander-Whitney comparison.

    The outer filtration is δ_r applied to the levelwise filtered simples;
    the AW map preserves total weight, which is checked, not assumed.
    """
    Z = ZF.Z
    mu = aw_map(Z, N)
    rows = {n: filtered_simple(ZF.row_filtered(n), r, N) for n in range(Z.p_max + 1)}
    ssF = filtered_simple(CosimplicialFiltered(mu.source.cosimplicial, rows, check=False), r, N)
    sdF = filtered_simple(ZF.diagonal_filtered(), r, N)
    check_filtered_map(mu, ssF, sdF)
    return ssF, sdF, mu


def check_descent_axioms_filtered(seed: int, trials: int = 10, N: int = 4, r: int = 0,
                                  field=None, max_dim: int = 2, span: int = 2):
    """The five descent axioms for (filtered complexes, E_r-quis, (s, δ_r))."""
    field = field or GF(5)
    rng = random.Random(seed)
    report = AxiomAuditReport(seed)
    p_max = N
    for t in range(trials):
        trial = AxiomTrial(t)
        # S1: product comparison, literal filtration equality + E_r-quis
        XF = random_filtered_cosimplicial(field, rng, p_max, span=span, max_dim=max_dim)
        YF = random_filtered_cosimplicial(field, rng, p_max, span=span, max_dim=max_dim)
        PF, _, (pX, pY) = filtered_cosimplicial_biproduct(XF, YF)
        SP = filtered_simple(PF, r, N)
        SX = filtered_simple(XF, r, N)
        SY = filtered_simple(YF, r, N)
        exact = all(SP.columns(k, n).size == SX.columns(k, n).size + SY.columns(k, n).size
                    for n in SP.base.dims
                    for k in range(SP.k_min, SP.k_max + 2))
        trial.results["S1"] = exact
        # S2: filtered Alexander-Whitney
        base_for_rows = random_filtered_cosimplicial(field, rng, p_max, span=span,
                                                     max_dim=max_dim)
        ZF = bicosimplicial_filtered_from_rows(base_for_rows, p_max, p_max)
        try:
            ssF, sdF, mu = filtered_aw(ZF, r, N)
            flag, _ = is_er_quis(mu, ssF, sdF, r, up_to=N - 1)
            trial.results["S2"] = flag
        except NotFiltered as e:
            trial.results["S2"] = False
            trial.notes["S2"] = str(e)
        # S3: the constant inclusion is an E_r-quis
        FCA = random_filtered_complex(field, rng, span=span, max_dim=max_dim,
                                      weights=(0, 1))
        lam = lambda_map(FCA.base, N)
        cF = constant_filtered(FCA, N - FCA.base.lower)
        target = filtered_simple(cF, r, N)
        # FCA's adapted basis on the truncation that lam starts from
        src = FilteredComplex(lam.source, FCA.k_min, FCA.k_max, FCA._weights, FCA._basis,
                              FCA._inverse)
        flag, _ = is_er_quis(lam, src, target, r, up_to=N - 1)
        trial.results["S3"] = flag
        # S4: levelwise E_r-quis totalizes to an E_r-quis
        XF4 = random_filtered_cosimplicial(field, rng, p_max, span=span, max_dim=max_dim)
        E = contractible_complex(field, rng, max_dim=max_dim)
        EF = constant_filtered(FilteredComplex.trivial(E, jump=XF4.levels[0].k_min), p_max)
        YF4, (i4, _), _ = filtered_cosimplicial_biproduct(XF4, EF)
        f4 = simple_map(i4, N)
        flag, _ = is_er_quis(f4, filtered_simple(XF4, r, N), filtered_simple(YF4, r, N),
                             r, up_to=N - 1)
        trial.results["S4"] = flag
        # S5: path-object evaluation
        FCB = random_filtered_complex(field, rng, span=span, max_dim=max_dim,
                                      weights=(0, 1))
        PF5, ev0, _ = path_filtered(FCB, p_max)
        f5 = simple_map(ev0, N)
        tgtF = filtered_simple(constant_filtered(FCB, p_max), r, N)
        flag, _ = is_er_quis(f5, filtered_simple(PF5, r, N), tgtF, r, up_to=N - 1)
        trial.results["S5"] = flag
        report.trials.append(trial)
    return report
