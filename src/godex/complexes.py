"""Bounded cochain complexes over an exact field, chain maps, cohomology.

A complex stores dims per degree and differentials d^n : C^n -> C^(n+1) of
shape dims(n+1) x dims(n).  Complexes may carry a `certified_degree`: the
largest degree whose cohomology is guaranteed complete (total complexes of
truncated cosimplicial objects are only trustworthy below the truncation).

Sheaves, cosimplicial and bicosimplicial complexes are diagrams of
complexes.  `transport` (along degreewise automorphisms of the levels),
`conjugate` (along random ones), the levelwise `direct_sum` and
`mapping_cone`, the maps between diagrams (`DiagramMap`: one chain map per
level, natural in the arrows) and the sampler `random_map` are written once,
here, for all of them; each diagram class supplies `diagram()` and
`rebuild()`.  Direct sums, total complexes and the linear systems of
`random_map` lay their blocks out with `exactlin.Layout`.

Cohomology is rank-only until a caller asks for more: `CohomologyData`
computes the rank of every differential (the sparse rank of `exactlin` on
large sparse F_p matrices) and builds cycle bases on first access, and
`is_quis` decides each degree from the rank of a cone differential.
"""

from __future__ import annotations

from .errors import FieldMismatch, InvariantError
from .exactlin import (
    Field, Layout, Matrix, Subspace, free_columns, kron, random_invertible, subquotient,
)


def min_certified(*degrees):
    """The least of the certified degrees given, ignoring None (no bound);
    None when every one is None."""
    known = [d for d in degrees if d is not None]
    return min(known) if known else None


class CochainComplex:
    """A bounded complex of finite-dimensional vector spaces."""

    __slots__ = ("field", "lower", "upper", "dims", "differentials", "certified_degree", "_cohomology")

    def __init__(self, field: Field, dims: dict, differentials: dict,
                 lower: int | None = None, certified_degree: int | None = None,
                 check: bool = True):
        self.field = field
        self.dims = {n: d for n, d in dims.items() if d > 0}
        nonzero = sorted(self.dims)
        if lower is None:
            lower = nonzero[0] if nonzero else 0
        self.lower = lower
        self.upper = nonzero[-1] if nonzero else lower
        self.differentials = {
            n: m for n, m in differentials.items()
            if self.dim(n) > 0 and self.dim(n + 1) > 0 and not m.is_zero()
        }
        self.certified_degree = certified_degree
        self._cohomology = None
        if check:
            self.validate()

    def validate(self):
        if self.dims and min(self.dims) < self.lower:
            raise InvariantError(f"dimension in degree {min(self.dims)} below lower bound {self.lower}")
        for n, m in self.differentials.items():
            if m.shape != (self.dim(n + 1), self.dim(n)):
                raise InvariantError(f"differential in degree {n} has shape {m.shape}, "
                                     f"expected {(self.dim(n + 1), self.dim(n))}")
            if m.field != self.field:
                raise FieldMismatch(f"differential in degree {n}: {m.field} vs {self.field}")
        for n in list(self.differentials):
            m2 = self.d(n + 1) @ self.d(n)
            if not m2.is_zero():
                raise InvariantError(f"d∘d != 0 in degree {n}")

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def d(self, n: int) -> Matrix:
        m = self.differentials.get(n)
        if m is None:
            return Matrix.zeros(self.field, self.dim(n + 1), self.dim(n))
        return m

    def degrees(self):
        """Degrees from lower to upper, inclusive."""
        return range(self.lower, self.upper + 1)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * d for n, d in self.dims.items())

    def is_zero_complex(self) -> bool:
        return not self.dims

    def __eq__(self, other):
        if not isinstance(other, CochainComplex):
            return NotImplemented
        if self.field != other.field or self.dims != other.dims:
            return False
        degs = set(self.differentials) | set(other.differentials)
        return all(self.d(n) == other.d(n) for n in degs)

    def __repr__(self):
        ds = ", ".join(f"{n}:{d}" for n, d in sorted(self.dims.items()))
        return f"CochainComplex({self.field}, {{{ds}}})"

    def diagram(self):
        """A complex is the diagram with one level and no arrows."""
        return {0: self}, {}

    def rebuild(self, levels, maps):
        return levels[0]

    # ---- cohomology ---------------------------------------------------

    def cohomology(self) -> "CohomologyData":
        if self._cohomology is None:
            self._cohomology = CohomologyData(self)
        return self._cohomology

    def betti(self, up_to: int | None = None) -> dict:
        h = self.cohomology()
        hi = self.upper if up_to is None else up_to
        if self.certified_degree is not None:
            hi = min(hi, self.certified_degree)
        return {n: h.betti[n] for n in range(self.lower, hi + 1) if h.betti.get(n, 0)}


class CohomologyData:
    """Betti numbers of a complex, with its cycles and quotient coordinates on
    demand.

    Construction computes only the rank of every differential, through
    `Matrix.rank()` (sparse elimination on large sparse F_p matrices), and
    the betti numbers dim C^n - rank d^n - rank d^{n-1}.  `cycles` (degree ->
    kernel basis) and `boundaries` (degree -> pivot columns of the incoming
    differential) are built together on first access, one elimination per
    degree.  Quotient coordinates (projection/section) are only computed
    when actually requested.
    """

    __slots__ = ("complex", "betti", "ranks", "_cycles", "_boundaries", "_quotients")

    def __init__(self, C: CochainComplex):
        self.complex = C
        self.ranks = {n: C.differentials[n].rank() if n in C.differentials else 0
                      for n in C.degrees()}
        self.betti = {n: C.dim(n) - self.ranks[n] - self.ranks.get(n - 1, 0)
                      for n in C.degrees()}
        self._cycles = None
        self._boundaries = None
        self._quotients = {}

    def _bases(self):
        C = self.complex
        self._cycles, self._boundaries = {}, {}
        for n in C.degrees():
            d = C.d(n)
            R, pivots = d.rref()
            self._cycles[n] = Subspace(C.field, C.dim(n), d.kernel_matrix(reduced=(R, pivots)),
                                       free_columns(C.dim(n), pivots))
            self._boundaries[n + 1] = d.take_columns(pivots)

    @property
    def cycles(self) -> dict:
        if self._cycles is None:
            self._bases()
        return self._cycles

    @property
    def boundaries(self) -> dict:
        if self._boundaries is None:
            self._bases()
        return self._boundaries

    def boundary_matrix(self, n: int) -> Matrix:
        b = self.boundaries.get(n)
        if b is None:
            return Matrix.zeros(self.complex.field, self.complex.dim(n), 0)
        return b

    def quotient(self, n: int):
        """(dim, projection, section) of H^n = cycles/boundaries."""
        if n not in self._quotients:
            Z = self.cycles.get(n)
            if Z is None:
                Z = Subspace.zero(self.complex.field, self.complex.dim(n))
            B = Subspace.spanned_by(self.complex.field, self.complex.dim(n),
                                    self.boundary_matrix(n))
            self._quotients[n] = subquotient(Z, B)
        return self._quotients[n]

    @property
    def proj(self):
        return _QuotientView(self, 1)

    @property
    def section(self):
        return _QuotientView(self, 2)

    def class_representatives(self, n: int) -> Matrix:
        """Ambient-coordinate representatives of a basis of H^n."""
        Z = self.cycles.get(n)
        if Z is None:
            return Matrix.zeros(self.complex.field, self.complex.dim(n), 0)
        return Z.basis @ self.quotient(n)[2]


class _QuotientView:
    """Dict-like access to the lazy quotient projections/sections."""

    __slots__ = ("data", "idx")

    def __init__(self, data, idx):
        self.data = data
        self.idx = idx

    def __getitem__(self, n):
        return self.data.quotient(n)[self.idx]


class ChainMap:
    """A degreewise linear map commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: CochainComplex, target: CochainComplex, components: dict, check: bool = True):
        if source.field != target.field:
            raise FieldMismatch(f"{source.field} vs {target.field}")
        self.source = source
        self.target = target
        self.components = {
            n: m for n, m in components.items()
            if source.dim(n) > 0 and target.dim(n) > 0 and not m.is_zero()
        }
        if check:
            self.validate()

    def validate(self):
        for n, m in self.components.items():
            if m.shape != (self.target.dim(n), self.source.dim(n)):
                raise InvariantError(f"component in degree {n} has shape {m.shape}, "
                                     f"expected {(self.target.dim(n), self.source.dim(n))}")
        lo = min(self.source.lower, self.target.lower)
        hi = max(self.source.upper, self.target.upper)
        for n in range(lo, hi + 1):
            lhs = self.target.d(n) @ self.component(n)
            rhs = self.component(n + 1) @ self.source.d(n)
            if lhs != rhs:
                raise InvariantError(f"chain map does not commute with d in degree {n}")

    def component(self, n: int) -> Matrix:
        m = self.components.get(n)
        if m is None:
            return Matrix.zeros(self.source.field, self.target.dim(n), self.source.dim(n))
        return m

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self ∘ other."""
        if other.target is not self.source and other.target != self.source:
            raise InvariantError("composition of non-matching chain maps")
        degs = set(self.components) | set(other.components)
        return ChainMap(other.source, self.target,
                        {n: self.component(n) @ other.component(n) for n in degs}, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        degs = set(self.components) | set(other.components)
        return ChainMap(self.source, self.target,
                        {n: self.component(n) + other.component(n) for n in degs}, check=False)

    def scale(self, c) -> "ChainMap":
        return ChainMap(self.source, self.target,
                        {n: m.scale(c) for n, m in self.components.items()}, check=False)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source.dims != other.source.dims or self.target.dims != other.target.dims:
            return False
        degs = set(self.components) | set(other.components)
        return all(self.component(n) == other.component(n) for n in degs)

    @staticmethod
    def identity(C: CochainComplex) -> "ChainMap":
        return ChainMap(C, C, {n: Matrix.identity(C.field, C.dim(n)) for n in C.dims}, check=False)

    @staticmethod
    def zero(source: CochainComplex, target: CochainComplex) -> "ChainMap":
        return ChainMap(source, target, {}, check=False)

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def zero_complex(field: Field) -> CochainComplex:
    return CochainComplex(field, {}, {}, lower=0)


def single_complex(field: Field, degree: int = 0, dim: int = 1) -> CochainComplex:
    """The complex with one space in one degree and zero differential."""
    return CochainComplex(field, {degree: dim}, {})


def truncate(C: CochainComplex, N: int) -> CochainComplex:
    """Brutal truncation to degrees <= N; certifies degrees <= N-1."""
    if C.upper <= N:
        return C
    dims = {n: d for n, d in C.dims.items() if n <= N}
    diffs = {n: m for n, m in C.differentials.items() if n < N}
    return CochainComplex(C.field, dims, diffs, lower=C.lower,
                          certified_degree=min_certified(C.certified_degree, N - 1), check=False)


def _oplus(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal matrix a ⊕ b."""
    return Matrix.assemble(a.field, [a.rows, b.rows], [a.cols, b.cols], {(0, 0): a, (1, 1): b})


def biproduct(C1: CochainComplex, C2: CochainComplex):
    """Degreewise direct sum with block-diagonal differentials.

    Returns (C, (i1, i2), (p1, p2)); p_k ∘ i_k are identities.
    """
    if C1.field != C2.field:
        raise FieldMismatch(f"{C1.field} vs {C2.field}")
    field = C1.field
    lo = min(C1.lower, C2.lower)
    hi = max(C1.upper, C2.upper)
    dims = {n: C1.dim(n) + C2.dim(n) for n in range(lo, hi + 1)}
    diffs = {n: _oplus(C1.d(n), C2.d(n)) for n in range(lo, hi + 1)}
    C = CochainComplex(field, dims, diffs, lower=lo,
                       certified_degree=min_certified(C1.certified_degree, C2.certified_degree),
                       check=False)
    incl1, incl2, proj1, proj2 = {}, {}, {}, {}
    for n in range(lo, hi + 1):
        layout = Layout([(1, C1.dim(n)), (2, C2.dim(n))])
        incl1[n], incl2[n] = layout.inclusion(field, [1]), layout.inclusion(field, [2])
        proj1[n], proj2[n] = incl1[n].transpose(), incl2[n].transpose()
    return C, (ChainMap(C1, C, incl1, check=False), ChainMap(C2, C, incl2, check=False)), \
        (ChainMap(C, C1, proj1, check=False), ChainMap(C, C2, proj2, check=False))


# ---- diagrams of complexes ----------------------------------------------
#
# A complex (one level, no arrows), a sheaf, a cosimplicial and a
# bicosimplicial complex are diagrams of complexes.  Each exposes `diagram()`, its levels (key -> complex, in a fixed
# order) and its arrows (name -> (source key, target key, chain map)), and
# `rebuild(levels, maps)`, the diagram of the same shape on new levels with
# new arrows (name -> chain map).  Transport and direct sums are written once,
# here, against that interface.


def transport(D, g):
    """D carried along the degreewise automorphisms g[level key][q].

    Every level differential d becomes g d g^-1 and every arrow f : s -> t
    becomes g_t f g_s^-1; g holds an automorphism for every nonzero degree
    of every level.
    """
    levels, arrows = D.diagram()
    ginv = {k: {q: m.inverse() for q, m in gk.items()} for k, gk in g.items()}
    new = {k: CochainComplex(C.field, dict(C.dims),
                             {q: g[k][q + 1] @ d @ ginv[k][q] for q, d in C.differentials.items()},
                             lower=C.lower, certified_degree=C.certified_degree, check=False)
           for k, C in levels.items()}
    maps = {name: ChainMap(new[s], new[t], {q: g[t][q] @ m @ ginv[s][q]
                                            for q, m in f.components.items()}, check=False)
            for name, (s, t, f) in arrows.items()}
    return D.rebuild(new, maps)


def conjugate(D, rng):
    """D transported along random automorphisms, drawn level by level in the
    order of `D.diagram()` and degree by degree within a level."""
    levels, _ = D.diagram()
    return transport(D, {k: {q: random_invertible(C.field, C.dim(q), rng) for q in C.dims}
                         for k, C in levels.items()})


def _same_shape(D1, D2, error=InvariantError):
    """The levels and arrows of D1 and of D2; `error` unless they have one shape."""
    (levels1, arrows1), (levels2, arrows2) = D1.diagram(), D2.diagram()
    if levels1.keys() != levels2.keys() or arrows1.keys() != arrows2.keys():
        raise error("diagrams of different shapes")
    return levels1, arrows1, levels2, arrows2


def direct_sum(D1, D2):
    """Levelwise direct sum of two diagrams of one shape; each arrow is f ⊕ g.

    Returns (D, (i1, i2), (p1, p2)) where i_k and p_k map level keys to the
    inclusion and projection chain maps of `biproduct`.
    """
    levels1, arrows1, levels2, arrows2 = _same_shape(D1, D2)
    levels, incl1, incl2, proj1, proj2 = {}, {}, {}, {}, {}
    for k in levels1:
        levels[k], (incl1[k], incl2[k]), (proj1[k], proj2[k]) = biproduct(levels1[k], levels2[k])
    maps = {}
    for name, (s, t, f) in arrows1.items():
        g = arrows2[name][2]
        maps[name] = ChainMap(levels[s], levels[t],
                              {q: _oplus(f.component(q), g.component(q))
                               for q in set(f.components) | set(g.components)}, check=False)
    return D1.rebuild(levels, maps), (incl1, incl2), (proj1, proj2)


class DiagramMap:
    """A map of diagrams of one shape: a chain map per level (level key ->
    chain map) commuting with every arrow.  Subclasses name the diagram kind
    and the error that `validate` raises."""

    __slots__ = ("source", "target", "components")
    error = InvariantError

    def __init__(self, source, target, components: dict, check: bool = True):
        self.source = source
        self.target = target
        self.components = components
        if check:
            self.validate()

    def component(self, k) -> ChainMap:
        return self.components[k]

    def validate(self):
        levels1, arrows1, levels2, arrows2 = _same_shape(self.source, self.target, self.error)
        for k, C in levels1.items():
            f = self.components.get(k)
            if f is None or f.source != C or f.target != levels2[k]:
                raise self.error(f"component at {k!r} has wrong source/target")
            try:
                f.validate()
            except InvariantError as e:
                raise self.error(f"component at {k!r}: {e}") from e
        for name, (s, t, a) in arrows1.items():
            if self.components[t].compose(a) != arrows2[name][2].compose(self.components[s]):
                raise self.error(f"map fails to commute with arrow {name!r}")

    def compose(self, other: "DiagramMap") -> "DiagramMap":
        """self ∘ other."""
        return type(self)(other.source, self.target,
                          {k: f.compose(other.components[k]) for k, f in self.components.items()},
                          check=False)

    def __eq__(self, other):
        if not isinstance(other, DiagramMap):
            return NotImplemented
        return self.components.keys() == other.components.keys() and \
            all(f == other.components[k] for k, f in self.components.items())

    @classmethod
    def identity(cls, D) -> "DiagramMap":
        return cls(D, D, {k: ChainMap.identity(C) for k, C in D.diagram()[0].items()}, check=False)


def mapping_cone(f: DiagramMap):
    """Levelwise mapping cone of f : A -> B.

    Level k is cone(f_k), with cone^n = A_k^{n+1} ⊕ B_k^n and differential
    [[-d_A, 0], [f_k, d_B]]; each arrow is a_{n+1} ⊕ b_n for the arrows a of
    A and b of B of that name.  H^n of the cone needs H^{n+1} of A, so it
    is certified one degree below A.
    """
    levels1, arrows1, levels2, arrows2 = _same_shape(f.source, f.target)
    levels = {}
    for k, A in levels1.items():
        B, fk = levels2[k], f.components[k]
        lo, hi = min(A.lower - 1, B.lower), max(A.upper - 1, B.upper)
        diffs = {n: Matrix.assemble(A.field, [A.dim(n + 2), B.dim(n + 1)], [A.dim(n + 1), B.dim(n)],
                                    {(0, 0): A.d(n + 1).scale(-1), (1, 0): fk.component(n + 1),
                                     (1, 1): B.d(n)})
                 for n in range(lo, hi)}
        cert = min_certified(None if A.certified_degree is None else A.certified_degree - 1,
                             B.certified_degree)
        levels[k] = CochainComplex(A.field, {n: A.dim(n + 1) + B.dim(n) for n in range(lo, hi + 1)},
                                   diffs, lower=lo, certified_degree=cert, check=False)
    maps = {name: ChainMap(levels[s], levels[t],
                           {n: _oplus(a.component(n + 1), arrows2[name][2].component(n))
                            for n in levels[s].dims}, check=False)
            for name, (s, t, a) in arrows1.items()}
    return f.source.rebuild(levels, maps)


class QuisReport:
    """Per-degree record of whether a chain map induces isos on cohomology."""

    __slots__ = ("flag", "per_degree", "certified_degree")

    def __init__(self, flag: bool, per_degree: dict, certified_degree: int | None):
        self.flag = flag
        self.per_degree = per_degree
        self.certified_degree = certified_degree

    def __bool__(self):
        return self.flag

    def failures(self):
        return sorted(n for n, ok in self.per_degree.items() if not ok)

    def __repr__(self):
        return f"QuisReport({self.flag}, failures={self.failures()}, certified={self.certified_degree})"


def induced_map(f: ChainMap, n: int) -> Matrix:
    """The matrix of H^n(f) in the chosen cohomology coordinates."""
    hs = f.source.cohomology()
    ht = f.target.cohomology()
    reps = hs.class_representatives(n)
    imgs = f.component(n) @ reps
    Zt = ht.cycles.get(n)
    if Zt is None or Zt.dim == 0:
        return Matrix.zeros(f.source.field, ht.betti.get(n, 0), hs.betti.get(n, 0))
    coords = Zt.coords_of(imgs)
    return ht.quotient(n)[1] @ coords


def is_quis(f: ChainMap, up_to: int | None = None) -> QuisReport:
    """Does f induce an isomorphism on cohomology in every (certified) degree?

    H^n(f) is an isomorphism iff the betti numbers agree and the map is
    surjective, i.e. f(Z_s^n) + B_t^n = Z_t^n.  Both are decided by ranks:
    the cone differential phi_n = [[d_s^n, 0], [f_n, d_t^{n-1}]] has
    rank phi_n = rank d_s^n + dim(f(Z_s^n) + B_t^n), because its image
    projects onto B_s^{n+1} with kernel 0 ⊕ (f(Z_s^n) + B_t^n).  So H^n(f)
    is onto iff rank phi_n - rank d_s^n = dim Z_t^n = dim C_t^n - rank d_t^n;
    one rank per degree where the betti numbers agree and are nonzero.
    """
    S, T = f.source, f.target
    lo = min(S.lower, T.lower)
    hi = max(S.upper, T.upper)
    cert = min_certified(S.certified_degree, T.certified_degree, up_to)
    if cert is not None:
        hi = min(hi, cert)
    per = {}
    hs = S.cohomology()
    ht = T.cohomology()
    for n in range(lo, hi + 1):
        bs, bt = hs.betti.get(n, 0), ht.betti.get(n, 0)
        if bs != bt:
            per[n] = False
            continue
        if bs == 0:
            per[n] = True
            continue
        phi = Matrix.assemble(S.field, [S.dim(n + 1), T.dim(n)], [S.dim(n), T.dim(n - 1)],
                              {(0, 0): S.d(n), (1, 0): f.component(n), (1, 1): T.d(n - 1)})
        per[n] = phi.rank() - hs.ranks[n] == T.dim(n) - ht.ranks[n]
    return QuisReport(all(per.values()), per, cert)


# ---- randomized instances ----------------------------------------------


def random_complex(field: Field, rng, lower: int = 0, span: int = 3, max_dim: int = 3,
                   scramble: bool = True) -> CochainComplex:
    """Random bounded complex with d∘d = 0 by construction.

    Built as a sum of cohomology classes and contractible two-term pieces in
    a canonical basis, then conjugated degreewise by random invertibles.
    """
    degs = list(range(lower, lower + span))
    betti = {n: rng.randint(0, max_dim - 1) for n in degs}
    pairs = {n: rng.randint(0, max_dim - 1) for n in degs[:-1]} if span > 1 else {}
    dims = {}
    for n in degs:
        dims[n] = betti.get(n, 0) + pairs.get(n, 0) + pairs.get(n - 1, 0)
    diffs = {}
    for n in degs[:-1]:
        rows, cols = dims.get(n + 1, 0), dims.get(n, 0)
        m = Matrix.zeros(field, rows, cols).rows_list()
        # identity block: the pairs born in degree n die into degree n+1
        r0 = betti.get(n + 1, 0) + pairs.get(n + 1, 0)
        c0 = betti.get(n, 0)
        for k in range(pairs.get(n, 0)):
            m[r0 + k][c0 + k] = 1
        diffs[n] = Matrix(field, rows, cols, m)
    C = CochainComplex(field, dims, diffs, lower=lower, check=False)
    if not scramble:
        return C
    P = {n: random_invertible(field, dims.get(n, 0), rng) for n in degs}
    new_diffs = {n: P[n + 1] @ C.d(n) @ P[n].inverse() for n in degs[:-1]}
    return CochainComplex(field, dims, new_diffs, lower=lower, check=False)


def random_map(D1, D2, rng) -> dict:
    """A uniformly random map of diagrams D1 -> D2 of one shape, as level
    key -> chain map (not validated: wrap it in the diagram's map class).

    The unknowns are the entries of the components: levels in `diagram()`
    order, degrees ascending, entries row-major.  Every level differential
    and every arrow gives one equation L X_u = X_v R, written as the
    Kronecker blocks L ⊗ 1 and -(1 ⊗ R^T) on the unknowns' `Layout`.  The
    sample is K c for the kernel basis K of that system and c one
    `random_element` per basis vector.
    """
    if D1.field != D2.field:
        raise FieldMismatch(f"{D1.field} vs {D2.field}")
    field = D1.field
    levels1, arrows1, levels2, arrows2 = _same_shape(D1, D2)

    def degrees(C, D):
        return range(min(C.lower, D.lower), max(C.upper, D.upper) + 1)

    unknowns = Layout(((k, n), levels2[k].dim(n) * C.dim(n))
                      for k, C in levels1.items() for n in degrees(C, levels2[k])
                      if levels2[k].dim(n) * C.dim(n))
    equations, entries = [], {}

    def constrain(label, u, L, v, R):
        if L.rows * R.cols == 0:
            return
        equations.append((label, L.rows * R.cols))
        if u in unknowns:
            entries[(label, u)] = kron(L, Matrix.identity(field, R.cols))
        if v in unknowns:
            entries[(label, v)] = kron(Matrix.identity(field, L.rows), R.transpose()).scale(-1)

    for k, C in levels1.items():
        for n in degrees(C, levels2[k]):
            constrain(("level", k, n), (k, n), levels2[k].d(n), (k, n + 1), C.d(n))
    for name, (s, t, a) in arrows1.items():
        for n in degrees(levels1[s], levels2[t]):
            constrain(("arrow", name, n), (s, n), arrows2[name][2].component(n), (t, n),
                      a.component(n))
    K = Matrix.assemble(field, Layout(equations), unknowns, entries).kernel_matrix()
    vec = K @ Matrix(field, K.cols, 1, [[field.random_element(rng)] for _ in range(K.cols)])
    comps = {k: {} for k in levels1}
    for (k, n), (off, _) in unknowns.items():
        r, c = levels2[k].dim(n), levels1[k].dim(n)
        comps[k][n] = Matrix(field, r, c, [[vec.entry(off + i * c + j, 0) for j in range(c)]
                                           for i in range(r)])
    return {k: ChainMap(C, levels2[k], comps[k], check=False) for k, C in levels1.items()}
