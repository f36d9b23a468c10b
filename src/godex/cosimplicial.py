"""Cosimplicial and bicosimplicial objects in complexes; the simple functor.

The simple (total-complex) functor follows the convention

    s(X)^n = ⊕_{p+q=n} X(p)^q ,

with differential assembled from the alternating coface sum into level p+1
and the internal differential signed by (-1)^p.  Cosimplicial objects are
truncated at a level p_max; the simple functor at bound N then certifies
cohomology only in degrees <= N-1 (one guard degree), and all
quasi-isomorphism claims are asserted within certified degrees only.

A total complex keeps, per degree n, the `Layout` of its summands labelled
(p, q); every map between totals is assembled on those labels
(`blockwise_map`).  The randomized generators build their objects with
`complexes.direct_sum` and scramble them with `complexes.conjugate`.
"""

from __future__ import annotations

import random

from .complexes import (
    BlockComplex, ChainMap, CochainComplex, DiagramMap, biproduct, conjugate, direct_sum, is_quis,
    random_complex, truncate,
)
from .errors import InsufficientLevels, InvariantError, NotCosimplicial, NotExtraDegeneracy
from .exactlin import Field, GF, Layout, Matrix, alternating_sum, random_invertible


class CosimplicialComplex:
    """Levels 0..p_max of complexes with coface and codegeneracy chain maps.

    cofaces[(p, i)]       : level p-1 -> level p   (1 <= p <= p_max, 0 <= i <= p)
    codegeneracies[(p, j)]: level p+1 -> level p   (0 <= p <= p_max-1, 0 <= j <= p)
    """

    __slots__ = ("field", "p_max", "levels", "cofaces", "codegeneracies", "_simple_cache")

    def __init__(self, field: Field, levels: dict, cofaces: dict, codegeneracies: dict,
                 p_max: int, check: bool = True):
        self.field = field
        self.p_max = p_max
        self.levels = levels
        self.cofaces = cofaces
        self.codegeneracies = codegeneracies
        self._simple_cache = {}
        if set(levels) != set(range(p_max + 1)):
            raise InvariantError("levels must be indexed 0..p_max")
        if check:
            self.validate()

    def level(self, p: int) -> CochainComplex:
        return self.levels[p]

    def coface(self, p: int, i: int) -> ChainMap:
        return self.cofaces[(p, i)]

    def codegeneracy(self, p: int, j: int) -> ChainMap:
        return self.codegeneracies[(p, j)]

    def diagram(self):
        """Levels 0..p_max; cofaces ("d", p, i) and codegeneracies ("s", p, j)."""
        arrows = {("d",) + k: (k[0] - 1, k[0], f) for k, f in self.cofaces.items()}
        arrows.update({("s",) + k: (k[0] + 1, k[0], f) for k, f in self.codegeneracies.items()})
        return {p: self.levels[p] for p in range(self.p_max + 1)}, arrows

    def rebuild(self, levels, maps):
        return CosimplicialComplex(self.field, levels,
                                   {k[1:]: f for k, f in maps.items() if k[0] == "d"},
                                   {k[1:]: f for k, f in maps.items() if k[0] == "s"},
                                   self.p_max, check=False)

    @property
    def lower(self) -> int | None:
        """Smallest internal degree carrying a nonzero space, None if zero."""
        lows = [lv.lower for lv in self.levels.values() if not lv.is_zero_complex()]
        return min(lows) if lows else None

    def validate(self):
        for p in range(1, self.p_max + 1):
            for i in range(p + 1):
                f = self.coface(p, i)
                if f.source is not self.level(p - 1) and f.source != self.level(p - 1):
                    raise InvariantError(f"coface ({p},{i}) has wrong source")
        for p in range(self.p_max):
            for j in range(p + 1):
                f = self.codegeneracy(p, j)
                if f.source != self.level(p + 1) or f.target != self.level(p):
                    raise InvariantError(f"codegeneracy ({p},{j}) has wrong shape")
        for name, lhs, rhs in self._identity_pairs():
            if lhs != rhs:
                raise InvariantError(f"cosimplicial identity {name} fails")

    def _identity_pairs(self):
        """All composable instances of the cosimplicial identities."""
        for p in range(2, self.p_max + 1):
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    yield (f"d^{j} d^{i} = d^{i} d^{j-1} at level {p}",
                           self.coface(p, j).compose(self.coface(p - 1, i)),
                           self.coface(p, i).compose(self.coface(p - 1, j - 1)))
        for p in range(self.p_max - 1):
            for i in range(p + 2):
                for j in range(i, p + 1):
                    yield (f"s^{j} s^{i} = s^{i} s^{j+1} at level {p}",
                           self.codegeneracy(p, j).compose(self.codegeneracy(p + 1, i)),
                           self.codegeneracy(p, i).compose(self.codegeneracy(p + 1, j + 1)))
        for p in range(self.p_max):
            for i in range(p + 2):
                for j in range(p + 1):
                    lhs = self.codegeneracy(p, j).compose(self.coface(p + 1, i))
                    if i == j or i == j + 1:
                        rhs = ChainMap.identity(self.level(p))
                        name = f"s^{j} d^{i} = id at level {p}"
                    elif i < j:
                        rhs = self.coface(p, i).compose(self.codegeneracy(p - 1, j - 1))
                        name = f"s^{j} d^{i} = d^{i} s^{j-1} at level {p}"
                    else:
                        rhs = self.coface(p, i - 1).compose(self.codegeneracy(p - 1, j))
                        name = f"s^{j} d^{i} = d^{i-1} s^{j} at level {p}"
                    yield name, lhs, rhs


class CosimplicialMap(DiagramMap):
    """A levelwise chain map commuting with all structure maps."""

    __slots__ = ()
    error = NotCosimplicial

    def __init__(self, source: CosimplicialComplex, target: CosimplicialComplex,
                 components: dict, check: bool = True):
        if source.p_max != target.p_max:
            raise InvariantError("cosimplicial map between different truncation levels")
        super().__init__(source, target, components, check)


def constant_cosimplicial(A: CochainComplex, p_max: int) -> CosimplicialComplex:
    """c(A): every level A, every structure map the identity."""
    ident = ChainMap.identity(A)
    return CosimplicialComplex(
        A.field, {p: A for p in range(p_max + 1)},
        {(p, i): ident for p in range(1, p_max + 1) for i in range(p + 1)},
        {(p, j): ident for p in range(p_max) for j in range(p + 1)},
        p_max, check=False,
    )


# ---- the simple functor --------------------------------------------------


class TotalComplex(BlockComplex):
    """s(X), a block complex of the cosimplicial complex X it totals.

    blocks[n] is the `Layout` of degree n: label (level p, internal degree
    q) -> (offset, dim), nonzero summands only, in increasing p.
    """

    __slots__ = ("cosimplicial",)

    def inclusion(self, n: int, p: int) -> Matrix:
        """The summand X(p)^{n-p} -> s(X)^n (no columns if it is zero)."""
        layout = self.blocks.get(n, Layout())
        return layout.inclusion(self.field, [(p, n - p)] if (p, n - p) in layout else [])


def alternating_coface_sum(X: CosimplicialComplex, p: int, q: int) -> Matrix:
    """sum_i (-1)^i d^i : X(p-1)^q -> X(p)^q, in one accumulation."""
    return alternating_sum(X.field, X.level(p).dim(q), X.level(p - 1).dim(q),
                           (X.coface(p, i).component(q) for i in range(p + 1)))


def _total_differential(X: CosimplicialComplex, blocks: dict, n: int, signed: bool) -> Matrix:
    """d^n of s(X) on the layouts `blocks`: the alternating coface sum into
    level p+1 plus the internal differential, signed by (-1)^p if `signed`."""
    rows, cols = blocks[n + 1], blocks[n]
    entries = {}
    for (p, q) in cols:
        if (p + 1, q) in rows:
            entries[((p + 1, q), (p, q))] = alternating_coface_sum(X, p + 1, q)
        if (p, q + 1) in rows:
            m = X.level(p).d(q)
            entries[((p, q + 1), (p, q))] = m.scale(-1) if signed and p % 2 else m
    return Matrix.assemble(X.field, rows, cols, entries)


def simple(X: CosimplicialComplex, N: int) -> TotalComplex:
    """Total complex of X in degrees <= N; certified through degree N-1."""
    cached = X._simple_cache.get(N)
    if cached is not None:
        return cached
    lmin = X.lower
    if lmin is None:
        # a zero total keeps the levels' lower bound, which the stalks of a
        # sheaf of totals must share
        lower = min(lv.lower for lv in X.levels.values())
        out = TotalComplex(X.field, {}, {}, lower=lower, certified_degree=N - 1, check=False)
        out.cosimplicial = X
        X._simple_cache[N] = out
        return out
    if X.p_max < N - lmin:
        raise InsufficientLevels(
            f"p_max={X.p_max} cannot reach total degree {N} with lower bound {lmin}")
    blocks = {n: Layout(((p, n - p), X.level(p).dim(n - p)) for p in range(n - lmin + 1)
                        if X.level(p).dim(n - p))
              for n in range(lmin, N + 1)}
    diffs = {n: _total_differential(X, blocks, n, True)
             for n in range(lmin, N) if blocks[n] and blocks[n + 1]}
    cert = N - 1
    for p in range(X.p_max + 1):
        c = X.level(p).certified_degree
        if c is not None:
            cert = min(cert, c + p)
    out = TotalComplex(X.field, blocks, diffs, lower=lmin, certified_degree=cert, check=True)
    out.cosimplicial = X
    X._simple_cache[N] = out
    return out


def blockwise_map(S: TotalComplex, T: TotalComplex, component) -> dict:
    """Degree -> matrix of the map S -> T that is component(p, q) from each
    (p, q) summand of S to the same summand of T, and zero elsewhere."""
    comps = {}
    for n in set(S.blocks) | set(T.blocks):
        rows, cols = T.blocks.get(n), S.blocks.get(n)
        if rows and cols:
            comps[n] = Matrix.assemble(S.field, rows, cols,
                                       {(pq, pq): component(*pq) for pq in cols if pq in rows})
    return comps


def simple_map(f: CosimplicialMap, N: int) -> ChainMap:
    """Block-diagonal total map s(f) : s(X) -> s(Y)."""
    S = simple(f.source, N)
    T = simple(f.target, N)
    return ChainMap(S, T, blockwise_map(S, T, lambda p, q: f.component(p).component(q)),
                    check=True)


def lambda_map(A: CochainComplex, N: int) -> ChainMap:
    """Canonical inclusion of A into the total complex of the constant
    cosimplicial object on A, as the level-0 summand."""
    src = truncate(A, N)
    lmin = A.lower if not A.is_zero_complex() else 0
    X = constant_cosimplicial(A, max(N - lmin, 0))
    T = simple(X, N)
    comps = {n: T.inclusion(n, 0) for n in src.dims}
    return ChainMap(src, T, comps, check=True)


# ---- bicosimplicial objects ----------------------------------------------


class BicosimplicialComplex:
    """Levels (n, m) with two commuting cosimplicial structures.

    d1[(n, m, i)]: level (n-1, m) -> (n, m);  s1[(n, m, j)]: (n+1, m) -> (n, m)
    d2[(n, m, i)]: level (n, m-1) -> (n, m);  s2[(n, m, j)]: (n, m+1) -> (n, m)
    """

    __slots__ = ("field", "p_max", "q_max", "levels", "d1", "d2", "s1", "s2", "_rows")

    def __init__(self, field, p_max, q_max, levels, d1, d2, s1, s2, check=True):
        self.field = field
        self.p_max = p_max
        self.q_max = q_max
        self.levels = levels
        self.d1 = d1
        self.d2 = d2
        self.s1 = s1
        self.s2 = s2
        self._rows = {}
        if check:
            self.validate()

    def level(self, n: int, m: int) -> CochainComplex:
        return self.levels[(n, m)]

    # source level of an arrow (n, m, i) of each family, relative to (n, m)
    _SOURCE_SHIFT = {"d1": (-1, 0), "d2": (0, -1), "s1": (1, 0), "s2": (0, 1)}

    def diagram(self):
        """Levels in `levels` order; arrows (family, n, m, i) for d1, d2, s1, s2."""
        arrows = {}
        for name, (dn, dm) in self._SOURCE_SHIFT.items():
            for (n, m, i), f in getattr(self, name).items():
                arrows[(name, n, m, i)] = ((n + dn, m + dm), (n, m), f)
        return dict(self.levels), arrows

    def rebuild(self, levels, maps):
        fam = {name: {k[1:]: f for k, f in maps.items() if k[0] == name}
               for name in self._SOURCE_SHIFT}
        return BicosimplicialComplex(self.field, self.p_max, self.q_max, levels,
                                     fam["d1"], fam["d2"], fam["s1"], fam["s2"], check=False)

    def row(self, n: int) -> CosimplicialComplex:
        """The cosimplicial complex m ↦ level(n, m), built once, so that its
        simple is cached across callers."""
        if n not in self._rows:
            self._rows[n] = CosimplicialComplex(
                self.field, {m: self.level(n, m) for m in range(self.q_max + 1)},
                {(m, i): self.d2[(n, m, i)]
                 for m in range(1, self.q_max + 1) for i in range(m + 1)},
                {(m, j): self.s2[(n, m, j)] for m in range(self.q_max) for j in range(m + 1)},
                self.q_max, check=False,
            )
        return self._rows[n]

    def row_coface(self, n: int, i: int) -> CosimplicialMap:
        """d_1^i as a morphism row(n-1) -> row(n)."""
        return CosimplicialMap(self.row(n - 1), self.row(n),
                               {m: self.d1[(n, m, i)] for m in range(self.q_max + 1)}, check=False)

    def row_codegeneracy(self, n: int, j: int) -> CosimplicialMap:
        return CosimplicialMap(self.row(n + 1), self.row(n),
                               {m: self.s1[(n, m, j)] for m in range(self.q_max + 1)}, check=False)

    def transpose(self) -> "BicosimplicialComplex":
        return BicosimplicialComplex(
            self.field, self.q_max, self.p_max,
            {(m, n): self.level(n, m) for (n, m) in self.levels},
            {(m, n, i): f for (n, m, i), f in self.d2.items()},
            {(m, n, i): f for (n, m, i), f in self.d1.items()},
            {(m, n, j): f for (n, m, j), f in self.s2.items()},
            {(m, n, j): f for (n, m, j), f in self.s1.items()},
            check=False,
        )

    def diagonal(self) -> CosimplicialComplex:
        """D(Z): levels Z^{p,p} with structure maps applied in both indices."""
        pm = min(self.p_max, self.q_max)
        cofaces = {}
        for p in range(1, pm + 1):
            for i in range(p + 1):
                cofaces[(p, i)] = self.d1[(p, p, i)].compose(self.d2[(p - 1, p, i)])
        codegens = {}
        for p in range(pm):
            for j in range(p + 1):
                codegens[(p, j)] = self.s1[(p, p, j)].compose(self.s2[(p + 1, p, j)])
        return CosimplicialComplex(self.field, {p: self.level(p, p) for p in range(pm + 1)},
                                   cofaces, codegens, pm, check=False)

    def validate(self):
        for n in range(self.p_max + 1):
            self.row(n).validate()
            if n >= 1:
                for i in range(n + 1):
                    self.row_coface(n, i).validate()
            if n < self.p_max:
                for j in range(n + 1):
                    self.row_codegeneracy(n, j).validate()
        # column-direction identities follow by symmetry of the transpose
        tr = self.transpose()
        for m in range(tr.p_max + 1):
            tr.row(m).validate()


class BicosimplicialMap(DiagramMap):
    """Levelwise chain maps commuting with both structures."""

    __slots__ = ()
    error = NotCosimplicial

    def component(self, n, m) -> ChainMap:
        return self.components[(n, m)]

    def row_map(self, n) -> CosimplicialMap:
        return CosimplicialMap(self.source.row(n), self.target.row(n),
                               {m: self.components[(n, m)] for m in range(self.source.q_max + 1)},
                               check=False)

    def transpose(self) -> "BicosimplicialMap":
        return BicosimplicialMap(self.source.transpose(), self.target.transpose(),
                                 {(m, n): f for (n, m), f in self.components.items()}, check=False)


def outer_cosimplicial(Z: BicosimplicialComplex, N: int) -> CosimplicialComplex:
    """n ↦ s(m ↦ Z^{n,m}), the outer object of the iterated simple."""
    levels = {}
    for n in range(Z.p_max + 1):
        levels[n] = simple(Z.row(n), N)
    cofaces = {}
    for n in range(1, Z.p_max + 1):
        for i in range(n + 1):
            cofaces[(n, i)] = simple_map(Z.row_coface(n, i), N)
    codegens = {}
    for n in range(Z.p_max):
        for j in range(n + 1):
            codegens[(n, j)] = simple_map(Z.row_codegeneracy(n, j), N)
    return CosimplicialComplex(Z.field, levels, cofaces, codegens, Z.p_max, check=False)


def iterated_simple(Z: BicosimplicialComplex, N: int) -> TotalComplex:
    """ss(Z) = s(n ↦ s(m ↦ Z^{n,m}))."""
    return simple(outer_cosimplicial(Z, N), N)


def iterated_simple_map(f: BicosimplicialMap, N: int) -> ChainMap:
    outer = CosimplicialMap(outer_cosimplicial(f.source, N), outer_cosimplicial(f.target, N),
                            {n: simple_map(f.row_map(n), N) for n in range(f.source.p_max + 1)},
                            check=False)
    return simple_map(outer, N)


def _aw_component(Z: BicosimplicialComplex, i: int, j: int, k: int) -> Matrix:
    """The composite Z(d1^0 ... d1^0, d2^p ... d2^{j+1}) : Z^{i,j,k} -> Z^{p,p,k}."""
    p = i + j
    m = Matrix.identity(Z.field, Z.level(i, j).dim(k))
    a = i
    while a < p:
        m = Z.d1[(a + 1, j, 0)].component(k) @ m
        a += 1
    b = j
    while b < p:
        m = Z.d2[(p, b + 1, b + 1)].component(k) @ m
        b += 1
    return m


def aw_map(Z: BicosimplicialComplex, N: int) -> ChainMap:
    """Alexander-Whitney comparison ss(Z) -> s(D Z).

    Componentwise on the summand Z^{i,j,k} (outer level i, inner level j,
    internal degree k) it is the composite of j first-index 0-cofaces and
    the second-index cofaces d^{i+j} ... d^{j+1}, landing in Z^{p,p,k} with
    p = i+j.
    """
    lmin = min((lv.lower for lv in Z.levels.values() if not lv.is_zero_complex()), default=None)
    if lmin is not None and (Z.p_max < N - lmin or Z.q_max < N - lmin):
        raise InsufficientLevels(
            f"bicosimplicial bounds ({Z.p_max},{Z.q_max}) cannot reach total degree {N}")
    SS = iterated_simple(Z, N)
    SD = simple(Z.diagonal(), N)
    comps = {}
    for n in set(SS.blocks) | set(SD.blocks):
        rows = SD.blocks.get(n)
        if not rows or not SS.blocks.get(n):
            continue
        # flatten (outer level i, inner total degree t) into (i, j, k)
        cols = Layout(((i, j, k), d) for (i, t) in SS.blocks[n]
                      for (j, k), (_, d) in SS.cosimplicial.level(i).blocks.get(t, {}).items())
        entries = {}
        for (i, j, k) in cols:
            if (i + j, k) in rows:
                m = _aw_component(Z, i, j, k)
                # Koszul twist: the unique sign correction under which the
                # operator formula commutes with the total differentials
                entries[((i + j, k), (i, j, k))] = m if (i * j) % 2 == 0 else m.scale(-1)
        comps[n] = Matrix.assemble(Z.field, rows, cols, entries)
    return ChainMap(SS, SD, comps, check=True)


# ---- path objects and extra degeneracies ---------------------------------


def path_object(A: CochainComplex, p_max: int):
    """The cosimplicial path object A^{Δ[1]} truncated at p_max.

    Level n is the product of n+2 copies of A, indexed by the monotone maps
    [n] -> [1] (copy t has t zeros).  Returns (P, ev0, ev1) where ev0, ev1
    are the evaluations at the two vertices, as maps to the constant object.
    """
    field = A.field
    levels = {}
    for n in range(p_max + 1):
        copies = n + 2
        dims = {q: copies * A.dim(q) for q in A.dims}
        diffs = {}
        for q in list(A.differentials):
            blocks = {(t, t): A.d(q) for t in range(copies)}
            diffs[q] = Matrix.assemble(field, [A.dim(q + 1)] * copies, [A.dim(q)] * copies, blocks)
        levels[n] = CochainComplex(field, dims, diffs, lower=A.lower, check=False)

    def unit_blocks(n_target_copies, n_source_copies, src_of):
        out = {}
        for q, d in A.dims.items():
            ident = Matrix.identity(field, d)
            blocks = {(t, src_of(t)): ident for t in range(n_target_copies)}
            out[q] = Matrix.assemble(field, [d] * n_target_copies, [d] * n_source_copies, blocks)
        return out

    cofaces = {}
    for n in range(1, p_max + 1):
        for i in range(n + 1):
            comps = unit_blocks(n + 2, n + 1, lambda t, i=i: t - (1 if i < t else 0))
            cofaces[(n, i)] = ChainMap(levels[n - 1], levels[n], comps, check=False)
    codegens = {}
    for n in range(p_max):
        for j in range(n + 1):
            comps = unit_blocks(n + 2, n + 3, lambda t, j=j: t + (1 if j < t else 0))
            codegens[(n, j)] = ChainMap(levels[n + 1], levels[n], comps, check=False)
    P = CosimplicialComplex(field, levels, cofaces, codegens, p_max, check=False)
    cA = constant_cosimplicial(A, p_max)

    def evaluation(copy_of_n):
        comps = {}
        for n in range(p_max + 1):
            t = copy_of_n(n)
            sel = {}
            for q, d in A.dims.items():
                blocks = {(0, t): Matrix.identity(field, d)}
                sel[q] = Matrix.assemble(field, [d], [d] * (n + 2), blocks)
            comps[n] = ChainMap(levels[n], A, sel, check=False)
        return CosimplicialMap(P, cA, comps, check=False)

    ev0 = evaluation(lambda n: 0)
    ev1 = evaluation(lambda n: n + 1)
    return P, ev0, ev1


class CollapseCertificate:
    """Outcome of an extra-degeneracy collapse check."""

    __slots__ = ("side", "identities_checked", "report")

    def __init__(self, side, identities_checked, report):
        self.side = side
        self.identities_checked = identities_checked
        self.report = report

    def __bool__(self):
        return bool(self.report)


def coaugmentation_map(eps: ChainMap, X: CosimplicialComplex) -> CosimplicialMap:
    """Extend eps : A -> X(0) with d^0 ε = d^1 ε to a map c(A) -> X."""
    if X.p_max >= 1:
        if X.coface(1, 0).compose(eps) != X.coface(1, 1).compose(eps):
            raise InvariantError("not a coaugmentation: d^0 ε != d^1 ε")
    A = eps.source
    comps = {0: eps}
    for p in range(1, X.p_max + 1):
        comps[p] = X.coface(p, 0).compose(comps[p - 1])
    return CosimplicialMap(constant_cosimplicial(A, X.p_max), X, comps, check=True)


def collapse_by_extra_degeneracy(eps: ChainMap, X: CosimplicialComplex, extra: list,
                                 N: int, side: str = "bottom") -> CollapseCertificate:
    """Certify that s(ε) is a quasi-isomorphism, given an extra degeneracy.

    `extra[n]` maps X(n) -> X(n-1) for n >= 1 and X(0) -> A for n = 0.  For
    side="bottom" the maps play the role of s^{-1}, for side="top" of
    s^{n+1}; the corresponding simplicial identities are verified and the
    first failure raises NotExtraDegeneracy.  A top-side family is checked
    as the bottom-side family of the mirror of X, whose d^i and s^j at
    level p are those of X numbered p - i and p - j; the failure messages
    use the numbering of X.
    """
    A = eps.source
    if side not in ("bottom", "top"):
        raise ValueError("side must be 'bottom' or 'top'")
    n_avail = len(extra) - 1
    if n_avail < 0:
        raise NotExtraDegeneracy("empty extra degeneracy family")
    # index(i, p): the number in X of the map that the checks below call i at level p
    index = (lambda i, p: i) if side == "bottom" else (lambda i, p: p - i)
    e = "s^-1" if side == "bottom" else "s^top"
    Y = X if side == "bottom" else CosimplicialComplex(
        X.field, X.levels, {(p, i): X.coface(p, p - i) for (p, i) in X.cofaces},
        {(p, j): X.codegeneracy(p, p - j) for (p, j) in X.codegeneracies}, X.p_max, check=False)

    checked = 0

    def require(cond: bool, name: str):
        nonlocal checked
        checked += 1
        if not cond:
            raise NotExtraDegeneracy(f"identity {name} fails")

    require(extra[0].compose(eps) == ChainMap.identity(A), "e_0 ∘ ε = id")
    top = min(n_avail, X.p_max)
    for n in range(0, top):
        require(extra[n + 1].compose(Y.coface(n + 1, 0)) == ChainMap.identity(X.level(n)),
                f"{e} d^{index(0, n + 1)} = id at level {n}")
        for i in range(1, n + 2):
            rhs = eps.compose(extra[0]) if (n == 0 and i == 1) else \
                Y.coface(n, i - 1).compose(extra[n])
            require(extra[n + 1].compose(Y.coface(n + 1, i)) == rhs,
                    f"{e} d^{index(i, n + 1)} = d^{index(i - 1, n)} {e} at level {n}")
    for p in range(0, top - 1):
        for j in range(p + 1):
            require(Y.codegeneracy(p, j).compose(extra[p + 2]) ==
                    extra[p + 1].compose(Y.codegeneracy(p + 1, j + 1)),
                    f"s^{index(j, p)} {e} = {e} s^{index(j + 1, p + 1)} at level {p}")
        require(extra[p + 1].compose(extra[p + 2]) ==
                extra[p + 1].compose(Y.codegeneracy(p + 1, 0)),
                f"{e} {e} = {e} s^{index(0, p + 1)} at level {p}")
    coaug = coaugmentation_map(eps, X)
    report = is_quis(simple_map(coaug, N))
    return CollapseCertificate(side, checked, report)


# ---- randomized generators and the axiom audit ---------------------------


def cosimplicial_biproduct(X: CosimplicialComplex, Y: CosimplicialComplex):
    """`direct_sum` of X and Y with its inclusions and projections as
    cosimplicial morphisms: (P, (iX, iY), (pX, pY))."""
    P, incl, proj = direct_sum(X, Y)
    return P, tuple(CosimplicialMap(A, P, i, check=False) for A, i in zip((X, Y), incl)), \
        tuple(CosimplicialMap(P, A, q, check=False) for A, q in zip((X, Y), proj))


def random_cosimplicial(field: Field, rng, p_max: int, max_blocks: int = 2,
                        span: int = 3, max_dim: int = 3, scramble: bool = True) -> CosimplicialComplex:
    """Random cosimplicial complex: a product of constant and path-object
    blocks on random complexes, transported along random level automorphisms."""
    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        A = random_complex(field, rng, span=rng.randint(1, span), max_dim=max_dim)
        if rng.random() < 0.5:
            blocks.append(constant_cosimplicial(A, p_max))
        else:
            blocks.append(path_object(A, p_max)[0])
    X = blocks[0]
    for B in blocks[1:]:
        X = direct_sum(X, B)[0]
    if scramble:
        X = conjugate(X, rng)
    return X


def random_bicosimplicial(field: Field, rng, p_max: int, q_max: int,
                          span: int = 2, max_dim: int = 2, scramble: bool = True) -> BicosimplicialComplex:
    """Random bicosimplicial complex: sums of constant-in-one-direction
    blocks, transported along random level automorphisms."""

    def one_block():
        kind = rng.choice(["cc", "rows", "cols"])
        if kind == "cc":
            A = random_complex(field, rng, span=span, max_dim=max_dim)
            return bicosimplicial_from_rows(constant_cosimplicial(A, q_max), p_max, q_max)
        if kind == "rows":
            X = random_cosimplicial(field, rng, q_max, max_blocks=1, span=span,
                                    max_dim=max_dim, scramble=False)
            return bicosimplicial_from_rows(X, p_max, q_max)
        X = random_cosimplicial(field, rng, p_max, max_blocks=1, span=span,
                                max_dim=max_dim, scramble=False)
        return bicosimplicial_from_rows(X, q_max, p_max).transpose()

    Z = one_block()
    if rng.random() < 0.5:
        Z = direct_sum(Z, one_block())[0]
    if scramble:
        Z = conjugate(Z, rng)
    return Z


def bicosimplicial_from_rows(X: CosimplicialComplex, p_max: int, q_max: int) -> BicosimplicialComplex:
    """The bicosimplicial object Z^{n,m} = X^m (constant in the first index).

    Requires X.p_max >= q_max.
    """
    if X.p_max < q_max:
        raise InsufficientLevels("cosimplicial object too short for requested q_max")
    levels = {(n, m): X.level(m) for n in range(p_max + 1) for m in range(q_max + 1)}
    d1 = {(n, m, i): ChainMap.identity(X.level(m))
          for n in range(1, p_max + 1) for m in range(q_max + 1) for i in range(n + 1)}
    s1 = {(n, m, j): ChainMap.identity(X.level(m))
          for n in range(p_max) for m in range(q_max + 1) for j in range(n + 1)}
    d2 = {(n, m, i): X.coface(m, i)
          for n in range(p_max + 1) for m in range(1, q_max + 1) for i in range(m + 1)}
    s2 = {(n, m, j): X.codegeneracy(m, j)
          for n in range(p_max + 1) for m in range(q_max) for j in range(m + 1)}
    return BicosimplicialComplex(X.field, p_max, q_max, levels, d1, d2, s1, s2, check=False)


def random_levelwise_quis(field: Field, rng, p_max: int, span: int = 2, max_dim: int = 2):
    """(X, Y, f) with f : X -> Y a cosimplicial morphism that is a
    quasi-isomorphism on every level (inclusion into X ⊕ contractible)."""
    X = random_cosimplicial(field, rng, p_max, max_blocks=1, span=span, max_dim=max_dim)
    E = contractible_complex(field, rng, max_dim=max_dim)
    Y, (iX, _), _ = cosimplicial_biproduct(X, constant_cosimplicial(E, p_max))
    return X, Y, iX


def contractible_complex(field: Field, rng, max_dim: int = 2, lower: int = 0) -> CochainComplex:
    """A random two-term complex with an invertible differential."""
    n = rng.randint(1, max_dim)
    deg = lower + rng.randint(0, 1)
    return CochainComplex(field, {deg: n, deg + 1: n},
                          {deg: random_invertible(field, n, rng)}, lower=lower, check=False)


class AxiomTrial:
    __slots__ = ("index", "results", "notes")

    def __init__(self, index):
        self.index = index
        self.results = {}
        self.notes = {}

    @property
    def passed(self):
        return all(self.results.values())


class AxiomAuditReport:
    """Result of a randomized audit of the five descent axioms."""

    __slots__ = ("seed", "trials", "mutant_note")

    def __init__(self, seed):
        self.seed = seed
        self.trials = []
        self.mutant_note = None

    @property
    def all_pass(self):
        return all(t.passed for t in self.trials)


def check_descent_axioms(seed: int, trials: int = 25, N: int = 6,
                         field: Field | None = None, max_dim: int = 3, span: int = 3,
                         mutate: str | None = None) -> AxiomAuditReport:
    """Randomized audit of the five descent axioms for (bounded complexes, quis).

    S1 via biproducts, S2 via the Alexander-Whitney map, S3 via the constant
    inclusion, S4 via total maps of levelwise quasi-isomorphisms, S5 via the
    path-object evaluation.  Every check is performed within certified
    degrees.  Failures are recorded, not raised.
    """
    field = field or GF(5)
    rng = random.Random(seed)
    report = AxiomAuditReport(seed)
    p_max = N  # all generated complexes live in degrees >= 0
    for t in range(trials):
        trial = AxiomTrial(t)
        # S1: the canonical comparison s(X x Y) -> s(X) x s(Y)
        X = random_cosimplicial(field, rng, p_max, max_blocks=1, span=span, max_dim=max_dim)
        Y = random_cosimplicial(field, rng, p_max, max_blocks=1, span=span, max_dim=max_dim)
        P, _, (pX, pY) = cosimplicial_biproduct(X, Y)
        SP = simple(P, N)
        SX, SY = simple(X, N), simple(Y, N)
        SXY, (jx, jy), _ = biproduct(SX, SY)
        canon = jx.compose(simple_map(pX, N)) + jy.compose(simple_map(pY, N))
        canon = ChainMap(SP, SXY, canon.components)
        exact = all(SP.dim(n) == SXY.dim(n) for n in set(SP.dims) | set(SXY.dims))
        trial.results["S1"] = bool(is_quis(canon)) and exact
        # S2: Alexander-Whitney is a chain map and a quis
        Z = random_bicosimplicial(field, rng, N, N, span=min(span, 2), max_dim=min(max_dim, 2))
        try:
            mu = aw_map(Z, N)
            trial.results["S2"] = bool(is_quis(mu))
        except InvariantError as e:
            trial.results["S2"] = False
            trial.notes["S2"] = str(e)
        # S3: the constant inclusion is a quis
        A = random_complex(field, rng, span=span, max_dim=max_dim)
        trial.results["S3"] = bool(is_quis(lambda_map(A, N)))
        # S4: total map of a levelwise quis is a quis
        _, _, f = random_levelwise_quis(field, rng, p_max, span=min(span, 2), max_dim=max_dim)
        trial.results["S4"] = bool(is_quis(simple_map(f, N)))
        # S5: evaluation of the path object is a quis on totals
        B = random_complex(field, rng, span=span, max_dim=max_dim)
        PB, ev0, _ = path_object(B, p_max)
        trial.results["S5"] = bool(is_quis(simple_map(ev0, N)))
        report.trials.append(trial)
    if mutate == "drop_d1_sign":
        X = random_cosimplicial(field, rng, p_max, max_blocks=1, span=span, max_dim=max_dim)
        report.mutant_note = _mutant_sign_note(X, N)
    return report


def _mutant_sign_note(X: CosimplicialComplex, N: int) -> str:
    """Negative control: dropping the (-1)^p sign on the internal
    differential breaks d∘d = 0; report where."""
    lmin = X.lower
    if lmin is None:
        return "zero object: mutant vacuous"
    S = simple(X, N)
    for n in range(lmin, N - 1):
        if not S.blocks.get(n + 2):
            continue
        bad = _total_differential(X, S.blocks, n, False)
        bad2 = _total_differential(X, S.blocks, n + 1, False)
        if not (bad2 @ bad).is_zero():
            return f"sign mutant: d∘d != 0 first fails from degree {n}"
    return "sign mutant: no failure detected (object too degenerate)"
