"""Cosimplicial and bicosimplicial objects in complexes; the simple functor.

The simple (total-complex) functor follows the convention

    s(X)^n = ⊕_{p+q=n} X(p)^q ,

with differential assembled from the alternating coface sum into level p+1
and the internal differential signed by (-1)^p.  `simple` reads the coface
sums that a cosimplicial complex carries (`CosimplicialComplex.coface_sums`)
and no coface on its own: transport carries g_p Σ g_{p-1}^-1 from its
source, a direct sum Σ_1 ⊕ Σ_2 from its summands, a Godement stalk the sum
δ_p its resolution builds without the cofaces, and any other complex sums
its cofaces on first read.  `coface_sum_mismatches` is the one comparison
of a carried sum with the cofaces.  Cosimplicial objects are
truncated at a level p_max; the simple functor at bound N then certifies
cohomology only in degrees <= N-1 (one guard degree), and all
quasi-isomorphism claims are asserted within certified degrees only.

A total is a `BlockComplex` on its summands (p, q), with no pointer to what
it totals; every map between totals is assembled on those labels.  The
randomized generators build their objects with `complexes.direct_sum` and
scramble them with `complexes.conjugate`; every structure map of what they return, and every structure map that `row`,
`transpose`, `diagonal`, `outer_cosimplicial` and `path_object` derive, is
built on its first read (`complexes.LazyMap`), so the simple functor builds
no codegeneracy.
"""

from __future__ import annotations

import random
from functools import partial
from operator import itemgetter

from .complexes import (
    BlockComplex, ChainMap, CochainComplex, DiagramMap, LazyMap, biproduct, biproduct_maps,
    conjugate, direct_sum, is_quis, random_complex, truncate,
)
from .errors import InsufficientLevels, InvariantError, NotCosimplicial, NotExtraDegeneracy
from .exactlin import Field, GF, Layout, Matrix, alternating_sum, random_invertible


def _faces(p_max: int) -> list:
    """The coface indices (p, i) of levels 0..p_max: 1 <= p <= p_max, 0 <= i <= p."""
    return [(p, i) for p in range(1, p_max + 1) for i in range(p + 1)]


def _degeneracies(p_max: int) -> list:
    """The codegeneracy indices (p, j) of levels 0..p_max: 0 <= p < p_max, 0 <= j <= p."""
    return [(p, j) for p in range(p_max) for j in range(p + 1)]


def _view(family, keys: dict) -> LazyMap:
    """new key -> family[old key] for keys = {new key: old key}, each read
    from `family` on its first read."""
    return LazyMap(keys, lambda k: family[keys[k]])


def _family(maps, tag, key=itemgetter(slice(1, None))) -> LazyMap:
    """The arrows of `maps` named (tag, ...), keyed by key(name), each read
    from `maps` on its first read."""
    return _view(maps, {key(name): name for name in maps if name[0] == tag})


def _arrow(entries: dict, name):
    s, t, family, key = entries[name]
    return s, t, family[key]


def _arrows(entries: dict) -> LazyMap:
    """The arrows of a diagram, name -> (source key, target key, map), for
    entries name -> (source key, target key, family, key); each map is read
    from its family on the first read of its arrow."""
    return LazyMap(entries, partial(_arrow, entries))


def _alternating_map(source: CochainComplex, target: CochainComplex, faces: list) -> ChainMap:
    """Σ_i (-1)^i faces[i] : source -> target, one accumulation per degree."""
    return ChainMap(source, target,
                    {q: alternating_sum(source.field, target.dim(q), source.dim(q),
                                        (f.component(q) for f in faces))
                     for q in source.dims if target.dim(q)}, check=False)


class CosimplicialComplex:
    """Levels 0..p_max of complexes with coface and codegeneracy chain maps.

    cofaces[(p, i)]       : level p-1 -> level p   (1 <= p <= p_max, 0 <= i <= p)
    codegeneracies[(p, j)]: level p+1 -> level p   (0 <= p <= p_max-1, 0 <= j <= p)
    coface_sums[p]        : level p-1 -> level p   (1 <= p <= p_max), Σ_i (-1)^i d^i

    The structure maps may be held in any mapping, such as a `LazyMap` that
    builds each on first read.  The coface sums are what the simple functor
    reads: a caller that has them cheaper than the cofaces passes them
    (transport and direct sums carry them from their sources), and by
    default each is the alternating sum of the cofaces, built on first read.
    """

    __slots__ = ("field", "p_max", "levels", "cofaces", "codegeneracies", "coface_sums",
                 "_simple_cache")

    def __init__(self, field: Field, levels: dict, cofaces, codegeneracies, p_max: int,
                 check: bool = True, coface_sums=None):
        self.field = field
        self.p_max = p_max
        self.levels = levels
        self.cofaces = cofaces
        self.codegeneracies = codegeneracies
        if coface_sums is None:
            coface_sums = LazyMap(range(1, p_max + 1), lambda p: _alternating_map(
                levels[p - 1], levels[p], [cofaces[(p, i)] for i in range(p + 1)]))
        self.coface_sums = coface_sums
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

    def coface_sum(self, p: int, q: int) -> Matrix:
        """Σ_i (-1)^i d^i : X(p-1)^q -> X(p)^q, as carried in `coface_sums`."""
        return self.coface_sums[p].component(q)

    def diagram(self):
        """Levels 0..p_max; cofaces ("d", p, i), codegeneracies ("s", p, j) and
        coface sums ("sum", p), each read on the first read of its arrow."""
        entries = {("d",) + k: (k[0] - 1, k[0], self.cofaces, k) for k in self.cofaces}
        entries.update({("s",) + k: (k[0] + 1, k[0], self.codegeneracies, k)
                        for k in self.codegeneracies})
        entries.update({("sum", p): (p - 1, p, self.coface_sums, p) for p in self.coface_sums})
        return {p: self.levels[p] for p in range(self.p_max + 1)}, _arrows(entries)

    def rebuild(self, levels, maps):
        return CosimplicialComplex(self.field, levels, _family(maps, "d"), _family(maps, "s"),
                                   self.p_max, check=False,
                                   coface_sums=_family(maps, "sum", itemgetter(1)))

    @property
    def lower(self) -> int | None:
        """Smallest internal degree carrying a nonzero space, None if zero."""
        lows = [lv.lower for lv in self.levels.values() if not lv.is_zero_complex()]
        return min(lows) if lows else None

    def validate(self):
        """Sources and targets, every coface sum the alternating sum of the
        cofaces, and every cosimplicial identity."""
        for p, i in _faces(self.p_max):
            f = self.coface(p, i)
            if f.source is not self.level(p - 1) and f.source != self.level(p - 1):
                raise InvariantError(f"coface ({p},{i}) has wrong source")
        if set(self.coface_sums) != set(range(1, self.p_max + 1)):
            raise InvariantError("coface sums must be indexed 1..p_max")
        for p, q in self.coface_sum_mismatches():
            raise InvariantError(f"coface sum {p} in degree {q} is not the "
                                 "alternating sum of the cofaces")
        for p, j in _degeneracies(self.p_max):
            f = self.codegeneracy(p, j)
            if f.source != self.level(p + 1) or f.target != self.level(p):
                raise InvariantError(f"codegeneracy ({p},{j}) has wrong shape")
        for name, lhs, rhs in self._identity_pairs():
            if lhs != rhs:
                raise InvariantError(f"cosimplicial identity {name} fails")

    def coface_sum_mismatches(self):
        """The (p, q) where the carried coface sum into level p differs in
        internal degree q from the alternating sum of the cofaces; lazily,
        reading no codegeneracy."""
        for p in range(1, self.p_max + 1):
            for q in self.level(p - 1).dims:
                if self.coface_sum(p, q) != alternating_coface_sum(self, p, q):
                    yield p, q

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
    """c(A): every level A, every structure map the identity, so the coface
    sum into level p is the identity for p even and zero for p odd."""
    ident = ChainMap.identity(A)
    zero = ChainMap.zero(A, A)
    return CosimplicialComplex(
        A.field, {p: A for p in range(p_max + 1)},
        dict.fromkeys(_faces(p_max), ident), dict.fromkeys(_degeneracies(p_max), ident),
        p_max, check=False,
        coface_sums={p: zero if p % 2 else ident for p in range(1, p_max + 1)},
    )


# ---- the simple functor --------------------------------------------------


def alternating_coface_sum(X: CosimplicialComplex, p: int, q: int) -> Matrix:
    """sum_i (-1)^i d^i : X(p-1)^q -> X(p)^q, summed from the cofaces of X
    (which `validate` compares with the sum that X carries)."""
    return alternating_sum(X.field, X.level(p).dim(q), X.level(p - 1).dim(q),
                           (X.coface(p, i).component(q) for i in range(p + 1)))


def _total_differential(X: CosimplicialComplex, blocks: dict, n: int, signed: bool) -> Matrix:
    """d^n of the total complex of X on the layouts `blocks`: the coface sum
    into level p+1 that X carries plus the internal differential, signed by
    (-1)^p if `signed`."""
    rows, cols = blocks[n + 1], blocks[n]
    entries = {}
    for (p, q) in cols:
        if (p + 1, q) in rows:
            entries[((p + 1, q), (p, q))] = X.coface_sum(p + 1, q)
        if (p, q + 1) in rows:
            m = X.level(p).d(q)
            entries[((p, q + 1), (p, q))] = m.scale(-1) if signed and p % 2 else m
    return Matrix.assemble(X.field, rows, cols, entries)


def simple(X: CosimplicialComplex, N: int) -> BlockComplex:
    """Total complex of X in degrees <= N; certified through degree N-1.

    blocks[n] is the `Layout` of degree n, label (level p, internal degree
    q) -> (offset, dim), nonzero summands only, in increasing p.  It reads
    the coface sums that X carries (`CosimplicialComplex.coface_sums`:
    carried through transport, direct sums and the Godement stalks, else
    summed from the cofaces on first read) and no coface or codegeneracy on
    its own."""
    cached = X._simple_cache.get(N)
    if cached is not None:
        return cached
    lmin = X.lower
    if lmin is None:
        # a zero total keeps the levels' lower bound, which the stalks of a
        # sheaf of totals must share
        lower = min(lv.lower for lv in X.levels.values())
        out = BlockComplex(X.field, {}, {}, lower=lower, certified_degree=N - 1, check=False)
    else:
        if X.p_max < N - lmin:
            raise InsufficientLevels(
                f"p_max={X.p_max} cannot reach total degree {N} with lower bound {lmin}")
        blocks = {n: Layout(((p, n - p), X.level(p).dim(n - p)) for p in range(n - lmin + 1)
                            if X.level(p).dim(n - p))
                  for n in range(lmin, N + 1)}
        diffs = {n: _total_differential(X, blocks, n, True)
                 for n in range(lmin, N) if blocks[n] and blocks[n + 1]}
        cert = N - 1
        for p, lv in X.levels.items():
            if lv.certified_degree is not None:
                cert = min(cert, lv.certified_degree + p)
        out = BlockComplex(X.field, blocks, diffs, lower=lmin, certified_degree=cert, check=True)
    X._simple_cache[N] = out
    return out


def simple_map(f: CosimplicialMap, N: int) -> ChainMap:
    """Block-diagonal total map s(f) : s(X) -> s(Y): f_p in degree q from
    each summand (p, q) of s(X) to the same summand of s(Y)."""
    S, T = simple(f.source, N), simple(f.target, N)
    comps = {n: Matrix.assemble(S.field, rows, S.blocks[n], {
        (pq, pq): f.component(pq[0]).component(pq[1]) for pq in S.blocks[n] if pq in rows})
        for n, rows in T.blocks.items() if rows and S.blocks.get(n)}
    return ChainMap(S, T, comps, check=True)


def lambda_map(A: CochainComplex, N: int) -> ChainMap:
    """Canonical inclusion of A into the total complex of the constant
    cosimplicial object on A, as the level-0 summand."""
    src = truncate(A, N)
    lmin = A.lower if not A.is_zero_complex() else 0
    X = constant_cosimplicial(A, max(N - lmin, 0))
    T = simple(X, N)
    comps = {n: T.blocks[n].inclusion(A.field, [(0, n)]) for n in src.dims}
    return ChainMap(src, T, comps, check=True)


# ---- bicosimplicial objects ----------------------------------------------


class BicosimplicialComplex:
    """Levels (n, m) with two commuting cosimplicial structures.

    d1[(n, m, i)]: level (n-1, m) -> (n, m);  s1[(n, m, j)]: (n+1, m) -> (n, m)
    d2[(n, m, i)]: level (n, m-1) -> (n, m);  s2[(n, m, j)]: (n, m+1) -> (n, m)
    sum1[(n, m)] : level (n-1, m) -> (n, m), Σ_i (-1)^i d1[(n, m, i)]
    sum2[(n, m)] : level (n, m-1) -> (n, m), Σ_i (-1)^i d2[(n, m, i)]

    As in `CosimplicialComplex`, the maps may be held in any mapping.  sum2
    gives the coface sums of the rows and sum1 those of the outer object of
    the iterated simple; by default each is the alternating sum of the
    cofaces, built on first read.
    """

    __slots__ = ("field", "p_max", "q_max", "levels", "d1", "d2", "s1", "s2", "sum1", "sum2",
                 "_rows")

    def __init__(self, field, p_max, q_max, levels, d1, d2, s1, s2, check=True,
                 sum1=None, sum2=None):
        self.field = field
        self.p_max = p_max
        self.q_max = q_max
        self.levels = levels
        self.d1 = d1
        self.d2 = d2
        self.s1 = s1
        self.s2 = s2
        if sum1 is None:
            sum1 = LazyMap(((n, m) for n in range(1, p_max + 1) for m in range(q_max + 1)),
                           lambda k: _alternating_map(levels[(k[0] - 1, k[1])], levels[k],
                                                      [d1[k + (i,)] for i in range(k[0] + 1)]))
        if sum2 is None:
            sum2 = LazyMap(((n, m) for n in range(p_max + 1) for m in range(1, q_max + 1)),
                           lambda k: _alternating_map(levels[(k[0], k[1] - 1)], levels[k],
                                                      [d2[k + (i,)] for i in range(k[1] + 1)]))
        self.sum1 = sum1
        self.sum2 = sum2
        self._rows = {}
        if check:
            self.validate()

    def level(self, n: int, m: int) -> CochainComplex:
        return self.levels[(n, m)]

    # source level of an arrow (n, m, ...) of each family, relative to (n, m)
    _SOURCE_SHIFT = {"d1": (-1, 0), "d2": (0, -1), "s1": (1, 0), "s2": (0, 1),
                     "sum1": (-1, 0), "sum2": (0, -1)}

    def diagram(self):
        """Levels in `levels` order; arrows (family, n, m, i) for d1, d2, s1,
        s2 and (family, n, m) for sum1, sum2, each read on the first read of
        its arrow."""
        entries = {}
        for name, (dn, dm) in self._SOURCE_SHIFT.items():
            family = getattr(self, name)
            for key in family:
                n, m = key[:2]
                entries[(name,) + key] = ((n + dn, m + dm), (n, m), family, key)
        return dict(self.levels), _arrows(entries)

    def rebuild(self, levels, maps):
        fam = {name: _family(maps, name) for name in self._SOURCE_SHIFT}
        return BicosimplicialComplex(self.field, self.p_max, self.q_max, levels,
                                     fam["d1"], fam["d2"], fam["s1"], fam["s2"], check=False,
                                     sum1=fam["sum1"], sum2=fam["sum2"])

    def row(self, n: int) -> CosimplicialComplex:
        """The cosimplicial complex m ↦ level(n, m), built once, so that its
        simple is cached across callers; its structure maps are read from
        d2 and s2 on first read."""
        if n not in self._rows:
            self._rows[n] = CosimplicialComplex(
                self.field, {m: self.level(n, m) for m in range(self.q_max + 1)},
                _view(self.d2, {k: (n,) + k for k in _faces(self.q_max)}),
                _view(self.s2, {k: (n,) + k for k in _degeneracies(self.q_max)}),
                self.q_max, check=False,
                coface_sums=_view(self.sum2, {m: (n, m) for m in range(1, self.q_max + 1)}),
            )
        return self._rows[n]

    def row_coface(self, n: int, i: int) -> CosimplicialMap:
        """d_1^i as a morphism row(n-1) -> row(n)."""
        return CosimplicialMap(self.row(n - 1), self.row(n),
                               _view(self.d1, {m: (n, m, i) for m in range(self.q_max + 1)}),
                               check=False)

    def row_coface_sum(self, n: int) -> CosimplicialMap:
        """Σ_i (-1)^i d_1^i as a morphism row(n-1) -> row(n), from sum1."""
        return CosimplicialMap(self.row(n - 1), self.row(n),
                               _view(self.sum1, {m: (n, m) for m in range(self.q_max + 1)}),
                               check=False)

    def row_codegeneracy(self, n: int, j: int) -> CosimplicialMap:
        return CosimplicialMap(self.row(n + 1), self.row(n),
                               _view(self.s1, {m: (n, m, j) for m in range(self.q_max + 1)}),
                               check=False)

    def transpose(self) -> "BicosimplicialComplex":
        def swapped(family):
            return _view(family, {(k[1], k[0]) + k[2:]: k for k in family})
        return BicosimplicialComplex(
            self.field, self.q_max, self.p_max,
            {(m, n): self.level(n, m) for (n, m) in self.levels},
            swapped(self.d2), swapped(self.d1), swapped(self.s2), swapped(self.s1),
            check=False, sum1=swapped(self.sum2), sum2=swapped(self.sum1),
        )

    def diagonal(self) -> CosimplicialComplex:
        """D(Z): levels Z^{p,p} with structure maps applied in both indices,
        each composed on its first read."""
        pm = min(self.p_max, self.q_max)
        d1, d2, s1, s2 = self.d1, self.d2, self.s1, self.s2
        cofaces = LazyMap(_faces(pm), lambda k: d1[(k[0],) + k].compose(d2[(k[0] - 1,) + k]))
        codegens = LazyMap(_degeneracies(pm),
                           lambda k: s1[(k[0],) + k].compose(s2[(k[0] + 1,) + k]))
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


def outer_cosimplicial(Z: BicosimplicialComplex, N: int) -> CosimplicialComplex:
    """n ↦ s(m ↦ Z^{n,m}), the outer object of the iterated simple; its
    levels are built at once, each structure map on its first read, and its
    coface sums are the totals of the coface sums of Z in the first index
    (`simple_map` is linear)."""
    levels = {n: simple(Z.row(n), N) for n in range(Z.p_max + 1)}
    cofaces = LazyMap(_faces(Z.p_max), lambda k: simple_map(Z.row_coface(*k), N))
    codegens = LazyMap(_degeneracies(Z.p_max), lambda k: simple_map(Z.row_codegeneracy(*k), N))
    sums = LazyMap(range(1, Z.p_max + 1), lambda n: simple_map(Z.row_coface_sum(n), N))
    return CosimplicialComplex(Z.field, levels, cofaces, codegens, Z.p_max, check=False,
                               coface_sums=sums)


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
    """Alexander-Whitney comparison ss(Z) = s(`outer_cosimplicial`) -> s(D Z).

    Componentwise on the summand Z^{i,j,k} (outer level i, inner level j,
    internal degree k) it is the composite of j first-index 0-cofaces and
    the second-index cofaces d^{i+j} ... d^{j+1}, landing in Z^{p,p,k} with
    p = i+j.
    """
    lmin = min((lv.lower for lv in Z.levels.values() if not lv.is_zero_complex()), default=None)
    if lmin is not None and (Z.p_max < N - lmin or Z.q_max < N - lmin):
        raise InsufficientLevels(
            f"bicosimplicial bounds ({Z.p_max},{Z.q_max}) cannot reach total degree {N}")
    outer = outer_cosimplicial(Z, N)
    SS, SD = simple(outer, N), simple(Z.diagonal(), N)
    comps = {}
    for n in set(SS.blocks) | set(SD.blocks):
        rows = SD.blocks.get(n)
        if not rows or not SS.blocks.get(n):
            continue
        # flatten (outer level i, inner total degree t) into (i, j, k)
        cols = Layout(((i, j, k), d) for (i, t) in SS.blocks[n]
                      for (j, k), (_, d) in outer.level(i).blocks.get(t, {}).items())
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
    The levels are built at once; every structure map of P and every
    component of ev0 and ev1 is assembled on its first read.
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

    def coface_sum(n):
        # d^i sends copy t - 1 to copy t for i < t and copy t to copy t for
        # i >= t, so the sum puts Σ_{i<t} (-1)^i on (t, t - 1) and
        # Σ_{t<=i<=n} (-1)^i on (t, t)
        comps = {}
        for q, d in A.dims.items():
            ident = Matrix.identity(field, d)
            blocks = {(t, t - 1): ident for t in range(1, n + 2, 2)}
            blocks.update({(t, t): ident.scale((-1) ** t) for t in range(n % 2, n + 1, 2)})
            comps[q] = Matrix.assemble(field, [d] * (n + 2), [d] * (n + 1), blocks)
        return ChainMap(levels[n - 1], levels[n], comps, check=False)

    def coface(key):
        n, i = key
        return ChainMap(levels[n - 1], levels[n],
                        unit_blocks(n + 2, n + 1, lambda t: t - (1 if i < t else 0)), check=False)

    def codegeneracy(key):
        n, j = key
        return ChainMap(levels[n + 1], levels[n],
                        unit_blocks(n + 2, n + 3, lambda t: t + (1 if j < t else 0)), check=False)

    P = CosimplicialComplex(
        field, levels,
        LazyMap(_faces(p_max), coface), LazyMap(_degeneracies(p_max), codegeneracy),
        p_max, check=False, coface_sums=LazyMap(range(1, p_max + 1), coface_sum))
    cA = constant_cosimplicial(A, p_max)

    def evaluation(copy_of_n):
        def component(n):
            t = copy_of_n(n)
            sel = {q: Matrix.assemble(field, [d], [d] * (n + 2),
                                      {(0, t): Matrix.identity(field, d)})
                   for q, d in A.dims.items()}
            return ChainMap(levels[n], A, sel, check=False)
        return CosimplicialMap(P, cA, LazyMap(range(p_max + 1), component), check=False)

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
    cosimplicial morphisms, levelwise those of `biproduct_maps`:
    (P, (iX, iY), (pX, pY))."""
    P = direct_sum(X, Y)
    iX, iY, pX, pY = {}, {}, {}, {}
    for p in P.levels:
        (iX[p], iY[p]), (pX[p], pY[p]) = biproduct_maps(X.level(p), Y.level(p), P.level(p))
    return P, (CosimplicialMap(X, P, iX, check=False), CosimplicialMap(Y, P, iY, check=False)), \
        (CosimplicialMap(P, X, pX, check=False), CosimplicialMap(P, Y, pY, check=False))


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
        X = direct_sum(X, B)
    if scramble:
        X = conjugate(X, rng)
    return X


def random_bicosimplicial(field: Field, rng, p_max: int, q_max: int,
                          span: int = 2, max_dim: int = 2) -> BicosimplicialComplex:
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
        Z = direct_sum(Z, one_block())
    return conjugate(Z, rng)


def bicosimplicial_from_rows(X: CosimplicialComplex, p_max: int, q_max: int) -> BicosimplicialComplex:
    """The bicosimplicial object Z^{n,m} = X^m (constant in the first index).

    Requires X.p_max >= q_max.
    """
    if X.p_max < q_max:
        raise InsufficientLevels("cosimplicial object too short for requested q_max")
    levels = {(n, m): X.level(m) for n in range(p_max + 1) for m in range(q_max + 1)}
    ident = {m: ChainMap.identity(X.level(m)) for m in range(q_max + 1)}
    zero = {m: ChainMap.zero(X.level(m), X.level(m)) for m in range(q_max + 1)}
    d1 = {(n, m, i): ident[m]
          for n in range(1, p_max + 1) for m in range(q_max + 1) for i in range(n + 1)}
    s1 = {(n, m, j): ident[m] for n in range(p_max) for m in range(q_max + 1) for j in range(n + 1)}
    sum1 = {(n, m): zero[m] if n % 2 else ident[m]
            for n in range(1, p_max + 1) for m in range(q_max + 1)}
    d2 = _view(X.cofaces, {(n,) + k: k for n in range(p_max + 1) for k in _faces(q_max)})
    s2 = _view(X.codegeneracies, {(n,) + k: k for n in range(p_max + 1)
                                  for k in _degeneracies(q_max)})
    sum2 = _view(X.coface_sums, {(n, m): m for n in range(p_max + 1) for m in range(1, q_max + 1)})
    return BicosimplicialComplex(X.field, p_max, q_max, levels, d1, d2, s1, s2, check=False,
                                 sum1=sum1, sum2=sum2)


def random_levelwise_quis(field: Field, rng, p_max: int, span: int = 2, max_dim: int = 2):
    """(X, Y, f) with f : X -> Y a cosimplicial morphism that is a
    quasi-isomorphism on every level (inclusion into X ⊕ contractible)."""
    X = random_cosimplicial(field, rng, p_max, max_blocks=1, span=span, max_dim=max_dim)
    E = contractible_complex(field, rng, max_dim=max_dim)
    Y, (iX, _), _ = cosimplicial_biproduct(X, constant_cosimplicial(E, p_max))
    return X, Y, iX


def contractible_complex(field: Field, rng, max_dim: int = 2) -> CochainComplex:
    """A random two-term complex in degrees 0, 1 or 1, 2, d invertible."""
    n = rng.randint(1, max_dim)
    deg = rng.randint(0, 1)
    return CochainComplex(field, {deg: n, deg + 1: n},
                          {deg: random_invertible(field, n, rng)}, lower=0, check=False)


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


def check_descent_axioms(seed: int, trials: int = 25, N: int = 6, max_dim: int = 3,
                         span: int = 3, mutate: str | None = None) -> AxiomAuditReport:
    """Randomized audit over F_5 of the five descent axioms for (bounded complexes, quis).

    S1 via biproducts, S2 via the Alexander-Whitney map, S3 via the constant
    inclusion, S4 via total maps of levelwise quasi-isomorphisms, S5 via the
    path-object evaluation.  Every check is performed within certified
    degrees.  Failures are recorded, not raised.  The sign mutant needs
    N >= 3, as d∘d spans three degrees: InsufficientLevels before any work.
    """
    if mutate and N < 3:
        raise InsufficientLevels(f"the sign mutant needs a bound of at least 3, got {N}")
    field = GF(5)
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
        if "fails" not in report.mutant_note:  # vacuous: add a summand where the sign shows
            X = direct_sum(X, path_object(contractible_complex(field, rng, max_dim), p_max)[0])
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
