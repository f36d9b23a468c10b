"""Shared fixtures, the independent row-reduction oracle and slow references.

The oracle is a deliberately naive pure-Python Gaussian elimination kept
separate from the package's elimination kernels; DERIVED expectations in
the tests are computed with it.  `reference_automorphism` is the original
construction of a random automorphism, which the fast one must reproduce.
`reference_transport`, `reference_direct_sum` and `reference_coface_sum`
are the eager constructions that the generated diagrams must reproduce:
every arrow built at once, and each coface sum added up from the cofaces.
`reference_normalization` is the normalized level of a cosimplicial complex
by kernels, which the strict-chain slots of the Godement resolution must span.
`plain_copy` is a labelled sheaf as a plain `Sheaf`, whose sections take the
constraint route that the chain route must reproduce.

The constructions at the end are the ones that several test modules call and
no program does, from matrix builders to H_X(f) and `localeq_verdicts`.
"""

from fractions import Fraction

import pytest

from godex.complexes import BlockComplex, ChainMap, CochainComplex, DiagramMap, biproduct
from godex.cosimplicial import BicosimplicialComplex, CosimplicialComplex, CosimplicialMap
from godex.errors import NotCosimplicial
from godex.exactlin import GF, QQ, Field, Layout, Matrix, Subspace, kernel
from godex.filtered import FilteredDiagram, decalage
from godex.godement import (
    GodementResolution, apply_T, equivalence_check, hypercohomology_sheaf, t_apply_map,
)
from godex.site import Sheaf, SheafMap, skyscraper


@pytest.fixture
def f5():
    return GF(5)


@pytest.fixture
def qq():
    return QQ


def naive_rref(matrix):
    """Row-reduce a godex Matrix with plain Python arithmetic.  Returns the
    reduced row echelon form as a list of rows of canonical field elements,
    and the tuple of pivot columns."""
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
    ncols = matrix.cols
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
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
        pivots.append(c)
    return rows, tuple(pivots)


def naive_rank(matrix) -> int:
    """The number of pivots of `naive_rref`."""
    return len(naive_rref(matrix)[1])


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


def basis_quis_per_degree(f) -> dict:
    """Per-degree verdicts "H^n(f) is an isomorphism" from kernel bases, over
    the degrees and certificate that `is_quis` reads: the betti numbers
    agree and f(Z_s^n) together with the target coboundaries spans Z_t^n.
    Every rank here is a pivot count of the dense `Matrix.rref`."""
    S, T = f.source, f.target

    def rank(M):
        return len(M.rref()[1])

    lo, hi = min(S.lower, T.lower), max(S.upper, T.upper)
    certs = [c for c in (S.certified_degree, T.certified_degree) if c is not None]
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


def preimage(M, W):
    """Reference {v : Mv ∈ W}, by one kernel: the first M.cols coordinates
    of ker [M | -W.basis]."""
    if W.dim == 0:
        return kernel(M)
    K = M.hstack(W.basis.scale(-1)).kernel_matrix()
    return Subspace.spanned_by(M.field, M.cols, K.take_rows(range(M.cols)))


def intersect(V, W):
    """Reference V ∩ W, by one kernel: V.basis times the first V.dim
    coordinates of ker [V.basis | W.basis]."""
    if V.dim == 0 or W.dim == 0:
        return Subspace.zero(V.field, V.ambient_dim)
    K = V.basis.hstack(W.basis).kernel_matrix()
    return Subspace.spanned_by(V.field, V.ambient_dim, V.basis @ K.take_rows(range(V.dim)))


def reference_automorphism(field, n, rng):
    """(g, g^-1) built the slow way: the factors L, U and P as lists of
    `Field.element`s in three `Matrix`es, g = L @ U @ P, and g^-1 by
    elimination (`Matrix.inverse`).  The draws are those of
    `exactlin.random_invertible`: per row i the diagonal of U, then the
    pairs L[i][j], U[j][i] for j < i; then one shuffle."""
    if n == 0:
        return Matrix.identity(field, 0), Matrix.identity(field, 0)
    low = [[field.element(0)] * n for _ in range(n)]
    up = [[field.element(0)] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = field.element(1)
        up[i][i] = field.element(rng.randrange(1, field.p)) if not field.is_rational \
            else Fraction(rng.choice([1, 1, 2, -1]))
        for j in range(i):
            low[i][j] = field.random_element(rng)
            up[j][i] = field.random_element(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        P[i][j] = 1
    g = Matrix(field, n, n, low) @ Matrix(field, n, n, up) @ Matrix(field, n, n, P)
    return g, g.inverse()


def plain_copy(H):
    """H with the same stalks and restrictions, as a plain Sheaf."""
    return Sheaf(H.poset, H.field, H.stalks, H.restrictions, check=False)


def reference_coface_sum(X, p, q):
    """Σ_i (-1)^i d^i : X(p-1)^q -> X(p)^q, one Matrix addition (and a
    negation) per coface."""
    out = Matrix.zeros(X.field, X.level(p).dim(q), X.level(p - 1).dim(q))
    for i in range(p + 1):
        m = X.coface(p, i).component(q)
        out = out + (m if i % 2 == 0 else m.scale(-1))
    return out


def reference_normalization(X, p, q):
    """∩_j ker s^j of level p of the cosimplicial complex X in internal
    degree q, j = 0..p-1: one kernel of the stacked codegeneracies out of
    level p (the whole level for p = 0)."""
    stacked = None
    for j in range(p):
        m = X.codegeneracy(p - 1, j).component(q)
        stacked = m if stacked is None else stacked.vstack(m)
    if stacked is None:
        return Subspace.full(X.field, X.level(p).dim(q))
    return kernel(stacked)


# the structure-map families of each diagram class; every other arrow of
# `diagram()` (the coface sums) is left out of the eager references
_FAMILIES = {CosimplicialComplex: ("d", "s"), BicosimplicialComplex: ("d1", "d2", "s1", "s2")}


def _eager(D, levels, maps):
    """The diagram of D's shape on `levels` with the structure maps `maps`
    (a plain dict), carrying no coface sums."""
    families = _FAMILIES.get(type(D))
    if families is None:
        return D.rebuild(levels, maps)
    fam = [{name[1:]: f for name, f in maps.items() if name[0] == tag} for tag in families]
    if type(D) is CosimplicialComplex:
        return CosimplicialComplex(D.field, levels, *fam, D.p_max, check=False)
    return BicosimplicialComplex(D.field, D.p_max, D.q_max, levels, *fam, check=False)


def _structure_arrows(D):
    """The levels of D and its structure maps, name -> (s, t, f), each read."""
    levels, arrows = D.diagram()
    families = _FAMILIES.get(type(D))
    return levels, {name: arrows[name] for name in arrows
                    if families is None or name[0] in families}


def reference_transport(D, g, ginv):
    """D carried along g (inverses ginv), every level and structure map
    built at once: d becomes g d g^-1 and f : s -> t becomes g_t f g_s^-1."""
    levels, arrows = _structure_arrows(D)
    new = {k: CochainComplex(C.field, dict(C.dims),
                             {q: g[k][q + 1] @ d @ ginv[k][q] for q, d in C.differentials.items()},
                             lower=C.lower, certified_degree=C.certified_degree, check=False)
           for k, C in levels.items()}
    maps = {name: ChainMap(new[s], new[t], {q: g[t][q] @ m @ ginv[s][q]
                                            for q, m in f.components.items()}, check=False)
            for name, (s, t, f) in arrows.items()}
    return _eager(D, new, maps)


def reference_direct_sum(D1, D2):
    """The levelwise direct sum of `biproduct`, every arrow f ⊕ g built at once."""
    levels1, arrows1 = _structure_arrows(D1)
    levels2, arrows2 = _structure_arrows(D2)
    assert levels1.keys() == levels2.keys() and arrows1.keys() == arrows2.keys()
    levels = {k: biproduct(levels1[k], levels2[k])[0] for k in levels1}
    maps = {}
    for name, (s, t, f) in arrows1.items():
        g = arrows2[name][2]
        maps[name] = ChainMap(levels[s], levels[t], {
            q: Matrix.assemble(f.source.field, [f.component(q).rows, g.component(q).rows],
                               [f.component(q).cols, g.component(q).cols],
                               {(0, 0): f.component(q), (1, 1): g.component(q)})
            for q in set(f.components) | set(g.components)}, check=False)
    return _eager(D1, levels, maps)


# ---- constructions that only tests call ---------------------------------------


def from_rows(field: Field, rows_data) -> Matrix:
    rows_data = list(rows_data)
    return Matrix(field, len(rows_data), len(rows_data[0]) if rows_data else 0, rows_data)


def column(field: Field, entries) -> Matrix:
    return Matrix(field, len(entries), 1, [[e] for e in entries])


def block(m: Matrix, row_range, col_range) -> Matrix:
    """Contiguous submatrix rows[a:b], cols[c:d]."""
    a, b = row_range
    c, d = col_range
    return Matrix(m.field, b - a, d - c, m._a[a:b, c:d].copy(), _raw=True)


def random_matrix(field: Field, rows: int, cols: int, rng) -> Matrix:
    return Matrix(field, rows, cols, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)])


def euler_characteristic(C: CochainComplex) -> int:
    return sum((-1) ** n * d for n, d in C.dims.items())


def differential(page, p: int, q: int) -> Matrix:
    """d_r of `page` out of the slot (p, q), zero where the page has none."""
    m = page.differentials.get((p, q))
    if m is None:
        field = page.filtered.base.field
        return Matrix.zeros(field, page.dim(p + page.r, q - page.r + 1), page.dim(p, q))
    return m


def homology_dims(page) -> dict:
    """dim of ker d_r / im d_r per slot; equals the next page's dims."""
    out = {}
    r = page.r
    for (p, q), t in page.terms.items():
        if t.dim == 0:
            continue
        rk_out = differential(page, p, q).rank()
        rk_in = differential(page, p - r, q + r - 1).rank()
        h = t.dim - rk_out - rk_in
        if h:
            out[(p, q)] = h
    return out


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


def decalage_levelwise(XF: FilteredDiagram) -> FilteredDiagram:
    return FilteredDiagram(XF.base, {k: decalage(L) for k, L in XF.levels.items()})


def deligne_reindex(pq) -> tuple:
    """Deligne's shift E_r^{p,q}(Dec F) = E_{r+1}^{2p+q, -p}(F): the slot of F's
    page that a décalage slot (p, q) lands on."""
    p, q = pq
    return (2 * p + q, -p)


def skyscraper_unit(F: Sheaf, x) -> SheafMap:
    """The adjunction unit F -> skyscraper(x, F_x): restriction into the
    stalk where defined, identity at x itself."""
    sky = skyscraper(F.poset, x, F.stalk(x))
    unit = SheafMap.from_blocks(
        F, sky, lambda y, n: F.restriction_in(y, x, n) if F.poset.leq(y, x) else None)
    unit.validate()
    return unit


def strict_into_weak(F: Sheaf, strict_repl: BlockComplex, weak_repl: BlockComplex) -> ChainMap:
    """The inclusion of the strict-chain subcomplex into the weak one."""
    field = F.field
    comps = {}
    for n in strict_repl.dims:
        if weak_repl.dim(n) == 0:
            continue
        rows = weak_repl.blocks[n]
        cols = strict_repl.blocks[n]
        comps[n] = Matrix.assemble(field, rows, cols, {(c, c): Matrix.identity(field, d)
                                                       for c, (_, d) in cols.items() if c in rows})
    return ChainMap(strict_repl, weak_repl, comps, check=True)


def t_chain_layout(res: GodementResolution, p: int, x, n: int) -> Layout:
    """Flattened layout of level p of `res` at x in degree n: the chain
    (y_0, ..., y_p) of the nested blocks -> (offset, dim), nonzero only.
    Level -1 is F itself, with the one chain ()."""
    if p < 0:
        return Layout([((), res.sheaf.stalk(x).dim(n))])
    return Layout(((y,) + c, d) for y in res.level(p).stalk(x).blocks.get(n, ())
                  for c, (_, d) in t_chain_layout(res, p - 1, y, n).items() if d)


def skyscraper_counit(res: GodementResolution, y0) -> SheafMap:
    """For F a skyscraper-type sheaf concentrated under y0: the retraction
    T(F) -> F projecting onto the block indexed by y0."""
    F, TF = res.sheaf, res.level(0)
    under = F.poset.down_set(y0)
    counit = SheafMap.from_blocks(TF, F, lambda x, n: TF.stalk(x).blocks[n].projection(
        F.field, [y0]) if x in under else None)
    counit.validate()
    return counit


def hypercohomology_map(f: SheafMap, N: int):
    """H_X(f) : H_X(F) -> H_X(G): T^p(f) at y on each slot (p, q, y)."""
    hyper_src = hypercohomology_sheaf(f.source, N)
    hyper_tgt = hypercohomology_sheaf(f.target, N)
    rs, rt = hyper_src.resolution, hyper_tgt.resolution
    powers = [f]  # powers[p] = T^p(f) : T^p F -> T^p G, level p - 1 for p >= 1
    for p in range(min(rs.p_max, rt.p_max)):
        powers.append(t_apply_map(powers[-1], rs.level(p), rt.level(p)))

    def block(x, n):
        rows, cols = hyper_tgt.H.labels(x, n), hyper_src.H.labels(x, n)
        return Matrix.assemble(f.source.field, rows, cols,
                               {((p, q, y),) * 2: powers[p].component(y).component(q)
                                for p, q, y in cols if (p, q, y) in rows})
    return SheafMap.from_blocks(hyper_src.H, hyper_tgt.H, block), hyper_src, hyper_tgt


def localeq_verdicts(f: SheafMap, N: int) -> dict:
    """The three equivalent predicates: f local equivalence, T(f) global,
    H_X(f) global.  Returns their verdicts; they must agree pairwise."""
    local = equivalence_check(f, "local")
    TF = apply_T(f.source)
    TG = apply_T(f.target)
    tf = t_apply_map(f, TF, TG)
    t_global = equivalence_check(tf, "global")
    hf, _, _ = hypercohomology_map(f, N)
    h_global = equivalence_check(hf, "global")
    return {"local": local.verdict, "T_global": t_global.verdict,
            "H_global": h_global.verdict}
