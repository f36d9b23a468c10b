"""Filtered complexes, spectral sequences, the filtered simple functor and
the décalage shift.

Filtrations are decreasing subspace flags, stored per (filtration index,
degree) and saturated outside [k_min, k_max]: F^k = everything for
k <= k_min, zero for k > k_max.  The E_r terms use the standard
cycle-quotient convention

    Z_r^{p,q} = F^p A^{p+q} ∩ d^{-1}(F^{p+r} A^{p+q+1})
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

under which E_0 is the associated graded and an E_0-isomorphism is the same
thing as a graded quasi-isomorphism.
"""

from __future__ import annotations

import random

from .complexes import ChainMap, CochainComplex, random_complex, transport
from .cosimplicial import (
    AxiomAuditReport, AxiomTrial, CosimplicialComplex, aw_map, bicosimplicial_from_rows,
    constant_cosimplicial, contractible_complex, cosimplicial_biproduct, lambda_map,
    outer_cosimplicial, path_object, simple, simple_map,
)
from .errors import InvariantError, NotFiltered
from .exactlin import GF, Layout, Matrix, Subspace, preimage, random_invertible, subquotient


class FilteredComplex:
    """A complex with a decreasing, exhaustive, bounded, d-compatible flag."""

    __slots__ = ("base", "k_min", "k_max", "_subspaces")

    def __init__(self, base: CochainComplex, subspaces: dict, k_min: int, k_max: int,
                 check: bool = True):
        self.base = base
        self.k_min = k_min
        self.k_max = k_max
        self._subspaces = {}
        for (k, n), S in subspaces.items():
            if k_min < k <= k_max:
                self._subspaces[(k, n)] = S
        if check:
            self.validate()

    @staticmethod
    def from_bases(base: CochainComplex, bases: dict, k_min: int, k_max: int,
                   check: bool = True) -> "FilteredComplex":
        subs = {}
        for (k, n), m in bases.items():
            subs[(k, n)] = Subspace.spanned_by(base.field, base.dim(n), m)
        return FilteredComplex(base, subs, k_min, k_max, check=check)

    @staticmethod
    def trivial(base: CochainComplex, jump: int = 0) -> "FilteredComplex":
        """One jump: F^k = everything for k <= jump, zero above."""
        return FilteredComplex(base, {}, jump, jump, check=False)

    def filtration(self, k: int, n: int) -> Subspace:
        if k <= self.k_min:
            return Subspace.full(self.base.field, self.base.dim(n))
        if k > self.k_max:
            return Subspace.zero(self.base.field, self.base.dim(n))
        S = self._subspaces.get((k, n))
        if S is None:
            return Subspace.zero(self.base.field, self.base.dim(n))
        return S

    def validate(self):
        base = self.base
        for n in base.degrees():
            prev = Subspace.full(base.field, base.dim(n))
            for k in range(self.k_min + 1, self.k_max + 2):
                cur = self.filtration(k, n)
                if not prev.contains(cur):
                    raise InvariantError(f"filtration not decreasing at (k={k}, n={n})")
                prev = cur
            for k in range(self.k_min, self.k_max + 1):
                S = self.filtration(k, n)
                if S.dim == 0:
                    continue
                img = base.d(n) @ S.basis
                if not self.filtration(k, n + 1).contains_matrix(img):
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
    """E_r with its differentials d_r : (p,q) -> (p+r, q-r+1)."""

    __slots__ = ("r", "terms", "differentials", "filtered")

    def __init__(self, r, terms, differentials, filtered):
        self.r = r
        self.terms = terms
        self.differentials = differentials
        self.filtered = filtered

    def dim(self, p: int, q: int) -> int:
        t = self.terms.get((p, q))
        return t.dim if t else 0

    def dims(self) -> dict:
        return {pq: t.dim for pq, t in self.terms.items() if t.dim}

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


def _cycle_space(FC: FilteredComplex, p: int, q: int, r: int) -> Subspace:
    """Z_r^{p,q} = F^p A^{p+q} ∩ d^{-1}(F^{p+r} A^{p+q+1}); r = -1 gives F^p."""
    n = p + q
    base = FC.base
    Fp = FC.filtration(p, n)
    if Fp.dim == 0:
        return Fp
    if r < 0:
        return Fp
    target = FC.filtration(p + r, n + 1)
    pre = preimage(base.d(n), target)
    return Fp.intersect(pre)


def er_page(FC: FilteredComplex, r: int, up_to: int | None = None,
            assert_coherence: bool = False) -> SpectralPage:
    """The E_r page by the cycle/boundary formula, with induced d_r."""
    if r < 0:
        raise ValueError("page index must be >= 0")
    base = FC.base
    hi = base.upper
    if base.certified_degree is not None:
        hi = min(hi, base.certified_degree)
    if up_to is not None:
        hi = min(hi, up_to)
    terms = {}
    spots = [(p, n - p) for n in range(base.lower, hi + 1)
             for p in range(FC.k_min, FC.k_max + 1)]
    for (p, q) in spots:
        n = p + q
        Z = _cycle_space(FC, p, q, r)
        if Z.dim == 0:
            terms[(p, q)] = PageTerm(0, Z, None, None)
            continue
        B1 = _cycle_space(FC, p + 1, q - 1, r - 1)
        Zprev = _cycle_space(FC, p - r + 1, q + r - 2, r - 1)
        if Zprev.dim:
            dZ = Subspace.spanned_by(base.field, base.dim(n),
                                     base.d(n - 1) @ Zprev.basis)
        else:
            dZ = Subspace.zero(base.field, base.dim(n))
        denom = B1.add(dZ)
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
        img = FC.base.d(n) @ reps
        coords = tt.cycles.coords_of(img)
        diffs[(p, q)] = tt.proj @ coords
    page = SpectralPage(r, terms, diffs, FC)
    for (p, q), m in diffs.items():
        m2 = page.differential(p + r, q - r + 1) @ m
        if not m2.is_zero():
            raise InvariantError(f"d_r ∘ d_r != 0 at {(p, q)} on page {r}")
    if assert_coherence:
        nxt = er_page(FC, r + 1, up_to=up_to)
        hom = page.homology_dims()
        produced = {pq: d for pq, d in nxt.dims().items()
                    if pq[0] + pq[1] <= (hi - 1 if hi is not None else 10 ** 9)}
        expect = {pq: d for pq, d in hom.items()
                  if pq[0] + pq[1] <= (hi - 1 if hi is not None else 10 ** 9)}
        if produced != expect:
            raise InvariantError(
                f"page coherence fails: H(E_{r}) = {expect} but E_{r + 1} = {produced}")
    return page


def e_infinity_dims(FC: FilteredComplex, up_to: int | None = None) -> dict:
    """E_∞ dims: the pages stabilize once r exceeds the filtration width."""
    width = FC.k_max - FC.k_min + 1
    page = er_page(FC, width + 1, up_to=up_to)
    return page.dims()


def check_filtered_map(f: ChainMap, src: FilteredComplex, tgt: FilteredComplex):
    """Raise NotFiltered unless f(F^k) ⊆ F^k everywhere."""
    lo = min(src.k_min, tgt.k_min)
    hi = max(src.k_max, tgt.k_max)
    for n in src.base.degrees():
        for k in range(lo, hi + 1):
            S = src.filtration(k, n)
            if S.dim == 0:
                continue
            img = f.component(n) @ S.basis
            if not tgt.filtration(k, n).contains_matrix(img):
                raise NotFiltered(f"map does not respect the filtration at (k={k}, n={n})")


def induced_page_map(f: ChainMap, src: FilteredComplex, tgt: FilteredComplex,
                     page_s: SpectralPage, page_t: SpectralPage) -> dict:
    """Matrices of the induced map on matching page terms."""
    out = {}
    for (p, q), t in page_s.terms.items():
        tt = page_t.terms.get((p, q))
        if t.dim == 0 and (tt is None or tt.dim == 0):
            continue
        if tt is None or t.dim != tt.dim:
            out[(p, q)] = None
            continue
        if t.dim == 0:
            continue
        reps = t.cycles.basis @ t.section
        img = f.component(p + q) @ reps
        coords = tt.cycles.coords_of(img)
        out[(p, q)] = tt.proj @ coords
    return out


def is_er_quis(f: ChainMap, src: FilteredComplex, tgt: FilteredComplex, r: int,
               up_to: int | None = None):
    """Is the induced map on E_{r+1} an isomorphism at every (p, q)?

    Returns (flag, per-slot dict).  Raises NotFiltered if f breaks the
    filtrations.
    """
    check_filtered_map(f, src, tgt)
    ps = er_page(src, r + 1, up_to=up_to)
    pt = er_page(tgt, r + 1, up_to=up_to)
    per = {}
    slots = set(ps.dims()) | set(pt.dims())
    maps = induced_page_map(f, src, tgt, ps, pt)
    for pq in slots:
        if ps.dim(*pq) != pt.dim(*pq):
            per[pq] = False
            continue
        m = maps.get(pq)
        per[pq] = m is not None and m.rank() == ps.dim(*pq)
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
            FC = self.levels[p]
            if FC.base != X.level(p):
                raise InvariantError(f"level {p} filtration sits on the wrong complex")
            FC.validate()
        for (p, i), f in X.cofaces.items():
            check_filtered_map(f, self.levels[p - 1], self.levels[p])
        for (p, j), f in X.codegeneracies.items():
            check_filtered_map(f, self.levels[p + 1], self.levels[p])


def filtered_simple(XF: CosimplicialFiltered, r: int, N: int) -> FilteredComplex:
    """(s, δ_r): total complex with δ_r(F)^k(s^n) = ⊕_{i+j=n} F^{k-ri} X(i)^j."""
    X = XF.cosimplicial
    total = simple(X, N)
    field = total.field
    k_min = min(XF.levels[p].k_min + r * p for p in range(X.p_max + 1))
    k_max = max(XF.levels[p].k_max + r * p for p in range(X.p_max + 1))
    bases = {}
    for n in total.dims:
        for k in range(k_min + 1, k_max + 1):
            cols = None
            for (p, q) in total.blocks[n]:
                S = XF.levels[p].filtration(k - r * p, q)
                if S.dim == 0:
                    continue
                emb = total.inclusion(n, p) @ S.basis
                cols = emb if cols is None else cols.hstack(emb)
            if cols is not None:
                bases[(k, n)] = cols
    return FilteredComplex.from_bases(total, bases, k_min, k_max, check=True)


def decalage(FC: FilteredComplex) -> FilteredComplex:
    """(Dec F)^k A^n = ker(d : F^{k+n} A^n -> F^{k+n} A^{n+1} / F^{k+n+1} A^{n+1})."""
    base = FC.base
    degs = [n for n in base.degrees() if base.dim(n)]
    if not degs:
        return FilteredComplex(base, {}, FC.k_min, FC.k_min, check=False)
    k_min = FC.k_min - 1 - max(degs)
    k_max = FC.k_max - min(degs)
    subs = {}
    for n in degs:
        for k in range(k_min + 1, k_max + 1):
            Fk = FC.filtration(k + n, n)
            if Fk.dim == 0:
                continue
            S = Fk.intersect(preimage(base.d(n), FC.filtration(k + n + 1, n + 1)))
            subs[(k, n)] = S
    return FilteredComplex(base, subs, k_min, k_max, check=True)


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


def _transported(FC: FilteredComplex, base: CochainComplex, g: dict) -> FilteredComplex:
    """The filtration of FC carried along the automorphisms g[n] onto `base`."""
    return FilteredComplex.from_bases(base, {(k, n): g[n] @ S.basis
                                             for (k, n), S in FC._subspaces.items()},
                                      FC.k_min, FC.k_max, check=False)


def random_filtered_complex(field, rng, span: int = 3, max_dim: int = 2,
                            weights=(0, 1, 2)):
    """Random filtered complex: weight-graded blocks, then a transported
    random automorphism (the filtration is transported along with d)."""
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
    k_min, k_max = min(k_values), max(k_values)
    bases = {}
    for n in range(lo, hi + 1):
        blocks = Layout((i, C.dim(n)) for i, (w, C) in enumerate(layout))
        for k in range(k_min + 1, k_max + 1):
            emb = blocks.inclusion(field, [i for i, (w, _) in enumerate(layout) if w >= k])
            if emb.cols:
                bases[(k, n)] = emb
    FC = FilteredComplex.from_bases(base, bases, k_min, k_max, check=False)
    # transport along a random automorphism
    g = {n: random_invertible(field, base.dim(n), rng) for n in base.dims}
    out = _transported(FC, transport(base, {0: g}), g)
    out.validate()
    return out


def random_filtered_cosimplicial(field, rng, p_max: int, span: int = 2, max_dim: int = 2,
                                 weights=(0, 1)) -> CosimplicialFiltered:
    """Random cosimplicial filtered complex: weight-graded cosimplicial
    blocks (summand of weight w filtered by one jump at w), transported
    along random level automorphisms."""
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
    return CosimplicialFiltered(X2, {p: _transported(XF.levels[p], X2.level(p), g[p])
                                     for p in range(p_max + 1)}, check=True)


def constant_filtered(FCA: FilteredComplex, p_max: int) -> CosimplicialFiltered:
    X = constant_cosimplicial(FCA.base, p_max)
    return CosimplicialFiltered(X, {p: FCA for p in range(p_max + 1)}, check=False)


def path_filtered(FCA: FilteredComplex, p_max: int):
    """The path object of a filtered complex, with the product filtration.

    Returns (P_filtered, ev0, ev1) exactly as the unfiltered path object.
    """
    A = FCA.base
    field = A.field
    P, ev0, ev1 = path_object(A, p_max)
    levels = {}
    for n in range(p_max + 1):
        copies = n + 2
        base = P.level(n)
        bases = {}
        for q in A.dims:
            for k in range(FCA.k_min + 1, FCA.k_max + 1):
                S = FCA.filtration(k, q)
                if S.dim == 0:
                    continue
                entries = {(t, t): S.basis for t in range(copies)}
                bases[(k, q)] = Matrix.assemble(field, [A.dim(q)] * copies,
                                                [S.dim] * copies, entries)
        levels[n] = FilteredComplex.from_bases(base, bases, FCA.k_min, FCA.k_max,
                                               check=False)
    return CosimplicialFiltered(P, levels, check=False), ev0, ev1


def filtered_cosimplicial_biproduct(XF: CosimplicialFiltered, YF: CosimplicialFiltered):
    """Levelwise direct sum with the sum filtration."""
    X, Y = XF.cosimplicial, YF.cosimplicial
    P, (iX, iY), (pX, pY) = cosimplicial_biproduct(X, Y)
    k_min = min(XF.levels[0].k_min, YF.levels[0].k_min)
    k_max = max(XF.levels[0].k_max, YF.levels[0].k_max)
    levels = {}
    for p in range(X.p_max + 1):
        base = P.level(p)
        bases = {}
        for q in base.dims:
            for k in range(k_min + 1, k_max + 1):
                cols = None
                SX = XF.levels[p].filtration(k, q)
                SY = YF.levels[p].filtration(k, q)
                if SX.dim:
                    emb = iX.component(p).component(q) @ SX.basis
                    cols = emb
                if SY.dim:
                    emb = iY.component(p).component(q) @ SY.basis
                    cols = emb if cols is None else cols.hstack(emb)
                if cols is not None:
                    bases[(k, q)] = cols
        levels[p] = FilteredComplex.from_bases(base, bases, k_min, k_max, check=False)
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
    outer = outer_cosimplicial(Z, N)
    outer_levels = {n: filtered_simple(ZF.row_filtered(n), r, N)
                    for n in range(Z.p_max + 1)}
    # rebase the filtrations onto the instances used by the outer total
    rebased = {}
    for n, FC in outer_levels.items():
        rebased[n] = FilteredComplex(outer.level(n), dict(FC._subspaces),
                                     FC.k_min, FC.k_max, check=False)
    ssF = filtered_simple(CosimplicialFiltered(outer, rebased, check=False), r, N)
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
        exact = all(SP.filtration(k, n).dim ==
                    SX.filtration(k, n).dim + SY.filtration(k, n).dim
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
        src = FilteredComplex(lam.source, dict(FCA._subspaces), FCA.k_min, FCA.k_max,
                              check=False)
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
