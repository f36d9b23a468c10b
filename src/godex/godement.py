"""The Godement triple, hypercohomology sheaves and derived functors.

T(F) has stalks (TF)_x = ⊕_{y >= x} F_y with projection restrictions; the
unit η inserts restrictions, the multiplication ν projects onto matching
chain pairs.  G^p(F) = T^{p+1}(F) with cofaces T^i η T^{p-i} and
codegeneracies T^j ν T^{p-j}; since T^i η T^{p-i} = T(T^{i-1} η T^{p-i}),
they are built recursively as d^i_p = T(d^{i-1}_{p-1}) and
s^j_p = T(s^{j-1}_{p-1}).  The hypercohomology sheaf H_X(F) is the
objectwise total complex of G•(F), truncated at a degree bound N and
certified through N-1.

Block matrices of T-stalks are assembled on layouts labelled by the
elements of ↑x (`t_layout`), or by the flattened chains of an iterated
T-stalk (`t_chain_layout`).  Stalks and sections of the T-iterates are
canonically indexed by weakly increasing chains; the strict-chain
(normalized) subobjects give a reduced model used where the literal double
resolution is combinatorially infeasible.  The identifications backing that
reduction are verified by the test suite (see tests/test_bridges.py), never
assumed silently.
"""

from __future__ import annotations

from .complexes import ChainMap, CochainComplex, induced_map, is_quis, min_certified
from .cosimplicial import CosimplicialComplex, alternating_coface_sum, blockwise_map, simple
from .errors import InsufficientLevels, InvariantError
from .exactlin import Layout, Matrix
from .oracle import coaugmentation_into_replacement, replacement_complex
from .site import (
    MonotoneMap, Sheaf, SheafMap, direct_image, sections, sections_map,
)


# ---- the triple -----------------------------------------------------------


class TSheaf(Sheaf):
    """A sheaf of the form T(G), remembering G for block bookkeeping."""

    __slots__ = ("t_base",)


def _ups(poset, x) -> tuple:
    """↑x in canonical order: the block order of T-stalks."""
    return poset.sorted_subset(poset.up_set(x))


def apply_T(G: Sheaf) -> TSheaf:
    """T(G): stalk at x is the product of the stalks over ↑x."""
    poset = G.poset
    field = G.field
    ups = {x: _ups(poset, x) for x in poset.elements}
    stalks = {}
    for x in poset.elements:
        parts = [G.stalk(y) for y in ups[x]]
        lo = min(c.lower for c in parts)
        hi = max((c.upper for c in parts if not c.is_zero_complex()), default=lo)
        dims = {n: sum(c.dim(n) for c in parts) for n in range(lo, hi + 1)}
        diffs = {}
        for n in range(lo, hi):
            entries = {(k, k): c.d(n) for k, c in enumerate(parts)}
            diffs[n] = Matrix.assemble(field, [c.dim(n + 1) for c in parts],
                                       [c.dim(n) for c in parts], entries)
        cert = min_certified(*(c.certified_degree for c in parts))
        stalks[x] = CochainComplex(field, dims, diffs, lower=lo,
                                   certified_degree=cert, check=False)
    # the restriction (TG)_a -> (TG)_b keeps the blocks over ↑b ⊆ ↑a
    restr = {}
    for (a, b) in poset.pairs():
        comps = {}
        for n in stalks[b].dims:
            if stalks[a].dim(n) == 0:
                continue
            cols = Layout((y, G.stalk(y).dim(n)) for y in ups[a])
            comps[n] = cols.projection(field, ups[b])
        restr[(a, b)] = ChainMap(stalks[a], stalks[b], comps, check=False)
    out = TSheaf(poset, field, stalks, restr, check=False)
    out.t_base = G
    return out


def t_layout(T: TSheaf, x, n: int) -> Layout:
    """Block layout of (TG)_x in degree n: y ∈ ↑x -> (offset, dim G_y^n)."""
    return Layout((y, T.t_base.stalk(y).dim(n)) for y in _ups(T.poset, x))


def t_chain_layout(T: Sheaf, x, n: int) -> Layout:
    """Flattened layout of an iterated T-stalk in degree n: the chain
    (y_1, y_2, ...) of the nested blocks -> (offset, dim), nonzero only."""
    return Layout(_t_chains(T, x, n))


def _t_chains(T: Sheaf, x, n: int):
    if not isinstance(T, TSheaf):
        yield (), T.stalk(x).dim(n)
        return
    for y in _ups(T.poset, x):
        for chain, d in _t_chains(T.t_base, y, n):
            if d:
                yield (y,) + chain, d


def godement_eta(G: Sheaf, TG: TSheaf) -> SheafMap:
    """η_G : G -> T(G), with component the stack of restrictions."""
    poset = G.poset
    comps = {}
    for x in poset.elements:
        blocks = {}
        for n in G.stalk(x).dims:
            stacked = None
            for y in _ups(poset, x):
                m = G.restriction(x, y).component(n)
                stacked = m if stacked is None else stacked.vstack(m)
            blocks[n] = stacked
        comps[x] = ChainMap(G.stalk(x), TG.stalk(x), blocks, check=False)
    return SheafMap(G, TG, comps, check=False)


def godement_nu(G: Sheaf, TG: TSheaf, TTG: TSheaf) -> SheafMap:
    """ν_G : T²(G) -> T(G), projecting onto the matching chain pairs."""
    poset = G.poset
    field = G.field
    comps = {}
    for x in poset.elements:
        blocks = {}
        for n in TG.stalk(x).dims:
            if TTG.stalk(x).dim(n) == 0:
                continue
            # (TTG)_x has a block per pair y <= z with y ∈ ↑x; keep the pairs (y, y)
            cols = Layout(((y, z), d) for y in _ups(poset, x)
                          for z, (_, d) in t_layout(TG, y, n).items())
            blocks[n] = cols.projection(field, [(y, y) for y in _ups(poset, x)])
        comps[x] = ChainMap(TTG.stalk(x), TG.stalk(x), blocks, check=False)
    return SheafMap(TTG, TG, comps, check=False)


def t_apply_map(f: SheafMap, Tsrc: TSheaf, Ttgt: TSheaf) -> SheafMap:
    """T(f) : T(src) -> T(tgt), blockwise over ↑x."""
    poset = f.source.poset
    field = f.source.field
    comps = {}
    for x in poset.elements:
        blocks = {}
        degrees = set(Tsrc.stalk(x).dims) & set(Ttgt.stalk(x).dims)
        for n in degrees:
            rows = t_layout(Ttgt, x, n)
            blocks[n] = Matrix.assemble(field, rows, t_layout(Tsrc, x, n),
                                        {(y, y): f.component(y).component(n) for y in rows})
        comps[x] = ChainMap(Tsrc.stalk(x), Ttgt.stalk(x), blocks, check=False)
    return SheafMap(Tsrc, Ttgt, comps, check=False)


def godement_T(F: Sheaf, assert_laws: bool = True):
    """(T(F), η_F, ν_F); the triple laws are asserted exactly.

    ν ∘ Tη = ν ∘ ηT = id and ν ∘ Tν = ν ∘ νT, as matrix identities on the
    relevant iterates of F.
    """
    TF = apply_T(F)
    T2F = apply_T(TF)
    eta_F = godement_eta(F, TF)
    nu_F = godement_nu(F, TF, T2F)
    if assert_laws:
        T3F = apply_T(T2F)
        eta_TF = godement_eta(TF, T2F)
        t_eta = t_apply_map(eta_F, TF, T2F)
        ident = SheafMap.identity(TF)
        if nu_F.compose(t_eta) != ident or nu_F.compose(eta_TF) != ident:
            raise InvariantError("triple unit laws fail")
        nu_TF = godement_nu(TF, T2F, T3F)
        t_nu = t_apply_map(nu_F, T3F, T2F)
        lhs = nu_F.compose(t_nu)
        rhs = nu_F.compose(nu_TF)
        if lhs != rhs:
            raise InvariantError("triple associativity law fails")
    return TF, eta_F, nu_F


# ---- the resolution -------------------------------------------------------


class CosimplicialSheaf:
    """Levels of sheaves with coface/codegeneracy sheaf maps."""

    __slots__ = ("poset", "field", "p_max", "levels", "cofaces", "codegeneracies")

    def __init__(self, poset, field, levels, cofaces, codegeneracies, p_max):
        self.poset = poset
        self.field = field
        self.levels = levels
        self.cofaces = cofaces
        self.codegeneracies = codegeneracies
        self.p_max = p_max

    def level(self, p) -> Sheaf:
        return self.levels[p]

    def stalkwise(self, x) -> CosimplicialComplex:
        """The cosimplicial complex of stalks at x."""
        return CosimplicialComplex(
            self.field, {p: self.levels[p].stalk(x) for p in range(self.p_max + 1)},
            {(p, i): f.component(x) for (p, i), f in self.cofaces.items()},
            {(p, j): f.component(x) for (p, j), f in self.codegeneracies.items()},
            self.p_max, check=False,
        )

    def validate(self):
        for x in self.poset.elements:
            self.stalkwise(x).validate()
        for f in list(self.cofaces.values()) + list(self.codegeneracies.values()):
            f.validate()


class GodementResolution:
    """G•(F) together with the tower of T-iterates and the coaugmentation."""

    __slots__ = ("sheaf", "tower", "etas", "cosimplicial", "eta")

    def __init__(self, sheaf, tower, etas, cosimplicial, eta):
        self.sheaf = sheaf
        self.tower = tower
        self.etas = etas
        self.cosimplicial = cosimplicial
        self.eta = eta

    def level(self, p) -> Sheaf:
        return self.cosimplicial.level(p)


def godement_resolution(F: Sheaf, p_max: int) -> GodementResolution:
    """G^p(F) = T^{p+1}(F) with d^i = T^i η T^{p-i}, s^j = T^j ν T^{p-j}.

    For i, j >= 1 each structure map is T of a map one level down,
    d^i_p = T(d^{i-1}_{p-1}) and s^j_p = T(s^{j-1}_{p-1}), where d^0_0 = η_F
    (so d^1_1 = T(η_F)); every map costs one t_apply_map.
    """
    if p_max < 0:
        raise InsufficientLevels("p_max must be >= 0")
    tower = [F]
    for _ in range(p_max + 1):
        tower.append(apply_T(tower[-1]))
    etas = [godement_eta(tower[k], tower[k + 1]) for k in range(p_max + 1)]
    levels = {p: tower[p + 1] for p in range(p_max + 1)}
    cofaces = {(0, 0): etas[0]}
    for p in range(1, p_max + 1):
        cofaces[(p, 0)] = etas[p]
        for i in range(1, p + 1):
            cofaces[(p, i)] = t_apply_map(cofaces[(p - 1, i - 1)], tower[p], tower[p + 1])
    del cofaces[(0, 0)]
    codegens = {}
    for p in range(p_max):
        codegens[(p, 0)] = godement_nu(tower[p], tower[p + 1], tower[p + 2])
        for j in range(1, p + 1):
            codegens[(p, j)] = t_apply_map(codegens[(p - 1, j - 1)], tower[p + 2], tower[p + 1])
    cos = CosimplicialSheaf(F.poset, F.field, levels, cofaces, codegens, p_max)
    return GodementResolution(F, tower, etas, cos, etas[0])


def stalk_extra_degeneracy(res: GodementResolution, x):
    """The extra degeneracy of the coaugmented stalkwise resolution at x.

    Returns (eps_x, X_x, extra) for collapse_by_extra_degeneracy with
    side="bottom": extra[p] projects the iterated product onto the chains
    whose first entry is x itself.
    """
    F = res.sheaf
    field = F.field
    X = res.cosimplicial.stalkwise(x)
    extra = []
    for p in range(X.p_max + 1):
        T_here = res.tower[p + 1]
        target = F.stalk(x) if p == 0 else res.tower[p].stalk(x)
        comps = {n: t_layout(T_here, x, n).projection(field, [x])
                 for n in target.dims if T_here.stalk(x).dim(n)}
        extra.append(ChainMap(X.level(p), target, comps, check=False))
    eps = res.eta.component(x)
    return eps, X, extra


def skyscraper_counit(res: GodementResolution, y0) -> SheafMap:
    """For F a skyscraper-type sheaf concentrated under y0: the retraction
    T(F) -> F projecting onto the block indexed by y0."""
    F = res.sheaf
    TF = res.tower[1]
    field = F.field
    comps = {}
    for x in F.poset.elements:
        blocks = {n: t_layout(TF, x, n).projection(field, [y0])
                  for n in F.stalk(x).dims if F.poset.leq(x, y0)}
        comps[x] = ChainMap(TF.stalk(x), F.stalk(x), blocks, check=False)
    return SheafMap(TF, F, comps, check=True)


def sheaf_extra_degeneracy_top(res: GodementResolution, y0):
    """Top-side extra degeneracy family for G•(skyscraper at y0):
    extra[p] = T^p(counit)."""
    out = [skyscraper_counit(res, y0)]
    for p in range(1, res.cosimplicial.p_max + 1):
        prev = out[-1]
        out.append(t_apply_map(prev, res.tower[p + 1], res.tower[p]))
    return out


def resolution_sections(res: GodementResolution, U):
    """Evaluate the resolution on an open: the coaugmented cosimplicial
    complex (Γ(U, F) -> Γ(U, G•F)) with structure maps Γ(U, d^i), Γ(U, s^j)."""
    F = res.sheaf
    cos = res.cosimplicial
    secs = {p: sections(cos.level(p), U) for p in range(cos.p_max + 1)}
    sec_F = sections(F, U)
    levels = {p: secs[p].complex for p in range(cos.p_max + 1)}
    cofaces = {}
    for (p, i), f in cos.cofaces.items():
        cofaces[(p, i)] = sections_map(f, U, secs[p - 1], secs[p])
    codegens = {}
    for (p, j), f in cos.codegeneracies.items():
        codegens[(p, j)] = sections_map(f, U, secs[p + 1], secs[p])
    X = CosimplicialComplex(F.field, levels, cofaces, codegens, cos.p_max, check=False)
    eps = sections_map(res.eta, U, sec_F, secs[0])
    return X, eps, sec_F


# ---- hypercohomology ------------------------------------------------------


class Hypercohomology:
    """H_X(F) = s G•(F) computed objectwise, with ρ_F : F -> H_X(F)."""

    __slots__ = ("sheaf", "resolution", "H", "rho", "truncation")

    def __init__(self, sheaf, resolution, H, rho, truncation):
        self.sheaf = sheaf
        self.resolution = resolution
        self.H = H
        self.rho = rho
        self.truncation = truncation


def hypercohomology_sheaf(F: Sheaf, N: int,
                          res: GodementResolution | None = None) -> Hypercohomology:
    """Objectwise total complex of the Godement resolution, truncated at N.

    p_max = N - lower suffices: level p only contributes to total degrees
    >= p + lower.  Every stalk complex re-asserts d∘d = 0; the sheaf and
    ρ are built unchecked, since validating them is O(n^3) matrix products,
    and `tests/test_godement.py` validates both on the suite sheaves.
    """
    F.require_truncation(N)
    lo = F.lower
    p_max = max(N - lo, 0)
    if res is None or res.cosimplicial.p_max < p_max:
        res = godement_resolution(F, p_max)
    cos = res.cosimplicial
    poset = F.poset
    field = F.field
    totals = {x: simple(cos.stalkwise(x), N) for x in poset.elements}
    restr = {}
    for (a, b) in poset.pairs():
        comps = blockwise_map(totals[a], totals[b],
                              lambda p, q: cos.level(p).restriction(a, b).component(q))
        restr[(a, b)] = ChainMap(totals[a], totals[b], comps, check=False)
    H = Sheaf(poset, field, dict(totals), restr, check=False)
    rho_comps = {}
    for x in poset.elements:
        Tx = totals[x]
        eta_x = res.eta.component(x)
        comps = {}
        for n in F.stalk(x).dims:
            if Tx.dim(n) == 0:
                continue
            comps[n] = Tx.inclusion(n, 0) @ eta_x.component(n)
        rho_comps[x] = ChainMap(F.stalk(x), Tx, comps, check=True)
    rho = SheafMap(F, H, rho_comps, check=False)
    return Hypercohomology(F, res, H, rho, N)


def hypercohomology_map(f: SheafMap, N: int,
                        hyper_src: Hypercohomology | None = None,
                        hyper_tgt: Hypercohomology | None = None):
    """H_X(f) : H_X(F) -> H_X(G), blockwise T^{p+1}(f)."""
    if hyper_src is None:
        hyper_src = hypercohomology_sheaf(f.source, N)
    if hyper_tgt is None:
        hyper_tgt = hypercohomology_sheaf(f.target, N)
    rs, rt = hyper_src.resolution, hyper_tgt.resolution
    p_max = min(rs.cosimplicial.p_max, rt.cosimplicial.p_max)
    level_maps = []
    g = f
    for p in range(p_max + 1):
        g = t_apply_map(g, rs.tower[p + 1], rt.tower[p + 1])
        level_maps.append(g)
    comps = {}
    for x in f.source.poset.elements:
        Sx, Tx = hyper_src.H.stalk(x), hyper_tgt.H.stalk(x)
        blocks = blockwise_map(Sx, Tx, lambda p, q: level_maps[p].component(x).component(q))
        comps[x] = ChainMap(Sx, Tx, blocks, check=False)
    return SheafMap(hyper_src.H, hyper_tgt.H, comps, check=False), hyper_src, hyper_tgt


# ---- equivalence checks ---------------------------------------------------


class EquivalenceReport:
    """Verdict of a local/global equivalence check, with failure witnesses."""

    __slots__ = ("kind", "verdict", "witnesses", "certified_degree", "mode")

    def __init__(self, kind, verdict, witnesses, certified_degree, mode="literal"):
        self.kind = kind
        self.verdict = verdict
        self.witnesses = witnesses
        self.certified_degree = certified_degree
        self.mode = mode

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return (f"EquivalenceReport({self.kind}, verdict={self.verdict}, "
                f"witnesses={self.witnesses}, certified={self.certified_degree}, mode={self.mode})")


def equivalence_check(f: SheafMap, kind: str, opens=None, up_to: int | None = None) -> EquivalenceReport:
    """kind="local": quasi-isomorphism on every stalk.
    kind="global": quasi-isomorphism on the sections over every open
    (enumerated up to the cap unless `opens` is supplied)."""
    poset = f.source.poset
    witnesses = []
    cert = None
    if kind == "local":
        for x in poset.elements:
            r = is_quis(f.component(x), up_to=up_to)
            cert = min_certified(cert, r.certified_degree)
            witnesses.extend((x, n) for n in r.failures())
    elif kind == "global":
        if opens is None:
            opens = poset.up_sets()
        for U in opens:
            g = sections_map(f, U)
            r = is_quis(g, up_to=up_to)
            cert = min_certified(cert, r.certified_degree)
            label = tuple(sorted(map(str, U)))
            witnesses.extend((label, n) for n in r.failures())
    else:
        raise ValueError("kind must be 'local' or 'global'")
    return EquivalenceReport(kind, not witnesses, witnesses, cert)


# ---- the reduced (strict-chain) model --------------------------------------


def reduced_hypercohomology(F: Sheaf, N: int) -> Sheaf:
    """The strict-chain model of H_X(F): stalks are the normalized
    replacements of F over ↑x, restrictions project onto surviving chains."""
    poset = F.poset
    field = F.field
    stalks = {x: replacement_complex(F, N, strict=True, within=poset.up_set(x))
              for x in poset.elements}
    lo = min(c.lower for c in stalks.values())
    restr = {}
    for (a, b) in poset.pairs():
        Ra, Rb = stalks[a], stalks[b]
        comps = {}
        for n in Rb.dims:
            if Ra.dim(n) == 0:
                continue
            comps[n] = Ra.blocks[n].projection(field, Rb.blocks[n])
        restr[(a, b)] = ChainMap(Ra, Rb, comps, check=False)
    return Sheaf(poset, field, dict(stalks), restr, check=False)


def reduced_inclusion(F: Sheaf, hyper: Hypercohomology, R: Sheaf) -> SheafMap:
    """ι_F : reduced model -> H_X(F), matching strict chains to their slots."""
    poset = F.poset
    field = F.field
    res = hyper.resolution
    comps = {}
    for x in poset.elements:
        Rx = R.stalk(x)
        Hx = hyper.H.stalk(x)
        blocks = {}
        for n in Rx.dims:
            if Hx.dim(n) == 0:
                continue
            # columns: strict chains; rows: flattened weak-chain slots of H_x
            cols = Rx.blocks[n]
            rows = Layout(((p, chain), d) for (p, q) in Hx.blocks[n]
                          for chain, (_, d) in t_chain_layout(res.tower[p + 1], x, q).items())
            if any(rows[c][1] != d for c, (_, d) in cols.items()):
                raise InvariantError("reduced model block mismatch")
            blocks[n] = rows.inclusion(field, cols)
        comps[x] = ChainMap(Rx, Hx, blocks, check=True)
    return SheafMap(R, hyper.H, comps, check=False)


# ---- Theorem-suite checks --------------------------------------------------


def stalk_commutation_check(F: Sheaf, N: int, hyper: Hypercohomology | None = None) -> EquivalenceReport:
    """Condition: the simple functor commutes with stalks.

    On an Alexandrov site the stalk of the objectwise total complex at x is
    the total complex of the stalks, so the comparison map is degreewise the
    identity; this check re-derives both sides and asserts the structural
    equality, reporting any discrepancy as a witness.
    """
    if hyper is None:
        hyper = hypercohomology_sheaf(F, N)
    witnesses = []
    for x in F.poset.elements:
        lhs = hyper.H.stalk(x)
        rhs = simple(hyper.resolution.cosimplicial.stalkwise(x), N)
        for n in set(lhs.dims) | set(rhs.dims):
            if lhs.dim(n) != rhs.dim(n) or lhs.d(n) != rhs.d(n):
                witnesses.append((x, n))
    return EquivalenceReport("local", not witnesses, witnesses, N - 1)


def thomason_check(F: Sheaf, N: int, mode: str = "auto",
                   hyper: Hypercohomology | None = None,
                   opens=None) -> EquivalenceReport:
    """Does H_X(F) satisfy Thomason descent (ρ_{H_X(F)} a global equivalence)?

    mode="literal" builds H_X(H_X(F)) outright and checks on sections; this
    is only feasible on small posets.  mode="reduced" checks the equivalent
    coaugmentation statement on the strict-chain model: for every open U,
    Γ(U, R) -> strict-replacement(R over U) is a quasi-isomorphism, where R
    is the reduced model of H_X(F); the identifications connecting the two
    formulations are exercised by the bridge test suite.  mode="auto" picks
    by estimated size.  Either mode refuses a truncation N below the top
    degree of F with InsufficientLevels.
    """
    F.require_truncation(N)
    poset = F.poset
    if mode == "auto":
        weak = len(poset.weak_chains(max(N - F.lower, 1)))
        mode = "literal" if weak * max(1, F.top_degree + 1) <= 60 else "reduced"
    if mode == "literal":
        if hyper is None:
            hyper = hypercohomology_sheaf(F, N)
        hyper2 = hypercohomology_sheaf(hyper.H, N)
        rep = equivalence_check(hyper2.rho, "global", opens=opens)
        return EquivalenceReport("global", rep.verdict, rep.witnesses,
                                 rep.certified_degree, mode="literal")
    R = reduced_hypercohomology(F, N)
    witnesses = []
    cert = None
    if opens is None:
        opens = poset.up_sets()
    for U in opens:
        sec = sections(R, U)
        repl = replacement_complex(R, N - 1, strict=True, within=U)
        eps = coaugmentation_into_replacement(R, sec, repl)
        r = is_quis(eps)
        cert = min_certified(cert, r.certified_degree)
        label = tuple(sorted(map(str, U)))
        witnesses.extend((label, n) for n in r.failures())
    return EquivalenceReport("global", not witnesses, witnesses, cert, mode="reduced")


# ---- derived functors ------------------------------------------------------


def derived_sections(F: Sheaf, U, N: int, hyper: Hypercohomology | None = None):
    """RΓ(U, F) = Γ(U, H_X(F)); returns (SectionComplex, betti dict).

    The betti numbers come from ranks of the constraint systems; the
    section complex itself is built only if the caller reads it.
    """
    if hyper is None:
        hyper = hypercohomology_sheaf(F, N)
    sec = sections(hyper.H, U)
    return sec, sec.betti()


def derived_direct_image(f: MonotoneMap, F: Sheaf, N: int,
                         hyper: Hypercohomology | None = None) -> Sheaf:
    """Rf_*(F) = f_* H_X(F)."""
    if hyper is None:
        hyper = hypercohomology_sheaf(F, N)
    return direct_image(f, hyper.H)


def cohomology_sheaf(F: Sheaf, q: int) -> Sheaf:
    """The degreewise cohomology sheaf: stalk H^q(F_x) in degree q, with the
    induced restriction maps."""
    poset = F.poset
    field = F.field
    stalks = {}
    for x in poset.elements:
        b = F.stalk(x).cohomology().betti.get(q, 0)
        stalks[x] = CochainComplex(field, {q: b} if b else {}, {}, lower=q, check=False)
    restr = {}
    for (a, b) in poset.pairs():
        m = induced_map(F.restriction(a, b), q)
        restr[(a, b)] = ChainMap(stalks[a], stalks[b], {q: m}, check=False)
    return Sheaf(poset, field, stalks, restr, check=True)


def descent_double_complex(F: Sheaf, U, N: int, res: GodementResolution | None = None):
    """The column-filtered double complex Γ(U, G•F) as a FilteredComplex.

    Columns are the sections of the resolution levels; the total differential
    combines the alternating coface sum with the signed internal one.  The
    filtration is by column index p >= k, a block filtration of the total
    complex (`FilteredComplex.from_blocks`, checked by its zero-block check).
    """
    from .filtered import FilteredComplex
    F.require_truncation(N)
    lo = F.lower
    p_max = max(N - lo, 0)
    if res is None or res.cosimplicial.p_max < p_max:
        res = godement_resolution(F, p_max)
    X, eps, sec_F = resolution_sections(res, U)
    total = simple(X, N)
    FC = FilteredComplex.from_blocks(total, k_min=0, k_max=p_max)
    return FC, total, eps, res


def descent_spectral_sequence(F: Sheaf, U, r_max: int, N: int,
                              res: GodementResolution | None = None):
    """E_r pages of the column filtration of Γ(U, G•F), r = 0..r_max."""
    from .filtered import er_page
    FC, total, eps, res = descent_double_complex(F, U, N, res=res)
    return [er_page(FC, r) for r in range(r_max + 1)], FC, total, res


def independent_e2_dims(F: Sheaf, U, N: int) -> dict:
    """dim H^p(Γ(U, G•(H^q F))), the independent E_2 computation."""
    out = {}
    lo = F.lower
    for q in range(lo, F.top_degree + 1):
        HqF = cohomology_sheaf(F, q)
        if all(c.is_zero_complex() for c in HqF.stalks.values()):
            continue
        p_max = max(N - q, 0)
        res_q = godement_resolution(HqF, p_max)
        X, eps, secF = resolution_sections(res_q, U)
        # the complex p -> Γ(U, G^p(HqF))^q with the alternating coface sum
        dims = {p: X.level(p).dim(q) for p in range(X.p_max + 1)}
        diffs = {}
        for p in range(X.p_max):
            diffs[p] = alternating_coface_sum(X, p + 1, q)
        C = CochainComplex(F.field, dims, diffs, lower=0,
                           certified_degree=X.p_max - 1, check=True)
        betti = C.cohomology().betti
        for p, b in betti.items():
            if b and p <= C.certified_degree:
                out[(p, q)] = b
    return out


def localeq_verdicts(f: SheafMap, N: int, opens=None) -> dict:
    """The three equivalent predicates: f local equivalence, T(f) global,
    H_X(f) global.  Returns their verdicts; they must agree pairwise."""
    local = equivalence_check(f, "local")
    TF = apply_T(f.source)
    TG = apply_T(f.target)
    tf = t_apply_map(f, TF, TG)
    t_global = equivalence_check(tf, "global", opens=opens)
    hf, _, _ = hypercohomology_map(f, N)
    h_global = equivalence_check(hf, "global", opens=opens)
    return {"local": local.verdict, "T_global": t_global.verdict,
            "H_global": h_global.verdict}


# ---- the W \\ S separation witness ------------------------------------------


def separation_witness(field, N: int = 4):
    """A sheaf map that is a local but not a global equivalence.

    ρ of the constant sheaf on the pseudocircle: stalkwise a
    quasi-isomorphism, but on global sections H^1 appears (the circle has
    cohomology in degree 1 while the constant complex has none).
    """
    from .complexes import single_complex
    from .site import constant_sheaf, pseudocircle_poset
    P = pseudocircle_poset()
    F = constant_sheaf(P, single_complex(field, 0, 1))
    hyper = hypercohomology_sheaf(F, N)
    local = equivalence_check(hyper.rho, "local")
    glob = equivalence_check(hyper.rho, "global")
    return hyper.rho, local, glob
