"""The Godement triple, hypercohomology sheaves and derived functors.

T(F) has stalks (TF)_x = ⊕_{y >= x} F_y with projection restrictions; the
unit η inserts restrictions, the multiplication ν projects onto matching
chain pairs.  G^p(F) = T^{p+1}(F) with cofaces T^i η T^{p-i} and
codegeneracies T^j ν T^{p-j}; since T^i η T^{p-i} = T(T^{i-1} η T^{p-i}),
they are built recursively as d^i_p = T(d^{i-1}_{p-1}) and
s^j_p = T(s^{j-1}_{p-1}).  The hypercohomology sheaf H_X(F) is the
objectwise total complex of G•(F), truncated at a degree bound N and
certified through N-1.

A total complex reads only the alternating coface sum δ_p = Σ_i (-1)^i d^i_p
(the Moore complex).  T is linear, so δ_0 = η_F and δ_p = η_{T^p F} -
T(δ_{p-1}): `godement_resolution` builds the levels, η and these sums.  The
stalks at x form a `CosimplicialComplex` that carries δ_p at x as its coface
sums (`GodementResolution.stalkwise`), and H_X(F)_x is its `simple`.  Each
coface and codegeneracy is built on its first read, and only what reads it
builds it.  The stalk commutation check and `validate` compare δ_p with
Σ_i (-1)^i d^i_p through `CosimplicialComplex.coface_sum_mismatches`: two
independent computations of every coface block of every stalk of H_X(F).

Truncated at total degree N, the total reads level p only in the internal
degrees <= N - p.  T is degreewise, so it commutes with brutal truncation:
`hypercohomology_sheaf` builds level p in those degrees only
(`godement_resolution(F, p_max, top=N)`), which certifies through
N - p - 1 and leaves the total's N - 1 unchanged.  The codegeneracies of a
truncated tower are no chain maps, so `validate` takes full towers only;
the tests compare a truncated tower with the full one in every degree it
builds.  H_X(F) and N H_X(F) are both `LabelledSheaf`s, built from their
stalks alone, whose labels are their stalks' blocks: the slot (p, q, y) of
H_X(F)_x^n is the block y of G^p(F)_x^q, home y.  Both take their ρ from
`_rho`, and `site.sections` reads Γ(U, −) of either off the labels, a
`BlockComplex` on them.  Γ(U, −) is degreewise, so Γ(U, s G•F) =
s Γ(U, G•F): the descent spectral sequence is the block filtration of
Γ(U, H_X F) by the p of its slots.  No verdict
builds the full tower or a codegeneracy; the CLI `resolve` command, the
structure-map digest and the reference tests build them.

Every T-stalk is a `BlockComplex` labelled by the elements of ↑x, and block
matrices of T-stalks are assembled on its layouts.  Stalks and sections of
the T-iterates are canonically indexed by weakly increasing chains
x <= y_0 <= ... <= y_p (the tests flatten the nested blocks of a level
into those chains).  The strict chains span the normalized resolution
N G•F = ∩_j ker s^j, quasi-isomorphic to G•F by the cosimplicial Dold–Kan
correspondence and zero above the height of ↑x.  Its total N H_X(F) is
built from those labels alone, with no T-level and no coface sum
(`normalized_hypercohomology_sheaf`), and is bounded, so a stalk whose N
reaches height(↑x) + top degree certifies every degree.  Derived sections
read Γ(U, N H_X F) on the chain route; reduced Thomason mode takes
N H_X(N H_X F) with its ρ (`reduced_hypercohomology`) where the literal
double resolution is infeasible.  Both Thomason modes check with
`equivalence_check` that ρ of a model of H_X(H_X F) is a global
equivalence.  The identifications behind the normalized model are verified
by tests/test_normalized.py and tests/test_bridges.py, never assumed, and
nothing here comes from `oracle`.
"""

from __future__ import annotations

from .complexes import (
    BlockComplex, ChainMap, CochainComplex, LazyMap, induced_map, is_quis, min_certified,
)
from .cosimplicial import CosimplicialComplex, _degeneracies, _faces, simple
from .errors import InsufficientLevels
from .exactlin import Layout, Matrix, units_minus_blocks
from .site import (
    LabelledSheaf, MonotoneMap, Sheaf, SheafMap, _projections, _stack, direct_image, sections,
    sections_map,
)


# ---- the triple -----------------------------------------------------------


def apply_T(G: Sheaf, top: int | None = None) -> Sheaf:
    """T(G): the stalk at x is the product of the stalks over ↑x, a block
    complex labelled by y ∈ ↑x in every degree of G's range, or only in the
    degrees <= `top`.  T is degreewise, so that is T of the brutal
    truncation of G at `top`; when it drops a degree, the stalks certify
    through top - 1."""
    poset = G.poset
    field = G.field
    hi = G.top_degree if top is None else min(top, G.top_degree)
    degrees = range(G.lower, hi + 1)
    stalks = {}
    for x in poset.elements:
        ups = poset.sorted_subset(poset.up_set(x))
        blocks = {n: Layout((y, G.stalk(y).dim(n)) for y in ups) for n in degrees}
        diffs = {n: Matrix.assemble(field, blocks[n + 1], blocks[n],
                                    {(y, y): G.stalk(y).d(n) for y in ups})
                 for n in degrees[:-1] if blocks[n].dim and blocks[n + 1].dim}
        cert = min_certified(*(G.stalk(y).certified_degree for y in ups),
                             top - 1 if hi < G.top_degree else None)
        stalks[x] = BlockComplex(field, blocks, diffs, lower=G.lower, certified_degree=cert,
                                 check=False)
    # the restriction (TG)_a -> (TG)_b keeps the blocks over ↑b ⊆ ↑a
    T = Sheaf(poset, field, stalks, {}, check=False)
    T.restrictions = _projections(poset, field, stalks)
    return T


def godement_eta(G: Sheaf, TG: Sheaf) -> SheafMap:
    """η_G : G -> T(G), with component the stack of restrictions."""
    return SheafMap.from_blocks(G, TG, lambda x, n: _stack(
        G.restriction_in(x, y, n) for y in TG.stalk(x).blocks[n]))


def godement_nu(G: Sheaf, TG: Sheaf, TTG: Sheaf) -> SheafMap:
    """ν_G : T²(G) -> T(G), projecting onto the matching chain pairs."""

    def block(x, n):
        # (TTG)_x has a block per pair y <= z with y ∈ ↑x; keep the pairs (y, y)
        ups = TG.stalk(x).blocks[n]
        cols = Layout(((y, z), d) for y in ups for z, (_, d) in TG.stalk(y).blocks[n].items())
        return cols.projection(G.field, [(y, y) for y in ups])
    return SheafMap.from_blocks(TTG, TG, block)


def t_apply_map(f: SheafMap, Tsrc: Sheaf, Ttgt: Sheaf) -> SheafMap:
    """T(f) : T(src) -> T(tgt), blockwise over ↑x."""

    def block(x, n):
        rows = Ttgt.stalks[x].blocks[n]
        return Matrix.assemble(f.source.field, rows, Tsrc.stalks[x].blocks[n],
                               {(y, y): f.component(y).component(n) for y in rows})
    return SheafMap.from_blocks(Tsrc, Ttgt, block)


# ---- the resolution -------------------------------------------------------


class GodementResolution:
    """G•(F): the levels G^p F = T^{p+1} F for p = 0..p_max, the
    coaugmentation η : F -> G^0 F, the coface sums and the structure maps.

    coface_sums[p]        : level p-1 -> level p   (1 <= p <= p_max), Σ_i (-1)^i d^i
    cofaces[(p, i)]       : level p-1 -> level p   (1 <= p <= p_max, 0 <= i <= p)
    codegeneracies[(p, j)]: level p+1 -> level p   (0 <= p <= p_max-1, 0 <= j <= p)

    The levels, η and the coface sums are built with the resolution; they
    are all a total complex reads.  Each coface and codegeneracy is built on
    its first read (a `LazyMap`): d^0_p = η and s^0_p = ν of T^p F, and
    d^i_p = T(d^{i-1}_{p-1}), s^j_p = T(s^{j-1}_{p-1}), where d^0_0 = η_F.
    With `top` set, level p is built in the internal degrees <= top - p only,
    and `validate` refuses the tower.
    """

    __slots__ = ("sheaf", "levels", "eta", "coface_sums", "p_max", "top", "cofaces",
                 "codegeneracies")

    def __init__(self, sheaf, levels, eta, coface_sums, p_max, top=None):
        self.sheaf = sheaf
        self.levels = levels
        self.eta = eta
        self.coface_sums = coface_sums
        self.p_max = p_max
        self.top = top
        tower = [sheaf] + [levels[p] for p in range(p_max + 1)]  # tower[k] = T^k F

        def coface(key):
            p, i = key
            if i == 0:
                return godement_eta(tower[p], tower[p + 1])
            return t_apply_map(cofaces[(p - 1, i - 1)] if p > 1 else eta, tower[p], tower[p + 1])

        def codegeneracy(key):
            p, j = key
            if j == 0:
                return godement_nu(tower[p], tower[p + 1], tower[p + 2])
            return t_apply_map(codegens[(p - 1, j - 1)], tower[p + 2], tower[p + 1])
        self.cofaces = cofaces = LazyMap(_faces(p_max), coface)
        self.codegeneracies = codegens = LazyMap(_degeneracies(p_max), codegeneracy)

    def level(self, p) -> Sheaf:
        return self.levels[p]

    def stalkwise(self, x) -> CosimplicialComplex:
        """The cosimplicial complex of stalks at x, carrying δ_p at x as its
        coface sums; each structure map is read at x from the resolution on
        its first read."""
        def at(family):
            return LazyMap(family, lambda k: family[k].component(x))
        return CosimplicialComplex(
            self.sheaf.field, {p: lv.stalk(x) for p, lv in self.levels.items()},
            at(self.cofaces), at(self.codegeneracies), self.p_max, check=False,
            coface_sums=at(self.coface_sums))

    def validate(self):
        """At every stalk, every coface sum the alternating sum of the cofaces
        and every cosimplicial identity (`CosimplicialComplex.validate` of
        `stalkwise`), and every structure map a sheaf map.

        A full tower only: on a truncated one (`top` set) the codegeneracies
        are no chain maps, so this raises ValueError.  The tests compare a
        truncated tower with the full one in every degree it builds instead.
        """
        if self.top is not None:
            raise ValueError(f"validate() takes a full tower; this one is truncated at {self.top}")
        for x in self.sheaf.poset.elements:
            self.stalkwise(x).validate()
        for f in self.cofaces.values():
            f.validate()
        for f in self.codegeneracies.values():
            f.validate()


def _coface_sum(below: SheafMap, G: Sheaf, TG: Sheaf) -> SheafMap:
    """δ_p = η_G - T(δ_{p-1}) : G -> T(G) for G = T^p F, p >= 1, where
    below = δ_{p-1} : G's base -> G.

    The restrictions of G are projections, so η_G is a 0/1 matrix: the row
    of sub-block z of block y of (TG)_x picks the column of block z of G_x.
    Those units are set by index, and δ_{p-1} at y is subtracted into the
    (y, y) block in place (`units_minus_blocks`)."""

    def block(x, n):
        rows, cols = TG.stalks[x].blocks[n], G.stalks[x].blocks[n]
        r_idx, c_idx, minus = [], [], {}
        for y, (r0, _) in rows.items():
            for z, (z0, d) in G.stalks[y].blocks[n].items():
                c0 = cols[z][0]
                r_idx.extend(range(r0 + z0, r0 + z0 + d))
                c_idx.extend(range(c0, c0 + d))
            m = below.component(y).components.get(n)
            if m is not None:
                minus[(y, y)] = m
        return units_minus_blocks(G.field, rows, cols, (r_idx, c_idx), minus)
    return SheafMap.from_blocks(G, TG, block)


def godement_resolution(F: Sheaf, p_max: int, top: int | None = None) -> GodementResolution:
    """G^p(F) = T^{p+1}(F) with d^i = T^i η T^{p-i}, s^j = T^j ν T^{p-j}.

    Since d^i_p = T(d^{i-1}_{p-1}) and T is linear, the coface sums obey
    δ_0 = η_F and δ_p = η_{T^p F} - T(δ_{p-1}); the resolution builds the
    levels, η and these p_max maps (`_coface_sum`), and leaves each coface
    and codegeneracy to its first read.  With `top`, level p is built
    in the internal degrees <= top - p only (`apply_T`), as every verdict
    does; None builds the full tower, for `resolve` and the reference tests.
    """
    if p_max < 0:
        raise InsufficientLevels("p_max must be >= 0")
    tower = [F]  # tower[k] = T^k F, so level p is tower[p + 1]
    for p in range(p_max + 1):
        tower.append(apply_T(tower[-1], None if top is None else top - p))
    eta = godement_eta(F, tower[1])
    sums, below = {}, eta
    for p in range(1, p_max + 1):
        below = sums[p] = _coface_sum(below, tower[p], tower[p + 1])
    levels = {p: tower[p + 1] for p in range(p_max + 1)}
    return GodementResolution(F, levels, eta, sums, p_max, top)


# ---- hypercohomology ------------------------------------------------------


class Hypercohomology:
    """H_X(F) = s G•(F) objectwise (or N H_X(F), resolution None), a
    `LabelledSheaf` on its stalks' blocks, with ρ_F (`_rho`)."""

    __slots__ = ("resolution", "H", "rho")

    def __init__(self, resolution, H, rho):
        self.resolution = resolution
        self.H = H
        self.rho = rho


def hypercohomology_sheaf(F: Sheaf, N: int) -> Hypercohomology:
    """Objectwise total complex of the Godement resolution, truncated at N.

    p_max = N - lower suffices: level p only contributes to total degrees
    >= p + lower, and only through its internal degrees <= N - p, the only
    ones the resolution builds (top = N).  The stalk at x is
    `simple(res.stalkwise(x), N)`, which reads the coface sums δ_p at x, so
    no coface or codegeneracy is built.  Every stalk complex re-asserts
    d∘d = 0, `LabelledSheaf` checks the labels and every component of ρ is
    validated as a chain map; the sheaf and ρ as a sheaf map are not
    validated, since that is O(n^3) matrix products, and
    `tests/test_godement.py` validates both on the suite sheaves and
    compares them with the totals of the full tower.
    """
    F.require_truncation(N)
    return _hypercohomology(godement_resolution(F, max(N - F.lower, 0), top=N), N)


def _hypercohomology(res: GodementResolution, N: int) -> Hypercohomology:
    """H_X(F) and ρ_F, totalled from the resolution `res` of F at N.

    The stalk at x is the total of `res.stalkwise(x)` with its summands split
    into slots: the slot (p, q, y) of H_X(F)_x^n is the block y of
    G^p(F)_x^q = ⊕_{y >= x} (T^p F)_y^q, with home y, so `sections` takes
    the chain route on H_X(F)."""
    F, poset = res.sheaf, res.sheaf.poset
    stalks = {}
    for x in poset.elements:
        X = res.stalkwise(x)
        S = simple(X, N)
        slots = {n: Layout(((p, q, y), d) for (p, q) in L
                           for y, (_, d) in X.level(p).blocks[q].items() if d)
                 for n, L in S.blocks.items()}
        stalks[x] = BlockComplex(F.field, slots, S.differentials, lower=S.lower,
                                 certified_degree=S.certified_degree, check=False)
    H = LabelledSheaf(poset, F.field, stalks)
    return Hypercohomology(res, H, _rho(F, H))


def _rho(F: Sheaf, H: LabelledSheaf) -> SheafMap:
    """ρ_F : F -> H for H = H_X(F) or N H_X(F): r_{x->y} into each level-0
    slot (0, n, ..., y) of H_x^n, home y, as η does, and zero elsewhere.
    Each component is validated as a chain map."""

    def block(x, n):
        rows = H.labels(x, n)
        return Matrix.assemble(F.field, rows, [F.stalk(x).dim(n)],
                               {(s, 0): F.restriction_in(x, s[-1], n)
                                for s in rows if s[0] == 0})
    rho = SheafMap.from_blocks(F, H, block)
    for f in rho.components.values():
        f.validate()
    return rho


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


def equivalence_check(f: SheafMap, kind: str) -> EquivalenceReport:
    """kind="local": quasi-isomorphism on every stalk.
    kind="global": quasi-isomorphism on the sections over every open
    (`Poset.up_sets`, TooLarge above its cap).

    A global check decides each open U by is_quis(sections_map(f, U)).
    Between `LabelledSheaf`s (H_X F, H_X(H_X F), N H_X F and N H_X R of
    both Thomason modes) the sections take the chain route, with no
    constraint system; on plain sheaves they take the constraint route.
    Either way `sections_map` raises NotContained for stalk maps that do
    not commute with the restrictions.
    """
    poset = f.source.poset
    witnesses = []
    cert = None
    if kind == "local":
        for x in poset.elements:
            r = is_quis(f.component(x))
            cert = min_certified(cert, r.certified_degree)
            witnesses.extend((x, n) for n in r.failures())
    elif kind == "global":
        for U in poset.up_sets():
            r = is_quis(sections_map(f, U))
            cert = min_certified(cert, r.certified_degree)
            label = tuple(sorted(map(str, U)))
            witnesses.extend((label, n) for n in r.failures())
    else:
        raise ValueError("kind must be 'local' or 'global'")
    return EquivalenceReport(kind, not witnesses, witnesses, cert)


# ---- the normalized resolution ----------------------------------------------


def normalized_hypercohomology_sheaf(F: Sheaf, N: int) -> LabelledSheaf:
    """N H_X(F), the total complex of the normalized Godement resolution,
    truncated at N: the span of the strict-chain slots of H_X(F), built from
    those labels alone (`_normalized_stalk`).  Its labels are its stalks'
    blocks, the slots (p, q, chain, y_0) of N H_X(F)_x^n holding F_{y_p}^q for
    a strict chain x <= y_0 < ... < y_p, home y_0.  No truncation below F's
    top degree is refused here: reduced Thomason builds N H_X R one degree below R's own."""
    P, top, cert = F.poset, F.top_degree, F.certified_degree
    return LabelledSheaf(P, F.field, {x: _normalized_stalk(F, P.up_set(x), N, top, cert)
                                      for x in P.elements})


def _normalized_stalk(F: Sheaf, up, N: int, top: int, cert) -> BlockComplex:
    """N H_X(F)_x over the strict chains of `up` = ↑x, in total degrees <= N.

    d is (-1)^p d_F on each slot plus the normalized coface sum: a chain of
    level p goes to each chain with one more vertex w, with sign (-1)^i for
    w at position i, by the identity when w is inserted (x <= w < y_0 at
    position 0) and by r_{y_p→w} when it is appended (i = p + 1).  Those
    targets are found once per stalk.  The stalk vanishes above
    height(↑x) + top, so once N reaches that it certifies every degree
    (None); otherwise N - 1.  Either way F's certified degree caps it, and
    d∘d = 0 is checked."""
    field, lo = F.field, F.lower
    by_len = F.poset.strict_chains(within=up)
    chains = [c for k in sorted(by_len) for c in by_len[k]]
    cofaces = {c: [] for c in chains}
    for t in chains[len(by_len[1]):]:  # every chain of two or more vertices
        for i in range(len(t)):
            cofaces[t[:i] + t[i + 1:]].append((i, t))
    blocks = {n: Layout(((len(c) - 1, n - len(c) + 1, c, c[0]), d) for c in chains
                        if (d := F.stalk(c[-1]).dim(n - len(c) + 1)))
              for n in range(lo, N + 1)}

    def signed(m, k):
        return m.scale(-1) if k % 2 else m
    diffs = {}
    for n in range(lo, N):
        rows, cols = blocks[n + 1], blocks[n]
        if not rows or not cols:
            continue
        entries = {}
        for src in cols:
            p, q, c, _ = src
            if (row := (p, q + 1, c, c[0])) in rows:
                entries[(row, src)] = signed(F.stalk(c[-1]).d(q), p)
            for i, t in cofaces[c]:
                if (row := (p + 1, q, t, t[0])) in rows:
                    m = F.restriction(c[-1], t[-1]).component(q) if i > p else \
                        Matrix.identity(field, rows[row][1])
                    entries[(row, src)] = signed(m, i)
        diffs[n] = Matrix.assemble(field, rows, cols, entries)
    complete = N >= max(by_len) - 1 + top
    return BlockComplex(field, blocks, diffs, lower=lo, check=True,
                        certified_degree=min_certified(None if complete else N - 1, cert))


def reduced_hypercohomology(F: Sheaf, N: int) -> Hypercohomology:
    """R = `normalized_hypercohomology_sheaf(F, N)` and ρ_F : F -> R (`_rho`),
    which inserts r_{x->y} on each 0-chain (y) as η does."""
    R = normalized_hypercohomology_sheaf(F, N)
    return Hypercohomology(None, R, _rho(F, R))


# ---- Theorem-suite checks --------------------------------------------------


def stalk_commutation_check(F: Sheaf, N: int, hyper: Hypercohomology | None = None) -> EquivalenceReport:
    """Condition: the simple functor commutes with stalks.

    On an Alexandrov site the stalk of the objectwise total complex at x is
    the total complex of the stalks, so the comparison map is degreewise the
    identity.  H_X(F)_x (`hyper`, at N) and the total of the stalks at x share
    their levels and internal differentials, so they differ only where δ_p of
    δ_p = η - T(δ_{p-1}) differs from the alternating sum of the cofaces
    d^i_p = T(d^{i-1}_{p-1}) (`coface_sum_mismatches` of `res.stalkwise(x)`):
    in internal degree q, a witness (x, p - 1 + q).  No total complex and no
    codegeneracy is built.
    """
    res = (hyper or hypercohomology_sheaf(F, N)).resolution
    witnesses = [(x, p - 1 + q) for x in F.poset.elements
                 for p, q in res.stalkwise(x).coface_sum_mismatches()]
    return EquivalenceReport("local", not witnesses, witnesses, N - 1)


def thomason_check(F: Sheaf, N: int, mode: str = "auto",
                   hyper: Hypercohomology | None = None) -> EquivalenceReport:
    """Does H_X(F) satisfy Thomason descent (ρ_{H_X(F)} a global equivalence)?

    Both modes return equivalence_check(ρ_M, "global") for a model M of
    H_X(H_X F): M = H_X(H_X F) in mode="literal", feasible on small posets
    only, and reads `hyper`; in mode="reduced", M = N H_X R at N - 1 with
    its ρ (`reduced_hypercohomology`), for R = N H_X F at N
    (`normalized_hypercohomology_sheaf`, no ρ).  Only ρ of M is kept, so the
    tower that built M is freed before the per-open loop, where each Γ(U, ρ)
    is read off the labels (`sections_map`) with no restriction built.
    A section of M over U is fixed by its value at each chain's first vertex,
    so Γ(U, M) is the strict replacement of R over U and Γ(U, ρ) its
    coaugmentation; that per-open route is the reference in
    tests/test_bridges.py.  mode="auto" picks literal when the weak chains of
    length N - lower, times top degree + 1, number at most 60.  A poset above
    the enumeration cap raises TooLarge before any work, another mode raises
    ValueError, and N below the top degree raises InsufficientLevels.
    """
    F.poset.require_enumerable()
    if mode not in ("auto", "literal", "reduced"):
        raise ValueError("mode must be 'auto', 'literal' or 'reduced'")
    F.require_truncation(N)
    if mode == "auto":
        weak = F.poset.weak_chain_count(max(N - F.lower, 1))
        mode = "literal" if weak * max(1, F.top_degree + 1) <= 60 else "reduced"
    if mode == "literal":
        rho = hypercohomology_sheaf((hyper or hypercohomology_sheaf(F, N)).H, N).rho
    else:
        rho = reduced_hypercohomology(normalized_hypercohomology_sheaf(F, N), N - 1).rho
    rep = equivalence_check(rho, "global")
    rep.mode = mode
    return rep


# ---- derived functors ------------------------------------------------------


def derived_sections(F: Sheaf, U, N: int):
    """RΓ(U, F) = Γ(U, N H_X(F)); returns (SectionComplex, betti dict).

    N H_X(F) (`normalized_hypercohomology_sheaf`) is built from strict-chain
    labels, with no Godement resolution, and on an open without a minimum
    its sections take the chain route: the betti numbers are those of the
    section complex read off the labels, with no constraint system, product
    or kernel, and the basis is built only if the caller reads it.  Where
    every stalk over U is complete (N >= height of ↑x + top degree) the
    result certifies every degree, otherwise N - 1.  N below the top degree
    raises InsufficientLevels.
    """
    F.require_truncation(N)
    sec = sections(normalized_hypercohomology_sheaf(F, N), U)
    return sec, sec.betti()


def derived_direct_image(f: MonotoneMap, F: Sheaf, N: int) -> Sheaf:
    """Rf_*(F) = f_* H_X(F)."""
    return direct_image(f, hypercohomology_sheaf(F, N).H)


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


def descent_double_complex(hyper: Hypercohomology, U, N: int):
    """The column-filtered double complex Γ(U, G•F) = Γ(U, H_X F), as
    (FilteredComplex, total), for hyper = `hypercohomology_sheaf(F, N)`.

    Γ(U, H_X F) is a `BlockComplex` on the slots (p, q, y) of H_X F: on the
    chain route that `sections` takes for H_X F its blocks are the basis
    labels, and on a minimal open it is the stalk itself.  The column
    filtration is its block filtration by p (`FilteredComplex.from_blocks`),
    whose zero-block check then checks it against d.  Γ(∅) = 0 certifies
    through N - 1, as the truncation at N does on every open.
    """
    from .filtered import FilteredComplex
    sec = sections(hyper.H, U)
    total = sec.complex if sec.open_set else \
        BlockComplex(hyper.H.field, {}, {}, certified_degree=N - 1)
    return FilteredComplex.from_blocks(total, 0, hyper.resolution.p_max), total


def descent_spectral_sequence(F: Sheaf, U, r_max: int, N: int):
    """The E_r pages, r = 0..r_max, of `descent_double_complex`, with its FC, total and hyper."""
    from .filtered import er_page
    hyper = hypercohomology_sheaf(F, N)
    FC, total = descent_double_complex(hyper, U, N)
    return [er_page(FC, r) for r in range(r_max + 1)], FC, total, hyper


def independent_e2_dims(F: Sheaf, U, N: int) -> dict:
    """dim H^p Γ(U, G•(H^q F)), the independent E_2: as H^q F sits in degree q, the
    betti number of RΓ(U, H^q F) in degree p + q, through the normalized
    resolution (`derived_sections`), certified for p + q <= N - 1 at least."""
    return {(n - q, q): b for q in range(F.lower, F.top_degree + 1)
            for n, b in derived_sections(cohomology_sheaf(F, q), U, N)[1].items()}


# ---- the W \\ S separation witness ------------------------------------------


def separation_witness(field):
    """A sheaf map that is a local but not a global equivalence.

    ρ of the constant sheaf on the pseudocircle, truncated at 4: stalkwise a
    quasi-isomorphism, but on global sections H^1 appears (the circle has
    cohomology in degree 1 while the constant complex has none).
    """
    from .complexes import single_complex
    from .site import constant_sheaf, pseudocircle_poset
    P = pseudocircle_poset()
    F = constant_sheaf(P, single_complex(field, 0, 1))
    hyper = hypercohomology_sheaf(F, 4)
    local = equivalence_check(hyper.rho, "local")
    glob = equivalence_check(hyper.rho, "global")
    return hyper.rho, local, glob
