"""Finite Alexandrov sites and sheaves of complexes on them.

Topology convention: OPEN SETS ARE UP-SETS.  The minimal open neighbourhood
of x is ↑x = {y : y >= x}, so restriction maps run along <=: a sheaf stores
one complex per element ("the stalk", attained as the sections over ↑x) and
a restriction chain map F_x -> F_y for every x <= y.  The opposite (down-set)
convention is equally common in the literature; everything here is up-sets.

Sheaves are stored intrinsically on minimal opens; sections over a general
open are computed as an equalizer (kernel), never stored.
"""

from __future__ import annotations

import itertools

from .complexes import (
    ChainMap, CochainComplex, DiagramMap, conjugate, direct_sum, mapping_cone, min_certified,
    random_complex, random_map, zero_complex,
)
from .errors import (
    FieldMismatch, InvariantError, NotACover, NotContained, NotMonotone, NotOpen, TooLarge,
    UnknownElement,
)
from .exactlin import Field, Layout, Matrix, free_columns

UP_SET_ENUMERATION_CAP = 12


class Poset:
    """A finite poset; the order relation is verified at construction.

    A Poset is immutable, so up-sets, covers, strict pairs and sorted subsets
    are computed once and memoized.
    """

    __slots__ = ("elements", "_index", "_leq", "_up_sets", "_covers", "_pairs", "_sorted")

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvariantError("duplicate elements")
        self._index = {x: i for i, x in enumerate(self.elements)}
        rel = set()
        for x, y in leq_pairs:
            self._require(x)
            self._require(y)
            rel.add((x, y))
        for x in self.elements:
            rel.add((x, x))
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        for (a, b) in rel:
            if a != b and (b, a) in rel:
                raise InvariantError(f"antisymmetry fails on {a}, {b}")
        self._leq = frozenset(rel)
        self._up_sets = {}
        self._covers = None
        self._pairs = None
        self._sorted = {}

    def _require(self, x):
        if x not in self._index:
            raise UnknownElement(f"unknown element {x!r}")

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def index(self, x) -> int:
        return self._index[x]

    def leq(self, x, y) -> bool:
        return (x, y) in self._leq

    def up_set(self, x) -> frozenset:
        up = self._up_sets.get(x)
        if up is None:
            self._require(x)
            up = self._up_sets[x] = frozenset(y for y in self.elements if self.leq(x, y))
        return up

    def down_set(self, x) -> frozenset:
        self._require(x)
        return frozenset(y for y in self.elements if self.leq(y, x))

    def is_up_closed(self, subset) -> bool:
        s = set(subset)
        return all(y in s for x in s for y in self.elements if self.leq(x, y))

    def covers(self) -> tuple:
        """Covering relations x ⋖ y (no z strictly between)."""
        if self._covers is None:
            out = []
            for x in self.elements:
                for y in self.elements:
                    if x != y and self.leq(x, y):
                        if not any(z != x and z != y and self.leq(x, z) and self.leq(z, y)
                                   for z in self.elements):
                            out.append((x, y))
            self._covers = tuple(out)
        return self._covers

    def pairs(self) -> tuple:
        """All strict pairs x < y, in construction order."""
        if self._pairs is None:
            self._pairs = tuple((x, y) for x in self.elements for y in self.elements
                                if x != y and self.leq(x, y))
        return self._pairs

    def sorted_subset(self, subset) -> tuple:
        """Elements of `subset` in canonical (construction) order."""
        key = subset if isinstance(subset, frozenset) else frozenset(subset)
        out = self._sorted.get(key)
        if out is None:
            out = self._sorted[key] = tuple(x for x in self.elements if x in key)
        return out

    def strict_chains(self, max_len: int | None = None, within=None):
        """Strictly increasing chains grouped by length (1-based)."""
        elems = self.sorted_subset(within) if within is not None else self.elements
        by_len = {1: [(x,) for x in elems]}
        k = 1
        while by_len[k]:
            nxt = []
            for chain in by_len[k]:
                last = chain[-1]
                for y in elems:
                    if y != last and self.leq(last, y):
                        nxt.append(chain + (y,))
            k += 1
            by_len[k] = nxt
            if max_len is not None and k >= max_len:
                break
        return {k: v for k, v in by_len.items() if v}

    def weak_chains(self, length: int, within=None):
        """Weakly increasing chains (y_0 <= ... <= y_{length-1}), repeats allowed."""
        elems = self.sorted_subset(within) if within is not None else self.elements
        chains = [(x,) for x in elems]
        for _ in range(length - 1):
            chains = [c + (y,) for c in chains for y in elems if self.leq(c[-1], y)]
        return chains

    def up_sets(self, cap: int = UP_SET_ENUMERATION_CAP):
        """All open sets in canonical order: by size, then lexicographically."""
        if len(self.elements) > cap:
            raise TooLarge(f"poset has {len(self.elements)} > {cap} elements; "
                           "supply the list of opens explicitly")
        out = []
        for r in range(len(self.elements) + 1):
            for combo in itertools.combinations(self.elements, r):
                s = frozenset(combo)
                if self.is_up_closed(s):
                    out.append(s)
        return out

    def require_open(self, subset) -> frozenset:
        s = frozenset(subset)
        for x in s:
            self._require(x)
        if not self.is_up_closed(s):
            raise NotOpen(f"{sorted(map(str, s))} is not up-closed")
        return s


def point_poset() -> Poset:
    return Poset(["*"], [])


def sierpinski_poset() -> Poset:
    """The chain c < o; three opens."""
    return Poset(["c", "o"], [("c", "o")])


def chain_poset(n: int) -> Poset:
    els = [str(i) for i in range(n)]
    return Poset(els, [(els[i], els[i + 1]) for i in range(n - 1)])


def pseudocircle_poset() -> Poset:
    """a, b < x, y with {a,b} and {x,y} antichains; minimal finite circle."""
    return Poset(["a", "b", "x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])


def pseudosphere_poset() -> Poset:
    """Two pseudocircle layers joined: the 6-point finite 2-sphere."""
    return Poset(
        ["a", "b", "x", "y", "u", "v"],
        [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
         ("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")],
    )


STANDARD_POSETS = {
    "point": point_poset,
    "sierpinski": sierpinski_poset,
    "chain3": lambda: chain_poset(3),
    "pseudocircle": pseudocircle_poset,
    "pseudosphere": pseudosphere_poset,
}


class Sheaf:
    """A poset-indexed family of complexes with functorial restrictions."""

    __slots__ = ("poset", "field", "stalks", "restrictions")

    def __init__(self, poset: Poset, field: Field, stalks: dict, restrictions: dict, check=True):
        self.poset = poset
        self.field = field
        self.stalks = stalks
        self.restrictions = dict(restrictions)
        for x in poset.elements:
            if x not in stalks:
                raise InvariantError(f"missing stalk at {x}")
            self.restrictions[(x, x)] = ChainMap.identity(stalks[x])
        if check:
            self.validate()

    def stalk(self, x) -> CochainComplex:
        return self.stalks[x]

    def diagram(self):
        """Stalks in element order; restrictions (a, b) -> (a, b, F_a -> F_b)."""
        return ({x: self.stalks[x] for x in self.poset.elements},
                {(a, b): (a, b, self.restrictions[(a, b)]) for (a, b) in self.poset.pairs()})

    def rebuild(self, stalks, restrictions):
        return Sheaf(self.poset, self.field, stalks, restrictions, check=False)

    def restriction(self, x, y) -> ChainMap:
        """The map F_x -> F_y for x <= y."""
        return self.restrictions[(x, y)]

    @property
    def lower(self) -> int:
        lows = [c.lower for c in self.stalks.values()]
        return min(lows) if lows else 0

    @property
    def top_degree(self) -> int:
        tops = [c.upper for c in self.stalks.values() if not c.is_zero_complex()]
        return max(tops) if tops else self.lower

    @property
    def certified_degree(self) -> int | None:
        return min_certified(*(c.certified_degree for c in self.stalks.values()))

    def validate(self):
        lows = {c.lower for c in self.stalks.values()}
        if len(lows) > 1:
            raise InvariantError("stalks do not share a common lower bound")
        for x, c in self.stalks.items():
            if c.field != self.field:
                raise FieldMismatch(f"stalk at {x} over {c.field}, sheaf over {self.field}")
            c.validate()
        for (x, y) in self.poset.pairs():
            r = self.restrictions.get((x, y))
            if r is None:
                raise InvariantError(f"missing restriction {x} -> {y}")
            if r.source != self.stalk(x) or r.target != self.stalk(y):
                raise InvariantError(f"restriction {x} -> {y} has wrong source/target")
            r.validate()
        # r_{x,x} is the identity (the constructor sets it), so functoriality
        # can only fail on strict triples x < y < z
        for (x, y) in self.poset.pairs():
            for z in self.poset.elements:
                if z == y or not self.poset.leq(y, z):
                    continue
                lhs = self.restriction(y, z).compose(self.restriction(x, y))
                if lhs != self.restriction(x, z):
                    raise InvariantError(
                        f"restriction functoriality fails on {x} <= {y} <= {z}")


class SheafMap(DiagramMap):
    """A family of chain maps F_x -> G_x commuting with restrictions."""

    __slots__ = ()


class SectionComplex:
    """Γ(U, F) together with the evaluation maps to the stalks over U.

    A family of degree-n sections is a matrix stacking one block per stalk
    over U, in canonical order.  When U has no minimum, the section basis in
    degree n is `kernel_matrix` of the constraint system `systems[n]` (None
    when U has no cover relation), which is the identity on the rows
    `free[n]`: the coordinates of a stacked family are those rows, read off
    after the membership guard `systems[n] @ family == 0`.
    """

    __slots__ = ("open_set", "complex", "evaluations", "free", "systems")

    def __init__(self, open_set, complex, evaluations, free=None, systems=None):
        self.open_set = open_set
        self.complex = complex
        self.evaluations = evaluations
        self.free = free
        self.systems = systems

    def evaluation(self, x) -> ChainMap:
        return self.evaluations[x]

    def coordinates(self, n: int, stacked: Matrix) -> Matrix:
        """Coordinates of a stacked family in the degree-n section basis;
        NotContained if the family is not compatible.  Only sections over an
        open without a minimum carry `free` and `systems`; over an open with
        a minimum m, a section is its value at m."""
        return _coordinates(self.free.get(n, ()), self.systems.get(n), stacked)


def _coordinates(free, system, stacked: Matrix) -> Matrix:
    if system is not None and not (system @ stacked).is_zero():
        raise NotContained("family is not a compatible family of sections")
    return stacked.take_rows(free)


def _unique_minimum(poset: Poset, U: frozenset):
    for x in U:
        if all(poset.leq(x, y) for y in U):
            return x
    return None


def _stack(blocks) -> Matrix:
    out = None
    for m in blocks:
        out = m if out is None else out.vstack(m)
    return out


def sections(F: Sheaf, U) -> SectionComplex:
    """Γ(U, F): compatible families (a_x), r_{x->y} a_x = a_y, as a kernel.

    Γ(∅, F) is the zero complex, and Γ(↑x, F) is the stalk F_x itself with
    identity/restriction evaluations (the minimal open attains the stalk).
    Otherwise the basis is the kernel of the cover constraints, and the
    differential is read off the free rows of d applied to that basis (see
    `SectionComplex`); no linear system is solved.
    """
    poset = F.poset
    U = poset.require_open(U)
    field = F.field
    if not U:
        z = zero_complex(field)
        return SectionComplex(U, z, {})
    m = _unique_minimum(poset, U)
    if m is not None:
        evals = {y: F.restriction(m, y) for y in U}
        return SectionComplex(U, F.stalk(m), evals)
    order = poset.sorted_subset(U)
    cert = F.certified_degree
    lo = min(F.stalk(x).lower for x in order)
    hi = max((F.stalk(x).upper for x in order), default=lo)
    constraints = [(x, y) for (x, y) in poset.covers() if x in U and y in U]
    layouts = {n: Layout((x, F.stalk(x).dim(n)) for x in order) for n in range(lo, hi + 1)}
    basis = {}
    free = {}
    systems = {}
    dims = {}
    for n in range(lo, hi + 1):
        total = layouts[n].dim
        if total == 0:
            continue
        if constraints:
            # one row block per cover x ⋖ y: r_{x->y} a_x - a_y = 0
            rows = Layout(((x, y), F.stalk(y).dim(n)) for (x, y) in constraints)
            entries = {}
            for (x, y) in constraints:
                entries[((x, y), x)] = F.restriction(x, y).component(n)
                entries[((x, y), y)] = Matrix.identity(field, F.stalk(y).dim(n)).scale(-1)
            sys = Matrix.assemble(field, rows, layouts[n], entries)
            R, pivots = sys.rref()
            basis[n] = sys.kernel_matrix(reduced=(R, pivots))
            free[n] = free_columns(total, pivots)
            systems[n] = sys
        else:
            basis[n] = Matrix.identity(field, total)
            free[n] = list(range(total))
        dims[n] = basis[n].cols
    diffs = {}
    for n in range(lo, hi):
        if dims.get(n, 0) == 0 or dims.get(n + 1, 0) == 0:
            continue
        D = Matrix.assemble(field, layouts[n + 1], layouts[n],
                            {(x, x): F.stalk(x).d(n) for x in order})
        diffs[n] = _coordinates(free[n + 1], systems.get(n + 1), D @ basis[n])
    C = CochainComplex(field, dims, diffs, lower=lo, certified_degree=cert, check=True)
    evals = {x: {} for x in order}
    for n, b in basis.items():
        for x, (off, d) in layouts[n].items():
            if d and dims.get(n, 0):
                evals[x][n] = b.take_rows(range(off, off + d))
    eval_maps = {x: ChainMap(C, F.stalk(x), evals[x], check=True) for x in order}
    return SectionComplex(U, C, eval_maps, free, systems)


def restriction_of_sections(F: Sheaf, sec_U: SectionComplex, sec_V: SectionComplex) -> ChainMap:
    """The canonical map Γ(U, F) -> Γ(V, F) for V ⊆ U."""
    if not set(sec_V.open_set) <= set(sec_U.open_set):
        raise NotOpen("restriction target is not contained in the source open")
    CU, CV = sec_U.complex, sec_V.complex
    if not sec_V.open_set:
        return ChainMap.zero(CU, CV)
    poset = F.poset
    m = _unique_minimum(poset, sec_V.open_set)
    if m is not None:
        return sec_U.evaluation(m)
    order = poset.sorted_subset(sec_V.open_set)
    comps = {}
    for n in CV.dims:
        if CU.dim(n) == 0:
            continue
        stacked = _stack(sec_U.evaluation(x).component(n) for x in order)
        comps[n] = sec_V.coordinates(n, stacked)
    return ChainMap(CU, CV, comps, check=True)


def sections_map(f: SheafMap, U, sec_s: SectionComplex | None = None,
                 sec_t: SectionComplex | None = None) -> ChainMap:
    """Γ(U, f): the induced map on section complexes.

    `sec_s` and `sec_t` may carry Γ(U, source) and Γ(U, target) as returned
    by `sections`, when the caller has them already.
    """
    if sec_s is None:
        sec_s = sections(f.source, U)
    if sec_t is None:
        sec_t = sections(f.target, U)
    U = sec_s.open_set
    if not U:
        return ChainMap.zero(sec_s.complex, sec_t.complex)
    poset = f.source.poset
    m = _unique_minimum(poset, U)
    if m is not None:
        return f.component(m)
    order = poset.sorted_subset(U)
    comps = {}
    for n in sec_s.complex.dims:
        if sec_t.complex.dim(n) == 0:
            continue
        img = _stack(f.component(x).component(n) @ sec_s.evaluation(x).component(n)
                     for x in order)
        comps[n] = sec_t.coordinates(n, img)
    return ChainMap(sec_s.complex, sec_t.complex, comps, check=True)


def check_sheaf_equalizer(F: Sheaf, U, cover) -> bool:
    """Does Γ(U, F) equalize the cover/overlap diagram?  (It must.)"""
    poset = F.poset
    U = poset.require_open(U)
    cover = [poset.require_open(V) for V in cover]
    for V in cover:
        if not V <= U:
            raise NotACover("cover member is not contained in the open")
    union = frozenset().union(*cover) if cover else frozenset()
    if union != U:
        raise NotACover("union of the cover is not the whole open")
    sec_U = sections(F, U)
    secs = [sections(F, V) for V in cover]
    # Γ(V_a ∩ V_b) for a < b, computed once per overlap, with the
    # restrictions into it from Γ(V_a) and Γ(V_b); and Γ(U) -> Γ(V_a)
    pairs = [(a, b) for a in range(len(cover)) for b in range(a + 1, len(cover))]
    by_open, sec_W = {}, {}
    for (a, b) in pairs:
        W = cover[a] & cover[b]
        if W not in by_open:
            by_open[W] = sections(F, W)
        sec_W[(a, b)] = by_open[W]
    to_W = {(a, b): (restriction_of_sections(F, secs[a], sec_W[(a, b)]),
                     restriction_of_sections(F, secs[b], sec_W[(a, b)])) for (a, b) in pairs}
    to_cover = [restriction_of_sections(F, sec_U, s) for s in secs]
    nonzero = [s.complex for s in secs + [sec_U] if not s.complex.is_zero_complex()]
    lo = min((c.lower for c in nonzero), default=sec_U.complex.lower)
    hi = max((c.upper for c in nonzero), default=lo)
    field = F.field
    for n in range(lo, hi + 1):
        dim_U = sec_U.complex.dim(n)
        members = Layout((a, s.complex.dim(n)) for a, s in enumerate(secs))
        if members.dim == 0:
            if dim_U != 0:
                return False
            continue
        overlaps = Layout((ab, W.complex.dim(n)) for ab, W in sec_W.items() if W.complex.dim(n))
        entries = {}
        for (a, b) in overlaps:
            ra, rb = to_W[(a, b)]
            entries[((a, b), a)] = ra.component(n)
            entries[((a, b), b)] = rb.component(n).scale(-1)
        eq_basis = Matrix.assemble(field, overlaps, members, entries).kernel_matrix()
        if eq_basis.cols != dim_U:
            return False
        if dim_U == 0:
            continue
        # the canonical map Γ(U, F) -> equalizer must be an isomorphism
        can = Matrix.assemble(field, members, [dim_U],
                              {(a, 0): r.component(n) for a, r in enumerate(to_cover)})
        if eq_basis.solve(can).rank() != dim_U:
            return False
    return True


# ---- constructors --------------------------------------------------------


def _indicator_sheaf(P: Poset, S, C: CochainComplex) -> Sheaf:
    """Stalk C on S, zero outside, identities between points of S."""
    z = CochainComplex(C.field, {}, {}, lower=C.lower, check=False)
    stalks = {y: (C if y in S else z) for y in P.elements}
    ident = ChainMap.identity(C)
    return Sheaf(P, C.field, stalks,
                 {(a, b): ident if a in S and b in S else ChainMap.zero(stalks[a], stalks[b])
                  for (a, b) in P.pairs()}, check=False)


def constant_sheaf(P: Poset, C: CochainComplex) -> Sheaf:
    return _indicator_sheaf(P, frozenset(P.elements), C)


def skyscraper(P: Poset, x, D: CochainComplex) -> Sheaf:
    """Stalk D at every y <= x, zero above; the direct image of D at x."""
    return down_set_sheaf(P, P.down_set(x), D)


def up_set_sheaf(P: Poset, T, C: CochainComplex) -> Sheaf:
    """Stalk C on an up-closed T, zero outside, identities inside."""
    return _indicator_sheaf(P, P.require_open(T), C)


def down_set_sheaf(P: Poset, S, C: CochainComplex) -> Sheaf:
    """Stalk C on a down-closed S, zero outside (generalized skyscraper)."""
    S = frozenset(S)
    if not all(y in S for x in S for y in P.elements if P.leq(y, x)):
        raise InvariantError("subset is not down-closed")
    return _indicator_sheaf(P, S, C)


def skyscraper_unit(F: Sheaf, x) -> SheafMap:
    """The adjunction unit F -> skyscraper(x, F_x): restriction into the
    stalk where defined, identity at x itself."""
    sky = skyscraper(F.poset, x, F.stalk(x))
    comps = {}
    for y in F.poset.elements:
        if F.poset.leq(y, x):
            comps[y] = ChainMap(F.stalk(y), sky.stalk(y),
                                F.restriction(y, x).components, check=False)
        else:
            comps[y] = ChainMap.zero(F.stalk(y), sky.stalk(y))
    return SheafMap(F, sky, comps, check=True)


# ---- direct image ---------------------------------------------------------


class MonotoneMap:
    """An order-preserving map of posets."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: Poset, target: Poset, values: dict):
        self.source = source
        self.target = target
        self.values = dict(values)
        for x in source.elements:
            if x not in self.values:
                raise UnknownElement(f"map not defined on {x!r}")
            if self.values[x] not in target:
                raise UnknownElement(f"unknown target element {self.values[x]!r}")
        for (x, y) in source.pairs():
            if not target.leq(self.values[x], self.values[y]):
                raise NotMonotone(f"{x} <= {y} but images are not ordered")

    def __call__(self, x):
        return self.values[x]

    def preimage(self, subset) -> frozenset:
        s = set(subset)
        return frozenset(x for x in self.source.elements if self.values[x] in s)


def direct_image(f: MonotoneMap, F: Sheaf) -> Sheaf:
    """(f_* F)_q = Γ(f^{-1}(↑q), F), with restrictions from preimage inclusions."""
    if F.poset is not f.source and F.poset.elements != f.source.elements:
        raise InvariantError("sheaf lives on a different poset than the map source")
    Q = f.target
    secs = {q: sections(F, f.preimage(Q.up_set(q))) for q in Q.elements}
    stalks = {q: secs[q].complex for q in Q.elements}
    lows = {c.lower for c in stalks.values()}
    if len(lows) > 1:
        lo = min(lows)
        stalks = {q: CochainComplex(c.field, dict(c.dims), dict(c.differentials),
                                    lower=lo, certified_degree=c.certified_degree, check=False)
                  for q, c in stalks.items()}
        secs = {q: SectionComplex(secs[q].open_set, stalks[q], secs[q].evaluations,
                                  secs[q].free, secs[q].systems)
                for q in Q.elements}
    restr = {}
    for (a, b) in Q.pairs():
        restr[(a, b)] = restriction_of_sections(F, secs[a], secs[b])
        restr[(a, b)] = ChainMap(stalks[a], stalks[b], restr[(a, b)].components, check=False)
    return Sheaf(Q, F.field, stalks, restr, check=True)


# ---- randomized sheaves ----------------------------------------------------


def _pad_lower(F: Sheaf, lower: int) -> Sheaf:
    stalks = {x: CochainComplex(F.field, dict(c.dims), dict(c.differentials), lower=lower,
                                certified_degree=c.certified_degree, check=False)
              for x, c in F.stalks.items()}
    restr = {(a, b): ChainMap(stalks[a], stalks[b], F.restriction(a, b).components, check=False)
             for (a, b) in F.poset.pairs()}
    return Sheaf(F.poset, F.field, stalks, restr, check=False)


def random_sheaf(P: Poset, field: Field, seed: int, max_dim: int = 2, span: int = 3,
                 blocks: int = 2, allow_cone: bool = True) -> Sheaf:
    """Reproducible random sheaf satisfying all invariants.

    Functorial building blocks (constant, skyscraper, up-set and down-set
    sheaves, and cones of randomly sampled sheaf maps between them) are
    summed and then transported along random stalk automorphisms; restriction
    functoriality holds by construction and is re-validated.
    """
    import random as _random
    rng = _random.Random(seed)
    lo = 0

    def block():
        kind = rng.choice(["constant", "skyscraper", "upset", "downset"])
        C = random_complex(field, rng, lower=lo, span=rng.randint(1, span), max_dim=max_dim)
        if kind == "constant":
            return constant_sheaf(P, C)
        if kind == "skyscraper":
            return skyscraper(P, rng.choice(P.elements), C)
        if kind == "upset":
            return up_set_sheaf(P, P.up_set(rng.choice(P.elements)), C)
        down = P.down_set(rng.choice(P.elements))
        return down_set_sheaf(P, down, C)

    F = block()
    for _ in range(blocks - 1):
        F = direct_sum(F, block())[0]
    if allow_cone and rng.random() < 0.5:
        G = block()
        F = mapping_cone(SheafMap(F, G, random_map(F, G, rng)))
        F = _pad_lower(F, min(F.lower, lo - 1))
    F = conjugate(F, rng)
    F.validate()
    return F


def random_poset(size: int, rng) -> Poset:
    """Random poset on `size` elements via a random DAG's transitive closure."""
    els = [f"e{i}" for i in range(size)]
    rel = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.45:
                rel.append((els[i], els[j]))
    return Poset(els, rel)
