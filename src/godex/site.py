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
    ChainMap, CochainComplex, conjugate, direct_sum, random_complex, zero_complex,
)
from .errors import (
    FieldMismatch, InvariantError, NotACover, NotContained, NotMonotone, NotOpen, TooLarge,
    UnknownElement,
)
from .exactlin import Field, Layout, Matrix

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
        cert = None
        for c in self.stalks.values():
            if c.certified_degree is not None:
                cert = c.certified_degree if cert is None else min(cert, c.certified_degree)
        return cert

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
        for x in self.poset.elements:
            for y in self.poset.elements:
                if not self.poset.leq(x, y):
                    continue
                for z in self.poset.elements:
                    if not self.poset.leq(y, z):
                        continue
                    lhs = self.restriction(y, z).compose(self.restriction(x, y))
                    if lhs != self.restriction(x, z):
                        raise InvariantError(
                            f"restriction functoriality fails on {x} <= {y} <= {z}")


class SheafMap:
    """A family of chain maps commuting with restrictions."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Sheaf, target: Sheaf, components: dict, check=True):
        self.source = source
        self.target = target
        self.components = components
        if check:
            self.validate()

    def component(self, x) -> ChainMap:
        return self.components[x]

    def validate(self):
        for x in self.source.poset.elements:
            f = self.component(x)
            if f.source != self.source.stalk(x) or f.target != self.target.stalk(x):
                raise InvariantError(f"sheaf map component at {x} has wrong source/target")
            f.validate()
        for (x, y) in self.source.poset.pairs():
            lhs = self.target.restriction(x, y).compose(self.component(x))
            rhs = self.component(y).compose(self.source.restriction(x, y))
            if lhs != rhs:
                raise InvariantError(f"sheaf map fails to commute with restriction {x} -> {y}")

    def compose(self, other: "SheafMap") -> "SheafMap":
        return SheafMap(other.source, self.target,
                        {x: self.component(x).compose(other.component(x))
                         for x in self.source.poset.elements}, check=False)

    def __eq__(self, other):
        if not isinstance(other, SheafMap):
            return NotImplemented
        return all(self.component(x) == other.component(x)
                   for x in self.source.poset.elements)

    @staticmethod
    def identity(F: Sheaf) -> "SheafMap":
        return SheafMap(F, F, {x: ChainMap.identity(F.stalk(x)) for x in F.poset.elements},
                        check=False)


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
            pivot_set = set(pivots)
            free[n] = [j for j in range(total) if j not in pivot_set]
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
    overlaps = {}
    for a in range(len(cover)):
        for b in range(len(cover)):
            W = cover[a] & cover[b]
            if W not in overlaps:
                overlaps[W] = sections(F, W)
    nonzero = [s.complex for s in secs + [sec_U] if not s.complex.is_zero_complex()]
    lo = min((c.lower for c in nonzero), default=sec_U.complex.lower)
    hi = max((c.upper for c in nonzero), default=lo)
    field = F.field
    for n in range(lo, hi + 1):
        sizes = [s.complex.dim(n) for s in secs]
        total = sum(sizes)
        rows = []
        row_sizes = []
        entries = {}
        ridx = 0
        for a in range(len(cover)):
            for b in range(a + 1, len(cover)):
                W = cover[a] & cover[b]
                sec_W = overlaps[W]
                dW = sec_W.complex.dim(n)
                if dW == 0:
                    continue
                ra = restriction_of_sections(F, secs[a], sec_W).component(n)
                rb = restriction_of_sections(F, secs[b], sec_W).component(n)
                entries[(ridx, a)] = ra
                entries[(ridx, b)] = entries.get((ridx, b), Matrix.zeros(field, dW, sizes[b])) - rb
                row_sizes.append(dW)
                ridx += 1
        if total == 0:
            if sec_U.complex.dim(n) != 0:
                return False
            continue
        sys = Matrix.assemble(field, row_sizes, sizes, entries) if row_sizes else \
            Matrix.zeros(field, 0, total)
        eq_basis = sys.kernel_matrix()
        if eq_basis.cols != sec_U.complex.dim(n):
            return False
        # the canonical map Γ(U) -> equalizer must be an isomorphism
        can = None
        for a in range(len(cover)):
            r = restriction_of_sections(F, sec_U, secs[a]).component(n)
            can = r if can is None else can.vstack(r)
        if sec_U.complex.dim(n) == 0:
            continue
        coords = eq_basis.solve(can)
        if coords.rank() != sec_U.complex.dim(n):
            return False
    return True


# ---- constructors --------------------------------------------------------


def constant_sheaf(P: Poset, C: CochainComplex) -> Sheaf:
    ident = ChainMap.identity(C)
    return Sheaf(P, C.field, {x: C for x in P.elements},
                 {pair: ident for pair in P.pairs()}, check=False)


def skyscraper(P: Poset, x, D: CochainComplex) -> Sheaf:
    """Stalk D at every y <= x, zero above; the direct image of D at x."""
    if x not in P:
        raise UnknownElement(f"unknown element {x!r}")
    field = D.field
    z = CochainComplex(field, {}, {}, lower=D.lower, check=False)
    stalks = {y: (D if P.leq(y, x) else z) for y in P.elements}
    restr = {}
    for (a, b) in P.pairs():
        if P.leq(b, x):
            restr[(a, b)] = ChainMap.identity(D)
        else:
            restr[(a, b)] = ChainMap.zero(stalks[a], stalks[b])
    return Sheaf(P, field, stalks, restr, check=False)


def up_set_sheaf(P: Poset, T, C: CochainComplex) -> Sheaf:
    """Stalk C on an up-closed T, zero outside, identities inside."""
    T = P.require_open(T)
    field = C.field
    z = CochainComplex(field, {}, {}, lower=C.lower, check=False)
    stalks = {y: (C if y in T else z) for y in P.elements}
    restr = {}
    for (a, b) in P.pairs():
        if a in T and b in T:
            restr[(a, b)] = ChainMap.identity(C)
        else:
            restr[(a, b)] = ChainMap.zero(stalks[a], stalks[b])
    return Sheaf(P, field, stalks, restr, check=False)


def down_set_sheaf(P: Poset, S, C: CochainComplex) -> Sheaf:
    """Stalk C on a down-closed S, zero outside (generalized skyscraper)."""
    S = frozenset(S)
    if not all(y in S for x in S for y in P.elements if P.leq(y, x)):
        raise InvariantError("subset is not down-closed")
    field = C.field
    z = CochainComplex(field, {}, {}, lower=C.lower, check=False)
    stalks = {y: (C if y in S else z) for y in P.elements}
    restr = {}
    for (a, b) in P.pairs():
        if a in S and b in S:
            restr[(a, b)] = ChainMap.identity(C)
        else:
            restr[(a, b)] = ChainMap.zero(stalks[a], stalks[b])
    return Sheaf(P, field, stalks, restr, check=False)


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


def mapping_cone_sheaf(f: SheafMap) -> Sheaf:
    """Degreewise cone of a sheaf map: stalk A^{n+1} ⊕ B^n, functorial."""
    A, B = f.source, f.target
    field = A.field
    stalks = {}
    layouts = {}
    for x in A.poset.elements:
        CA, CB = A.stalk(x), B.stalk(x)
        lo = min(CA.lower - 1, CB.lower)
        hi = max(CA.upper - 1, CB.upper)
        dims = {}
        for n in range(lo, hi + 1):
            dims[n] = CA.dim(n + 1) + CB.dim(n)
        diffs = {}
        for n in range(lo, hi):
            entries = {}
            da = CA.d(n + 1).scale(-1)
            entries[(0, 0)] = da
            entries[(1, 0)] = f.component(x).component(n + 1)
            entries[(1, 1)] = CB.d(n)
            diffs[n] = Matrix.assemble(field, [CA.dim(n + 2), CB.dim(n + 1)],
                                       [CA.dim(n + 1), CB.dim(n)], entries)
        stalks[x] = CochainComplex(field, dims, diffs, lower=lo, check=False)
        layouts[x] = (CA, CB)
    restr = {}
    for (a, b) in A.poset.pairs():
        CAa, CBa = layouts[a]
        CAb, CBb = layouts[b]
        comps = {}
        for n in stalks[a].dims:
            if stalks[b].dim(n) == 0:
                continue
            entries = {
                (0, 0): A.restriction(a, b).component(n + 1),
                (1, 1): B.restriction(a, b).component(n),
            }
            comps[n] = Matrix.assemble(field, [CAb.dim(n + 1), CBb.dim(n)],
                                       [CAa.dim(n + 1), CBa.dim(n)], entries)
        restr[(a, b)] = ChainMap(stalks[a], stalks[b], comps, check=False)
    return Sheaf(A.poset, field, stalks, restr, check=False)


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
        f = random_sheaf_map(F, G, rng)
        F = mapping_cone_sheaf(f)
        F = _pad_lower(F, min(F.lower, lo - 1))
    F = conjugate(F, rng)
    F.validate()
    return F


def random_sheaf_map(F: Sheaf, G: Sheaf, rng) -> SheafMap:
    """Random sheaf map F -> G sampled from the space of all of them.

    The commutation constraints (with differentials and restrictions) form a
    linear system; a random kernel element is returned.
    """
    field = F.field
    poset = F.poset
    slots = []
    offsets = {}
    off = 0
    for x in poset.elements:
        for n in range(min(F.stalk(x).lower, G.stalk(x).lower),
                       max(F.stalk(x).upper, G.stalk(x).upper) + 1):
            r, c = G.stalk(x).dim(n), F.stalk(x).dim(n)
            if r and c:
                slots.append((x, n, r, c))
                offsets[(x, n)] = off
                off += r * c
    total = off
    if total == 0:
        return SheafMap(F, G, {x: ChainMap.zero(F.stalk(x), G.stalk(x))
                               for x in poset.elements}, check=False)

    rows = []

    def add_equation(coeffs: dict, rdim: int, cdim: int):
        # coeffs: (x, n) -> (left Matrix or None, right Matrix or None) meaning
        # contribution L @ f_{x,n} @ R to an (rdim x cdim) matrix equation
        for i in range(rdim):
            for j in range(cdim):
                row = [0] * total
                touched = False
                for (x, n), (L, R, sign) in coeffs.items():
                    if (x, n) not in offsets:
                        continue
                    _, _, r, c = next(s for s in slots if s[0] == x and s[1] == n)
                    for a in range(r):
                        la = L.entry(i, a) if L is not None else (1 if i == a else 0)
                        if not la:
                            continue
                        for b in range(c):
                            rb = R.entry(b, j) if R is not None else (1 if b == j else 0)
                            if not rb:
                                continue
                            row[offsets[(x, n)] + a * c + b] += sign * la * rb
                            touched = True
                if touched:
                    rows.append([field.element(v) for v in row])

    for x in poset.elements:
        CF, CG = F.stalk(x), G.stalk(x)
        for n in range(min(CF.lower, CG.lower), max(CF.upper, CG.upper)):
            rdim, cdim = CG.dim(n + 1), CF.dim(n)
            if rdim == 0 or cdim == 0:
                continue
            add_equation({(x, n): (CG.d(n), None, 1), (x, n + 1): (None, CF.d(n), -1)},
                         rdim, cdim)
    for (x, y) in poset.covers():
        CFx, CGy = F.stalk(x), G.stalk(y)
        for n in range(min(CFx.lower, CGy.lower), max(CFx.upper, CGy.upper) + 1):
            rdim, cdim = CGy.dim(n), CFx.dim(n)
            if rdim == 0 or cdim == 0:
                continue
            add_equation({(x, n): (G.restriction(x, y).component(n), None, 1),
                          (y, n): (None, F.restriction(x, y).component(n), -1)},
                         rdim, cdim)
    if rows:
        sys = Matrix.from_rows(field, rows)
        K = sys.kernel_matrix()
    else:
        K = Matrix.identity(field, total)
    coeffs = Matrix(field, K.cols, 1, [[field.random_element(rng)] for _ in range(K.cols)])
    vec = K @ coeffs
    comps = {}
    for x in poset.elements:
        m = {}
        for (xx, n, r, c) in slots:
            if xx != x:
                continue
            block_m = Matrix.zeros(field, r, c).rows_list()
            for i in range(r):
                for j in range(c):
                    block_m[i][j] = vec.entry(offsets[(x, n)] + i * c + j, 0)
            m[n] = Matrix(field, r, c, block_m)
        comps[x] = ChainMap(F.stalk(x), G.stalk(x), m, check=False)
    out = SheafMap(F, G, comps, check=True)
    return out


def random_poset(size: int, rng) -> Poset:
    """Random poset on `size` elements via a random DAG's transitive closure."""
    els = [f"e{i}" for i in range(size)]
    rel = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.45:
                rel.append((els[i], els[j]))
    return Poset(els, rel)
