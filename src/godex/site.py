"""Finite Alexandrov sites and sheaves of complexes on them.

Topology convention: OPEN SETS ARE UP-SETS.  The minimal open neighbourhood
of x is ↑x = {y : y >= x}, so restriction maps run along <=: a sheaf stores
one complex per element ("the stalk", attained as the sections over ↑x) and
a restriction chain map F_x -> F_y for every x <= y.  The opposite (down-set)
convention is equally common in the literature; everything here is up-sets.

Sheaves are stored intrinsically on minimal opens; sections over a general
open are computed, never stored.  A `LabelledSheaf` (H_X F and N H_X F of
`godement`) is its stalks, split into labelled slots and checked once when
it is built; its restrictions project onto labels, so Γ(U, F) is a
`BlockComplex` with one block per label whose home lies in U, which
`sections` reads off the labels (the chain route of `SectionComplex`).  The
sections of every other sheaf are an equalizer, the kernel of the cover
constraints, built on first access; that constraint route is the reference
of the chain route.
"""

from __future__ import annotations

import itertools

from .complexes import (
    BlockComplex, ChainMap, CochainComplex, DiagramMap, LazyMap, conjugate, direct_sum,
    mapping_cone, min_certified, random_complex, random_map, zero_complex,
)
from .errors import (
    AmbientMismatch, FieldMismatch, InsufficientLevels, InvariantError, NotACover, NotContained,
    NotMonotone, NotOpen, TooLarge, UnknownElement,
)
from .exactlin import Field, Layout, Matrix, Subspace, free_columns

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

    def strict_chains(self, within=None):
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
        return {k: v for k, v in by_len.items() if v}

    def weak_chains(self, length: int, within=None):
        """Weakly increasing chains (y_0 <= ... <= y_{length-1}), repeats allowed."""
        elems = self.sorted_subset(within) if within is not None else self.elements
        chains = [(x,) for x in elems]
        for _ in range(length - 1):
            chains = [c + (y,) for c in chains for y in elems if self.leq(c[-1], y)]
        return chains

    def weak_chain_count(self, length: int) -> int:
        """len(weak_chains(length)), counted without building the chains: those
        of length k ending at y number Σ_{x <= y} of those of length k - 1 ending at x."""
        ending = [1] * len(self.elements)
        for _ in range(length - 1):
            ending = [sum(c for x, c in zip(self.elements, ending) if self.leq(x, y))
                      for y in self.elements]
        return sum(ending)

    def require_enumerable(self):
        """TooLarge above `UP_SET_ENUMERATION_CAP` elements, whose open sets
        are not enumerated; global and Thomason checks call it first."""
        if len(self.elements) > UP_SET_ENUMERATION_CAP:
            raise TooLarge(f"poset has {len(self.elements)} > {UP_SET_ENUMERATION_CAP} "
                           "elements; its open sets are not enumerated")

    def up_sets(self):
        """All open sets in canonical order, by size, then lexicographically."""
        self.require_enumerable()
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
        # r_{x,x} is the identity, built by `restriction` on each read
        self.restrictions = {(a, b): r for (a, b), r in restrictions.items() if a != b}
        for x in poset.elements:
            if x not in stalks:
                raise InvariantError(f"missing stalk at {x}")
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
        """The map F_x -> F_y for x <= y; for x == y the identity, built on
        each read and never stored on the sheaf."""
        return ChainMap.identity(self.stalks[x]) if x == y else self.restrictions[(x, y)]

    def restriction_in(self, x, y, n: int) -> Matrix:
        """`restriction(x, y)` in degree n; for x == y its identity alone."""
        return Matrix.identity(self.field, self.stalks[x].dim(n)) if x == y else \
            self.restrictions[(x, y)].component(n)

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

    def require_truncation(self, N: int):
        """Refuse a truncation N below the top degree: InsufficientLevels."""
        if N < self.top_degree:
            raise InsufficientLevels(
                f"truncation {N} does not cover the input degrees (top {self.top_degree})")

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
        # r_{x,x} is the identity (`restriction` builds it), so functoriality
        # can only fail on strict triples x < y < z
        for (x, y) in self.poset.pairs():
            for z in self.poset.elements:
                if z == y or not self.poset.leq(y, z):
                    continue
                lhs = self.restriction(y, z).compose(self.restriction(x, y))
                if lhs != self.restriction(x, z):
                    raise InvariantError(
                        f"restriction functoriality fails on {x} <= {y} <= {z}")


class LabelledSheaf(Sheaf):
    """A sheaf of `BlockComplex`es split into labelled slots, as a product
    ⊕_{y >= x} G_y is, built from its stalks alone.

    `labels(x, n)` is the `Layout` of F_x^n by label, the stalk's blocks, and
    a label's last entry is its home y >= x.  The restriction F_a -> F_b is
    the 0/1 projection onto the labels of F_b (`_projections`, built on its
    first read), so F is flasque.  The constructor checks the labels once
    (`_check_labels`); `sections` and `sections_map` read Γ(U, F) and
    Γ(U, f) off them, with no restriction (the chain route).
    """

    __slots__ = ()

    def __init__(self, poset: Poset, field: Field, stalks: dict):
        super().__init__(poset, field, stalks, {}, check=False)
        _check_labels(self)
        self.restrictions = _projections(poset, field, stalks)

    def labels(self, x, n: int) -> Layout:
        return self.stalks[x].blocks.get(n, _NO_SLOTS)


_NO_SLOTS = Layout()


def _projections(poset: Poset, field: Field, stalks: dict) -> LazyMap:
    """The restrictions of a sheaf of block complexes whose stalk at b keeps
    blocks of the stalk at a, for a < b: the projections onto those blocks,
    each built on its first read."""
    def project(pair):
        Sa, Sb = stalks[pair[0]], stalks[pair[1]]
        return ChainMap(Sa, Sb, {n: Sa.blocks[n].projection(field, Sb.blocks[n])
                                 for n in Sb.dims if Sa.dim(n)}, check=False)
    return LazyMap(poset.pairs(), project)


def _kept_rows(la: Layout, lb: Layout) -> list:
    """The rows of a stalk with labels `la` that the projection onto the
    labels `lb` keeps, in order; NotContained if a label of `lb` is missing
    from `la` or has another size there."""
    rows = []
    for label, (_, d) in lb.items():
        off, da = la.get(label, (0, None))
        if da != d:
            raise NotContained(f"label {label!r} is not kept by the restriction")
        rows.extend(range(off, off + d))
    return rows


def _check_labels(F: LabelledSheaf):
    """The label guard of a `LabelledSheaf`, by index selection with no
    product, in every degree: on each cover a ⋖ b of X, each label of F_b is
    one of F_a of the same size (`_kept_rows`) and the projection P onto
    them has d_b P = P d_a (the rows of d_a that P keeps are d_b placed in
    the columns P keeps); each label at x has its home at or above x and is
    a label there.  NotContained otherwise."""
    P, degrees = F.poset, range(F.lower, F.top_degree + 1)
    for a, b in P.covers():
        kept = {n: _kept_rows(F.labels(a, n), F.labels(b, n)) for n in degrees}
        for n in (n for n in degrees[:-1] if kept[n + 1]):  # else neither side has a row
            da = F.stalk(a).d(n)
            if da.take_rows(kept[n + 1]) != F.stalk(b).d(n).place_columns(da.cols, kept[n]):
                raise NotContained(f"projection {a} -> {b} does not commute with d in degree {n}")
    for x, n in itertools.product(P.elements, degrees):
        for label in F.labels(x, n):
            if label[-1] != x and (not P.leq(x, label[-1]) or label not in F.labels(label[-1], n)):
                raise NotContained(f"label {label!r} at {x} has no home above it")


class SheafMap(DiagramMap):
    """A family of chain maps F_x -> G_x commuting with restrictions."""

    __slots__ = ()

    @classmethod
    def from_blocks(cls, source: Sheaf, target: Sheaf, block) -> "SheafMap":
        """The unchecked map whose component at x is block(x, n) in every
        degree n where both stalks are nonzero; a block of None is zero."""
        comps = {}
        for x in source.poset.elements:
            S, T = source.stalks[x], target.stalks[x]
            blocks = {}
            for n in S.dims:
                if n in T.dims and (m := block(x, n)) is not None:
                    blocks[n] = m
            comps[x] = ChainMap(S, T, blocks, check=False)
        return cls(source, target, comps, check=False)


class SectionComplex:
    """Γ(U, F) together with the evaluation maps to the stalks over U.

    A family of degree-n sections is a matrix stacking one block per stalk
    over U, in canonical order, on the stalk layout `layouts[n]`.  Γ^n is
    `space(n)`, a subspace of those families whose basis is the identity on
    its unit rows, so the coordinates of a family are its entries there
    (`coordinates`):
      * when U has a minimum m, the basis stacks the restrictions out of m
        and the unit rows are m's block (the minimal open attains the
        stalk: the section complex is F_m itself);
      * otherwise, for a `LabelledSheaf` (the chain route), a section has
        one value per label whose home y lies in U, repeated on every slot
        of that label: the basis has one block per such label, 1 on those
        slots, and its unit rows are the label's slots at the last element
        of U ∩ ↓y in canonical order (y itself when that order extends
        <=), the free rows the constraint kernel has.  d is the unit rows
        of the stalk differentials, each column moved to the basis column
        of its label (`_chain_differential`), with no check: the label
        guard of the constructor found the projections commuting with d, so
        the complex is the stalks' restricted to Γ;
      * otherwise, when U has a cover relation, the basis spans the kernel
        of the cover-constraint system of degree n (`_constraint_system`)
        and the unit rows are its free rows: the constraint route, which
        stays the reference of the chain route;
      * with no cover relation, Γ^n is every family.

    The chain data, the spaces, the complex and the evaluations (on a
    minimal open, each one) are built on first access.  On the chain route
    the complex is a `BlockComplex` on the basis labels, as the stalk of a
    minimum is.  On an open without a minimum, Γ(U, F) is certified through
    the least certified degree of the stalks over U.
    """

    __slots__ = ("sheaf", "open_set", "layouts", "minimum", "chain", "_chains", "_spaces",
                 "_complex", "_evaluations")

    def __init__(self, sheaf, open_set, layouts, minimum):
        self.sheaf = sheaf
        self.open_set = open_set
        self.layouts = layouts
        self.minimum = minimum
        self.chain = minimum is None and bool(open_set) and isinstance(sheaf, LabelledSheaf)
        self._chains = None
        self._spaces = {}
        self._complex = self._evaluations = None
        if minimum is not None:
            self._complex = sheaf.stalk(minimum)
            self._evaluations = LazyMap(open_set, lambda y: sheaf.restriction(minimum, y))
        elif not open_set:
            self._complex, self._evaluations = zero_complex(sheaf.field), {}

    @property
    def complex(self) -> CochainComplex:
        if self._complex is None:
            self._build()
        return self._complex

    @property
    def evaluations(self) -> dict:
        """x -> Γ(U, F) -> F_x: on a minimal open ↑m the restriction out of m,
        each built on its first read; otherwise the rows of x in the section
        bases, each checked as a chain map, except on the chain route, where
        the label guard of the constructor makes it one (`_build`)."""
        if self._evaluations is None:
            C, F, lo = self.complex, self.sheaf, min(self.layouts)
            evals = {x: {} for x in self.layouts[lo]}
            for n, layout in self.layouts.items():
                for x, (off, d) in layout.items():
                    if d and C.dim(n):
                        evals[x][n] = self.space(n).basis.take_rows(range(off, off + d))
            self._evaluations = {x: ChainMap(C, F.stalk(x), comps, check=not self.chain)
                                 for x, comps in evals.items()}
        return self._evaluations

    @property
    def certified_degree(self) -> int | None:
        if self._complex is None:
            return min_certified(*(self.sheaf.stalk(x).certified_degree for x in self.open_set))
        return self._complex.certified_degree

    def evaluation(self, x) -> ChainMap:
        return self.evaluations[x]

    def space(self, n: int) -> Subspace:
        """Γ^n as a subspace of the degree-n families over U."""
        S = self._spaces.get(n)
        if S is None:
            F, layout, m = self.sheaf, self.layouts.get(n), self.minimum
            if layout is None or not layout.dim:
                S = Subspace.zero(F.field, 0)
            elif m is not None:
                off, d = layout[m]
                S = Subspace(F.field, layout.dim,
                             _stack(F.restriction_in(m, y, n) for y in layout),
                             range(off, off + d))
            elif self.chain:
                cols, units, _ = self._chain_data()[n]
                S = Subspace(F.field, layout.dim,
                             Matrix.identity(F.field, len(units)).take_rows(cols), units)
            elif covers := [(x, y) for x, y in F.poset.covers() if {x, y} <= self.open_set]:
                system = _constraint_system(F, covers, layout, n)
                R, pivots = system.rref()
                S = Subspace(F.field, layout.dim, system.kernel_matrix(reduced=(R, pivots)),
                             free_columns(layout.dim, pivots))
            else:
                S = Subspace.full(F.field, layout.dim)
            self._spaces[n] = S
        return S

    def coordinates(self, n: int, stacked: Matrix) -> Matrix:
        """Coordinates of a stacked family in the degree-n section basis;
        NotContained if the family is not compatible.  On the chain route
        the basis is 0/1, so the membership check is by index selection:
        every row of the family equals the unit row of its basis column."""
        if not self.chain or n not in self.layouts:
            return self.space(n).coords_of(stacked)
        cols, units, _ = self._chain_data()[n]
        if stacked.rows != len(cols):
            raise AmbientMismatch(f"family rows {stacked.rows} != ambient {len(cols)}")
        coords = stacked.take_rows(units)
        if coords.take_rows(cols) != stacked:
            raise NotContained("the family is not a section")
        return coords

    def betti(self) -> dict:
        return self.complex.betti()

    def _chain_data(self) -> dict:
        """n -> (the basis column of each family row, the unit rows, the
        basis labels) of the chain route."""
        if self._chains is None:
            order = self.sheaf.poset.sorted_subset(self.open_set)
            self._chains = {n: _chain_basis(self.sheaf, order, layout, n)
                            for n, layout in self.layouts.items()}
        return self._chains

    def _chain_differential(self, n: int) -> Matrix:
        """d^n on the chain route: for each stalk x, the rows of d_x^n at the
        unit rows in x, each column moved to the basis column of its slot."""
        chains, F = self._chain_data(), self.sheaf
        cols, units, width = chains[n][0], chains[n + 1][1], len(chains[n][1])
        blocks = []
        for x, (off, d) in self.layouts[n + 1].items():
            local = [r - off for r in units if off <= r < off + d]
            if local:
                s0, sd = self.layouts[n][x]
                block = F.stalk(x).d(n).take_rows(local)
                blocks.append(block.place_columns(width, cols[s0:s0 + sd]))
        return _stack(blocks)

    def _build(self):
        """The complex: on the chain route a `BlockComplex` on the basis
        labels, unchecked, as d∘d = 0 holds on every stalk and the label
        guard makes d the stalks' restricted to Γ; otherwise the
        coordinates of D_n applied to the section bases, each a membership check."""
        F, layouts = self.sheaf, self.layouts
        lo, hi = min(layouts), max(layouts)
        if self.chain:
            blocks = {n: basis for n, (_, _, basis) in self._chain_data().items()}
            dims, differential = {n: b.dim for n, b in blocks.items()}, self._chain_differential
        else:
            dims = {n: self.space(n).dim for n in layouts}

            def differential(n):
                # D_n: the stalk differentials d_x^n, block-diagonal
                D = Matrix.assemble(F.field, layouts[n + 1], layouts[n],
                                    {(x, x): F.stalk(x).d(n) for x in layouts[n]})
                return self.coordinates(n + 1, D @ self.space(n).basis)
        diffs = {n: differential(n) for n in range(lo, hi) if dims[n] and dims[n + 1]}
        cert = self.certified_degree
        self._complex = BlockComplex(F.field, blocks, diffs, lower=lo, certified_degree=cert,
                                     check=False) if self.chain else \
            CochainComplex(F.field, dims, diffs, lower=lo, certified_degree=cert, check=True)


def _chain_basis(F: LabelledSheaf, order, layout: Layout, n: int):
    """(cols, units, basis) of Γ^n on the chain route: cols[i] is the basis
    column of family row i, units are the unit rows, in increasing order,
    and basis is the `Layout` of the basis by label.  A label of home y gets
    one basis block, with its unit rows at the last u <= y of U in canonical
    order."""
    units = []
    for y in order:
        u = [x for x in order if F.poset.leq(x, y)][-1]
        for label, (_, d) in F.labels(y, n).items():
            if label[-1] == y:
                units.append((layout[u][0] + F.labels(u, n)[label][0], label, d))
    units.sort()
    basis = Layout((label, d) for _, label, d in units)
    cols = [0] * layout.dim
    for x, (off, _) in layout.items():
        for label, (o, dl) in F.labels(x, n).items():
            c = basis[label][0]
            cols[off + o:off + o + dl] = range(c, c + dl)
    return cols, [r + j for r, _, d in units for j in range(d)], basis


def _constraint_system(F: Sheaf, constraints, layout: Layout, n: int) -> Matrix:
    """S_n: one row block per cover x ⋖ y in U, r_{x->y} a_x - a_y = 0."""
    field = F.field
    rows = Layout(((x, y), F.stalk(y).dim(n)) for (x, y) in constraints)
    entries = {}
    for (x, y) in constraints:
        entries[((x, y), x)] = F.restriction(x, y).component(n)
        entries[((x, y), y)] = Matrix.identity(field, F.stalk(y).dim(n)).scale(-1)
    return Matrix.assemble(field, rows, layout, entries)


def _unique_minimum(poset: Poset, U: frozenset):
    for x in U:
        if all(poset.leq(x, y) for y in U):
            return x
    return None


def _stack(blocks) -> Matrix:
    """The blocks, one under another, copied once into one array."""
    first, *rest = blocks
    return first.vstack(*rest) if rest else first


def sections(F: Sheaf, U) -> SectionComplex:
    """Γ(U, F): compatible families (a_x), r_{x->y} a_x = a_y.

    Γ(∅, F) is the zero complex, and Γ(↑x, F) is the stalk F_x itself with
    the restrictions as evaluations (the minimal open attains the stalk).
    Otherwise this builds nothing yet (see `SectionComplex`): for a
    `LabelledSheaf`, the basis and the differential are read off the labels
    on first access, with no check (the chain route); for any other sheaf,
    the basis (the kernel of the cover constraints) and the differential
    (the coordinates of d applied to that basis, each a membership check)
    are built on first access.  No linear system is solved.
    """
    poset = F.poset
    U = poset.require_open(U)
    order = poset.sorted_subset(U)
    layouts = {}
    if order:
        lo = min(F.stalk(x).lower for x in order)
        hi = max(F.stalk(x).upper for x in order)
        layouts = {n: Layout((x, F.stalk(x).dim(n)) for x in order) for n in range(lo, hi + 1)}
    return SectionComplex(F, U, layouts, _unique_minimum(poset, U))


def _map_into(source: CochainComplex, sec: SectionComplex, value) -> ChainMap:
    """The chain map source -> Γ(U) whose degree-n component has the
    coordinates of the family (value(x, n))_{x ∈ U}.  Containment is checked
    in every degree with families over U, also where Γ^n = 0, so a family
    that is not a section there raises NotContained."""
    order = sec.sheaf.poset.sorted_subset(sec.open_set)
    comps = {n: sec.coordinates(n, _stack(value(x, n) for x in order))
             for n in source.dims if n in sec.layouts}
    return ChainMap(source, sec.complex, comps, check=True)


def restriction_of_sections(F: Sheaf, sec_U: SectionComplex, sec_V: SectionComplex) -> ChainMap:
    """The canonical map Γ(U, F) -> Γ(V, F) for V ⊆ U."""
    if not set(sec_V.open_set) <= set(sec_U.open_set):
        raise NotOpen("restriction target is not contained in the source open")
    if sec_V.minimum is not None:
        return sec_U.evaluation(sec_V.minimum)
    return _map_into(sec_U.complex, sec_V, lambda x, n: sec_U.evaluation(x).component(n))


def sections_map(f: SheafMap, U) -> ChainMap:
    """Γ(U, f): the induced map on section complexes.

    It is f_m on a minimal open ↑m, and otherwise `_map_into` the family
    (f_x e_x)_x for the evaluations e_x of Γ(U, source).  On the chain route
    e_x is 0/1, so f_x e_x is f_x's columns placed at the basis columns of
    x's slots, read off the labels with no product and no evaluation built.
    """
    sec_s, sec_t = sections(f.source, U), sections(f.target, U)
    if sec_s.minimum is not None:
        return f.component(sec_s.minimum)

    def value(x, n):
        if not sec_s.chain:
            return f.component(x).component(n) @ sec_s.evaluation(x).component(n)
        (off, d), cols = sec_s.layouts[n][x], sec_s._chain_data()[n][0]
        return f.component(x).component(n).place_columns(sec_s.complex.dim(n), cols[off:off + d])
    return _map_into(sec_s.complex, sec_t, value)


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
    lo = min(sec.complex.lower for sec in secs.values())
    stalks = {q: _with_lower(sec.complex, lo) for q, sec in secs.items()}
    restr = {(a, b): ChainMap(stalks[a], stalks[b],
                              restriction_of_sections(F, secs[a], secs[b]).components,
                              check=False)
             for (a, b) in Q.pairs()}
    return Sheaf(Q, F.field, stalks, restr, check=True)


# ---- randomized sheaves ----------------------------------------------------


def _with_lower(C: CochainComplex, lower: int) -> CochainComplex:
    """C with its lower bound moved to `lower` (at or below its lowest
    degree); C itself if it already has that bound."""
    if C.lower == lower:
        return C
    return CochainComplex(C.field, dict(C.dims), dict(C.differentials), lower=lower,
                          certified_degree=C.certified_degree, check=False)


def _pad_lower(F: Sheaf, lower: int) -> Sheaf:
    stalks = {x: _with_lower(c, lower) for x, c in F.stalks.items()}
    restr = {(a, b): ChainMap(stalks[a], stalks[b], F.restriction(a, b).components, check=False)
             for (a, b) in F.poset.pairs()}
    return Sheaf(F.poset, F.field, stalks, restr, check=False)


def random_sheaf(P: Poset, field: Field, seed: int, max_dim: int = 2, span: int = 3,
                 blocks: int = 2) -> Sheaf:
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
        F = direct_sum(F, block())
    if rng.random() < 0.5:
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
