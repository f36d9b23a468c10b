"""Independent verification paths for derived sections.

Two constructions compute RΓ(X, F) without touching the Godement machinery:

  * the cosimplicial replacement: the total complex of the double complex
    C^p = ∏_{x_0 <= ... <= x_p} F_{x_p} over weakly increasing chains, with
    faces deleting a vertex (the last face also applies a restriction), and
  * its normalized variant over strictly increasing chains, which for
    constant coefficients is the simplicial cochain complex of the nerve
    (order complex) of the poset.

The strict-chain complex embeds in the weak-chain one as the subcomplex of
families vanishing on chains with repeats; the inclusion is a
quasi-isomorphism (degenerate chains contribute acyclically), and the tests
assert the resulting betti equalities rather than assuming them.  No program
reads a map into or between replacements, so the tests build the ones they
check.  Nothing here comes from `godement` or `cosimplicial`.
"""

from __future__ import annotations

from .complexes import BlockComplex, CochainComplex, min_certified
from .errors import InvariantError
from .exactlin import Field, Layout, Matrix, kron
from .site import Poset, Sheaf


def replacement_complex(F: Sheaf, N: int, strict: bool = False,
                        within=None) -> BlockComplex:
    """The (normalized if `strict`) cosimplicial replacement of F, totalized.

    blocks[n] of the result is the `Layout` of degree n: label (chain level
    p, chain tuple) -> (offset, dim) of F_{last vertex}^{n-p}, nonzero
    summands only.  Degrees are truncated at N; the result certifies degrees
    <= N-1 unless `strict` (the strict-chain complex vanishes above the
    poset height, so no truncation occurs once N exceeds height + top
    degree; in that case every degree is certified).
    """
    poset = F.poset
    elems = poset.sorted_subset(within) if within is not None else poset.elements
    field = F.field
    lo = F.lower
    levels = {}
    if strict:
        by_len = poset.strict_chains(within=elems)
        max_len = max(by_len) if by_len else 0
        for p in range(max_len):
            levels[p] = by_len.get(p + 1, [])
        complete = True
    else:
        max_len = N - lo + 1
        for p in range(max_len):
            levels[p] = poset.weak_chains(p + 1, within=elems)
        complete = False
    blocks = {n: Layout(((p, chain), F.stalk(chain[-1]).dim(n - p))
                        for p in sorted(levels) for chain in levels[p]
                        if F.stalk(chain[-1]).dim(n - p))
              for n in range(lo, N + 1)}
    diffs = {}
    for n in range(lo, N):
        rows = blocks[n + 1]
        cols = blocks[n]
        if not rows or not cols:
            continue
        entries = {}
        for row, (_, d) in rows.items():
            p, chain = row
            # coface contributions: this (p, chain) slot receives from level p-1
            if p >= 1:
                for i in range(p + 1):
                    if i < p:
                        sub = (p - 1, chain[:i] + chain[i + 1:])
                        if sub in cols:
                            m = Matrix.identity(field, d)
                            _accumulate(entries, (row, sub), m if i % 2 == 0 else m.scale(-1))
                    else:
                        sub = (p - 1, chain[:-1])
                        if sub in cols:
                            # the last face applies the restriction along the
                            # final step of the chain
                            m = F.restriction(chain[-2], chain[-1]).component(n - (p - 1))
                            _accumulate(entries, (row, sub), m if p % 2 == 0 else m.scale(-1))
            # internal differential: from (p, chain) at degree n-p
            if row in cols:
                m = F.stalk(chain[-1]).d(n - p)
                _accumulate(entries, (row, row), m if p % 2 == 0 else m.scale(-1))
        diffs[n] = Matrix.assemble(field, rows, cols, entries)
    cert = None if (strict and complete and N >= (max(levels) if levels else 0) + F.top_degree) \
        else N - 1
    cert = min_certified(cert, F.certified_degree)
    return BlockComplex(field, blocks, diffs, lower=lo, certified_degree=cert, check=True)


def _accumulate(entries: dict, key, m: Matrix):
    prev = entries.get(key)
    entries[key] = m if prev is None else prev + m


def holim_replacement(F: Sheaf, N: int, strict: bool = False) -> BlockComplex:
    """RΓ(X, F) via the cosimplicial replacement (weak chains by default).

    A truncation N below the top degree of F is refused with
    InsufficientLevels, as RΓ through the Godement resolution refuses it.
    (`replacement_complex` itself accepts it: the per-open reference of the
    reduced Thomason check builds the strict replacement of R = N H_X F one
    degree below R's own truncation.)
    """
    F.require_truncation(N)
    return replacement_complex(F, N, strict=strict)


class NerveComplex:
    """The order complex of a poset: strict chains and their coboundaries."""

    __slots__ = ("poset", "simplices", "coboundaries", "field")

    def __init__(self, poset: Poset, field: Field):
        self.poset = poset
        self.field = field
        by_len = poset.strict_chains()
        self.simplices = {k - 1: v for k, v in by_len.items()}
        self.coboundaries = {}
        for p in sorted(self.simplices):
            if p + 1 not in self.simplices:
                continue
            rows = self.simplices[p + 1]
            cols = {c: j for j, c in enumerate(self.simplices[p])}
            m = Matrix.zeros(field, len(rows), len(cols)).rows_list()
            for i, chain in enumerate(rows):
                for k in range(p + 2):
                    face = chain[:k] + chain[k + 1:]
                    j = cols.get(face)
                    if j is not None:
                        m[i][j] += (-1) ** k
            self.coboundaries[p] = Matrix(field, len(rows), len(cols), m)
        # d∘d = 0
        for p in self.coboundaries:
            if p + 1 in self.coboundaries:
                if not (self.coboundaries[p + 1] @ self.coboundaries[p]).is_zero():
                    raise InvariantError(f"nerve coboundary squares to nonzero at {p}")

    def dim(self, p: int) -> int:
        return len(self.simplices.get(p, ()))

    def coboundary(self, p: int) -> Matrix:
        m = self.coboundaries.get(p)
        if m is None:
            return Matrix.zeros(self.field, self.dim(p + 1), self.dim(p))
        return m


def constant_cohomology(P: Poset, field: Field, C: CochainComplex, N: int) -> dict:
    """Betti numbers of the nerve of P with coefficients in the complex C.

    Computed as the total complex of the two-directional double complex
    (simplicial direction x internal direction); independent of the sheaf
    machinery.  For C = field in degree 0 this is H^*(|nerve(P)|; field).
    """
    nerve = NerveComplex(P, field)
    ps = sorted(nerve.simplices)
    lo = C.lower
    blocks = {n: Layout(((p, n - p), nerve.dim(p) * C.dim(n - p)) for p in ps
                        if nerve.dim(p) * C.dim(n - p))
              for n in range(lo, N + 1)}
    diffs = {}
    for n in range(lo, N):
        rows = blocks[n + 1]
        cols = blocks[n]
        if not rows or not cols:
            continue
        entries = {}
        for (p, q) in cols:
            if (p + 1, q) in rows:
                entries[((p + 1, q), (p, q))] = kron(nerve.coboundary(p),
                                                     Matrix.identity(field, C.dim(q)))
            if (p, q + 1) in rows:
                m = kron(Matrix.identity(field, nerve.dim(p)), C.d(q))
                entries[((p, q + 1), (p, q))] = m if p % 2 == 0 else m.scale(-1)
        diffs[n] = Matrix.assemble(field, rows, cols, entries)
    height = max(ps) if ps else 0
    cert = None if N >= height + C.upper + 1 else N - 1
    total = CochainComplex(field, {n: L.dim for n, L in blocks.items()}, diffs, lower=lo,
                           certified_degree=cert, check=True)
    return total.betti()
