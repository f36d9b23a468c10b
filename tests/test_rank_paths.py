"""The rank paths against the basis paths they replace.

Betti numbers of Γ(U, F) come from ranks of the cover-constraint systems
(`SectionComplex.betti`), the E_r dims of every filtration from ranks of
blocks of d in its adapted basis (`er_page`), the cycle spaces Z_r from
kernels of those blocks, and E_r-quasi-isomorphism verdicts from ranks on
them (`is_er_quis`).  Each is compared with the basis path it replaced, on
inputs large enough to take the rank path, and each keeps its check: the
membership guard of the sections, the zero-block check of
`FilteredComplex`, and d_r ∘ d_r = 0 once the terms are built.
"""

import random

import pytest

from godex import filtered
from godex.complexes import BlockComplex, ChainMap, CochainComplex, random_complex, single_complex
from godex.cosimplicial import random_cosimplicial, simple
from godex.errors import InvariantError, NotContained, NotFiltered
from godex.exactlin import (
    GF, QQ, Layout, Matrix, Subspace, random_invertible, random_matrix,
)
from godex.filtered import (
    FilteredComplex, check_descent_axioms_filtered, check_filtered_map, decalage, er_page,
    is_er_quis, random_filtered_complex,
)
from godex.godement import derived_sections, descent_double_complex, hypercohomology_sheaf
from godex.site import (
    Sheaf, chain_poset, constant_sheaf, point_poset, pseudocircle_poset, pseudosphere_poset,
    random_sheaf, sections, sierpinski_poset, skyscraper,
)

from conftest import intersect, preimage

F5 = GF(5)
SUITE = {"point": point_poset, "sierpinski": sierpinski_poset, "chain3": lambda: chain_poset(3),
         "pseudocircle": pseudocircle_poset, "pseudosphere": pseudosphere_poset}


def _compare_sections(F, N):
    """Rank betti == basis betti of Γ(U, H_X(F)) on every open; returns the
    number of opens that took the rank path."""
    H = hypercohomology_sheaf(F, N).H
    ranked = 0
    for U in F.poset.up_sets():
        sec = sections(H, U)
        betti = sec.betti()
        if sec._complex is None:
            ranked += 1
        assert betti == sections(H, U).complex.betti(), sorted(U)
        assert sec.certified_degree == sections(H, U).complex.certified_degree
    return ranked


@pytest.mark.parametrize("name", list(SUITE))
def test_section_betti_ranks_match_basis_on_suite_sheaves(name):
    P = SUITE[name]()
    ranked = 0
    for t in range(20):
        F = random_sheaf(P, F5, 1000 * len(name) + t, max_dim=2, span=3)
        ranked += _compare_sections(F, F.top_degree + 3)
    if name in ("pseudocircle", "pseudosphere"):
        assert ranked >= 20


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
def test_section_betti_ranks_match_basis_on_skyscrapers_and_constants(field):
    rng = random.Random(31)
    for name, make in SUITE.items():
        if field == QQ and name == "pseudosphere":
            continue  # H_X over Q there is tens of seconds of Fraction elimination
        P = make()
        D = random_complex(field, rng, span=2, max_dim=2)
        while D.total_dim() == 0:
            D = random_complex(field, rng, span=2, max_dim=2)
        for x in P.elements:
            _compare_sections(skyscraper(P, x, D), D.upper + 2)
        _compare_sections(constant_sheaf(P, single_complex(field, 0, 1)), 3)


def test_section_betti_ranks_match_basis_over_q():
    """Over Q the suite posets where H_X stays small, and the sheaves
    themselves on the larger ones."""
    for name, make in SUITE.items():
        P = make()
        for t in range(2):
            F = random_sheaf(P, QQ, 1000 * len(name) + t, max_dim=2, span=2)
            if name in ("point", "sierpinski", "chain3"):
                _compare_sections(F, F.top_degree + 2)
            for U in P.up_sets():
                assert sections(F, U).betti() == sections(F, U).complex.betti()


def test_derived_sections_builds_no_basis(monkeypatch):
    P = pseudosphere_poset()
    F = random_sheaf(P, F5, 1000 * len("pseudosphere") + 1, max_dim=2, span=3)
    N = F.top_degree + 3
    hyper = hypercohomology_sheaf(F, N)
    want = sections(hyper.H, frozenset(P.elements)).complex.betti()
    calls = []
    kernel_matrix = Matrix.kernel_matrix
    monkeypatch.setattr(Matrix, "kernel_matrix",
                        lambda self, *a, **k: calls.append(1) or kernel_matrix(self, *a, **k))
    sec, betti = derived_sections(F, frozenset(P.elements), N, hyper=hyper)
    assert betti == want
    assert calls == [] and sec._complex is None
    assert sec.certified_degree == N - 1
    sec.complex  # the basis path, on demand
    assert calls


def test_rank_guard_rejects_a_restriction_that_is_not_a_chain_map():
    """H_X(F) is built with check=False, so the membership guard is the only
    check of its restrictions."""
    P = pseudocircle_poset()
    C = CochainComplex(F5, {0: 1, 1: 2}, {0: Matrix.from_rows(F5, [[1], [0]])})
    ident = ChainMap.identity(C)
    # a ⋖ x swaps the degree-1 coordinates: not a chain map
    swap = Matrix.from_rows(F5, [[0, 1], [1, 0]])
    broken = ChainMap(C, C, {0: Matrix.identity(F5, 1), 1: swap}, check=False)
    restr = {(a, b): broken if (a, b) == ("a", "x") else ident for (a, b) in P.pairs()}
    F = Sheaf(P, F5, {x: C for x in P.elements}, restr, check=False)
    with pytest.raises(InvariantError):
        F.validate()
    with pytest.raises(NotContained):
        sections(F, frozenset(P.elements)).betti()
    with pytest.raises(NotContained):
        sections(F, frozenset(P.elements)).complex


# ---- spectral pages ---------------------------------------------------------


def _basis_copy(FC: FilteredComplex) -> FilteredComplex:
    """The same filtration through `from_bases`, which builds its adapted
    basis by extending the flag."""
    return FilteredComplex.from_bases(FC.base, {kn: S.basis for kn, S in FC.subspaces().items()},
                                      FC.k_min, FC.k_max)


def _term_dims(FC, r, up_to=None):
    """The rank dims of E_r and the dims of the subquotients `_page_terms`
    builds at the same slots."""
    page = er_page(FC, r, up_to=up_to)
    terms, _ = filtered._page_terms(FC, r, page.spots)
    return page.dims(), {pq: t.dim for pq, t in terms.items() if t.dim}


def _compare_pages(FC, rs, up_tos):
    reference = _basis_copy(FC)
    for r in rs:
        for up_to in up_tos:
            page = er_page(FC, r, up_to=up_to)
            dims = page.dims()
            assert page._terms is None  # read from ranks
            assert (dims, dims) == _term_dims(reference, r, up_to), (r, up_to)
            page.terms  # built on demand, and checked against the rank dims
            assert page.dims() == dims


@pytest.mark.parametrize("name", list(SUITE))
def test_page_dims_ranks_match_basis_on_criterion_7_sheaves(name):
    P = SUITE[name]()
    for t in (0, 1):
        F = random_sheaf(P, F5, 500 + t, max_dim=2, span=2)
        FC, total, _, _ = descent_double_complex(F, frozenset(P.elements), F.top_degree + 3)
        width = FC.k_max - FC.k_min + 1
        if name == "pseudosphere":
            # each basis page of the pseudosphere takes seconds: E_2 and E_∞
            _compare_pages(FC, (2, width + 1), (None,))
        else:
            _compare_pages(FC, range(width + 2), (None, total.certified_degree - 1))


@pytest.mark.parametrize("field", [F5, GF(2), QQ], ids=["F5", "F2", "Q"])
def test_page_dims_ranks_match_basis_on_random_block_filtrations(field):
    rng = random.Random(71)
    for _ in range(6):
        X = random_cosimplicial(field, rng, 3, span=2, max_dim=2)
        T = simple(X, X.p_max + (X.lower or 0))
        FC = FilteredComplex.from_blocks(T, 0, X.p_max)
        width = FC.k_max - FC.k_min + 1
        _compare_pages(FC, range(width + 2), (None, 2))


def test_from_blocks_rejects_an_entry_into_a_lower_block():
    d = Matrix.identity(F5, 1)
    base = BlockComplex(F5, {0: Layout([((1, 0), 1)]), 1: Layout([((0, 1), 1)])}, {0: d}, lower=0)
    with pytest.raises(InvariantError, match="d-compatible"):
        FilteredComplex.from_blocks(base, 0, 1)
    base.blocks = {0: Layout([((0, 0), 1)]), 1: Layout([((1, 0), 1)])}
    FC = FilteredComplex.from_blocks(base, 0, 1)
    assert er_page(FC, 1).dims() == {(0, 0): 1, (1, 0): 1} and er_page(FC, 2).dims() == {}
    with pytest.raises(InvariantError, match="outside"):
        FilteredComplex.from_blocks(base, 1, 1)


def _descent_filtration():
    P = chain_poset(3)
    F = random_sheaf(P, F5, 500, max_dim=2, span=2)
    return descent_double_complex(F, frozenset(P.elements), F.top_degree + 3)[0]


def test_reading_terms_later_runs_the_dr_squared_check(monkeypatch):
    FC = _descent_filtration()
    page_terms = filtered._page_terms

    def corrupted(FC, r, spots):
        terms, diffs = page_terms(FC, r, spots)
        ones = {pq: Matrix(m.field, m.rows, m.cols, [[1] * m.cols for _ in range(m.rows)])
                for pq, m in diffs.items()}
        return terms, ones

    page = er_page(FC, 0)
    monkeypatch.setattr(filtered, "_page_terms", corrupted)
    with pytest.raises(InvariantError, match="d_r ∘ d_r"):
        page.terms
    # a page that failed the check never hands out its unchecked terms
    with pytest.raises(InvariantError, match="d_r ∘ d_r"):
        page.terms
    with pytest.raises(InvariantError, match="d_r ∘ d_r"):
        page.homology_dims()


def test_terms_that_disagree_with_the_rank_dims_are_refused(monkeypatch):
    FC = _descent_filtration()
    page_terms = filtered._page_terms

    def shifted(FC, r, spots):
        terms, diffs = page_terms(FC, r, spots)
        pq = next(pq for pq, t in terms.items() if t.dim)
        terms[pq] = filtered.PageTerm(terms[pq].dim + 1, None, None, None)
        return terms, diffs

    page = er_page(FC, 1)
    monkeypatch.setattr(filtered, "_page_terms", shifted)
    with pytest.raises(InvariantError, match="the ranks give"):
        page.differentials
    with pytest.raises(InvariantError, match="the ranks give"):
        page.terms


# ---- generic filtrations: adapted bases ---------------------------------------


FIELDS = [GF(2), F5, QQ]


def _random_flag(field, rng, C, k_min, k_max):
    """A random d-compatible flag on C: F^k is F^{k+1} plus random vectors
    R_k^n and their images d R_k^{n-1}."""
    bases = {}
    for n in C.dims:
        bases[(k_max + 1, n)] = Matrix.zeros(field, C.dim(n), 0)
    for k in range(k_max, k_min, -1):
        fresh = {n: random_matrix(field, C.dim(n), rng.randint(0, 1), rng) for n in C.dims}
        for n in C.dims:
            new = bases[(k + 1, n)].hstack(fresh[n])
            if n - 1 in fresh:
                new = new.hstack(C.d(n - 1) @ fresh[n - 1])
            bases[(k, n)] = new
    return FilteredComplex.from_bases(C, {kn: m for kn, m in bases.items() if kn[0] <= k_max},
                                      k_min, k_max)


def _assert_rank_dims_match_terms(FC):
    width = FC.k_max - FC.k_min + 1
    for r in range(width + 2):
        dims, built = _term_dims(FC, r)
        assert dims == built, r


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_page_dims_ranks_match_terms_on_random_flags(field):
    rng = random.Random(83)
    for _ in range(6):
        C = random_complex(field, rng, span=3, max_dim=3)
        FC = _random_flag(field, rng, C, -1, 2)
        _assert_rank_dims_match_terms(FC)
        assert _basis_copy(FC) == FC


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_page_dims_ranks_match_terms_on_transported_and_decalage(field):
    rng = random.Random(89)
    for _ in range(4):
        FC = random_filtered_complex(field, rng, span=3, max_dim=2)
        _assert_rank_dims_match_terms(FC)
        _assert_rank_dims_match_terms(decalage(FC))


def test_from_bases_refuses_a_flag_that_does_not_decrease():
    C = single_complex(F5, 0, 2)
    e0, e1 = Matrix.from_rows(F5, [[1], [0]]), Matrix.from_rows(F5, [[0], [1]])
    FilteredComplex.from_bases(C, {(1, 0): e0.hstack(e1), (2, 0): e0}, 0, 2)
    with pytest.raises(InvariantError, match="not decreasing at \\(k=2, n=0\\)"):
        FilteredComplex.from_bases(C, {(1, 0): e1, (2, 0): e0}, 0, 2)
    with pytest.raises(InvariantError, match="not decreasing"):
        FilteredComplex.from_bases(C, {(2, 0): e0}, 0, 2)  # F^1 = 0 below F^2 != 0


def test_check_filtered_map_catches_a_break_of_a_transported_filtration():
    """F^1 = span(g e_0) is no coordinate line; g D g^-1 preserves it for a
    diagonal D, g P g^-1 with P swapping e_0 and e_1 does not."""
    C = single_complex(F5, 0, 3)
    g = random_invertible(F5, 3, random.Random(98))
    FC = FilteredComplex.from_bases(C, {(1, 0): g.take_columns([0])}, 0, 1)
    assert all(FC.filtration(1, 0) != FilteredComplex.from_bases(
        C, {(1, 0): Matrix.identity(F5, 3).take_columns([i])}, 0, 1).filtration(1, 0)
        for i in range(3))
    ginv = g.inverse()
    diagonal = Matrix.from_rows(F5, [[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    check_filtered_map(ChainMap(C, C, {0: g @ diagonal @ ginv}), FC, FC)
    swap = Matrix.from_rows(F5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotFiltered, match="k=1, n=0"):
        check_filtered_map(ChainMap(C, C, {0: g @ swap @ ginv}), FC, FC)


# ---- cycle spaces and E_r-quasi-isomorphisms ------------------------------------


def _coordinate_span(FC, k, n):
    """F^k A^n in adapted coordinates: the unit vectors of weight >= k."""
    dim = FC.base.dim(n)
    return Subspace.spanned_by(FC.base.field, dim, Matrix.identity(FC.base.field, dim)
                               .take_columns(FC.columns(k, n)))


def _assert_cycle_spaces_match_preimages(FC):
    """`_cycle_space` == F^p ∩ d^{-1}(F^{p+r}) on every slot, and its basis
    is the identity on its unit rows."""
    field = FC.base.field
    for n in FC.base.degrees():
        for p in range(FC.k_min, FC.k_max + 2):
            for r in range(-1, FC.k_max - FC.k_min + 3):
                Z = filtered._cycle_space(FC, p, n - p, r)
                want = _coordinate_span(FC, p, n)
                if want.dim and r >= 0:
                    upper = _coordinate_span(FC, p + r, n + 1)
                    want = intersect(want, preimage(FC.graded.d(n), upper))
                assert Z == want, (p, n, r)
                assert Z.basis.take_rows(Z.unit_rows) == Matrix.identity(field, Z.dim)


@pytest.mark.parametrize("name", list(SUITE))
def test_cycle_spaces_match_preimages_on_criterion_7_sheaves(name):
    P = SUITE[name]()
    # the preimage path takes seconds per pseudosphere filtration: one there
    for t in ((0,) if name == "pseudosphere" else (0, 1)):
        F = random_sheaf(P, F5, 500 + t, max_dim=2, span=2)
        FC = descent_double_complex(F, frozenset(P.elements), F.top_degree + 3)[0]
        _assert_cycle_spaces_match_preimages(FC)


@pytest.mark.parametrize("field", [GF(2), GF(3), F5], ids=["F2", "F3", "F5"])
def test_cycle_spaces_match_preimages_on_random_filtrations(field):
    rng = random.Random(97)
    for _ in range(4):
        FC = random_filtered_complex(field, rng, span=3, max_dim=2)
        _assert_cycle_spaces_match_preimages(FC)
        _assert_cycle_spaces_match_preimages(decalage(FC))
        C = random_complex(field, rng, span=3, max_dim=3)
        _assert_cycle_spaces_match_preimages(_random_flag(field, rng, C, -1, 2))


def _reference_er_quis(f, src, tgt, r, up_to):
    """The per-slot verdict of E_{r+1}(f) from the page terms: the matrix of
    the induced map between matching terms, and its rank."""
    adapted = check_filtered_map(f, src, tgt)
    ps, pt = er_page(src, r + 1, up_to=up_to), er_page(tgt, r + 1, up_to=up_to)
    per = {}
    for (p, q) in set(ps.dims()) | set(pt.dims()):
        t, tt = ps.terms.get((p, q)), pt.terms.get((p, q))
        if t is None or tt is None or t.dim != tt.dim:
            per[(p, q)] = False
            continue
        image = adapted[p + q] @ t.cycles.basis @ t.section
        per[(p, q)] = (tt.proj @ tt.cycles.coords_of(image)).rank() == t.dim
    return all(per.values()), per


def _random_filtered_map(rng, src, tgt):
    """A random filtered chain map src -> tgt: a random vector of the kernel
    of the chain-map equations on the adapted entries whose row weight is at
    least their column weight, carried back to the bases."""
    field = src.base.field
    degrees = [n for n in src.base.dims if src.base.dim(n) and tgt.base.dim(n)]
    unknowns = [(n, i, j) for n in degrees for i, wi in enumerate(tgt.weights(n))
                for j, wj in enumerate(src.weights(n)) if wi >= wj]
    if not unknowns:
        return ChainMap(src.base, tgt.base, {})
    index = {u: k for k, u in enumerate(unknowns)}
    rows = []
    for n in set(src.base.dims) | set(tgt.base.dims):
        dS, dT = src.graded.d(n), tgt.graded.d(n)
        for i in range(tgt.base.dim(n + 1)):
            for j in range(src.base.dim(n)):
                row = [0] * len(unknowns)
                for a in range(tgt.base.dim(n)):  # (dT f_n)[i, j]
                    if (n, a, j) in index:
                        row[index[(n, a, j)]] += dT.entry(i, a)
                for b in range(src.base.dim(n + 1)):  # (f_{n+1} dS)[i, j]
                    if (n + 1, i, b) in index:
                        row[index[(n + 1, i, b)]] -= dS.entry(b, j)
                rows.append(row)
    K = Matrix.from_rows(field, rows).kernel_matrix() if rows else \
        Matrix.identity(field, len(unknowns))
    vec = K @ random_matrix(field, K.cols, 1, rng)
    comps = {}
    for n in degrees:
        m = [[0] * src.base.dim(n) for _ in range(tgt.base.dim(n))]
        for (k, i, j), u in index.items():
            if k == n:
                m[i][j] = vec.entry(u, 0)
        comps[n] = tgt.basis(n) @ Matrix.from_rows(field, m) @ src.inverse(n)
    return ChainMap(src.base, tgt.base, comps)


def _compare_er_quis(f, src, tgt, r, up_to, counts):
    flag, per = is_er_quis(f, src, tgt, r, up_to=up_to)
    assert (flag, per) == _reference_er_quis(f, src, tgt, r, up_to), (r, up_to)
    ps = er_page(src, r + 1, up_to=up_to)
    pt = er_page(tgt, r + 1, up_to=up_to)
    counts["slots"] += len(per)
    counts["equal dims, no iso"] += sum(
        1 for pq, iso in per.items() if not iso and ps.dim(*pq) == pt.dim(*pq))


@pytest.mark.parametrize("field", [GF(2), GF(3), F5], ids=["F2", "F3", "F5"])
def test_er_quis_ranks_match_induced_page_maps_on_random_filtered_maps(field):
    rng = random.Random(101)
    counts = {"slots": 0, "equal dims, no iso": 0}
    for _ in range(10):
        src = random_filtered_complex(field, rng, span=3, max_dim=2)
        tgt = random_filtered_complex(field, rng, span=3, max_dim=2)
        for A, B in ((src, src), (tgt, tgt), (src, tgt)):
            f = _random_filtered_map(rng, A, B)
            for r in (0, 1, 2):
                for up_to in (None, max(A.base.upper, B.base.upper) - 1):
                    _compare_er_quis(f, A, B, r, up_to, counts)
    assert counts["slots"] >= 350 and counts["equal dims, no iso"] >= 50, counts


def test_er_quis_ranks_match_induced_page_maps_in_the_filtered_audit(monkeypatch):
    """Every E_r-quasi-isomorphism verdict of the filtered axiom audit."""
    counts = {"slots": 0, "equal dims, no iso": 0}

    def compared(f, src, tgt, r, up_to=None):
        _compare_er_quis(f, src, tgt, r, up_to, counts)
        return is_er_quis(f, src, tgt, r, up_to=up_to)

    monkeypatch.setattr(filtered, "is_er_quis", compared)
    for seed in range(1, 7):
        for r in (0, 1, 2):
            assert check_descent_axioms_filtered(seed, trials=2, N=4, r=r).all_pass
    assert counts["slots"] >= 100, counts
