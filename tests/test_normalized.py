"""The normalized Godement resolution N H_X F against its references.

`normalized_hypercohomology_sheaf` builds N H_X F from strict-chain labels
alone.  It must equal, matrix for matrix:

  * the strict-slot rows and columns of the unnormalized H_X F, whose other
    rows vanish on the strict columns, so the inclusion is a chain map;
  * the strict cosimplicial replacement of the oracle over ↑x.

The strict slots must also span ∩_j ker s^j of the Godement resolution,
computed by kernels (`conftest.reference_normalization`).  Derived sections
through N H_X F must agree with the unnormalized route, and stalks whose
differential breaks the projections onto labels must be refused when the
sheaf is built (tests/test_chain_sections.py compares the chain route of
its sections with the constraint route).
"""

import pytest

from conftest import from_rows, reference_normalization, t_chain_layout
from godex.complexes import BlockComplex
from godex.errors import NotContained
from godex.exactlin import GF, QQ, Matrix, Subspace
from godex.godement import (
    derived_sections, hypercohomology_sheaf, normalized_hypercohomology_sheaf,
)
from godex.oracle import replacement_complex
from godex.site import STANDARD_POSETS, LabelledSheaf, random_sheaf, sections

F5 = GF(5)


def _strict(chain) -> bool:
    return all(a != b for a, b in zip(chain, chain[1:]))


def _height(P) -> int:
    return max(P.strict_chains()) - 1


def _slot_rows(hyper, x, n) -> dict:
    """(p, chain) -> the rows of that weak-chain slot in H_X(F)_x^n: the
    chains (y, ...) of the slot (p, q, y), below y in level p - 1."""
    out = {}
    for (p, q, y), (off, _) in hyper.H.stalk(x).blocks.get(n, {}).items():
        for chain, (o, d) in t_chain_layout(hyper.resolution, p - 1, y, q).items():
            out[(p, (y,) + chain)] = range(off + o, off + o + d)
    return out


def _assert_equals_references(F, N):
    """N H_X(F) at N against H_X(F) at N, the oracle and ∩ ker s^j."""
    P, field = F.poset, F.field
    hyper = hypercohomology_sheaf(F, N)
    NH = normalized_hypercohomology_sheaf(F, N)
    assert type(NH) is LabelledSheaf
    res = hyper.resolution
    degrees = range(F.lower, N + 1)
    for x in P.elements:
        S, H = NH.stalk(x), hyper.H.stalk(x)
        slots = {n: _slot_rows(hyper, x, n) for n in degrees}
        strict = {}
        for n in degrees:
            labels = S.blocks[n]
            assert {(p, c): len(r) for (p, c), r in slots[n].items() if _strict(c)} == \
                {(p, c): d for (p, _, c, _), (_, d) in labels.items()}, (x, n)
            assert all(q == n - p and y == c[0] for p, q, c, y in labels)
            strict[n] = [r for p, _, c, _ in labels for r in slots[n][(p, c)]]
        for n in degrees[:-1]:
            D = H.d(n).take_columns(strict[n])
            assert D.take_rows(strict[n + 1]) == S.d(n), (x, n)
            others = [r for (_, c), rows in slots[n + 1].items() if not _strict(c) for r in rows]
            assert D.take_rows(others).is_zero(), (x, n)
        repl = replacement_complex(F, N, strict=True, within=P.up_set(x))
        assert S == repl and S.certified_degree == repl.certified_degree, x
        assert all([(p, c) for p, _, c, _ in S.blocks[n]] == list(repl.blocks[n])
                   for n in degrees)
        X = res.stalkwise(x)
        for p in range(min(3, res.p_max) + 1):
            for q in X.level(p).dims:
                layout = t_chain_layout(res, p, x, q)
                cols = [r for c, (o, d) in layout.items() if _strict(c) for r in range(o, o + d)]
                dim = X.level(p).dim(q)
                span = Subspace(field, dim, Matrix.identity(field, dim).take_columns(cols), cols)
                assert span == reference_normalization(X, p, q), (x, p, q)


@pytest.mark.parametrize("name", list(STANDARD_POSETS))
def test_normalized_stalks_equal_the_references_over_f5(name):
    # the criterion-2 sheaves, at the height of the poset above the top
    # degree, where every normalized stalk is complete
    P = STANDARD_POSETS[name]()
    for t in range(4):
        F = random_sheaf(P, F5, 1000 * len(name) + t, max_dim=2, span=3)
        _assert_equals_references(F, F.top_degree + _height(P))


@pytest.mark.parametrize("name", list(STANDARD_POSETS))
def test_normalized_stalks_equal_the_references_over_q(name):
    # the same seeds over Q at N = top + 1; on the pseudosphere t = 0 has a
    # 725-dimensional H_X F stalk whose d∘d check takes a minute of Fraction
    # products, so t = 1..4 there
    P = STANDARD_POSETS[name]()
    for t in (range(1, 5) if name == "pseudosphere" else range(4)):
        F = random_sheaf(P, QQ, 1000 * len(name) + t, max_dim=2, span=3)
        _assert_equals_references(F, F.top_degree + 1)


@pytest.mark.parametrize("name", list(STANDARD_POSETS))
def test_derived_sections_agree_with_the_unnormalized_route(name):
    # every open: the same betti numbers as through `hyper` in degrees
    # <= N - 1; where every degree is certified, the same betti numbers as
    # the unnormalized route at a bound past every nonzero degree
    P = STANDARD_POSETS[name]()
    whole = 0
    for t in range(2):
        F = random_sheaf(P, F5, 1000 * len(name) + t, max_dim=2, span=3)
        N = F.top_degree + 1
        far = F.top_degree + _height(P) + 2
        hyper, hyper_far = hypercohomology_sheaf(F, N), hypercohomology_sheaf(F, far)
        for U in P.up_sets():
            sec, betti = derived_sections(F, U, N)
            want = sections(hyper.H, U).betti()
            assert {n: b for n, b in betti.items() if n <= N - 1} == want, (t, sorted(U))
            if sec.certified_degree is None:
                whole += 1
                assert betti == sections(hyper_far.H, U).betti(), (t, sorted(U))
            else:
                assert sec.certified_degree == N - 1
    assert whole


def test_a_changed_differential_entry_is_refused_when_the_sheaf_is_built():
    # one entry of d at the top of a cover changed: the projection onto its
    # labels stops commuting with d, and the constructor's guard says so
    P = STANDARD_POSETS["pseudocircle"]()
    F = random_sheaf(P, F5, 1000 * len("pseudocircle"), max_dim=2, span=3)
    NH = normalized_hypercohomology_sheaf(F, F.top_degree + 2)
    sections(NH, frozenset(P.elements)).betti()
    _, b = P.covers()[0]
    old = NH.stalk(b)
    n = max(old.differentials, key=lambda n: old.differentials[n].rows)
    rows = old.differentials[n].rows_list()
    rows[0][0] = (rows[0][0] + 1) % 5
    bent = BlockComplex(F5, old.blocks, {**old.differentials, n: from_rows(F5, rows)},
                        lower=old.lower, certified_degree=old.certified_degree, check=False)
    with pytest.raises(NotContained, match="does not commute with d"):
        LabelledSheaf(P, F5, {**NH.stalks, b: bent})
