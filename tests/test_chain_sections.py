"""The chain route of Γ(U, H_X F) against the constraint route it replaces.

`sections` reads the sections of a `LabelledSheaf` (H_X F and N H_X F) off
its labels: one basis block per label whose home lies in U, and the
differential from the unit rows of the stalk differentials.  A plain `Sheaf`
with the same stalks and restrictions takes the constraint route (the kernel
of the cover constraints), which stays the reference: the two must agree
exactly, basis, unit rows, coordinates and membership checks, complex,
evaluations and betti numbers.  The route's guard, that each cover
restriction is a projection onto labels and a chain map, and that every
label has a home above it in the open, is shown to reject a sheaf that
breaks any of them.
"""

import pytest

from godex.complexes import BlockComplex, ChainMap
from godex.errors import InvariantError, NotContained
from godex.exactlin import GF, QQ, Layout, Matrix
from godex.godement import hypercohomology_sheaf, normalized_hypercohomology_sheaf
from godex.site import STANDARD_POSETS, LabelledSheaf, Poset, random_sheaf, sections

from conftest import plain_copy

F5 = GF(5)


def _without_minimum(P):
    return [U for U in P.up_sets() if U and not any(all(P.leq(m, y) for y in U) for m in U)]


def _assert_coordinates_agree(got, want, n):
    """The chain route's membership check by index selection against the
    constraint route's product: the basis has the identity as coordinates,
    and its first column plus a unit vector off the unit rows is refused."""
    S = got.space(n)
    assert got.coordinates(n, S.basis) == want.coordinates(n, S.basis) == \
        Matrix.identity(S.field, S.dim)
    off_units = [r for r in range(S.ambient_dim) if r not in set(S.unit_rows)]
    if S.dim and off_units:
        broken = S.basis.take_columns([0]) + \
            Matrix.identity(S.field, S.ambient_dim).take_columns(off_units[:1])
        for sec in (got, want):
            with pytest.raises(NotContained):
                sec.coordinates(n, broken)


def _assert_routes_agree(H):
    """Every nonempty open; returns the number that took the chain route."""
    chained = 0
    for U in H.poset.up_sets():
        if not U:
            continue
        got, want = sections(H, U), sections(plain_copy(H), U)
        assert got.betti() == want.betti(), sorted(U)
        chained += got.chain
        for n in got.layouts:
            S, T = got.space(n), want.space(n)
            assert S.basis == T.basis and S.unit_rows == T.unit_rows, (sorted(U), n)
            _assert_coordinates_agree(got, want, n)
        assert got.complex == want.complex, sorted(U)
        assert got.complex.certified_degree == want.complex.certified_degree
        for x in U:
            assert got.evaluation(x) == want.evaluation(x), (sorted(U), x)
    return chained


@pytest.mark.parametrize("name", list(STANDARD_POSETS))
def test_chain_route_equals_constraint_route_on_criterion_2_sheaves(name):
    # H_X F and N H_X F at the criterion-2 bound N = 6; on the pseudosphere
    # the stalks of H_X F run to thousands of dimensions
    P = STANDARD_POSETS[name]()
    chained = 0
    for t in range(4):
        F = random_sheaf(P, F5, 1000 * len(name) + t, max_dim=2, span=3)
        H = hypercohomology_sheaf(F, 6).H
        assert type(H) is LabelledSheaf
        chained += _assert_routes_agree(H)
        chained += _assert_routes_agree(normalized_hypercohomology_sheaf(F, 6))
    assert chained == 8 * len(_without_minimum(P))


@pytest.mark.parametrize("name", ["point", "sierpinski", "chain3", "pseudocircle"])
def test_chain_route_equals_constraint_route_over_q(name):
    # on the pseudocircle t = 0 has a 273-dimensional H_X F, whose
    # constraint route takes 14 s of Fraction products, so t = 1, 2 there
    P = STANDARD_POSETS[name]()
    for t in ((1, 2) if name == "pseudocircle" else (0, 1)):
        F = random_sheaf(P, QQ, 1000 * len(name) + t, max_dim=2, span=2)
        _assert_routes_agree(hypercohomology_sheaf(F, F.top_degree + 2).H)


def test_chain_route_equals_constraint_route_when_the_order_is_not_a_linear_extension():
    # the pseudocircle listed tops first: the unit slot of a label is then
    # not at its home but at the last element below it, as the rref picks
    P = Poset(["x", "y", "a", "b"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
    for t in range(3):
        F = random_sheaf(P, F5, 70 + t, max_dim=2, span=2)
        H = hypercohomology_sheaf(F, F.top_degree + 3).H
        assert _assert_routes_agree(H) == len(_without_minimum(P)) == 2


# ---- the guard ---------------------------------------------------------------


def _hyper():
    P = STANDARD_POSETS["pseudocircle"]()
    F = random_sheaf(P, F5, 1000 * len("pseudocircle"), max_dim=2, span=3)
    return hypercohomology_sheaf(F, F.top_degree + 3).H


def _changed(m: Matrix, i: int, j: int) -> Matrix:
    rows = m.rows_list()
    rows[i][j] = (rows[i][j] + 1) % 5
    return Matrix.from_rows(m.field, rows)


def _assert_guard_rejects(H):
    X = frozenset(H.poset.elements)
    with pytest.raises(NotContained):
        sections(H, X).betti()
    with pytest.raises(NotContained):
        sections(H, X).complex
    for n in sections(H, X).layouts:
        with pytest.raises(NotContained):
            sections(H, X).space(n)


def test_guard_rejects_a_restriction_that_is_not_a_projection():
    H = _hyper()
    r = H.restriction("a", "x")
    n = max(r.components, key=lambda k: r.components[k].rows)
    comps = {**r.components, n: _changed(r.components[n], 0, r.components[n].cols - 1)}
    restr = {**H.restrictions, ("a", "x"): ChainMap(r.source, r.target, comps, check=False)}
    bad = LabelledSheaf(H.poset, H.field, H.stalks, restr, check=False)
    _assert_guard_rejects(bad)


def test_guard_rejects_a_stalk_differential_that_breaks_a_chain_map():
    # one entry of d at x changed: each restriction into x stops being a
    # chain map, while every restriction stays a projection onto labels
    H = _hyper()
    old = H.stalk("x")
    n = max(old.differentials, key=lambda k: old.differentials[k].rows)
    diffs = {**old.differentials, n: _changed(old.differentials[n], 0, 0)}
    new = BlockComplex(old.field, old.blocks, diffs, lower=old.lower,
                       certified_degree=old.certified_degree, check=False)
    stalks = {**H.stalks, "x": new}
    restr = {(a, b): ChainMap(stalks[a], stalks[b], r.components, check=False)
             for (a, b), r in H.restrictions.items() if a != b}
    bad = LabelledSheaf(H.poset, H.field, stalks, restr, check=False)
    with pytest.raises(InvariantError):
        bad.restriction("a", "x").validate()
    _assert_guard_rejects(bad)


def _renamed_at_a(H, home):
    """H with its first slot of home `home` at a given the fresh home "z",
    stalks and restrictions otherwise as they are."""
    old = H.stalk("a")
    n, label = next((n, label) for n in sorted(old.blocks) for label in old.blocks[n]
                    if label[-1] == home)
    fresh = label[:-1] + ("z",)
    blocks = {**old.blocks, n: Layout((fresh if s == label else s, d)
                                      for s, (_, d) in old.blocks[n].items())}
    stalks = {**H.stalks, "a": BlockComplex(old.field, blocks, old.differentials,
                                            lower=old.lower,
                                            certified_degree=old.certified_degree, check=False)}
    restr = {(a, b): ChainMap(stalks[a], stalks[b], r.components, check=False)
             for (a, b), r in H.restrictions.items() if a != b}
    return LabelledSheaf(H.poset, H.field, stalks, restr, check=False)


def test_guard_rejects_a_label_that_the_restriction_does_not_keep():
    # the slot of home x at a renamed: x's label is missing from a on the
    # cover a ⋖ x, though every matrix is as it was
    bad = _renamed_at_a(_hyper(), "x")
    with pytest.raises(NotContained, match="is not kept by the restriction"):
        sections(bad, frozenset(bad.poset.elements)).complex


def test_guard_rejects_a_label_with_no_home_in_the_open():
    # the slot of home a at a renamed: every cover keeps its labels, but the
    # renamed one has no home in the open and so no basis column
    bad = _renamed_at_a(_hyper(), "a")
    with pytest.raises(NotContained, match="has no home above it in the open"):
        sections(bad, frozenset(bad.poset.elements)).complex
