"""The chain route of Γ(U, H_X F) against the constraint route it replaces.

`sections` reads the sections of a `LabelledSheaf` (H_X F and N H_X F) off
its labels: one basis block per label whose home lies in U, and the
differential from the unit rows of the stalk differentials.  A plain `Sheaf`
with the same stalks and restrictions takes the constraint route (the kernel
of the cover constraints), which stays the reference: the two must agree
exactly, basis, unit rows, coordinates and membership checks, complex,
evaluations and betti numbers.  A `LabelledSheaf` takes only its stalks,
its restrictions are the projections onto labels, and its constructor runs
the label guard once: each cover keeps the labels of the smaller stalk,
the projections commute with the stalk differentials, and every label has
a home above it.  The guard is shown to reject stalks that break any of
them, and to run once per sheaf built and never from `sections`.
"""

import pytest

from godex import site
from godex.complexes import BlockComplex, ChainMap
from godex.errors import InvariantError, NotContained
from godex.exactlin import GF, QQ, Layout, Matrix
from godex.godement import hypercohomology_sheaf, normalized_hypercohomology_sheaf, thomason_check
from godex.site import STANDARD_POSETS, LabelledSheaf, Poset, random_sheaf, sections

from conftest import from_rows, plain_copy

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
    return from_rows(m.field, rows)


def test_guard_rejects_a_stalk_differential_that_breaks_a_chain_map():
    # one entry of d at x changed: the projections into x stop being chain
    # maps, while every label is where it was
    H = _hyper()
    old = H.stalk("x")
    n = max(old.differentials, key=lambda k: old.differentials[k].rows)
    diffs = {**old.differentials, n: _changed(old.differentials[n], 0, 0)}
    new = BlockComplex(old.field, old.blocks, diffs, lower=old.lower,
                       certified_degree=old.certified_degree, check=False)
    with pytest.raises(InvariantError):
        ChainMap(H.stalk("a"), new, H.restriction("a", "x").components, check=False).validate()
    with pytest.raises(NotContained, match="does not commute with d"):
        LabelledSheaf(H.poset, H.field, {**H.stalks, "x": new})


def _renamed_at_a(H, home):
    """The stalks of H with the first slot of home `home` at a given the
    fresh home "z", every matrix as it is."""
    old = H.stalk("a")
    n, label = next((n, label) for n in sorted(old.blocks) for label in old.blocks[n]
                    if label[-1] == home)
    fresh = label[:-1] + ("z",)
    blocks = {**old.blocks, n: Layout((fresh if s == label else s, d)
                                      for s, (_, d) in old.blocks[n].items())}
    return {**H.stalks, "a": BlockComplex(old.field, blocks, old.differentials,
                                          lower=old.lower,
                                          certified_degree=old.certified_degree, check=False)}


def test_guard_rejects_a_label_that_the_restriction_does_not_keep():
    # the slot of home x at a renamed: x's label is missing from a on the
    # cover a ⋖ x, though every matrix is as it was
    H = _hyper()
    with pytest.raises(NotContained, match="is not kept by the restriction"):
        LabelledSheaf(H.poset, H.field, _renamed_at_a(H, "x"))


def test_guard_rejects_a_label_with_no_home_in_the_open():
    # the slot of home a at a renamed: every cover keeps its labels, but the
    # renamed one has no home in X and so no basis column on any open
    H = _hyper()
    with pytest.raises(NotContained, match="has no home above it"):
        LabelledSheaf(H.poset, H.field, _renamed_at_a(H, "a"))


def test_guard_runs_once_per_labelled_sheaf_and_never_from_sections(monkeypatch):
    # Thomason descent in both modes on a criterion-2 sheaf builds two
    # labelled sheaves (H_X F and H_X(H_X F), or R and N H_X R) and reads
    # Γ(U, −) of both on every open without a minimum, on the chain route
    built, guarded, chained = [], [], []
    init, guard, chain_data = LabelledSheaf.__init__, site._check_labels, \
        site.SectionComplex._chain_data

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_guard(F):
        guarded.append(F)
        guard(F)

    def counted_chain_data(sec):
        chained.append(sec.sheaf)
        return chain_data(sec)
    monkeypatch.setattr(LabelledSheaf, "__init__", counted_init)
    monkeypatch.setattr(site, "_check_labels", counted_guard)
    monkeypatch.setattr(site.SectionComplex, "_chain_data", counted_chain_data)
    P = STANDARD_POSETS["pseudocircle"]()
    F = random_sheaf(P, F5, 1000 * len("pseudocircle"), max_dim=2, span=3)
    for mode in ("literal", "reduced"):
        del built[:], guarded[:], chained[:]
        rep = thomason_check(F, 6, mode)
        assert rep.mode == mode and rep.verdict
        assert len(built) == 2
        assert [id(G) for G in guarded] == [id(G) for G in built]
        assert {id(G) for G in chained} == {id(G) for G in built}
