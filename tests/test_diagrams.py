"""Reference tests for the shared diagram operations and the block layout.

`transport`, `conjugate`, `direct_sum`, `mapping_cone`, `random_map` and the
maps of diagrams (`DiagramMap`) are written once for every diagram of
complexes (complex, sheaf, cosimplicial and bicosimplicial complex); the
references below are the textbook formulas they replace: g^-1 undoes g, and
the arrows of a direct sum are i1 f p1 + i2 g p2.  `Matrix.assemble` on
labelled layouts is compared with the positional form.
"""

import hashlib
import random
import re

import pytest

from godex.complexes import (
    ChainMap, CochainComplex, DiagramMap, conjugate, direct_sum, mapping_cone, random_complex,
    random_map, single_complex, transport, truncate,
)
from godex.cosimplicial import (
    BicosimplicialMap, CosimplicialMap, bicosimplicial_from_rows, constant_cosimplicial,
    random_bicosimplicial, random_cosimplicial,
)
from godex.errors import InvariantError, NotCosimplicial
from godex.exactlin import GF, QQ, Layout, Matrix, random_invertible, random_matrix
from godex.site import (
    SheafMap, constant_sheaf, pseudocircle_poset, pseudosphere_poset, random_sheaf,
)


def _pairs_of_diagrams(f5):
    """Two diagrams of the same shape, for each kind of diagram."""
    rng = random.Random(8)
    P = pseudocircle_poset()
    yield random_complex(f5, rng, span=3), random_complex(f5, rng, lower=-1, span=3)
    yield random_sheaf(P, f5, 3), random_sheaf(P, f5, 4)
    yield random_cosimplicial(f5, rng, 3), random_cosimplicial(f5, rng, 3)
    yield random_bicosimplicial(f5, rng, 2, 2), random_bicosimplicial(f5, rng, 2, 2)


def _same_diagram(A, B):
    levels_a, arrows_a = A.diagram()
    levels_b, arrows_b = B.diagram()
    assert levels_a == levels_b
    assert arrows_a.keys() == arrows_b.keys()
    for name, (s, t, f) in arrows_a.items():
        assert arrows_b[name][:2] == (s, t)
        assert arrows_b[name][2] == f, name


def test_transport_then_inverse_is_identity(f5):
    rng = random.Random(9)
    for D, _ in _pairs_of_diagrams(f5):
        levels, _ = D.diagram()
        g = {k: {q: random_invertible(f5, C.dim(q), rng) for q in C.dims}
             for k, C in levels.items()}
        moved = transport(D, g)
        back = transport(moved, {k: {q: m.inverse() for q, m in gk.items()}
                                 for k, gk in g.items()})
        _same_diagram(back, D)


def test_conjugate_is_transport_along_its_draws(f5):
    # conjugate draws level by level in diagram order, degree by degree
    for D, _ in _pairs_of_diagrams(f5):
        rng = random.Random(10)
        levels, _ = D.diagram()
        g = {k: {q: random_invertible(f5, C.dim(q), rng) for q in C.dims}
             for k, C in levels.items()}
        _same_diagram(conjugate(D, random.Random(10)), transport(D, g))


def test_direct_sum_matches_inclusion_projection_sums(f5):
    for D1, D2 in _pairs_of_diagrams(f5):
        S, (i1, i2), (p1, p2) = direct_sum(D1, D2)
        levels1, arrows1 = D1.diagram()
        levels2, arrows2 = D2.diagram()
        _, arrows = S.diagram()
        for name, (s, t, f) in arrows1.items():
            g = arrows2[name][2]
            reference = i1[t].compose(f).compose(p1[s]) + i2[t].compose(g).compose(p2[s])
            assert arrows[name][2] == reference, name
        for k in levels1:
            assert p1[k].compose(i1[k]) == ChainMap.identity(levels1[k])
            assert p2[k].compose(i2[k]) == ChainMap.identity(levels2[k])
            assert p2[k].compose(i1[k]) == ChainMap.zero(levels1[k], levels2[k])
    P = pseudocircle_poset()
    direct_sum(random_sheaf(P, f5, 5), random_sheaf(P, f5, 6))[0].validate()


def test_direct_sum_rejects_different_shapes(f5):
    rng = random.Random(11)
    with pytest.raises(InvariantError):
        direct_sum(random_cosimplicial(f5, rng, 2), random_cosimplicial(f5, rng, 3))


@pytest.mark.parametrize("field", [GF(5), QQ])
def test_labelled_assemble_matches_positional(field):
    rng = random.Random(12)
    for _ in range(40):
        row_sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        col_sizes = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        row_labels = rng.sample(["a", "b", ("c", 1), 7, (), "z"], len(row_sizes))
        col_labels = rng.sample([("x", 0), ("x", 1), "y", -2, None, "w"], len(col_sizes))
        positional, labelled = {}, {}
        for i, r in enumerate(row_sizes):
            for j, c in enumerate(col_sizes):
                if rng.random() < 0.5:
                    m = random_matrix(field, r, c, rng)
                    positional[(i, j)] = m
                    labelled[(row_labels[i], col_labels[j])] = m
        rows = Layout(zip(row_labels, row_sizes))
        cols = Layout(zip(col_labels, col_sizes))
        expected = Matrix.assemble(field, row_sizes, col_sizes, positional)
        assert Matrix.assemble(field, rows, cols, labelled) == expected
        assert (rows.dim, cols.dim) == expected.shape
        # a block is the slice at its offset
        for (rl, cl), m in labelled.items():
            (r0, rd), (c0, cd) = rows[rl], cols[cl]
            assert expected.block((r0, r0 + rd), (c0, c0 + cd)) == m


def test_layout_inclusion_and_projection(f5):
    layout = Layout([("a", 2), ("b", 0), ("c", 3)])
    assert dict(layout) == {"a": (0, 2), "b": (2, 0), "c": (2, 3)}
    ident = Matrix.identity(f5, 5)
    assert layout.inclusion(f5, ["c", "a"]) == ident.take_columns([2, 3, 4, 0, 1])
    assert layout.projection(f5, ["b", "c"]) == ident.take_rows(range(2, 5))
    assert layout.inclusion(f5, []).shape == (5, 0)
    assert layout.projection(f5, ["a"]) @ layout.inclusion(f5, ["a"]) == Matrix.identity(f5, 2)
    with pytest.raises(ValueError):
        Layout([("a", 1), ("a", 2)])
    with pytest.raises(ValueError):
        Matrix.assemble(f5, layout, [1], {("a", 0): Matrix.zeros(f5, 3, 1)})


def test_random_map_is_a_map_of_diagrams(f5):
    rng = random.Random(9)
    for A, B in _pairs_of_diagrams(f5):
        DiagramMap(A, B, random_map(A, B, rng))  # validates every level and arrow


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["F5", "Q"])
def test_random_map_is_a_sheaf_map_on_the_pseudosphere(field):
    P = pseudosphere_poset()
    F = random_sheaf(P, field, 0, max_dim=2, span=2)
    G = random_sheaf(P, field, 1, max_dim=2, span=2)
    f = SheafMap(F, G, random_map(F, G, random.Random(5)))
    assert any(c.components for c in f.components.values())  # not the zero map


def test_random_map_on_complexes_is_pinned(f5):
    # the digest of the chain maps that random_chain_map, the sampler of
    # single complexes that random_map replaced, drew from these seeds
    h = hashlib.sha256()
    nonzero = 0
    for field in (f5, QQ):
        rng = random.Random(23)
        for _ in range(8):
            C = random_complex(field, rng, span=3, max_dim=3)
            D = random_complex(field, rng, lower=-1, span=3, max_dim=3)
            f = random_map(C, D, rng)[0]
            nonzero += bool(f.components)
            h.update(repr([(n, [[str(v) for v in r] for r in m.rows_list()])
                           for n, m in sorted(f.components.items())]).encode())
    assert nonzero >= 8
    assert h.hexdigest() == "f9702451c47edfb260373c8990307610973fb73f561b2127adfd9931da71443e"


def test_random_map_draws_nothing_without_unknowns(f5):
    rng = random.Random(3)
    state = rng.getstate()
    f = random_map(single_complex(f5, 0, 2), single_complex(f5, 1, 2), rng)[0]
    assert not f.components
    assert rng.getstate() == state


def test_mapping_cone_of_identity_is_acyclic(f5):
    for A, _ in _pairs_of_diagrams(f5):
        cone = mapping_cone(DiagramMap.identity(A))
        cone.validate()
        assert all(not C.betti() for C in cone.diagram()[0].values())


def test_mapping_cone_keeps_the_truncation_certificate(f5):
    # cone(0 -> C) is C; cone(C -> 0) is C[1], whose H^n is H^{n+1}(C)
    C = truncate(random_complex(f5, random.Random(4), span=4, max_dim=2), 2)
    Z = CochainComplex(f5, {}, {}, lower=C.lower)
    assert mapping_cone(DiagramMap(Z, C, {0: ChainMap.zero(Z, C)})).certified_degree == 1
    assert mapping_cone(DiagramMap(C, Z, {0: ChainMap.zero(C, Z)})).certified_degree == 0


def test_sheaf_map_must_commute_with_every_restriction(f5):
    P = pseudocircle_poset()
    C = single_complex(f5, 0, 2)
    F = constant_sheaf(P, C)
    comps = {x: ChainMap.identity(C) for x in P.elements}
    SheafMap(F, F, comps)
    comps["x"] = comps["x"].scale(2)  # a chain map, but 2 r_{a->x} != r_{a->x}
    with pytest.raises(InvariantError, match=re.escape("('a', 'x')")):
        SheafMap(F, F, comps)


def test_bicosimplicial_map_must_commute_with_d1(f5):
    Z = bicosimplicial_from_rows(constant_cosimplicial(single_complex(f5, 0, 1), 2), 2, 2)

    def scaled(c):  # multiplication by c on row 1, by 1 elsewhere
        return {nm: ChainMap.identity(C).scale(c if nm[0] == 1 else 1) for nm, C in Z.levels.items()}

    BicosimplicialMap(Z, Z, scaled(1))
    with pytest.raises(NotCosimplicial, match="d1"):
        BicosimplicialMap(Z, Z, scaled(2))


def test_cosimplicial_map_components_must_be_chain_maps(f5):
    # every structure map of c(A) is the identity, so a constant family
    # commutes with all of them; it is still no map unless g is a chain map
    A = CochainComplex(f5, {0: 1, 1: 1}, {0: Matrix.identity(f5, 1)})
    g = ChainMap(A, A, {0: Matrix.identity(f5, 1)}, check=False)  # d g != g d in degree 0
    cA = constant_cosimplicial(A, 2)
    with pytest.raises(NotCosimplicial, match="component at 0"):
        CosimplicialMap(cA, cA, {p: g for p in range(3)})
