import os
import random
import subprocess
import sys

import pytest

from godex.complexes import ChainMap, conjugate, random_complex, random_map, single_complex
from godex.errors import (
    InvariantError, NotACover, NotContained, NotMonotone, NotOpen, TooLarge, UnknownElement,
)
from godex.exactlin import Matrix
from godex.site import (
    STANDARD_POSETS, MonotoneMap, Poset, Sheaf, chain_poset, check_sheaf_equalizer,
    constant_sheaf, direct_image, down_set_sheaf, point_poset,
    pseudocircle_poset, pseudosphere_poset, random_poset, random_sheaf, SheafMap,
    restriction_of_sections, sections, sections_map, sierpinski_poset, skyscraper,
    skyscraper_unit, up_set_sheaf,
)


def test_poset_validation():
    with pytest.raises(InvariantError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])  # antisymmetry
    with pytest.raises(UnknownElement):
        Poset(["a"], [("a", "zzz")])


def test_pairs_memoized_in_construction_order():
    P = pseudocircle_poset()
    expected = (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))
    assert P.pairs() == expected
    assert P.pairs() is P.pairs()
    assert pseudosphere_poset().pairs()[:4] == (("a", "x"), ("a", "y"), ("a", "u"), ("a", "v"))
    # the order does not depend on string hashing
    code = "from godex.site import pseudosphere_poset; print(pseudosphere_poset().pairs())"
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")}
    assert outs == {str(pseudosphere_poset().pairs()) + "\n"}


def test_up_sets_antichain_power_set():
    P = Poset(["p", "q"], [])
    assert len(P.up_sets()) == 4


def test_up_sets_sierpinski():
    S = sierpinski_poset()
    opens = S.up_sets()
    assert [sorted(u) for u in opens] == [[], ["o"], ["c", "o"]]


def test_up_sets_pseudocircle_brute_force():
    P = pseudocircle_poset()
    import itertools
    brute = [frozenset(c) for r in range(5)
             for c in itertools.combinations(P.elements, r)
             if P.is_up_closed(c)]
    assert sorted(map(sorted, P.up_sets())) == sorted(map(sorted, brute))
    assert len(P.up_sets()) == 7


def test_up_sets_cap():
    P = random_poset(13, random.Random(0))
    with pytest.raises(TooLarge):
        P.up_sets()


def test_sections_constant_connected(f5):
    rng = random.Random(0)
    C = random_complex(f5, rng, span=2, max_dim=2)
    for P in (sierpinski_poset(), pseudocircle_poset(), pseudosphere_poset()):
        F = constant_sheaf(P, C)
        sec = sections(F, frozenset(P.elements))
        assert sec.complex.dims == C.dims
        assert sec.complex.cohomology().betti == C.cohomology().betti


def test_sections_minimal_open_is_stalk(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 1)
    for x in P.elements:
        sec = sections(F, P.up_set(x))
        assert sec.complex is F.stalk(x)
        assert sec.evaluation(x) == ChainMap.identity(F.stalk(x))


def test_sections_disjoint_union_is_biproduct(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 2)
    U = P.up_set("x") | P.up_set("y")  # {x, y}, no relations
    sec = sections(F, U)
    for n in sec.complex.dims:
        assert sec.complex.dim(n) == F.stalk("x").dim(n) + F.stalk("y").dim(n)


def test_sections_empty_open(f5):
    P = sierpinski_poset()
    F = random_sheaf(P, f5, 3)
    assert sections(F, frozenset()).complex.is_zero_complex()


def test_sections_not_open(f5):
    P = sierpinski_poset()
    F = random_sheaf(P, f5, 3)
    with pytest.raises(NotOpen):
        sections(F, frozenset(["c"]))  # not up-closed


def test_equalizer_trivial_cover(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 4)
    U = frozenset(P.elements)
    assert check_sheaf_equalizer(F, U, [U])


def test_equalizer_pseudocircle_constant(f5):
    P = pseudocircle_poset()
    F = constant_sheaf(P, single_complex(f5, 0, 1))
    assert check_sheaf_equalizer(F, frozenset(P.elements),
                                 [P.up_set("a"), P.up_set("b")])


def test_equalizer_not_a_cover(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 5)
    with pytest.raises(NotACover):
        check_sheaf_equalizer(F, frozenset(P.elements), [P.up_set("a")])


def test_equalizer_randomized_suite(f5):
    rng = random.Random(6)
    for P in (sierpinski_poset(), chain_poset(3), pseudocircle_poset()):
        F = random_sheaf(P, f5, rng.randrange(1 << 20))
        opens = P.up_sets()
        for U in opens:
            if not U:
                continue
            minimal_cover = [P.up_set(x) for x in U]
            assert check_sheaf_equalizer(F, U, minimal_cover)
            assert check_sheaf_equalizer(F, U, [U])


def test_broken_presheaf_rejected(f5):
    # violating restriction functoriality cannot construct a Sheaf
    P = chain_poset(3)
    C = single_complex(f5, 0, 1)
    stalks = {x: C for x in P.elements}
    ident = ChainMap.identity(C)
    double = ident.scale(2)
    restr = {("0", "1"): ident, ("1", "2"): ident, ("0", "2"): double}
    with pytest.raises(InvariantError):
        Sheaf(P, f5, stalks, restr)


def test_validate_checks_every_strict_triple_and_only_those(f5, monkeypatch):
    # pseudosphere a, b < x, y < u, v: breaking r_{a,u} breaks a < x < u and
    # a < y < u; the 30 triples with x == y or y == z cannot fail
    P = pseudosphere_poset()
    C = single_complex(f5, 0, 1)
    F = constant_sheaf(P, C)
    restr = {pair: F.restriction(*pair) for pair in P.pairs()}
    restr[("a", "u")] = ChainMap.identity(C).scale(2)
    with pytest.raises(InvariantError, match="fails on a <= x <= u"):
        Sheaf(P, f5, F.stalks, restr)
    composed = []
    compose = ChainMap.compose
    monkeypatch.setattr(ChainMap, "compose",
                        lambda self, other: composed.append(1) or compose(self, other))
    F.validate()
    strict = [(x, y, z) for (x, y) in P.pairs() for (y2, z) in P.pairs() if y2 == y]
    assert len(composed) == len(strict) == 8


def test_constant_sheaf_examples(f5):
    C = single_complex(f5, 0, 1)
    pt = point_poset()
    F = constant_sheaf(pt, C)
    assert F.stalk("*") is C
    P = pseudocircle_poset()
    F = constant_sheaf(P, C)
    for (a, b) in P.pairs():
        assert F.restriction(a, b) == ChainMap.identity(C)
    sec = sections(F, frozenset(P.elements))
    assert sec.complex.dims == C.dims


def test_skyscraper_examples(f5):
    rng = random.Random(7)
    D = random_complex(f5, rng, span=2, max_dim=2)
    S = sierpinski_poset()
    top = skyscraper(S, "o", D)
    assert top.stalk("c").dims == D.dims and top.stalk("o").dims == D.dims
    bottom = skyscraper(S, "c", D)
    assert bottom.stalk("c").dims == D.dims
    assert bottom.stalk("o").is_zero_complex()
    for U in S.up_sets():
        got = sections(bottom, U).complex
        if "c" in U:
            assert got.dims == D.dims
        else:
            assert got.is_zero_complex()
    with pytest.raises(UnknownElement):
        skyscraper(S, "w", D)


def test_skyscraper_unit_is_sheaf_map(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 8)
    for x in P.elements:
        unit = skyscraper_unit(F, x)  # validates commutation internally
        assert unit.component(x) == ChainMap.identity(F.stalk(x))


def test_direct_image_identity(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 9)
    idm = MonotoneMap(P, P, {x: x for x in P.elements})
    G = direct_image(idm, F)
    for x in P.elements:
        assert G.stalk(x).cohomology().betti == F.stalk(x).cohomology().betti


def test_direct_image_collapse_is_global_sections(f5):
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 10)
    pt = point_poset()
    coll = MonotoneMap(P, pt, {x: "*" for x in P.elements})
    G = direct_image(coll, F)
    want = sections(F, frozenset(P.elements)).complex.cohomology().betti
    assert G.stalk("*").cohomology().betti == want


def test_direct_image_minimal_open_inclusion(f5):
    # include the minimal open ↑x of the pseudocircle; stalks of the image
    # are sections over the intersected preimages
    P = pseudocircle_poset()
    up_a = P.sorted_subset(P.up_set("a"))
    sub = Poset(up_a, [(u, v) for (u, v) in P.pairs() if u in up_a and v in up_a])
    F = random_sheaf(sub, f5, 11)
    inc = MonotoneMap(sub, P, {x: x for x in sub.elements})
    G = direct_image(inc, F)
    for q in P.elements:
        pre = inc.preimage(P.up_set(q))
        want = sections(F, pre).complex.cohomology().betti
        assert G.stalk(q).cohomology().betti == want


def test_direct_image_not_monotone(f5):
    S = sierpinski_poset()
    with pytest.raises(NotMonotone):
        MonotoneMap(S, S, {"c": "o", "o": "c"})


def test_random_sheaf_determinism_and_invariants(f5):
    P = pseudosphere_poset()
    for seed in (0, 1, 2):
        F = random_sheaf(P, f5, seed)
        G = random_sheaf(P, f5, seed)
        for x in P.elements:
            assert F.stalk(x) == G.stalk(x)
        for (a, b) in P.pairs():
            assert F.restriction(a, b) == G.restriction(a, b)
        F.validate()  # functoriality on all triples, d∘d = 0 in all stalks


def test_sections_functoriality(f5):
    rng = random.Random(12)
    P = pseudocircle_poset()
    F = random_sheaf(P, f5, 13)
    G = random_sheaf(P, f5, 14)
    H = random_sheaf(P, f5, 15)
    f = SheafMap(F, G, random_map(F, G, rng))
    g = SheafMap(G, H, random_map(G, H, rng))
    for U in P.up_sets():
        lhs = sections_map(g.compose(f), U)
        rhs = sections_map(g, U).compose(sections_map(f, U))
        assert lhs == rhs


def test_up_and_down_set_sheaves(f5):
    rng = random.Random(16)
    P = pseudosphere_poset()
    C = random_complex(f5, rng, span=2, max_dim=2)
    T = P.up_set("x")
    F = up_set_sheaf(P, T, C)
    F.validate()
    S = P.down_set("u")
    G = down_set_sheaf(P, S, C)
    G.validate()
    with pytest.raises(InvariantError):
        down_set_sheaf(P, P.up_set("x"), C)


def _stack(blocks):
    out = None
    for m in blocks:
        out = m if out is None else out.vstack(m)
    return out


def _solve_coordinates(sec, order, n, stacked):
    """Reference: solve against the stacked evaluations of the section basis."""
    return _stack(sec.evaluation(x).component(n) for x in order).solve(stacked)


def _solve_sections_map(f, U):
    """Reference Γ(U, f): solve for the image of each section basis vector."""
    sec_s, sec_t = sections(f.source, U), sections(f.target, U)
    order = f.source.poset.sorted_subset(U)
    comps = {}
    for n in sec_s.complex.dims:
        if sec_t.complex.dim(n) == 0:
            continue
        img = _stack(f.component(x).component(n) @ sec_s.evaluation(x).component(n)
                     for x in order)
        comps[n] = _solve_coordinates(sec_t, order, n, img)
    return ChainMap(sec_s.complex, sec_t.complex, comps, check=True)


def test_section_coordinates_match_solve_reference(f5):
    # every open of every suite poset, for a random sheaf and for a constant
    # sheaf transported along random stalk automorphisms (non-identity
    # restrictions), and for a random sheaf map between them
    rng = random.Random(40)
    for name, make in STANDARD_POSETS.items():
        P = make()
        F = random_sheaf(P, f5, 41)
        G = conjugate(constant_sheaf(P, random_complex(f5, rng, span=2, max_dim=2)), rng)
        f = SheafMap(F, G, random_map(F, G, rng))
        opens = P.up_sets()
        for U in opens:
            if U:
                assert sections_map(f, U) == _solve_sections_map(f, U), (name, U)
            for sheaf in (F, G):
                sec = sections(sheaf, U)
                order = P.sorted_subset(U)
                C = sec.complex
                for n in C.dims:
                    img = _stack(sheaf.stalk(x).d(n) @ sec.evaluation(x).component(n)
                                 for x in order)
                    assert C.d(n) == sec.coordinates(n + 1, img) == \
                        _solve_coordinates(sec, order, n + 1, img), (name, U, n)
                for V in opens:
                    if not V or not V < U:
                        continue
                    sec_V = sections(sheaf, V)
                    r = restriction_of_sections(sheaf, sec, sec_V)
                    order_V = P.sorted_subset(V)
                    for n in sec_V.complex.dims:
                        stacked = _stack(sec.evaluation(x).component(n) for x in order_V)
                        assert r.component(n) == \
                            _solve_coordinates(sec_V, order_V, n, stacked), (name, U, V, n)


def test_incompatible_family_raises_not_contained(f5):
    P = pseudocircle_poset()
    F = constant_sheaf(P, single_complex(f5, 0, 1))
    sec = sections(F, frozenset(P.elements))
    assert sec.coordinates(0, Matrix.column(f5, [2, 2, 2, 2])) == Matrix.column(f5, [2])
    with pytest.raises(NotContained):
        sec.coordinates(0, Matrix.column(f5, [1, 0, 1, 1]))
    # over ↑a = {a, x, y}, which has the minimum a, a section is its a-block
    sec = sections(F, P.up_set("a"))
    assert sec.coordinates(0, Matrix.column(f5, [3, 3, 3])) == Matrix.column(f5, [3])
    with pytest.raises(NotContained):
        sec.coordinates(0, Matrix.column(f5, [3, 3, 1]))
