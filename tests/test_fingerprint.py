"""Pinned seeded instances.

A sha256 over every matrix that the seeded random generators produce, and
over the verdicts of a seeded axiom audit.  Refactors of the generators (the
transport along random automorphisms, the direct sums) must draw the same
random numbers in the same order and build the same matrices, so the digest
must not move.  A second digest pins the Godement structure maps (η, the
cofaces and codegeneracies, ρ, the skyscraper counit and unit) the same way,
so a rewrite of their builders must reproduce every matrix.  Everything is
visited in element-index or sorted-key order, so the digests do not depend
on the hash seed.
"""

import hashlib
import random

from godex.complexes import random_complex
from godex.cosimplicial import check_descent_axioms, random_bicosimplicial, random_cosimplicial
from godex.exactlin import GF, QQ
from godex.filtered import check_descent_axioms_filtered, random_filtered_cosimplicial
from godex.godement import godement_resolution, hypercohomology_sheaf
from godex.site import (
    STANDARD_POSETS, pseudocircle_poset, pseudosphere_poset, random_sheaf, skyscraper,
)

from conftest import skyscraper_counit, skyscraper_unit

SEEDS = range(6)
DIGEST = "46c8ea6d77faac1c8cf52bfc493c9feadfd9da1b3f708790bdbbfbb72b66d12d"
GODEMENT_DIGEST = "70866debe49443e0cc7b55eacd38698300c26975e1583e9da42f61d109f88f4a"


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def put(self, *parts):
        self.h.update(repr(parts).encode())

    def matrix(self, m):
        self.put(str(m.field), m.rows, m.cols, [[str(v) for v in row] for row in m.rows_list()])

    def complex(self, C):
        self.put("complex", sorted(C.dims.items()), C.lower, C.certified_degree)
        for n in sorted(C.differentials):
            self.matrix(C.differentials[n])

    def chain_map(self, f):
        self.put("map", sorted(f.components))
        for n in sorted(f.components):
            self.matrix(f.components[n])

    def maps(self, family):
        for key in sorted(family):
            self.put(key)
            self.chain_map(family[key])

    def sheaf(self, F):
        P = F.poset
        for x in P.elements:
            self.complex(F.stalk(x))
        for (a, b) in sorted(P.pairs(), key=lambda ab: (P.index(ab[0]), P.index(ab[1]))):
            self.put(a, b)
            self.chain_map(F.restriction(a, b))

    def sheaf_map(self, f):
        for x in f.source.poset.elements:
            self.put(x)
            self.chain_map(f.component(x))

    def sheaf_maps(self, family):
        for key in sorted(family):
            self.put(key)
            self.sheaf_map(family[key])

    def cosimplicial(self, X):
        for p in range(X.p_max + 1):
            self.complex(X.level(p))
        self.maps(X.cofaces)
        self.maps(X.codegeneracies)

    def bicosimplicial(self, Z):
        for nm in sorted(Z.levels):
            self.complex(Z.levels[nm])
        for family in (Z.d1, Z.d2, Z.s1, Z.s2):
            self.maps(family)

    def filtered(self, XF):
        self.cosimplicial(XF.base)
        for p in range(XF.base.p_max + 1):
            FC = XF.level(p)
            self.put(FC.k_min, FC.k_max)
            for kn, S in sorted(FC.subspaces().items()):
                self.put(kn)
                self.matrix(S.basis)

    def audit(self, report):
        for t in report.trials:
            self.put(t.index, sorted(t.results.items()), sorted(t.notes.items()))
        self.put(report.mutant_note)


def seeded_digest() -> str:
    d = _Digest()
    f5 = GF(5)
    for make in (pseudocircle_poset, pseudosphere_poset):
        P = make()
        for s in SEEDS:
            d.sheaf(random_sheaf(P, f5, s))
    for s in SEEDS:
        d.cosimplicial(random_cosimplicial(f5, random.Random(s), 3))
        d.bicosimplicial(random_bicosimplicial(f5, random.Random(s), 2, 2))
        d.filtered(random_filtered_cosimplicial(f5, random.Random(s), 3))
    d.cosimplicial(random_cosimplicial(QQ, random.Random(7), 2, max_dim=2))
    d.sheaf(random_sheaf(pseudocircle_poset(), QQ, 7, blocks=3))
    d.audit(check_descent_axioms(seed=21, trials=3, N=4, mutate="drop_d1_sign"))
    d.audit(check_descent_axioms_filtered(21, trials=2, N=3, r=1))
    return d.h.hexdigest()


def test_seeded_instances_are_pinned():
    assert seeded_digest() == DIGEST


def godement_digest() -> str:
    """η, every coface and codegeneracy and every level of a seeded Godement
    resolution and ρ of its hypercohomology sheaf, on the five suite posets;
    then the counit of a skyscraper's resolution and the unit into a
    skyscraper, on the pseudocircle."""
    d = _Digest()
    f5 = GF(5)
    for name, make in STANDARD_POSETS.items():
        F = random_sheaf(make(), f5, 31)
        res = godement_resolution(F, 3)
        d.put(name)
        d.sheaf_map(res.eta)
        d.sheaf_maps(res.cofaces)
        d.sheaf_maps(res.codegeneracies)
        for p in range(res.p_max + 1):
            d.sheaf(res.level(p))
        d.sheaf_map(hypercohomology_sheaf(F, F.top_degree + 3).rho)
    P = pseudocircle_poset()
    sky = skyscraper(P, "x", random_complex(f5, random.Random(32), span=3, max_dim=3))
    d.sheaf_map(skyscraper_counit(godement_resolution(sky, 0), "x"))
    d.sheaf_map(skyscraper_unit(random_sheaf(P, f5, 31), "x"))
    return d.h.hexdigest()


def test_godement_structure_maps_are_pinned():
    assert godement_digest() == GODEMENT_DIGEST
