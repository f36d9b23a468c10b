"""Pinned seeded instances.

A sha256 over every matrix that the seeded random generators produce, and
over the verdicts of a seeded axiom audit.  Refactors of the generators (the
transport along random automorphisms, the direct sums) must draw the same
random numbers in the same order and build the same matrices, so the digest
must not move.  Everything is visited in element-index or sorted-key order,
so the digest does not depend on the hash seed.
"""

import hashlib
import random

from godex.cosimplicial import check_descent_axioms, random_bicosimplicial, random_cosimplicial
from godex.exactlin import GF, QQ
from godex.filtered import check_descent_axioms_filtered, random_filtered_cosimplicial
from godex.site import pseudocircle_poset, pseudosphere_poset, random_sheaf

SEEDS = range(6)
DIGEST = "46c8ea6d77faac1c8cf52bfc493c9feadfd9da1b3f708790bdbbfbb72b66d12d"


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
        self.cosimplicial(XF.cosimplicial)
        for p in range(XF.p_max + 1):
            FC = XF.level(p)
            self.put(FC.k_min, FC.k_max)
            for kn in sorted(FC._subspaces):
                self.put(kn)
                self.matrix(FC._subspaces[kn].basis)

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
