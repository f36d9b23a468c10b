import random

from godex.complexes import is_quis, single_complex
from godex.oracle import NerveComplex, constant_cohomology, holim_replacement
from godex.site import (
    chain_poset, constant_sheaf, point_poset, pseudocircle_poset,
    pseudosphere_poset, random_sheaf, sierpinski_poset,
)

from conftest import strict_into_weak


def test_holim_point_is_stalk_cohomology(f5):
    pt = point_poset()
    F = random_sheaf(pt, f5, 0)
    N = F.top_degree + 3
    R = holim_replacement(F, N)
    assert R.betti() == F.stalk("*").betti()


def test_holim_sierpinski_constant_contractible(f5):
    S = sierpinski_poset()
    F = constant_sheaf(S, single_complex(f5, 0, 1))
    assert holim_replacement(F, 5).betti() == {0: 1}


def test_nerve_ground_truths(f5):
    k = single_complex(f5, 0, 1)
    assert constant_cohomology(sierpinski_poset(), f5, k, 6) == {0: 1}
    assert constant_cohomology(pseudocircle_poset(), f5, k, 6) == {0: 1, 1: 1}
    assert constant_cohomology(pseudosphere_poset(), f5, k, 6) == {0: 1, 2: 1}


def test_nerve_f_vector_of_sphere(f5):
    nerve = NerveComplex(pseudosphere_poset(), f5)
    assert nerve.dim(0) == 6 and nerve.dim(1) == 12 and nerve.dim(2) == 8


def test_normalized_equals_unnormalized_betti(f5):
    for P in (sierpinski_poset(), chain_poset(3), pseudocircle_poset(),
              pseudosphere_poset()):
        for seed in range(3):
            F = random_sheaf(P, f5, seed)
            N = F.top_degree + 3
            weak = holim_replacement(F, N)
            strict = holim_replacement(F, N, strict=True)
            assert weak.betti() == strict.betti()
            # the inclusion of the strict subcomplex is a quasi-isomorphism
            inc = strict_into_weak(F, strict, weak)
            assert is_quis(inc).flag


def test_holim_constant_matches_nerve(f5):
    rng = random.Random(1)
    from godex.complexes import random_complex
    for P in (pseudocircle_poset(), pseudosphere_poset()):
        C = random_complex(f5, rng, span=2, max_dim=2)
        N = C.upper + 4
        F = constant_sheaf(P, C)
        assert holim_replacement(F, N).betti() == constant_cohomology(P, f5, C, N)
