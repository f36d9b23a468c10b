"""godex: exact sheaf cohomology on finite Alexandrov sites.

Computes Godement cosimplicial resolutions, hypercohomology sheaves and
derived functors for sheaves of bounded cochain complexes (plain and
filtered) on finite posets with the up-set topology, and machine-verifies
the descent axioms and the fibrant-model equivalences on randomized
instances.  All arithmetic is exact, over Q or F_p.

The matrices godex multiplies are at most about a thousand wide, where a
second BLAS thread buys nothing, so importing godex sets one BLAS/OpenMP
thread unless the environment already says otherwise.  That only takes
effect when godex is imported before numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .complexes import ChainMap, CochainComplex, biproduct, is_quis
from .cosimplicial import (
    CosimplicialComplex, aw_map, check_descent_axioms, collapse_by_extra_degeneracy,
    lambda_map, path_object, simple, simple_map,
)
from .exactlin import GF, QQ, Field, Matrix, Subspace, kernel, subquotient
from .filtered import FilteredComplex, decalage, er_page, filtered_simple, is_er_quis
from .godement import (
    derived_direct_image, derived_sections, descent_spectral_sequence,
    equivalence_check, godement_resolution, godement_T, hypercohomology_sheaf,
    stalk_commutation_check, thomason_check,
)
from .oracle import constant_cohomology, holim_replacement
from .site import (
    MonotoneMap, Poset, Sheaf, SheafMap, check_sheaf_equalizer, constant_sheaf,
    direct_image, random_sheaf, sections, skyscraper,
)

__all__ = [
    "Field", "GF", "QQ", "Matrix", "Subspace",
    "kernel", "subquotient",
    "CochainComplex", "ChainMap", "biproduct", "is_quis",
    "CosimplicialComplex", "simple", "simple_map", "lambda_map", "aw_map",
    "path_object", "collapse_by_extra_degeneracy", "check_descent_axioms",
    "Poset", "Sheaf", "SheafMap", "MonotoneMap", "sections",
    "check_sheaf_equalizer", "constant_sheaf", "skyscraper", "direct_image",
    "random_sheaf",
    "godement_T", "godement_resolution", "hypercohomology_sheaf",
    "equivalence_check", "thomason_check", "stalk_commutation_check",
    "derived_sections", "derived_direct_image", "descent_spectral_sequence",
    "FilteredComplex", "er_page", "is_er_quis", "filtered_simple", "decalage",
    "holim_replacement", "constant_cohomology",
]
