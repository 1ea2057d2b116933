"""Exact-arithmetic homological algebra workbench.

Cellular homology with surface classification, cochain-complex invariants,
and morphism-complex cohomology of quiver dg-representations, all over
exact rational coefficients.
"""

from .rational import RationalMatrix
from .graded import (
    GradedMap,
    GradedVectorSpace,
    hom_space,
)
from .complexes import CochainComplex
from .cellular import (
    CellComplex,
    SurfaceVerdict,
    builtin,
    chain_complex_of,
    classify_surface,
    genus_from_euler,
    genus_surface,
    homology_of,
)
from .quiver import (
    Generator,
    HomComplexResult,
    QuiverPresentation,
    Representation,
    euler_of_hom,
    floer_cohomology,
    hom_complex,
    sphere_quiver,
    torus_quiver,
    torus_trivial_representation,
    zero_section_representation,
)
from .classify import (
    SampleConfig,
    TheoremReport,
    check_concentrated_lemma,
    check_sphere_theorem,
    check_torus_theorem,
    enumerate_sphere_representations,
    enumerate_torus_representations,
    sample_representation_at,
)
from .errors import (
    CellComplexError,
    ClassificationError,
    ExactHomError,
    FormatError,
    InvalidComplexError,
    RepresentationError,
    ShapeError,
    UnsupportedDifferentialError,
)

__version__ = "0.1.0"

__all__ = [
    "RationalMatrix",
    "GradedVectorSpace",
    "GradedMap",
    "hom_space",
    "CochainComplex",
    "CellComplex",
    "SurfaceVerdict",
    "builtin",
    "chain_complex_of",
    "homology_of",
    "classify_surface",
    "genus_surface",
    "genus_from_euler",
    "Generator",
    "QuiverPresentation",
    "Representation",
    "HomComplexResult",
    "sphere_quiver",
    "torus_quiver",
    "hom_complex",
    "floer_cohomology",
    "euler_of_hom",
    "zero_section_representation",
    "torus_trivial_representation",
    "SampleConfig",
    "TheoremReport",
    "check_concentrated_lemma",
    "check_sphere_theorem",
    "check_torus_theorem",
    "sample_representation_at",
    "enumerate_sphere_representations",
    "enumerate_torus_representations",
    "ExactHomError",
    "ShapeError",
    "InvalidComplexError",
    "CellComplexError",
    "RepresentationError",
    "UnsupportedDifferentialError",
    "ClassificationError",
    "FormatError",
]
