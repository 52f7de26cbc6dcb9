"""oddsphere: simplicial spheres on few vertices, exactly.

Recognizes, certifies, constructs, and catalogs simplicial d-spheres on at
most d+4 vertices from the intersection pattern of their minimal non-faces,
and independently verifies every positive answer by exact-rational polytope
realization through Gale duality.
"""

from types import ModuleType as _ModuleType

from .catalog import (
    Bracelet,
    CatalogReport,
    SphereClass,
    canonical_bracelet,
    catalog,
    enumerate_bracelets,
    instantiate,
)
from .complexes import (
    Face,
    InvariantError,
    NonFaceFamily,
    SimplicialComplex,
    complex_from_nonfaces,
    euler_characteristic,
    f_vector,
    minimal_nonfaces,
)
from .gale import (
    DiagramDirection,
    GaleConfiguration,
    NotAffinelySpanning,
    dependence_from_direction,
    direction_from_dependence,
    gale_transform,
    realize_gale_vectors,
    reconstruct_points,
    recover_nonfaces,
    relint_origin_test,
)
from .oracle import (
    InteriorPoint,
    NonSimplicial,
    NotFullDimensional,
    PointConfiguration,
    betti_mod2,
    boundary_complex,
    hull_facets,
    is_pseudomanifold,
    sphere_betti_profile,
)
from .recognizer import (
    Certificate,
    NotSphere,
    NotSphereReason,
    OutOfScope,
    Sphere,
    Verdict,
    find_max_odd_cycle,
    recognize,
)

__version__ = "0.1.0"

# Every name imported above, in sorted order; submodules stay out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
