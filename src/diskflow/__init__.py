"""diskflow: disk patterns and uniform hyperbolic structures from angle data,
random-Delaunay Euler characteristic estimators, and conformal curvature flow
on discrete metrics.

The package re-exports ``delaunay`` and ``uniformize`` under their modules'
names, so ``import diskflow.uniformize as U`` binds the function (``import
a.b as c`` resolves through ``getattr(a, "b")``).  To reach such a submodule,
for its private helpers or to patch it, use
``importlib.import_module("diskflow.uniformize")``.
"""

__version__ = "0.1.0"

from .angles import (
    AngleSystem,
    ConformalClassSpec,
    class_lift,
    conformal_class_of,
    edge_psi,
    face_curvatures,
    find_negative_delaunay,
    is_angle_system,
    is_delaunay,
    is_negatively_curved,
    is_teleportable_bruteforce,
    partials_from_angles,
)
from .complexes import (
    TopologicalTriangulation,
    build_complex,
    csaszar_torus,
    from_vertex_triples,
    genus2_octagon,
    octagon_cone,
    pillow,
    subdivide,
    tetrahedron,
)
from .delaunay import (
    DelaunayComplex,
    delaunay,
    is_generically_delta_dense,
    verify_empty_disks,
)
from .estimators import (
    CapRegion,
    RectRegion,
    chi_estimator,
    chi_quadrature,
    expected_faces_quadrature,
    face_defect_in_region,
)
from .hyperbolic import (
    angles_from_lengths,
    class_grad,
    class_hessian,
    class_hessian_sparse,
    edge_lengths,
    lobachevsky,
    objective_H,
    prism_gradient,
    prism_volume,
)
from .smoothflow import (
    MeshMetric,
    curvature_h,
    curvature_spread,
    entropy,
    evaluate_Ig,
    gradient_Ig,
    log_ricci_flow,
    teleport,
)
from .surfaces import PointSample, SurfaceModel, circumdisk, sample_poisson
from .uniformize import (
    HyperbolicStructure,
    assemble_structure,
    pattern_report,
    uniformize,
)
