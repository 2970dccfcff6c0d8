"""Hyperbolic structure, canonical decomposition, and isometry groups of the
quotients of the antiprism-dual polyhedron under step-k face identifications.
"""

from .minkowski import (
    MinkVec,
    apply_twist,
    mink_inner,
    normalize_spacelike,
    plane_normal,
    twist_matrix,
)
from .realization import (
    DihedralAngles,
    GluingCase,
    Realization,
    RealizationParams,
    ValidationReport,
    angle_sum_check,
    build_realization,
    dihedral_angles,
    edge_length,
    realize,
    solve_parameters,
    validate_realization,
)
from .tilt import (
    CanonicalityVerdict,
    TiltVector,
    canonicality_verdict,
    gram_matrix,
    support_hull_margins,
    tilts_closed_form,
    tilts_exact_form,
    tilts_from_gram,
)
from .decomposition import (
    BoundarySurface,
    ClassSummary,
    Decomposition,
    EdgeClass,
    FacePairing,
    arcs,
    boundary_surface,
    build_decomposition,
    decomposition_to_dict,
)
from .symmetry import (
    AutGroupData,
    ClassificationResult,
    CombIso,
    automorphism_group,
    classify,
    enumerate_isomorphisms,
    flip_iso,
    reflection_iso,
    rotation_iso,
)
from .groups import (
    EnumerationResult,
    IsomorphismCertificate,
    PresentedGroup,
    coset_enumerate,
    format_presentation,
    isometry_presentation,
    parse_presentation,
    verify_isomorphism,
)

__version__ = "0.1.0"
