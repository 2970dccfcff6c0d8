"""The names ``antidual`` exports: a change to the list must be made here on
purpose."""

import types

import antidual

PUBLIC_NAMES = [
    "AutGroupData", "BoundarySurface", "CanonicalityVerdict", "ClassSummary",
    "ClassificationResult", "CombIso", "Decomposition", "DihedralAngles", "EdgeClass",
    "EnumerationResult", "FacePairing", "GluingCase", "IsomorphismCertificate",
    "MinkVec", "PresentedGroup", "Realization", "RealizationParams", "TiltVector",
    "ValidationReport", "angle_sum_check", "apply_twist", "arcs", "automorphism_group",
    "boundary_surface", "build_decomposition", "build_realization",
    "canonicality_verdict", "classify", "coset_enumerate", "decomposition_to_dict",
    "dihedral_angles", "edge_length", "enumerate_isomorphisms", "flip_iso",
    "format_presentation", "gram_matrix", "isometry_presentation", "mink_inner",
    "normalize_spacelike", "parse_presentation", "plane_normal", "realize",
    "reflection_iso", "rotation_iso", "solve_parameters", "support_hull_margins",
    "tilts_closed_form", "tilts_exact_form", "tilts_from_gram", "twist_matrix",
    "validate_realization", "verify_isomorphism",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package too, but not names it exports
    names = sorted(name for name, value in vars(antidual).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
