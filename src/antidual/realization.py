"""Hyperbolic realization of the fundamental wedge of the antiprism dual.

The polyhedron is cut along planes through the x3 axis into 2n congruent
tetrahedral wedges.  One wedge has four hyperideal vertices: the two cone
apexes on the axis and two middle vertices, one above and one below the
equator.  Truncating at the polar planes of the vertices produces a compact
piece with totally geodesic boundary.

The shape is pinned by three constraints: the quad face through the top apex
must be planar, the slant and equator edges must have equal length, and the
dihedral angles at the edges glued together must fill 2*pi.  All three have
closed-form solutions in h (apex height), r (middle-vertex distance) and
theta (elevation of the upper middle vertex).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .minkowski import (
    Matrix,
    MinkVec,
    apply_twist,
    mink_inner,
    normalize_spacelike,
    plane_normals,
    twist_images,
    twist_matrix,
)

if TYPE_CHECKING:
    from .decomposition import Decomposition

RESIDUAL_TOL = 1e-10
ANGLE_SUM_TOL = 1e-9


class RealizationError(ValueError):
    pass


class UnsupportedN(RealizationError):
    """n < 4: the wedge degenerates (h = 0 at n = 3) or is undefined."""


class NumericalDegeneracy(RealizationError):
    """A radicand or denominator lost positivity."""


class OutOfRange(RealizationError):
    """An arccos argument left [-1, 1]: the planes do not intersect."""


class NotUltraparallel(RealizationError):
    """Truncation planes meet, so no common perpendicular edge exists."""


class GluingCase(Enum):
    """Which edge-identification pattern n produces."""

    NOT_DIV3 = "not_div3"
    DIV3 = "div3"


@dataclass(frozen=True)
class RealizationParams:
    """Solved shape parameters of the fundamental wedge."""

    n: int
    case: GluingCase
    c_n: float
    h: float
    r: float
    sin_theta: float
    theta: float


@dataclass(frozen=True)
class Realization:
    """The solved wedge: vertex pole lifts and outward face normals.

    Vertices (all hyperideal, lifted to the unit de Sitter sphere):

    * ``apex_top`` / ``apex_bottom``  -- the cone points on the x3 axis;
    * ``mid_upper``                   -- the middle vertex above the equator
      at azimuth 0 (the far end of the slant edge from the top apex);
    * ``mid_lower``                   -- the middle vertex below the equator
      at azimuth pi/n;
    * ``mid_upper_next``              -- the next upper middle vertex at
      azimuth 2*pi/n; it lies on the upper face plane but belongs to the
      neighbouring wedge.

    Face normals (outward):

    * ``normal_upper``  -- face (apex_top, mid_upper, mid_lower), half of the
      planar quad through the top apex;
    * ``normal_lower``  -- face (apex_bottom, mid_upper, mid_lower);
    * ``normal_near``   -- cutting plane at azimuth 0 (contains the axis and
      mid_upper);
    * ``normal_far``    -- cutting plane at azimuth pi/n (contains the axis
      and mid_lower).

    ``twist`` is the 4x4 twist matrix of order n, a tuple of its rows.
    """

    params: RealizationParams
    apex_top: MinkVec
    apex_bottom: MinkVec
    mid_upper: MinkVec
    mid_lower: MinkVec
    mid_upper_next: MinkVec
    normal_upper: MinkVec
    normal_lower: MinkVec
    normal_near: MinkVec
    normal_far: MinkVec
    twist: Matrix

    def vertex_poles(self) -> tuple[MinkVec, MinkVec, MinkVec, MinkVec]:
        return (self.apex_top, self.apex_bottom, self.mid_upper, self.mid_lower)

    def face_normals(self) -> tuple[MinkVec, MinkVec, MinkVec, MinkVec]:
        return (self.normal_upper, self.normal_lower,
                self.normal_near, self.normal_far)


@dataclass(frozen=True)
class DihedralAngles:
    """Dihedral angles of the wedge, in radians.

    ``slant`` is the angle along the four apex-to-middle edges, ``equator``
    the angle along the middle-to-middle edge.  The axis edge always carries
    angle pi/n and the two quad-diagonal edges carry right angles.
    """

    slant: float
    equator: float


@dataclass(frozen=True)
class ValidationReport:
    residual_planarity: float
    residual_edge_equality: float
    residual_angle_sum: float
    residual_unit_norm: float
    residual_polar_orthogonality: float
    residual_twist_consistency: float
    residual_normal_agreement: float
    h_exceeds_one: bool
    r_exceeds_one: bool
    ultraparallel: bool
    verdict: bool


def solve_parameters(n: int) -> RealizationParams:
    """Closed-form shape parameters for the wedge of order n.

    Raises UnsupportedN for n < 4; at n = 3 the polyhedron is a cube and the
    quotient is the 3-torus minus a ball, which carries no hyperbolic
    structure (the closed form gives h = 0).
    """
    if n < 4:
        raise UnsupportedN(f"n must be >= 4, got {n}")
    case = GluingCase.DIV3 if n % 3 == 0 else GluingCase.NOT_DIV3
    c = math.cos(math.pi / n)
    # 1 - cos(pi/n) evaluated as 2 sin^2(pi/2n): the direct subtraction
    # loses ~log10(n^2) digits and the angle-sum residual amplifies the
    # loss by a factor growing with n
    cm1 = 2.0 * math.sin(math.pi / (2 * n)) ** 2
    if case is GluingCase.DIV3:
        rad = (2 * c - 1) * (2 * c + 1)
        if rad <= 0:
            raise NumericalDegeneracy(f"degenerate radicand {rad} at n={n}")
        h = math.sqrt(1 + c) * math.sqrt(2 * c - 1) / (
            math.sqrt(cm1) * math.sqrt(2 * c + 1)
        )
    else:
        # sqrt(8c^2+1) - 3c rationalises to (1-c^2)/(sqrt(8c^2+1)+3c), so
        # h = (1+c)/sqrt((1-c)(sqrt(8c^2+1)+3c)) without the cancellation
        rad = cm1 * (math.sqrt(8 * c * c + 1) + 3 * c)
        if rad <= 0:
            raise NumericalDegeneracy(f"degenerate radicand {rad} at n={n}")
        h = (1 + c) / math.sqrt(rad)
    r_rad = 2 * c - 1 + cm1 * cm1 * h * h
    if r_rad <= 0:
        raise NumericalDegeneracy(f"degenerate radicand {r_rad} at n={n}")
    r = math.sqrt(r_rad) / c
    sin_theta = cm1 * h / ((1 + c) * r)
    if not (h > 1 and r > 1 and 0 < sin_theta < 1):
        raise NumericalDegeneracy(
            f"solved parameters out of range at n={n}: h={h}, r={r}, "
            f"sin_theta={sin_theta}"
        )
    # the upper middle vertex sits in the upper front octant, so theta takes
    # the principal arcsine branch
    return RealizationParams(
        n=n, case=case, c_n=c, h=h, r=r,
        sin_theta=sin_theta, theta=math.asin(sin_theta),
    )


def lower_face_norm_sq(params: RealizationParams) -> float:
    """Squared Lorentzian norm of the unnormalised lower-face normal."""
    c, h, r, st = params.c_n, params.h, params.r, params.sin_theta
    return (
        r * r * (1 + c) * (1 + c + (1 - c) * h * h) * st * st
        + r * r * (1 - c * c) * (1 - h * h)
        + 2 * (1 - c) * h * h
    )


def closed_form_lower_normal(params: RealizationParams) -> MinkVec:
    """The lower face normal from its algebraic expression."""
    c, h, r, st = params.c_n, params.h, params.r, params.sin_theta
    ct = math.sqrt(1.0 - st * st)
    s = math.sqrt(1.0 - c * c)
    raw = MinkVec(
        h * r * s * ct,
        (h + r * st) * s,
        (1 - c) * h - r * (1 + c) * st,
        -r * s * ct,
    )
    return raw * (1.0 / math.sqrt(lower_face_norm_sq(params)))


def algebraic_normals(
    params: RealizationParams, twist: Matrix,
) -> tuple[MinkVec, MinkVec, MinkVec, MinkVec]:
    """All four outward normals from their algebraic expressions.

    The upper normal is the image of the lower one under ``twist``, the
    twist of order params.n (the two quad planes are exchanged by the
    twist), and the two cutting planes have constant normals.  These
    evaluations stay well conditioned for large n, where the cross-product
    route loses several digits to cancellation; the two routes are compared
    in validate_realization.
    """
    c = params.c_n
    s = math.sqrt(1.0 - c * c)
    lower = closed_form_lower_normal(params)
    upper = apply_twist(lower, twist)
    near = MinkVec(0.0, 0.0, -1.0, 0.0)
    far = MinkVec(0.0, -s, c, 0.0)
    return upper, lower, near, far


def build_realization(params: RealizationParams) -> Realization:
    """Lift the vertices and compute all four outward face normals directly.

    Normals are computed from the chart lifts (x0 = 1) of the vertices;
    those span the same planes as the unit poles but keep all components
    O(1), so the cross products stay well conditioned as r approaches 1.
    """
    h, r, st = params.h, params.r, params.sin_theta
    ct = math.sqrt(1.0 - st * st)
    twist = twist_matrix(params.n)

    top_raw = MinkVec(1.0, 0.0, 0.0, h)
    mid_raw = MinkVec(1.0, r * ct, 0.0, r * st)
    apex_top = normalize_spacelike(top_raw)
    mid_upper = normalize_spacelike(mid_raw)
    apex_bottom, mid_lower, bot_raw, mid_low_raw = twist_images(
        (apex_top, mid_upper, top_raw, mid_raw), twist)
    # a second twist, not the square of the twist matrix: chained products
    # round differently from one product with the square
    mid_upper_next = apply_twist(mid_lower, twist)

    # interior witness: chart centroid of the four wedge vertices
    centroid = MinkVec(
        1.0,
        (0.0 + top_raw.x1 + bot_raw.x1 + mid_raw.x1 + mid_low_raw.x1) / 4.0,
        (0.0 + top_raw.x2 + bot_raw.x2 + mid_raw.x2 + mid_low_raw.x2) / 4.0,
        (0.0 + top_raw.x3 + bot_raw.x3 + mid_raw.x3 + mid_low_raw.x3) / 4.0,
    )

    normal_upper, normal_lower, normal_near, normal_far = plane_normals((
        (top_raw, mid_raw, mid_low_raw, centroid),
        (bot_raw, mid_raw, mid_low_raw, centroid),
        (top_raw, mid_raw, bot_raw, centroid),
        (top_raw, mid_low_raw, bot_raw, centroid),
    ))

    return Realization(
        params=params,
        apex_top=apex_top,
        apex_bottom=apex_bottom,
        mid_upper=mid_upper,
        mid_lower=mid_lower,
        mid_upper_next=mid_upper_next,
        normal_upper=normal_upper,
        normal_lower=normal_lower,
        normal_near=normal_near,
        normal_far=normal_far,
        twist=twist,
    )


def realize(n: int) -> Realization:
    """Convenience: solve parameters and build the realization."""
    return build_realization(solve_parameters(n))


def dihedral_angles(real: Realization) -> DihedralAngles:
    """Angles along the slant and equator edges.

    slant = arccos(-<upper, near>) and equator = arccos(-<upper, lower>).
    Under the planarity and edge-equality relations (checked independently
    by validate_realization) the cosines reduce to functions of (c, h)
    alone, with P = (1+c)^2 (2c-1) + (1-c)^2 (2c+1) h^2 and
    Q = 4 c^2 h^2 - P (h^2 - 1):

        cos slant   = 2 c h sqrt(1-c^2) / sqrt(Q)
        cos equator = ((h^2+1) P - 4 c^3 h^2) / Q

    The evaluation goes through half-angle forms: both angles shrink like
    1/n, the stored double r cannot hold the constraint to better than
    ~1e-8 in angle-sum at n ~ 100, and arccos of a near-1 cosine loses
    precision; the reduced forms avoid r entirely and keep the residual at
    the 1e-12 level across n up to 100.
    """
    n, c, h = real.params.n, real.params.c_n, real.params.h
    cm1 = 2.0 * math.sin(math.pi / (2 * n)) ** 2  # 1 - c without cancellation
    s = math.sin(math.pi / n)
    # u = (1-c) h^2 stays O(1) as n grows; expressing P, Q and the
    # half-angle numerators through it keeps every subtraction benign
    u = cm1 * h * h
    p_poly = (1 + c) ** 2 * (2 * c - 1) + cm1 * (2 * c + 1) * u
    q_poly = u * ((2 * c * c + c + 1) - (2 * c + 1) * u) + p_poly
    if q_poly <= 0:
        raise OutOfRange(f"degenerate normal frame (Q = {q_poly})")
    sq = math.sqrt(q_poly)
    cos_slant = 2 * c * h * s / sq
    n_slant = p_poly - u * ((4 * c**3 + 2 * c * c - c - 1) + (2 * c + 1) * u)
    sin2_half_slant = n_slant / (2 * sq * (sq + 2 * c * h * s))
    sin2_half_equator = u * ((1 + c) - (2 * c + 1) * u) / q_poly
    for name, cos_v, sin2 in (
        ("slant", cos_slant, sin2_half_slant),
        ("equator", ((h * h + 1) * p_poly - 4 * c**3 * h * h) / q_poly,
         sin2_half_equator),
    ):
        if abs(cos_v) >= 1.0 or not 0.0 <= sin2 <= 1.0:
            raise OutOfRange(f"|cos {name}| >= 1: planes do not meet")
    return DihedralAngles(
        slant=2 * math.asin(math.sqrt(sin2_half_slant)),
        equator=2 * math.asin(math.sqrt(sin2_half_equator)),
    )


def angle_sum_residual(real: Realization) -> float:
    """Residual of the 2*pi gluing condition for the wedge's own case."""
    ang = dihedral_angles(real)
    n = real.params.n
    total = 2 * n * (2 * ang.slant + ang.equator)
    if real.params.case is GluingCase.DIV3:
        total /= 3.0
    return total - 2 * math.pi


@dataclass(frozen=True)
class AngleSumReport:
    """Per edge class, the sum of its wedge angles minus 2*pi."""

    residuals: tuple[float, ...]
    classes_checked: int
    max_residual: float
    all_within: bool


def angle_sum_check(dec: Decomposition, real: Realization) -> AngleSumReport:
    """Verify that the wedge angles around every edge class sum to 2*pi.

    Axis wedges contribute pi/n, slant and equator wedges the dihedral
    angles of ``real``, and the two quad-diagonal wedges the angles between
    the quad face normals and the cutting-plane normals (right angles; each
    diagonal class has four wedges).  Every class is checked, against
    ``ANGLE_SUM_TOL``.
    """
    angles = dihedral_angles(real)
    role_angle = {
        "axis": math.pi / dec.n,
        "slant_upper": angles.slant,
        "slant_lower": angles.slant,
        "equator": angles.equator,
        "diag_upper": math.acos(-mink_inner(real.normal_far, real.normal_upper)),
        "diag_lower": math.acos(-mink_inner(real.normal_lower, real.normal_near)),
    }
    # one residual per distinct roles (the n diagonal classes share one),
    # each sum run left to right from 0.0
    by_roles = dict.fromkeys(cls.roles for cls in dec.class_summaries)
    for roles in by_roles:
        total = 0.0
        for role, count in roles:
            total += role_angle[role] * count
        by_roles[roles] = total - 2 * math.pi
    residuals = tuple(by_roles[cls.roles] for cls in dec.class_summaries)
    max_res = max(abs(x) for x in residuals)
    return AngleSumReport(
        residuals=residuals,
        classes_checked=len(residuals),
        max_residual=max_res,
        all_within=max_res < ANGLE_SUM_TOL,
    )


_EDGE_POLES = {
    "slant": ("apex_top", "mid_upper"),
    "equator": ("mid_upper", "mid_lower"),
}


def edge_length(real: Realization, edge: str) -> float:
    """Length of a truncated edge: the distance between its two polar planes.

    ``edge`` is "slant" (top apex to upper middle vertex) or "equator"
    (upper to lower middle vertex).  For ultraparallel truncation planes the
    edge is their common perpendicular, of length arccosh |<u, w>|.
    """
    try:
        a_name, b_name = _EDGE_POLES[edge]
    except KeyError:
        raise RealizationError(f"unknown edge {edge!r}, expected one of "
                               f"{sorted(_EDGE_POLES)}") from None
    inner = mink_inner(getattr(real, a_name), getattr(real, b_name))
    if abs(inner) <= 1.0:
        raise NotUltraparallel(f"|<u,w>| = {abs(inner)} <= 1 along {edge}")
    return math.acosh(abs(inner))


# per vertex, the faces whose planes pass through it (polar orthogonality)
_INCIDENCES = (
    ("apex_top", ("normal_upper", "normal_near", "normal_far")),
    ("apex_bottom", ("normal_lower", "normal_near", "normal_far")),
    ("mid_upper", ("normal_upper", "normal_lower", "normal_near")),
    ("mid_lower", ("normal_upper", "normal_lower", "normal_far")),
)


def _max_component_gap(xs, ys) -> float:
    # max |x_i - y_i| over the components of paired vectors
    return max(abs(a - b) for x, y in zip(xs, ys)
               for a, b in zip(x, y))


def validate_realization(real: Realization) -> ValidationReport:
    """Check every geometric condition the construction relies on."""
    p = real.params

    planarity = abs(mink_inner(real.mid_upper_next, real.normal_upper))
    edge_eq = abs(
        mink_inner(real.apex_top, real.mid_upper)
        - mink_inner(real.mid_upper, real.mid_lower)
    )
    try:
        angle_sum = abs(angle_sum_residual(real))
    except OutOfRange:
        angle_sum = math.inf

    unit = max(
        abs(mink_inner(v, v) - 1.0)
        for v in (*real.vertex_poles(), real.mid_upper_next, *real.face_normals())
    )
    polar = max(
        abs(mink_inner(getattr(real, vn), getattr(real, fn)))
        for vn, faces in _INCIDENCES
        for fn in faces
    )
    twisted = twist_images(
        (real.apex_top, real.mid_upper, real.mid_lower, real.normal_lower), real.twist)
    expected = (real.apex_bottom, real.mid_lower, real.mid_upper_next,
                real.normal_upper)
    twist_res = _max_component_gap(twisted, expected)
    normal_res = _max_component_gap(real.face_normals(),
                                    algebraic_normals(p, real.twist))
    # the cross-product route loses accuracy like eps * h^3 as the apexes
    # recede, so the two-route comparison gets a scale-aware bound; the
    # geometric residuals above keep the strict tolerance
    normal_tol = max(RESIDUAL_TOL, 1e4 * sys.float_info.epsilon * p.h**3)

    poles = real.vertex_poles()
    ultra = all(
        abs(mink_inner(poles[i], poles[j])) > 1.0
        for i in range(4)
        for j in range(i + 1, 4)
    )
    h_ok = p.h > 1.0
    r_ok = p.r > 1.0

    verdict = (
        planarity < RESIDUAL_TOL
        and edge_eq < RESIDUAL_TOL
        and angle_sum < RESIDUAL_TOL
        and unit < RESIDUAL_TOL
        and polar < RESIDUAL_TOL
        and twist_res < RESIDUAL_TOL
        and normal_res < normal_tol
        and ultra and h_ok and r_ok
    )
    return ValidationReport(
        residual_planarity=planarity,
        residual_edge_equality=edge_eq,
        residual_angle_sum=angle_sum,
        residual_unit_norm=unit,
        residual_polar_orthogonality=polar,
        residual_twist_consistency=twist_res,
        residual_normal_agreement=normal_res,
        h_exceeds_one=h_ok,
        r_exceeds_one=r_ok,
        ultraparallel=ultra,
        verdict=verdict,
    )
