"""Tilts of the truncated wedge and canonicality of the segment decomposition.

The tilt of an internal face measures, per piece, on which side of the
supporting hyperplane of the piece's truncation poles the neighbouring
poles fall.  With every tilt negative, the convex hull of the pole orbit is
locally convex across every face and the decomposition into the 2n wedges
is the canonical one.

Two independent routes are provided:

* ``tilts_from_gram`` -- the Gram-matrix equation over the directly computed
  face normals (authoritative for the verdict);
* closed forms in (n, h): ``tilts_closed_form`` evaluates the reference
  algebraic forms with second factors ``sqrt(1-c)(1+c)(2c - sqrt(1-c))`` and
  ``(c - sqrt(1-c))``, while ``tilts_exact_form`` evaluates the reduction of
  the Gram route, with factors ``(1-c)(1+c)(2c-1)`` and ``(2c-1)``.  The two
  variants have the same signs for n >= 4 but different values; the exact
  forms agree with the Gram route to rounding, the reference forms do not
  (notes/decisions.md, section 2).  ``canonicality_verdict`` evaluates each
  route once and records both residuals and the sign agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .minkowski import Matrix, MinkVec, apply_twist, dual_frame, mink_inner
from .realization import NumericalDegeneracy, Realization, UnsupportedN

SINGULAR_TOL = 1e-12


class SingularPairing(ValueError):
    """A face/pole pairing is numerically orthogonal; reciprocal blows up."""


class TiltVector(NamedTuple):
    """Tilts of the four internal faces of one wedge."""

    t_upper: float
    t_lower: float
    t_near: float
    t_far: float

    @property
    def max_tilt(self) -> float:
        return max(self)


@dataclass(frozen=True)
class CanonicalityVerdict:
    """The verdict from the Gram route, with the three tilt routes it read.

    The two residuals are the max-abs differences of the reference and the
    exact closed forms from the Gram tilts; ``signs_agree`` records whether
    the reference forms have the signs of the Gram tilts.
    """

    is_canonical: bool
    margin: float
    agreement_residual: float
    exact_agreement_residual: float
    signs_agree: bool
    gram: TiltVector
    reference: TiltVector
    exact: TiltVector


def _face_pole_pairs(real: Realization) -> tuple[tuple[MinkVec, MinkVec], ...]:
    # each face paired with the truncation pole of the one wedge vertex that
    # does not lie on the face's plane (the vertex the face looks at)
    return (
        (real.normal_upper, real.apex_bottom),
        (real.normal_lower, real.apex_top),
        (real.normal_near, real.mid_lower),
        (real.normal_far, real.mid_upper),
    )


def gram_matrix(real: Realization) -> Matrix:
    """Pairwise inner products of the face normals (order: upper, lower,
    near, far), with unit diagonal; a tuple of its rows."""
    normals = real.face_normals()
    return tuple(tuple(mink_inner(a, b) for b in normals) for a in normals)


def tilts_from_gram(real: Realization) -> TiltVector:
    """Tilt vector from the Gram-matrix equation.

    t = G . (-1 / <face_i, pole_i>) where pole_i is the truncation pole the
    face looks at.
    """
    rhs = []
    for i, (face, pole) in enumerate(_face_pole_pairs(real)):
        inner = mink_inner(face, pole)
        if abs(inner) < SINGULAR_TOL:
            raise SingularPairing(f"face/pole pairing {i} is orthogonal")
        rhs.append(-1.0 / inner)
    x0, x1, x2, x3 = rhs
    return TiltVector(*(0.0 + g0 * x0 + g1 * x1 + g2 * x2 + g3 * x3
                        for g0, g1, g2, g3 in gram_matrix(real)))


def _closed_form_factors(n: int, h: float) -> tuple[float, float, float]:
    """cos(pi/n), the shared positive factor under the square root and the
    denominator scaling the upper/lower tilts."""
    if n < 4:
        raise UnsupportedN(f"n must be >= 4, got {n}")
    c = math.cos(math.pi / n)
    common = (h * h - 1.0) / (
        (1 + c) ** 2 * (2 * c - 1) + (1 - c) ** 2 * (2 * c + 1) * h * h
    )
    denom = (1 + c) * ((1 - c) * h * h + (1 + c) * (2 * c - 1)) + h * h * (1 - c) * (
        1 + c - (1 - c) * (2 * c + 1) * h * h
    )
    if common <= 0 or denom <= 0:
        raise NumericalDegeneracy(
            f"closed-form intermediates lost positivity at n={n}, h={h}: "
            f"{common}, {denom}"
        )
    return c, common, denom


def _closed_form(n: int, h: float, reduced: bool) -> TiltVector:
    c, common, denom = _closed_form_factors(n, h)
    if reduced:
        brace = (1 - c) ** 2 * (2 * c + 1) * h * h + (1 - c) * (1 + c) * (2 * c - 1)
        scalar = 2 * c - 1
    else:
        brace = (1 - c) ** 2 * (2 * c + 1) * h * h + math.sqrt(1 - c) * (1 + c) * (
            2 * c - math.sqrt(1 - c)
        )
        scalar = c - math.sqrt(1 - c)
    t_upper = -h * math.sqrt(common / denom) * brace
    t_near = -math.sqrt(common) * math.sqrt(1 - c) * math.sqrt(1 + c) * scalar
    return TiltVector(t_upper, t_upper, t_near, t_near)


def tilts_closed_form(n: int, h: float) -> TiltVector:
    """Reference closed forms (factors with sqrt(1-c); see module docstring)."""
    return _closed_form(n, h, reduced=False)


def tilts_exact_form(n: int, h: float) -> TiltVector:
    """Closed forms reducing the Gram route exactly (factors with 2c-1)."""
    return _closed_form(n, h, reduced=True)


def _max_abs_diff(a: TiltVector, b: TiltVector) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def canonicality_verdict(real: Realization) -> CanonicalityVerdict:
    """Canonicality from the Gram route; closed-form residuals recorded."""
    gram = tilts_from_gram(real)
    reference = tilts_closed_form(real.params.n, real.params.h)
    exact = tilts_exact_form(real.params.n, real.params.h)
    margin = gram.max_tilt
    return CanonicalityVerdict(
        is_canonical=margin < 0.0,
        margin=margin,
        agreement_residual=_max_abs_diff(gram, reference),
        exact_agreement_residual=_max_abs_diff(gram, exact),
        signs_agree=all(
            (x < 0) == (y < 0)
            for x, y in zip(gram, reference)
        ),
        gram=gram,
        reference=reference,
        exact=exact,
    )


def support_hull_margins(real: Realization) -> dict[str, float]:
    """Independent canonicality certificate from the pole hull.

    For the support vector q of the wedge's four poles (normalised to
    <q, pole> = 1), develops the neighbouring piece across each internal
    face and returns <w, q> - 1 for its remaining pole w.  All margins
    strictly positive means the hull is locally convex at every face, i.e.
    the decomposition is canonical.
    """
    ups, tau = real.apex_bottom, real.apex_top
    alp, dlt = real.mid_upper, real.mid_lower
    bet, gam = real.normal_upper, real.normal_lower
    # the sum of the pole frame's dual basis has <q, pole> = 1 for each pole
    d0, d1, d2, d3 = dual_frame((tau, ups, alp, dlt))
    q = MinkVec(0.0 + d0.x0 + d1.x0 + d2.x0 + d3.x0,
                0.0 + d0.x1 + d1.x1 + d2.x1 + d3.x1,
                0.0 + d0.x2 + d1.x2 + d2.x2 + d3.x2,
                0.0 + d0.x3 + d1.x3 + d2.x3 + d3.x3)

    def developed(x: MinkVec, source: tuple, target: tuple) -> float:
        # <w, q> - 1 for the image w of x under the map taking each source
        # vector to its target: w = sum of <x, d_i> target_i over the dual d
        total = 0.0
        for d, t in zip(dual_frame(source), target):
            total += mink_inner(x, d) * mink_inner(t, q)
        return total - 1.0

    # the orthogonal twist's transpose inverts it; across the upper face the
    # congruence takes (alp, dlt, ups, gam) to (tau, alp, dlt, -bet), across
    # the lower face (dlt, alp, tau, bet) to (ups, dlt, alp, -gam)
    return {
        "near_side": mink_inner(apply_twist(alp, tuple(zip(*real.twist))), q) - 1.0,
        "far_side": mink_inner(apply_twist(dlt, real.twist), q) - 1.0,
        "upper": developed(tau, (alp, dlt, ups, gam), (tau, alp, dlt, -bet)),
        "lower": developed(ups, (dlt, alp, tau, bet), (ups, dlt, alp, -gam)),
    }
