"""Lorentzian linear algebra on the Minkowski space E^{1,3}.

The bilinear form has signature (-,+,+,+); coordinate x0 is the affine-chart
coordinate, so the chart {x0 = 1} carries the projective (Klein) ball model
of hyperbolic 3-space.  Points of the hyperboloid <x,x> = -1 (x0 > 0) are
hyperbolic points, unit spacelike vectors (<x,x> = +1) are poles of geodesic
half-spaces.

Matrices act on row vectors throughout: ``v @ M``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from math import isfinite

ORTHO_TOL = 1e-12
DEGENERACY_TOL = 1e-10
# <a,a> carries a rounding error of about eps * |a|^2 (Euclidean), so below
# SPACELIKE_TOL * |a|^2 it keeps fewer than about five significant digits:
# too few to normalise by.  The realization's own chart lifts come down to
# 1.6e-8 * |a|^2 at n = 10^4 and 1.6e-10 * |a|^2 at n = 10^5.
SPACELIKE_TOL = 1e-11


class MinkowskiError(ValueError):
    """Base class for geometric errors in this module."""


class NonSpacelike(MinkowskiError):
    """Normalisation requested for a vector with <a,a> <= SPACELIKE_TOL * |a|^2."""


class DegenerateSpan(MinkowskiError):
    """Plane normal or dual basis requested for (numerically) dependent vectors."""


class AmbiguousOrientation(MinkowskiError):
    """Interior witness lies on the plane, so no outward side exists."""


# a subclass of collections.namedtuple, because typing.NamedTuple forbids the
# __new__ that checks the components
class MinkVec(namedtuple("MinkVec", "x0 x1 x2 x3")):
    """A vector of E^{1,3}; components must be finite."""

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, x2: float, x3: float) -> "MinkVec":
        self = tuple.__new__(cls, (x0, x1, x2, x3))
        if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(x3)):
            raise MinkowskiError(f"non-finite component in {self!r}")
        return self

    def __add__(self, other: "MinkVec") -> "MinkVec":
        return MinkVec(self.x0 + other.x0, self.x1 + other.x1,
                       self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "MinkVec") -> "MinkVec":
        return MinkVec(self.x0 - other.x0, self.x1 - other.x1,
                       self.x2 - other.x2, self.x3 - other.x3)

    def __mul__(self, s: float) -> "MinkVec":
        return MinkVec(self.x0 * s, self.x1 * s, self.x2 * s, self.x3 * s)

    __rmul__ = __mul__

    def __neg__(self) -> "MinkVec":
        return MinkVec(-self.x0, -self.x1, -self.x2, -self.x3)


Matrix = tuple[tuple[float, float, float, float], ...]


def twist_matrix(n: int) -> Matrix:
    """Rotation by pi/n about the x3 axis composed with the flip x3 -> -x3.

    This is the generator of the rotatory-reflection symmetry carrying each
    wedge of the polyhedron to the next one; its 2n-th power is the identity
    and its determinant is -1.  The matrix is a tuple of its four rows.
    """
    if n < 3:
        raise MinkowskiError(f"twist order must be >= 3, got {n}")
    c = math.cos(math.pi / n)
    s = math.sin(math.pi / n)
    return ((1.0, 0.0, 0.0, 0.0), (0.0, c, s, 0.0), (0.0, -s, c, 0.0), (0.0, 0.0, 0.0, -1.0))


def mink_inner(a: MinkVec, b: MinkVec) -> float:
    """Bilinear form -a0*b0 + a1*b1 + a2*b2 + a3*b3."""
    return -a.x0 * b.x0 + a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3


def normalize_spacelike(a: MinkVec) -> MinkVec:
    """Scale a spacelike vector onto the unit de Sitter sphere <x,x> = 1."""
    nn = mink_inner(a, a)
    size = a.x0 * a.x0 + a.x1 * a.x1 + a.x2 * a.x2 + a.x3 * a.x3
    if nn <= SPACELIKE_TOL * size:
        raise NonSpacelike(f"<a,a> = {nn} against |a|^2 = {size}, not spacelike")
    return a * (1.0 / math.sqrt(nn))


def apply_twist(a: MinkVec, twist: Matrix) -> MinkVec:
    """Image of a row vector under the twist: a @ N."""
    # explicit sums, not sum(): since Python 3.12 sum() of floats is
    # compensated, so its last bits would depend on the Python version.
    # Starting from 0.0 gives what sum() did before, signed zeros included.
    a0, a1, a2, a3 = a
    ((m00, m01, m02, m03), (m10, m11, m12, m13),
     (m20, m21, m22, m23), (m30, m31, m32, m33)) = twist
    return MinkVec(0.0 + a0 * m00 + a1 * m10 + a2 * m20 + a3 * m30,
                   0.0 + a0 * m01 + a1 * m11 + a2 * m21 + a3 * m31,
                   0.0 + a0 * m02 + a1 * m12 + a2 * m22 + a3 * m32,
                   0.0 + a0 * m03 + a1 * m13 + a2 * m23 + a3 * m33)


def twist_images(vectors: Sequence[MinkVec], twist: Matrix) -> list[MinkVec]:
    """Images of several row vectors under the twist."""
    return [apply_twist(v, twist) for v in vectors]


def lorentz_cross(p: MinkVec, q: MinkVec, r: MinkVec) -> tuple[float, ...]:
    """The w with <x, w> = det(x; p; q; r) for every x, so <w, p> = <w, q> =
    <w, r> = 0: the cofactors of the first row, the x0 one negated to turn
    Euclidean orthogonality into Lorentzian.  They may overflow to inf."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    r0, r1, r2, r3 = r
    # the 2x2 minors of q and r, by their two columns
    m01 = q0 * r1 - q1 * r0
    m02 = q0 * r2 - q2 * r0
    m03 = q0 * r3 - q3 * r0
    m12 = q1 * r2 - q2 * r1
    m13 = q1 * r3 - q3 * r1
    m23 = q2 * r3 - q3 * r2
    return (
        -(p1 * m23 - p2 * m13 + p3 * m12),
        -(p0 * m23 - p2 * m03 + p3 * m02),
        p0 * m13 - p1 * m03 + p3 * m01,
        -(p0 * m12 - p1 * m02 + p2 * m01),
    )


def dual_frame(frame: Sequence[MinkVec]) -> list[MinkVec]:
    """The basis d_0..d_3 with <d_i, f_j> = 1 if i == j else 0.

    The coordinates of x in the basis ``frame`` are the <x, d_i>.  Raises
    DegenerateSpan when det(frame) has no significant digit.
    """
    # each of det's 24 products of four components is rounded at most 9
    # times, so det errs by at most gamma_9 * perm|frame| (Higham, Accuracy
    # and Stability of Numerical Algorithms, 3.1), and perm|frame| is at most
    # the product of the rows' 1-norms, each at most twice the row's length
    bound = 9 * 16 * sys.float_info.epsilon * math.prod(math.hypot(*f) for f in frame)
    dual = []
    for i, f in enumerate(frame):
        w = MinkVec(*lorentz_cross(*frame[:i], *frame[i + 1:]))
        det = mink_inner(f, w)  # det(frame), negated for odd i
        if not abs(det) > bound:
            raise DegenerateSpan("frame vectors are numerically dependent")
        dual.append(w * (1.0 / det))
    return dual


def plane_normals(
    planes: Sequence[tuple[MinkVec, MinkVec, MinkVec, MinkVec]],
) -> list[MinkVec]:
    """Outward unit normals of several planes, each spanned by three lifts.

    Each plane is given as (p, q, r, interior); its normal w satisfies
    <w,p> = <w,q> = <w,r> = 0 and <w, interior> < 0, so the interior witness
    lies inside the half-space the normal bounds.  The planes are checked in
    order, and each one for overflow, degeneracy, then spacelikeness, then
    orientation.
    """
    normals = []
    for p, q, r, interior in planes:
        w0, w1, w2, w3 = lorentz_cross(p, q, r)
        if not (isfinite(w0) and isfinite(w1) and isfinite(w2) and isfinite(w3)):
            raise DegenerateSpan("the cofactors of the spanning vectors overflow")
        # a product, not a power: past about 5.6e102 the cube is infinite,
        # and every finite cofactor falls below it
        scale = max(max(map(abs, (*p, *q, *r))), 1.0)
        if max(abs(w0), abs(w1), abs(w2), abs(w3)) <= DEGENERACY_TOL * (scale * scale * scale):
            raise DegenerateSpan("spanning vectors are numerically dependent")
        wv = normalize_spacelike(MinkVec(w0, w1, w2, w3))
        side = mink_inner(wv, interior)
        if abs(side) <= ORTHO_TOL:
            raise AmbiguousOrientation("interior witness lies on the plane")
        normals.append(-wv if side > 0 else wv)
    return normals


def plane_normal(p: MinkVec, q: MinkVec, r: MinkVec, interior: MinkVec) -> MinkVec:
    """Outward unit normal of one plane; see plane_normals."""
    return plane_normals([(p, q, r, interior)])[0]
