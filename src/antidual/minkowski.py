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
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

ORTHO_TOL = 1e-12
DEGENERACY_TOL = 1e-10
# <a,a> carries a rounding error of about eps * |a|^2 (Euclidean), so below
# SPACELIKE_TOL * |a|^2 it keeps fewer than about five significant digits:
# too few to normalise by.  The realization's own chart lifts come down to
# 1.6e-8 * |a|^2 at n = 10^4 and 1.6e-10 * |a|^2 at n = 10^5.
SPACELIKE_TOL = 1e-11

# the columns of the 3x3 minor left by deleting column i, and the sign that
# turns its determinant into component i of a Lorentz-orthogonal vector: the
# cofactor sign times the metric's
_MINOR_COLS = np.array([[j for j in range(4) if j != i] for i in range(4)])
_NORMAL_SIGN = np.array([-1.0, -1.0, 1.0, -1.0])


class MinkowskiError(ValueError):
    """Base class for geometric errors in this module."""


class NonSpacelike(MinkowskiError):
    """Normalisation requested for a vector with <a,a> <= SPACELIKE_TOL * |a|^2."""


class DegenerateSpan(MinkowskiError):
    """Plane normal requested for (numerically) dependent spanning vectors."""


class AmbiguousOrientation(MinkowskiError):
    """Interior witness lies on the plane, so no outward side exists."""


# a subclass of collections.namedtuple, because typing.NamedTuple forbids the
# __new__ that checks the components
class MinkVec(namedtuple("MinkVec", "x0 x1 x2 x3")):
    """A vector of E^{1,3}; components must be finite."""

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, x2: float, x3: float) -> "MinkVec":
        self = tuple.__new__(cls, (x0, x1, x2, x3))
        if not all(map(math.isfinite, self)):
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


def twist_matrix(n: int) -> np.ndarray:
    """Rotation by pi/n about the x3 axis composed with the flip x3 -> -x3.

    This is the generator of the rotatory-reflection symmetry carrying each
    wedge of the polyhedron to the next one; its 2n-th power is the identity
    and its determinant is -1.
    """
    if n < 3:
        raise MinkowskiError(f"twist order must be >= 3, got {n}")
    c = math.cos(math.pi / n)
    s = math.sin(math.pi / n)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, c, s, 0.0],
        [0.0, -s, c, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ])


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


def apply_twist(a: MinkVec, twist: np.ndarray) -> MinkVec:
    """Image of a row vector under the twist: a @ N."""
    return MinkVec(*(np.array(a) @ twist).tolist())


def twist_images(vectors: Sequence[MinkVec], twist: np.ndarray) -> list[MinkVec]:
    """Images of several row vectors under the twist from one matmul; each
    row is bit-identical to apply_twist on that vector."""
    rows = np.array(vectors) @ twist
    return [MinkVec(*row) for row in rows.tolist()]


def plane_normals(
    planes: Sequence[tuple[MinkVec, MinkVec, MinkVec, MinkVec]],
) -> list[MinkVec]:
    """Outward unit normals of several planes, each spanned by three lifts.

    Each plane is given as (p, q, r, interior); its normal w satisfies
    <w,p> = <w,q> = <w,r> = 0 and <w, interior> < 0, so the interior witness
    lies inside the half-space the normal bounds.  The planes are checked in
    order, and each one for degeneracy, then spacelikeness, then orientation.
    """
    # the 12 components of each plane's spanning vectors, p then q then r
    spans = [(*p, *q, *r) for p, q, r, _ in planes]
    # Cofactor expansion of det(x; p; q; r) gives the Euclidean-orthogonal
    # vector; flipping the sign of the x0 component turns Euclidean
    # orthogonality into Lorentzian orthogonality.  The stacked det runs the
    # same LU factorisation on each 3x3 minor as one call per minor would,
    # so the cofactors are bit-identical to those.
    rows = np.array(spans).reshape(len(spans), 3, 4)
    minors = rows[:, :, _MINOR_COLS].transpose(0, 2, 1, 3)
    crosses = (_NORMAL_SIGN * np.linalg.det(minors)).tolist()
    normals = []
    for (*_, interior), span, w in zip(planes, spans, crosses):
        scale = max(map(abs, span)) ** 3
        if max(map(abs, w)) <= DEGENERACY_TOL * max(scale, 1.0):
            raise DegenerateSpan("spanning vectors are numerically dependent")
        wv = normalize_spacelike(MinkVec(*w))
        side = mink_inner(wv, interior)
        if abs(side) <= ORTHO_TOL:
            raise AmbiguousOrientation("interior witness lies on the plane")
        normals.append(-wv if side > 0 else wv)
    return normals


def plane_normal(p: MinkVec, q: MinkVec, r: MinkVec, interior: MinkVec) -> MinkVec:
    """Outward unit normal of one plane; see plane_normals."""
    return plane_normals([(p, q, r, interior)])[0]
