import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from antidual.minkowski import (
    AmbiguousOrientation,
    DegenerateSpan,
    MinkVec,
    MinkowskiError,
    NonSpacelike,
    apply_twist,
    mink_inner,
    normalize_spacelike,
    plane_normal,
    plane_normals,
    twist_images,
    twist_matrix,
)
from antidual.realization import build_realization, solve_parameters, validate_realization

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec = st.builds(MinkVec, coord, coord, coord, coord)


def test_inner_product_basis_examples():
    assert mink_inner(MinkVec(1, 0, 0, 0), MinkVec(1, 0, 0, 0)) == -1.0
    assert mink_inner(MinkVec(0, 0, -1, 0), MinkVec(0, 0, -1, 0)) == 1.0


def test_inner_product_solved_edge_equality():
    real = build_realization(solve_parameters(4))
    lhs = mink_inner(real.apex_top, real.mid_upper)
    rhs = mink_inner(real.mid_upper, real.mid_lower)
    assert abs(lhs - rhs) < 1e-10


@given(vec, vec, vec, coord, coord)
def test_inner_product_bilinear_symmetric(a, b, c, x, y):
    assert mink_inner(a, b) == pytest.approx(mink_inner(b, a), abs=1e-9)
    left = mink_inner(a * x + b * y, c)
    right = x * mink_inner(a, c) + y * mink_inner(b, c)
    assert left == pytest.approx(right, rel=1e-9, abs=1e-7)


def test_normalize_scaling():
    out = normalize_spacelike(MinkVec(0, 0, -2, 0))
    assert out == pytest.approx((0, 0, -1, 0))
    out = normalize_spacelike(MinkVec(1, 0, 0, 2))
    expected = (1 / math.sqrt(3), 0, 0, 2 / math.sqrt(3))
    assert out == pytest.approx(expected, abs=1e-14)
    assert mink_inner(out, out) == pytest.approx(1.0, abs=1e-14)


def test_normalize_rejects_timelike():
    with pytest.raises(NonSpacelike):
        normalize_spacelike(MinkVec(1, 0, 0, 0))


def test_nonfinite_components_rejected():
    for bad in (math.inf, math.nan):
        with pytest.raises(MinkowskiError, match=r"non-finite component in MinkVec\(x0="):
            MinkVec(bad, 0, 0, 0)


def test_array_of_a_vector_is_its_components():
    real = build_realization(solve_parameters(7))
    for v in (*real.vertex_poles(), *real.face_normals()):
        a = np.array(v)
        assert a.dtype == np.float64 and a.shape == (4,)
        assert a.tobytes() == struct.pack("4d", v.x0, v.x1, v.x2, v.x3)


def test_twist_on_top_apex():
    tw = twist_matrix(4)
    tau = normalize_spacelike(MinkVec(1, 0, 0, 2))
    ups = apply_twist(tau, tw)
    expected = (1 / math.sqrt(3), 0, 0, -2 / math.sqrt(3))
    assert ups == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("n", [4, 5, 6, 9, 17])
def test_twist_order_is_2n(n):
    tw = twist_matrix(n)
    power = np.linalg.matrix_power(tw, 2 * n)
    assert np.max(np.abs(power - np.eye(4))) < 1e-12


def test_twist_determinant_is_minus_one():
    # rotation block (det 1) times the x3 flip
    for n in (4, 7, 12):
        assert np.linalg.det(twist_matrix(n)) == pytest.approx(-1.0, abs=1e-12)


def test_twist_advances_azimuth_and_flips_height():
    real = build_realization(solve_parameters(4))
    image = apply_twist(real.mid_upper, real.twist)
    a = real.mid_upper
    az_before = math.atan2(a.x2, a.x1)
    az_after = math.atan2(image.x2, image.x1)
    assert az_after - az_before == pytest.approx(math.pi / 4, abs=1e-12)
    assert image.x3 == pytest.approx(-a.x3, abs=1e-14)
    assert image == pytest.approx(real.mid_lower, abs=1e-14)


@given(vec, vec, st.integers(min_value=4, max_value=20))
def test_twist_preserves_inner_product(a, b, n):
    tw = twist_matrix(n)
    before = mink_inner(a, b)
    after = mink_inner(apply_twist(a, tw), apply_twist(b, tw))
    assert after == pytest.approx(before, rel=1e-10, abs=1e-10)


def test_plane_normal_near_side_is_unit_x2():
    real = build_realization(solve_parameters(4))
    assert real.normal_near == pytest.approx((0, 0, -1, 0), abs=1e-12)


def test_plane_normal_matches_algebraic_lower_normal():
    from antidual.realization import closed_form_lower_normal

    for n in (4, 5, 6, 9):
        real = build_realization(solve_parameters(n))
        expected = closed_form_lower_normal(real.params)
        assert real.normal_lower == pytest.approx(expected, abs=1e-12)


def test_plane_normal_orientation_flips_with_witness():
    real = build_realization(solve_parameters(4))
    interior = MinkVec(1.0, 0.3, 0.1, 0.0)
    exterior = MinkVec(1.0, 0.0, -5.0, 0.0)
    w_in = plane_normal(real.apex_top, real.mid_upper, real.apex_bottom, interior)
    w_out = plane_normal(real.apex_top, real.mid_upper, real.apex_bottom, exterior)
    assert w_in == pytest.approx(-w_out, abs=1e-14)


def test_plane_normal_degenerate_span():
    a = MinkVec(1, 1, 0, 0)
    with pytest.raises(DegenerateSpan):
        plane_normal(a, a * 2.0, a * -1.0, MinkVec(1, 0, 0, 0))


def test_plane_normal_overflowing_cofactors_are_a_degenerate_span():
    # each cofactor is a sum of products of three components: 1e200^3
    # overflows, and the span is reported instead of a non-finite normal
    p, q, r = MinkVec(1e200, 0, 0, 0), MinkVec(0, 1e200, 0, 0), MinkVec(0, 0, 1e200, 0)
    with pytest.raises(DegenerateSpan, match="overflow"):
        plane_normal(p, q, r, MinkVec(0, 0, 0, 1))


def test_plane_normal_ambiguous_orientation():
    real = build_realization(solve_parameters(4))
    on_plane = MinkVec(1.0, 0.5, 0.0, 0.0)  # x2 = 0 lies on the near plane
    with pytest.raises(AmbiguousOrientation):
        plane_normal(real.apex_top, real.mid_upper, real.apex_bottom, on_plane)


# a cross product with <w,w> = 2.0e-12 against |w|^2 = 2.0: normalised, it
# would read <w,w> = 0.99994
_NEARLY_NULL = (MinkVec(0, 1, 0, 0), MinkVec(1, 0, -1, 1), MinkVec(1e-12, 0, 1, 0),
                MinkVec(1, 2, 3, 4))


def test_plane_normal_rejects_a_nearly_null_normal():
    with pytest.raises(NonSpacelike):
        plane_normal(*_NEARLY_NULL)


# Normalising a by 1/sqrt(<a,a>) and reading <w,w> back in floats errs by at
# most about 2*gamma_4*|w|^2 + eps*|w|^2 + 2*eps, |w|^2 Euclidean and
# gamma_4 = 4u/(1 - 4u) ~ 2*eps (Higham, Accuracy and Stability of Numerical
# Algorithms, 3.1): gamma_4 once for <a,a> and once for <w,w>, eps for
# rounding each component of w, 2*eps for the root and the reciprocal.  As
# |w|^2 >= <w,w> ~ 1, that is at most 7*eps*|w|^2; 8 covers the second-order
# terms.  Below |w|^2 ~ 5.6e5 the bound stays 1e-9.
_UNIT_NORM_EPS = 8 * sys.float_info.epsilon


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(vec, vec, vec, vec)
@example(*_NEARLY_NULL)
# a subnormal component: its minors' zero pivots must not warn
@example(MinkVec(0, 0, 0, 1), MinkVec(0, 1, 0, 0), MinkVec(0, 0, 1.1125369292536007e-308, 0),
         MinkVec(0, 0, 0, 0))
# nearly null normals that SPACELIKE_TOL admits, where <w,w> - 1 reads
# 7.6e-6, -1.9e-6 and 5.0e-9, 0.21-0.34 of eps*|w|^2
@example(MinkVec(0, 1, 0, 0), MinkVec(1, 0, -1, 1), MinkVec(1e-11, 0, 1, 0), MinkVec(1, 2, 3, 4))
@example(MinkVec(0, 1, 0, 0), MinkVec(1, 0, -1, 1), MinkVec(3e-11, 0, 1, 0), MinkVec(1, 2, 3, 4))
@example(MinkVec(0, 1, 0, 2), MinkVec(6.1e-5, 0, 0, 1), MinkVec(6.1e-5, 0, 6.1e-5, 0),
         MinkVec(0, 0, 0, 1))
def test_plane_normal_orthogonality_property(p, q, r, witness):
    try:
        w = plane_normal(p, q, r, witness)
    except (DegenerateSpan, AmbiguousOrientation, NonSpacelike):
        assume(False)
        return
    scale = max(max(map(abs, v)) for v in (p, q, r))
    for v in (p, q, r):
        assert abs(mink_inner(w, v)) < 1e-8 * max(scale, 1.0)
    unit_tol = max(1e-9, _UNIT_NORM_EPS * sum(x * x for x in w))
    assert mink_inner(w, w) == pytest.approx(1.0, abs=unit_tol)
    assert mink_inner(w, witness) < 0


# -- bit identity with the per-minor cofactor route ---------------------------


def _oracle_plane_normal(p, q, r, interior, degeneracy_tol=1e-10, orientation_tol=1e-12):
    # one np.delete and one det per 3x3 minor, as plane_normal once did
    rows = np.array([p, q, r])
    cof = np.empty(4)
    for i in range(4):
        minor = np.delete(rows, i, axis=1)
        cof[i] = ((-1) ** i) * np.linalg.det(minor)
    w = np.array([-1.0, 1.0, 1.0, 1.0]) * cof
    scale = max(np.max(np.abs(v)) for v in (p, q, r)) ** 3
    if np.max(np.abs(w)) <= degeneracy_tol * max(scale, 1.0):
        raise DegenerateSpan("spanning vectors are numerically dependent")
    wv = normalize_spacelike(MinkVec(*w.tolist()))
    side = mink_inner(wv, interior)
    if abs(side) <= orientation_tol:
        raise AmbiguousOrientation("interior witness lies on the plane")
    return -wv if side > 0 else wv


def test_realization_normals_are_bit_identical_to_the_oracle(monkeypatch):
    import antidual.realization as realization

    calls, dets = [], []

    def recording(planes):
        out = plane_normals(planes)
        calls.append((planes, out))
        return out

    def counted_det(a):
        dets.append(a.shape)
        return det(a)

    det = np.linalg.det
    monkeypatch.setattr(realization, "plane_normals", recording)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    for n in range(4, 401):
        calls.clear()
        dets.clear()
        real = build_realization(solve_parameters(n))
        # one stacked call for the four faces, and one det for all 16 minors
        assert len(calls) == 1 and dets == [(4, 4, 3, 3)]
        planes, out = calls[0]
        assert len(planes) == 4
        assert tuple(out) == real.face_normals()
        for plane, normal in zip(planes, out):
            assert normal == _oracle_plane_normal(*plane), n


def test_realization_twists_are_bit_identical_to_per_vector_twists(monkeypatch):
    # the stacked images against one apply_twist per vector, in the build
    # (two matmuls: the stacked one and mid_upper_next) and in the validation
    import antidual.realization as realization

    stacked, single = [], []

    def recording(vectors, twist):
        out = twist_images(vectors, twist)
        stacked.append((vectors, twist, out))
        return out

    def counted(a, twist):
        single.append(a)
        return apply_twist(a, twist)

    monkeypatch.setattr(realization, "twist_images", recording)
    monkeypatch.setattr(realization, "apply_twist", counted)
    for n in range(4, 401):
        stacked.clear()
        single.clear()
        real = build_realization(solve_parameters(n))
        assert len(stacked) == 1 and single == [real.mid_lower]
        assert real.mid_upper_next == apply_twist(real.mid_lower, real.twist)
        validate_realization(real)
        assert len(stacked) == 2
        for vectors, twist, out in stacked:
            assert twist is real.twist and len(vectors) == 4
            assert out == [apply_twist(v, twist) for v in vectors], n
        # the build's images are the stored vertices
        assert stacked[0][2][:2] == [real.apex_bottom, real.mid_lower]


@given(vec, vec, vec, vec)
def test_plane_normal_is_bit_identical_to_the_oracle(p, q, r, witness):
    try:
        expected = _oracle_plane_normal(p, q, r, witness)
    except MinkowskiError as exc:
        with pytest.raises(MinkowskiError) as raised:
            plane_normal(p, q, r, witness)
        assert raised.type is type(exc)
        return
    assert plane_normal(p, q, r, witness) == expected
