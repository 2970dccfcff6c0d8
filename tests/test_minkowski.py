import itertools
import math
import random
import struct
import sys
from functools import reduce
from operator import add

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
    lorentz_cross,
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


def test_apply_twist_sums_left_to_right():
    # the first column of m is all ones, so x0 adds 1 + 1e16 + 1 - 1e16:
    # left to right each 1 is lost against 1e16 and x0 is 0.0, while sum(),
    # compensated since Python 3.12, reads 2.0
    m = ((1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0))
    assert apply_twist(MinkVec(1.0, 1e16, 1.0, -1e16), m).x0 == 0.0
    # the sums start from 0.0, so -0.0 times the identity is +0.0
    identity = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                (0.0, 0.0, 0.0, 1.0))
    image = apply_twist(MinkVec(-0.0, -0.0, -0.0, -0.0), identity)
    assert [math.copysign(1.0, x) for x in image] == [1.0, 1.0, 1.0, 1.0]


@given(vec, st.tuples(vec, vec, vec, vec))
def test_apply_twist_is_bit_identical_to_left_to_right_sums(a, m):
    expected = [reduce(add, (a[i] * m[i][j] for i in range(4)), 0.0) for j in range(4)]
    assert struct.pack("4d", *apply_twist(a, m)) == struct.pack("4d", *expected)


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


def test_plane_normal_of_huge_components_raises_only_package_errors():
    # past about 5.6e102 the cube of the largest component overflows while
    # the cofactors may stay finite; every outcome is a normal or a
    # MinkowskiError, never an OverflowError
    values = (1e200, -1e200, 1e300, -1e300, 0.0, 1.0)
    rng = random.Random(0)
    outcomes = set()
    for _ in range(3000):
        p, q, r, witness = (MinkVec(*(rng.choice(values) for _ in range(4))) for _ in range(4))
        try:
            plane_normal(p, q, r, witness)
            outcomes.add("normal")
        except MinkowskiError as exc:
            outcomes.add(type(exc).__name__)
    assert "DegenerateSpan" in outcomes


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

# Each of the six products p_a*q_b*r_c in a cofactor of lorentz_cross is
# rounded at most 5 times: q_b*r_c, the minor's subtraction, the product
# with p_a and two additions, so cofactor i errs by at most gamma_5 * P_i,
# P_i the permanent of the absolute minor (Higham, Accuracy and Stability of
# Numerical Algorithms, 3.1).  The exact cofactors W have <W, v> = 0 for v
# in {p, q, r}, so the computed ones have |<W, v>| <= gamma_5 * sum_i |v_i|
# P_i = gamma_5 * perm|(v; p; q; r)|.  Normalising scales that by
# s = |w| / |W| and rounds each w_i (u = eps/2), and reading <w, v> back
# adds gamma_4 * sum_i |w_i v_i|: in all s * gamma_5 * perm + (u + gamma_4)
# * sum_i |w_i v_i|, gamma_k ~ k*u, about 2.5 * eps for both terms; 4 * eps
# covers the second-order terms and the rounding of s itself.
_CROSS_EPS = 4 * sys.float_info.epsilon


def _orthogonality_bound(w, v, p, q, r):
    """Bound on the computed |<w, v>| for the unit normal w of (p, q, r)."""
    s = math.hypot(*w) / math.hypot(*lorentz_cross(p, q, r))
    perm = math.fsum(math.prod(abs(row[c]) for row, c in zip((v, p, q, r), cols))
                     for cols in itertools.permutations(range(4)))
    rounding = _CROSS_EPS * (s * perm + math.fsum(abs(a * b) for a, b in zip(w, v)))
    # a product that underflows errs by up to ulp(0) absolutely (Higham,
    # 2.2) instead: the six minor products, each then scaled by some p_a,
    # and the three products with p_a per cofactor, one per w_i in the
    # normalisation and four in <w, v>
    v1, p1 = math.fsum(map(abs, v)), math.fsum(map(abs, p))
    return rounding + math.ulp(0.0) * (s * v1 * (2 * p1 + 3) + v1 + 4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(vec, vec, vec, vec)
@example(*_NEARLY_NULL)
# a subnormal component: no step of the cross product may warn
@example(MinkVec(0, 0, 0, 1), MinkVec(0, 1, 0, 0), MinkVec(0, 0, 1.1125369292536007e-308, 0),
         MinkVec(0, 0, 0, 0))
# nearly null normals that SPACELIKE_TOL admits, where <w,w> - 1 reads
# 7.6e-6, -1.9e-6 and 5.0e-9, 0.21-0.34 of eps*|w|^2
@example(MinkVec(0, 1, 0, 0), MinkVec(1, 0, -1, 1), MinkVec(1e-11, 0, 1, 0), MinkVec(1, 2, 3, 4))
@example(MinkVec(0, 1, 0, 0), MinkVec(1, 0, -1, 1), MinkVec(3e-11, 0, 1, 0), MinkVec(1, 2, 3, 4))
@example(MinkVec(0, 1, 0, 2), MinkVec(6.1e-5, 0, 0, 1), MinkVec(6.1e-5, 0, 6.1e-5, 0),
         MinkVec(0, 0, 0, 1))
# a nearly dependent span (r = p + 1e-9 e0) whose <w, q> reads 6.2e-8, above
# a fixed 1e-8 times the largest component
@example(MinkVec(0, 1.90625, 0, 3), MinkVec(0.2761394511160038, 0, 1, 0),
         MinkVec(1e-09, 1.90625, 0, 3), MinkVec(0, 0, 0, 1))
# a subnormal component: <w, p> errs by underflow, not by a relative error
@example(MinkVec(0, 0, 4, 2.225073858507e-311), MinkVec(0, 1, 0, 0), MinkVec(1, 0, 0, 0),
         MinkVec(0, 0, 0, 1))
def test_plane_normal_orthogonality_property(p, q, r, witness):
    try:
        w = plane_normal(p, q, r, witness)
    except (DegenerateSpan, AmbiguousOrientation, NonSpacelike):
        assume(False)
        return
    for v in (p, q, r):
        assert abs(mink_inner(w, v)) <= _orthogonality_bound(w, v, p, q, r)
    unit_tol = max(1e-9, _UNIT_NORM_EPS * sum(x * x for x in w))
    assert mink_inner(w, w) == pytest.approx(1.0, abs=unit_tol)
    assert mink_inner(w, witness) < 0


# -- agreement with the per-minor determinant route ---------------------------


def _oracle_cofactors(p, q, r):
    # one np.delete and one LU determinant per 3x3 minor, as plane_normal
    # once computed them
    rows = np.array([p, q, r])
    cof = np.array([((-1) ** i) * np.linalg.det(np.delete(rows, i, axis=1))
                    for i in range(4)])
    return np.array([-1.0, 1.0, 1.0, 1.0]) * cof


def _oracle_plane_normal(p, q, r, interior, degeneracy_tol=1e-10, orientation_tol=1e-12):
    w = _oracle_cofactors(p, q, r)
    scale = max(np.max(np.abs(v)) for v in (p, q, r)) ** 3
    if np.max(np.abs(w)) <= degeneracy_tol * max(scale, 1.0):
        raise DegenerateSpan("spanning vectors are numerically dependent")
    wv = normalize_spacelike(MinkVec(*w.tolist()))
    side = mink_inner(wv, interior)
    if abs(side) <= orientation_tol:
        raise AmbiguousOrientation("interior witness lies on the plane")
    return -wv if side > 0 else wv


_EPS = sys.float_info.epsilon


def _log_pivots(m):
    """Sum of |ln| of the pivots of partial-pivoting elimination on m."""
    m = m.copy()
    total = 0.0
    for j in range(len(m)):
        k = j + int(np.argmax(np.abs(m[j:, j])))
        m[[j, k]] = m[[k, j]]
        if m[j, j] == 0.0:
            return 0.0  # singular: the determinant reads exactly 0
        total += abs(math.log(abs(m[j, j])))
        m[j + 1:] -= np.outer(m[j + 1:, j] / m[j, j], m[j])
    return total


def _cofactor_error(p, q, r):
    """Per component, a bound on how far the two routes' cofactors may differ.

    lorentz_cross rounds each of a cofactor's six products of three
    components at most 5 times (product, 2x2 minor, product, two sums), so it
    errs by at most gamma_5 * perm|minor| ~ 5 eps * perm|minor|.  LU with
    partial pivoting factors the minor m plus some dm with |dm| <= gamma_3
    |L||U|, where |l| <= 1 and |u| <= 4 max|m| (growth factor 2^(n-1) for
    n = 3; Higham, Accuracy and Stability of Numerical Algorithms, 9.3), so
    to first order det moves by at most 3 eps * 12 max|m| * sum|adj(m)|,
    each 2x2 minor in adj(m) bounded by the sum of its two products' sizes.
    numpy then returns sign * exp(sum ln|pivot|): each log and the two sums
    err by eps * sum |ln|pivot||, and the exponential turns that, and its
    own rounding, into a relative error of the determinant.
    """
    rows = np.array([p, q, r])
    minors = [np.delete(rows, i, axis=1) for i in range(4)]
    perms = np.array([
        sum(abs(m[0, a] * m[1, b] * m[2, c]) for a, b, c in itertools.permutations(range(3)))
        for m in minors])
    adjugates = np.array([
        sum(abs(s[0, 0] * s[1, 1]) + abs(s[0, 1] * s[1, 0])
            for s in (np.delete(np.delete(m, i, 0), j, 1) for i in range(3) for j in range(3)))
        for m in minors])
    lu = np.array([36 * np.max(np.abs(m)) for m in minors]) * adjugates
    logs = np.array([3 * _log_pivots(m) + 1 for m in minors])
    return _EPS * (5 * perms + lu + logs * np.abs(_oracle_cofactors(p, q, r)))


def _normal_error(w, err):
    """A bound on how far two unit normals may differ whose cofactors w differ
    by at most err per component.

    With s^2 = <w,w>, moving w by d moves w/s by at most |d|/s (1 + |w|^2/s^2)
    to first order (Euclidean lengths); normalising rounds <w,w> by gamma_4
    |w|^2 and the root, the reciprocal and the product by eps each, so each
    route adds (2 eps |w|^2/s^2 + 3 eps) |w|/s more.
    """
    size = float(np.dot(w, w))
    s = math.sqrt(mink_inner(MinkVec(*w), MinkVec(*w)))
    ratio = size / (s * s)
    return (float(np.linalg.norm(err)) / s * (1 + ratio)
            + 2 * (2 * _EPS * ratio + 3 * _EPS) * math.sqrt(ratio))


def test_realization_normals_match_the_oracle(monkeypatch):
    import antidual.realization as realization

    calls = []

    def recording(planes):
        out = plane_normals(planes)
        calls.append((planes, out))
        return out

    monkeypatch.setattr(realization, "plane_normals", recording)
    for n in range(4, 401):
        calls.clear()
        real = build_realization(solve_parameters(n))
        # one call for the four faces
        assert len(calls) == 1
        planes, out = calls[0]
        assert len(planes) == 4 and tuple(out) == real.face_normals()
        for (p, q, r, interior), normal in zip(planes, out):
            w = np.array(lorentz_cross(p, q, r))
            err = _cofactor_error(p, q, r)
            assert np.all(np.abs(w - _oracle_cofactors(p, q, r)) <= err), n
            gap = np.linalg.norm(np.subtract(normal, _oracle_plane_normal(p, q, r, interior)))
            assert gap <= _normal_error(w, err), n


def test_realization_twists_are_bit_identical_to_per_vector_twists(monkeypatch):
    # the images against one apply_twist per vector, in the build (the
    # vertices' images and mid_upper_next) and in the validation
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


@given(vec, vec, vec)
def test_lorentz_cross_matches_the_oracle_cofactors(p, q, r):
    w = lorentz_cross(p, q, r)
    gap = np.abs(np.subtract(w, _oracle_cofactors(p, q, r)))
    assert np.all(gap <= _cofactor_error(p, q, r))
