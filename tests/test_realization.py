import dataclasses
import math
import pickle

import numpy as np
import pytest

from antidual.minkowski import MinkVec, NonSpacelike, mink_inner
from antidual.realization import (
    GluingCase,
    NotUltraparallel,
    RealizationError,
    UnsupportedN,
    angle_sum_residual,
    build_realization,
    dihedral_angles,
    edge_length,
    realize,
    solve_parameters,
    validate_realization,
)

# frozen at 60 digits by scripts/highprec_reference.py
ORACLE = {
    4: dict(h=1.51109892481601831, r=1.10462665765174420, st=0.234706980433350221,
            xi=0.231823804500403058, zeta=0.321750554396642193,
            slant_len=0.530637530952517826),
    5: dict(h=1.86541155977484756, r=1.06686095836031333, st=0.184594568545592144,
            xi=0.195356252672025564, zeta=0.237606025373907520),
    6: dict(h=1.93185165257813657, r=1.03217447212291131, st=0.134377192992148568,
            xi=0.523598775598298873, zeta=0.523598775598298873,
            slant_len=1.14621583478058884),
    7: dict(h=2.58984079146172509, r=1.03390180031835071, st=0.130493991310117674,
            xi=0.144815979344988966, zeta=0.159166991822849674),
    9: dict(h=3.13415830098282459, r=1.01800777992543859, st=0.0957210322159324098,
            xi=0.349065850398865915, zeta=0.349065850398865915),
    12: dict(h=4.28226255563484491, xi=0.261799387799149437, zeta=0.261799387799149437),
    30: dict(h=10.9760446274541690, xi=0.104719755119659775, zeta=0.104719755119659775),
    100: dict(h=36.7562681956286271,
              xi=0.0104704438339181020, zeta=0.0104750388680617284),
}


@pytest.mark.parametrize("n", sorted(ORACLE))
def test_solved_parameters_match_oracle(n):
    p = solve_parameters(n)
    o = ORACLE[n]
    assert p.c_n == pytest.approx(math.cos(math.pi / n), abs=1e-15)
    assert p.h == pytest.approx(o["h"], abs=1e-12)
    if "r" in o:
        assert p.r == pytest.approx(o["r"], abs=1e-12)
        assert p.sin_theta == pytest.approx(o["st"], abs=1e-12)
    # the top apex lies on the x3 axis at chart height h
    top = build_realization(p).apex_top
    assert (top.x1, top.x2) == (0.0, 0.0)
    assert top.x3 / top.x0 == pytest.approx(o["h"], abs=1e-12)


def test_case_tags():
    assert solve_parameters(4).case is GluingCase.NOT_DIV3
    assert solve_parameters(6).case is GluingCase.DIV3
    assert solve_parameters(30).case is GluingCase.DIV3


def test_unsupported_n():
    for n in (3, 2, 1, 0, -5):
        with pytest.raises(UnsupportedN):
            solve_parameters(n)


def test_n3_formula_degenerates_to_zero_height():
    # cos(pi/3) = 1/2 exactly, so the div-3 closed form has h = 0
    c = math.cos(math.pi / 3)
    assert 2 * c - 1 == pytest.approx(0.0, abs=1e-15)


def test_theta_principal_branch():
    for n in (4, 6, 11):
        p = solve_parameters(n)
        assert 0 < p.theta < math.pi / 2
        assert math.sin(p.theta) == pytest.approx(p.sin_theta, abs=1e-15)


@pytest.mark.parametrize("n", range(4, 31))
def test_validation_passes_for_solved_realizations(n):
    report = validate_realization(realize(n))
    assert report.verdict, report


@pytest.mark.parametrize("n", range(4, 101))
def test_core_residuals_small_up_to_100(n):
    report = validate_realization(realize(n))
    assert report.residual_planarity < 1e-10
    assert report.residual_edge_equality < 1e-10
    assert report.residual_angle_sum < 1e-10
    assert report.residual_polar_orthogonality < 1e-10
    assert report.h_exceeds_one and report.r_exceeds_one
    assert report.ultraparallel


@pytest.mark.parametrize("n,total", [(4, math.pi / 4), (5, math.pi / 5), (6, math.pi / 2)])
def test_angle_relation_by_case(n, total):
    ang = dihedral_angles(realize(n))
    assert 2 * ang.slant + ang.equator == pytest.approx(total, abs=1e-10)


@pytest.mark.parametrize("n", sorted(ORACLE))
def test_angles_match_oracle(n):
    ang = dihedral_angles(realize(n))
    assert ang.slant == pytest.approx(ORACLE[n]["xi"], abs=1e-12)
    assert ang.equator == pytest.approx(ORACLE[n]["zeta"], abs=1e-12)


@pytest.mark.parametrize("n", [6, 9, 12, 30])
def test_div3_case_has_equal_angles_pi_over_n(n):
    # for n divisible by 3 the gluing forces slant = equator = pi/n, so all
    # six edges of the wedge share one length and the piece is edge-transitive
    ang = dihedral_angles(realize(n))
    assert ang.slant == pytest.approx(math.pi / n, abs=1e-12)
    assert ang.equator == pytest.approx(math.pi / n, abs=1e-12)
    real = realize(n)
    axis_cosh = abs(mink_inner(real.apex_top, real.apex_bottom))
    slant_cosh = abs(mink_inner(real.apex_top, real.mid_upper))
    assert axis_cosh == pytest.approx(slant_cosh, abs=1e-10)


def test_near_far_normal_angle_is_pi_over_n():
    for n in (4, 5, 6, 9, 25, 50, 100):
        real = realize(n)
        inner = mink_inner(real.normal_near, real.normal_far)
        assert inner == pytest.approx(-math.cos(math.pi / n), abs=1e-10)


@pytest.mark.parametrize("n", [4, 5, 9])
def test_edge_lengths_equal_and_positive(n):
    real = realize(n)
    slant = edge_length(real, "slant")
    equator = edge_length(real, "equator")
    assert slant > 0 and equator > 0
    assert slant == pytest.approx(equator, abs=1e-10)
    if "slant_len" in ORACLE[n]:
        assert slant == pytest.approx(ORACLE[n]["slant_len"], abs=1e-12)


def test_edge_length_unknown_edge():
    with pytest.raises(RealizationError):
        edge_length(realize(4), "axis")


def test_perturbed_r_breaks_edge_equality():
    params = solve_parameters(4)
    broken = dataclasses.replace(params, r=params.r + 0.001)
    real = build_realization(broken)
    slant = edge_length(real, "slant")
    equator = edge_length(real, "equator")
    assert abs(slant - equator) > 1e-4


def test_perturbed_h_fails_validation():
    params = solve_parameters(4)
    broken = dataclasses.replace(params, h=params.h * 1.2)
    report = validate_realization(build_realization(broken))
    assert not report.verdict
    assert report.residual_angle_sum > 1e-6


def test_h_equal_one_puts_vertex_on_sphere():
    params = solve_parameters(4)
    broken = dataclasses.replace(params, h=1.0)
    with pytest.raises(NonSpacelike):
        build_realization(broken)


def test_not_ultraparallel_detected():
    params = solve_parameters(4)
    # push the middle vertices outward until their polar planes intersect
    widened = dataclasses.replace(params, r=params.r + 0.01)
    real = build_realization(widened)
    with pytest.raises(NotUltraparallel):
        edge_length(real, "equator")


def test_angle_sum_residual_sign_convention():
    assert angle_sum_residual(realize(7)) == pytest.approx(0.0, abs=1e-12)


def test_relations_hold_when_substituted_back():
    for n in (4, 5, 6, 9, 17, 30):
        p = solve_parameters(n)
        c, h, r, st = p.c_n, p.h, p.r, p.sin_theta
        assert st == pytest.approx((1 - c) * h / ((1 + c) * r), abs=1e-12)
        assert r == pytest.approx(
            math.sqrt(2 * c - 1 + (1 - c) ** 2 * h * h) / c, abs=1e-12)


def test_spec_level_approximations():
    p4 = solve_parameters(4)
    assert p4.h == pytest.approx(1.51110, abs=1e-3)
    assert p4.r == pytest.approx(1.10460, abs=1e-3)
    assert p4.sin_theta == pytest.approx(0.23473, abs=1e-3)
    assert solve_parameters(6).h == pytest.approx(1.9319, abs=1e-3)


@pytest.mark.parametrize("n", [4, 9, 100])
def test_realization_pickles_with_equal_vectors(n):
    # a realization crosses a process boundary by pickle
    real = realize(n)
    back = pickle.loads(pickle.dumps(real))
    assert back == real and hash(back) == hash(real)
    for name in ("apex_top", "apex_bottom", "mid_upper", "mid_lower", "mid_upper_next",
                 "normal_upper", "normal_lower", "normal_near", "normal_far"):
        assert type(getattr(back, name)) is MinkVec
        assert getattr(back, name) == getattr(real, name), name
    assert np.array_equal(back.twist, real.twist)
