import dataclasses
import math

import numpy as np
import pytest

from antidual.realization import build_realization, realize, solve_parameters
from antidual.tilt import (
    SingularPairing,
    _closed_form_factors,
    canonicality_verdict,
    gram_matrix,
    support_hull_margins,
    tilts_closed_form,
    tilts_exact_form,
    tilts_from_gram,
)

# frozen at 60 digits by scripts/highprec_reference.py
GRAM_TILTS = {
    4: (-0.578458320166430221, -0.255998060147747293),
    5: (-0.577726336187303439, -0.372783012022669080),
    6: (-0.366025403784438647, -0.366025403784438647),
    7: (-0.577434263553771822, -0.473471598302123677),
    9: (-0.483689525295950527, -0.483689525295950527),
    12: (-0.524647623275290318, -0.524647623275290318),
    30: (-0.568910328683467120, -0.568910328683467120),
    100: (-0.577350270926640354, -0.576843748704651903),
}
REFERENCE_FORMS = {
    4: (-1.08838620739381220, -0.102538439979579398),
    6: (-1.11602540378443865, -0.25),
}
HULL_MARGINS_4 = dict(near_side=0.828427124746190098, far_side=0.828427124746190098,
                      upper=2.57649122254147438, lower=2.57649122254147438)


def test_gram_matrix_structure():
    real = realize(5)
    g = gram_matrix(real)
    assert np.allclose(np.diag(g), 1.0, atol=1e-12)
    assert np.allclose(g, g.T, atol=1e-15)
    from antidual.realization import dihedral_angles

    ang = dihedral_angles(real)
    assert g[0, 1] == pytest.approx(-math.cos(ang.equator), abs=1e-12)
    assert g[0, 2] == pytest.approx(-math.cos(ang.slant), abs=1e-12)
    assert g[2, 3] == pytest.approx(-math.cos(math.pi / 5), abs=1e-10)
    # the quad diagonals of the cut meet the quad planes at right angles
    assert g[0, 3] == pytest.approx(0.0, abs=1e-12)
    assert g[1, 2] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", sorted(GRAM_TILTS))
def test_gram_tilts_match_oracle(n):
    tv = tilts_from_gram(realize(n))
    t_up, t_near = GRAM_TILTS[n]
    assert tv.t_upper == pytest.approx(t_up, abs=1e-11)
    assert tv.t_near == pytest.approx(t_near, abs=1e-11)


@pytest.mark.parametrize("n", range(4, 101))
def test_tilt_symmetry_and_negativity(n):
    tv = tilts_from_gram(realize(n))
    assert abs(tv.t_upper - tv.t_lower) < 1e-9
    assert abs(tv.t_near - tv.t_far) < 1e-9
    assert tv.max_tilt < 0
    assert abs(tv.max_tilt) > 1e-6


@pytest.mark.parametrize("n", range(4, 101))
def test_exact_forms_reduce_gram_route(n):
    params = solve_parameters(n)
    gram = tilts_from_gram(build_realization(params))
    exact = tilts_exact_form(n, params.h)
    assert exact.t_upper == pytest.approx(gram.t_upper, abs=1e-10)
    assert exact.t_near == pytest.approx(gram.t_near, abs=1e-10)


@pytest.mark.parametrize("n", sorted(REFERENCE_FORMS))
def test_reference_forms_match_their_oracle(n):
    tv = tilts_closed_form(n, solve_parameters(n).h)
    t_up, t_near = REFERENCE_FORMS[n]
    assert tv.t_upper == pytest.approx(t_up, abs=1e-12)
    assert tv.t_near == pytest.approx(t_near, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 9, 40, 100])
def test_reference_forms_sign_agree_but_differ(n):
    params = solve_parameters(n)
    gram = tilts_from_gram(build_realization(params))
    ref = tilts_closed_form(n, params.h)
    for a, b in zip(gram, ref):
        assert (a < 0) == (b < 0)
    assert abs(gram.t_upper - ref.t_upper) > 1e-3
    assert abs(gram.t_near - ref.t_near) > 1e-3


def test_closed_form_intermediates_recorded():
    _, common, denom = _closed_form_factors(6, solve_parameters(6).h)
    # at n = 6 the common factor is exactly 1 and the scale denominator 2+sqrt(3)
    assert common == pytest.approx(1.0, abs=1e-12)
    assert denom == pytest.approx(2 + math.sqrt(3), abs=1e-12)


@pytest.mark.parametrize("n", range(4, 101, 8))
def test_canonicality_verdict(n):
    real = realize(n)
    v = canonicality_verdict(real)
    assert v.is_canonical
    assert v.margin < -1e-6
    assert v.signs_agree
    # the rounding of the exact forms grows as cos(pi/n) approaches 1
    assert v.exact_agreement_residual < (1e-12 if n < 50 else 1e-10)
    assert v.agreement_residual > 1e-3  # the reference forms do not match
    # each route evaluated once, and the same as when called on its own
    assert v.gram == tilts_from_gram(real)
    assert v.reference == tilts_closed_form(n, real.params.h)
    assert v.exact == tilts_exact_form(n, real.params.h)


@pytest.mark.parametrize("n", range(4, 101, 12))
def test_hull_certificate_positive_margins(n):
    margins = support_hull_margins(realize(n))
    assert set(margins) == {"near_side", "far_side", "upper", "lower"}
    for value in margins.values():
        assert value > 0.5


def test_hull_margins_match_oracle_n4():
    margins = support_hull_margins(realize(4))
    for key, expected in HULL_MARGINS_4.items():
        assert margins[key] == pytest.approx(expected, abs=1e-10)


def _oracle_support_hull_margins(real):
    # one vstack per frame and one solve per system, as the certificate once did
    tw = real.twist
    ups, tau = real.apex_bottom, real.apex_top
    alp, dlt = real.mid_upper, real.mid_lower
    bet, gam = real.normal_upper, real.normal_lower
    poles = np.array([tau, ups, alp, dlt])
    metric = np.array([-1.0, 1.0, 1.0, 1.0])
    q = np.linalg.solve(poles * metric, np.ones(4))

    def margin(w):
        return float((w * metric) @ q - 1.0)

    w_near = np.array(alp) @ tw.T
    w_far = np.array(dlt) @ tw
    src = np.array([alp, dlt, ups, gam])
    dst = np.array([tau, alp, dlt, -bet])
    w_up = np.array(tau) @ np.linalg.solve(src, dst)
    src2 = np.array([dlt, alp, tau, bet])
    dst2 = np.array([ups, dlt, alp, -gam])
    w_dn = np.array(ups) @ np.linalg.solve(src2, dst2)
    return {"near_side": margin(w_near), "far_side": margin(w_far),
            "upper": margin(w_up), "lower": margin(w_dn)}


def test_hull_margins_are_bit_identical_to_the_three_solve_route(monkeypatch):
    solves = []

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    solve = np.linalg.solve
    for n in range(4, 401):
        real = realize(n)
        expected = _oracle_support_hull_margins(real)
        solves.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", counted_solve)
            margins = support_hull_margins(real)
        # the pole system, then both developments in one stacked solve
        assert solves == [(4, 4), (2, 4, 4)]
        assert margins == expected, n


def test_perturbed_h_keeps_tilts_finite():
    params = solve_parameters(5)
    broken = dataclasses.replace(params, h=params.h * 1.2)
    tv = tilts_from_gram(build_realization(broken))
    assert all(math.isfinite(t) for t in tv)


def test_singular_pairing_detected():
    real = realize(4)
    # a far normal equal to the near one pairs the far face with a pole
    # lying on its own plane
    broken = dataclasses.replace(real, normal_far=real.normal_near)
    with pytest.raises(SingularPairing):
        tilts_from_gram(broken)


def test_canonicality_is_step_independent():
    # the cut geometry involves only n, so the verdict cannot depend on k
    v1 = canonicality_verdict(realize(7))
    assert v1.is_canonical
    assert v1.margin == canonicality_verdict(realize(7)).margin
