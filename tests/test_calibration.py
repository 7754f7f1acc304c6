import json
import math

import numpy as np
import pytest

from rwpath.calibration import (
    FAMILIES,
    CalibrationError,
    calibrate,
    calibrated_system,
    residual_order3,
    residual_order4,
)
from rwpath.calibration import _fd_jacobian
from rwpath.quadrature import Rule1D, composite_legendre_01, gauss_legendre_01, integrate_01

GOLDEN = {
    "order3-continuous": (3.056620471,),
    "order3-discrete": (2.720699046,),
    "order4-continuous": (5.768064999, 13.49214669),
    "order4-discrete": (6.379716466, 8.160188248),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_constants_to_eight_significant_digits(family):
    result = calibrate(family)
    for got, want in zip(result.constants, GOLDEN[family]):
        assert abs(got - want) / abs(want) < 5e-8
    assert result.residual_norm < 1e-10


def test_order3_discrete_matches_closed_form():
    # the two-point rule turns the residual into cos(alpha/(2 sqrt(3))) = 1/sqrt(2)
    result = calibrate("order3-discrete")
    assert result.constants[0] == pytest.approx(math.pi * math.sqrt(3) / 2, abs=1e-15)


# The order-4 constants as the solver has always returned them, bit for bit
ORDER4_BITS = {
    "order4-continuous": (5.768065010647159, 13.492146592265092),
    "order4-discrete": (6.3797164647651705, 8.160188248672608),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_one_solver_meets_its_stop_for_every_family(family):
    result = calibrate(family)
    assert result.residual_norm < 1e-13
    assert 0 < result.iterations < 10
    if family in ORDER4_BITS:
        assert result.constants == ORDER4_BITS[family]


def test_residual_order3_at_reference_constants():
    assert abs(residual_order3(3.056620471)) < 1e-8
    assert abs(residual_order3(2.720699046, gauss_legendre_01(2))) < 1e-8


def test_single_bridge_function_cannot_reach_target():
    # with one sqrt-envelope function the centroid square is pi^2/64 != 1/12
    rule = composite_legendre_01(64, 8, sqrt_endpoints=True)
    centroid = integrate_01(rule, lambda u: np.sqrt(u * (1 - u)))
    assert centroid**2 == pytest.approx(math.pi**2 / 64, abs=1e-12)
    assert abs(centroid**2 - 1.0 / 12.0) > 0.07


def test_residual_order4_at_reference_constants():
    r1, r2 = residual_order4(5.768064999, 13.49214669)
    assert abs(r1) < 1e-7 and abs(r2) < 1e-7
    r1, r2 = residual_order4(6.379716466, 8.160188248, gauss_legendre_01(4))
    assert abs(r1) < 1e-7 and abs(r2) < 1e-7


def test_order4_fixed_gram_entries():
    # the reference and linear-bridge profiles contribute (1/3)^2 + (1/10)^2
    # to the Gram square sum for any constants
    rule = composite_legendre_01(64, 8, sqrt_endpoints=True)
    c00 = integrate_01(rule, lambda u: u * u)
    c11 = integrate_01(rule, lambda u: 3.0 * (u * (1 - u)) ** 2)
    assert c00 == pytest.approx(1 / 3, abs=1e-13)
    assert c11 == pytest.approx(1 / 10, abs=1e-13)


def test_rule_exactness_precondition_enforced():
    lopsided = Rule1D([0.25, 0.75], [0.3, 0.7])  # integrates 1 but not u
    with pytest.raises(ValueError):
        residual_order3(3.0, lopsided)
    midpoint = gauss_legendre_01(1)  # exact to degree 1 only
    with pytest.raises(ValueError):
        residual_order3(3.0, midpoint)
    two_point = gauss_legendre_01(2)  # exact to degree 3: fine for both
    residual_order4(6.0, 8.0, two_point)


def test_calibration_reproducible_bit_identical():
    a = calibrate("order4-discrete")
    b = calibrate("order4-discrete")
    assert a.constants == b.constants


def test_calibration_unknown_family():
    with pytest.raises(ValueError):
        calibrate("bogus")


def test_calibration_custom_guess_converges_to_nearest_root():
    res = calibrate("order3-discrete")
    assert res.constants[0] == pytest.approx(math.pi * math.sqrt(3) / 2, abs=1e-10)


def test_solver_jacobian_matches_central_differences():
    fun = lambda x: np.array(residual_order4(x[0], x[1], gauss_legendre_01(4)))
    x0 = np.array([6.2, 8.0])
    jac = _fd_jacobian(fun, x0)
    for i in range(2):
        h = 5e-7 * max(1.0, abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        col = (fun(xp) - fun(xm)) / (2 * h)
        assert np.max(np.abs(jac[:, i] - col)) / max(np.max(np.abs(col)), 1e-12) < 1e-6


def test_result_serializes_to_json():
    res = calibrate("order3-continuous")
    payload = json.loads(res.to_json())
    assert payload["family"] == "order3-continuous"
    assert len(payload["constants"]) == 1


# Gauss-Legendre points of each family's time rule; None: exact time integrals
RULE_POINTS = {"order3-continuous": None, "order3-discrete": 2,
               "order4-continuous": None, "order4-discrete": 4}


@pytest.mark.parametrize("family", FAMILIES)
def test_calibrated_system_carries_the_calibrated_constants_and_rule(family):
    system, rule = calibrated_system(family)
    assert system.params == calibrate(family).constants
    if RULE_POINTS[family] is None:
        assert rule is None
    else:
        want = gauss_legendre_01(RULE_POINTS[family])
        np.testing.assert_array_equal(rule.points, want.points)
        np.testing.assert_array_equal(rule.weights, want.weights)
    # every call hands out the one rule the family was calibrated against
    assert calibrated_system(family)[1] is rule


def test_calibrated_system_shapes():
    system, rule = calibrated_system("order3-discrete")
    assert system.q == 2 and len(rule) == 2
    system, rule = calibrated_system("order4-continuous")
    assert system.q == 3 and rule is None
