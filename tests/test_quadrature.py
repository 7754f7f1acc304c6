import math

import numpy as np
import pytest

from rwpath.quadrature import (
    Rule1D,
    composite_legendre_01,
    endpoint_trapezoid,
    gauss_hermite,
    gauss_legendre_01,
    integrate_01,
    is_palindromic,
    tensor_gauss_hermite,
)


def test_gauss_legendre_2pt_matches_reference_digits():
    rule = gauss_legendre_01(2)
    assert rule.points == pytest.approx([0.211324865, 0.788675135], abs=5e-10)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_gauss_legendre_4pt_matches_reference_digits():
    rule = gauss_legendre_01(4)
    assert rule.points == pytest.approx(
        [0.069431844, 0.330009478, 0.669990522, 0.930568156], abs=5e-10
    )
    assert rule.weights == pytest.approx(
        [0.173927423, 0.326072577, 0.326072577, 0.173927423], abs=5e-10
    )


def test_gauss_legendre_1pt_is_midpoint():
    rule = gauss_legendre_01(1)
    assert rule.points == pytest.approx([0.5])
    assert rule.weights == pytest.approx([1.0])


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_gauss_legendre_polynomial_exactness(p):
    rule = gauss_legendre_01(p)
    for d in range(2 * p):
        got = float(np.dot(rule.weights, rule.points**d))
        assert got == pytest.approx(1.0 / (d + 1), rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 4, 7, 10, 16])
def test_gauss_legendre_palindromic(p):
    rule = gauss_legendre_01(p)
    assert is_palindromic(rule)


def test_gauss_hermite_normalization_and_moments():
    rule = gauss_hermite(10)
    assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-15)
    assert float(np.dot(rule.weights, rule.points**2)) == pytest.approx(1.0, abs=1e-13)
    # fourth moment of the standard normal via the Gamma function
    oracle = 2.0**2 * math.gamma(2.5) / math.gamma(0.5)
    assert oracle == pytest.approx(3.0)
    assert float(np.dot(rule.weights, rule.points**4)) == pytest.approx(oracle, abs=1e-12)


def test_gauss_hermite_single_point():
    rule = gauss_hermite(1)
    assert rule.points == pytest.approx([0.0])
    assert rule.weights == pytest.approx([1.0])


@pytest.mark.parametrize("p", [2, 5, 9])
def test_gauss_hermite_odd_moments_vanish(p):
    rule = gauss_hermite(p)
    for d in (1, 3, 5):
        if d <= 2 * p - 1:
            assert float(np.dot(rule.weights, rule.points**d)) == pytest.approx(0.0, abs=1e-13)


def test_integrate_01_examples():
    assert integrate_01(gauss_legendre_01(2), lambda u: u**2) == pytest.approx(1 / 3, abs=1e-14)
    assert integrate_01(gauss_legendre_01(3), lambda u: np.ones_like(u)) == pytest.approx(1.0)
    comp = composite_legendre_01(64, 8)
    assert integrate_01(comp, lambda u: u * (1 - u)) == pytest.approx(1 / 6, abs=1e-13)


def test_integrate_01_checks_points_not_rule_family():
    # any rule whose points lie in [0, 1] is accepted, endpoints included
    assert integrate_01(endpoint_trapezoid(), lambda u: u) == 0.5
    assert integrate_01(Rule1D([0.25, 0.75], [0.5, 0.5]), lambda u: u) == 0.5
    for points in ([-0.25, 0.5], [0.5, 1.25]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            integrate_01(Rule1D(points, [0.5, 0.5]), lambda u: u)


def test_composite_sqrt_substitution_handles_endpoint_roots():
    # the plain rule converges slowly on sqrt(u(1-u)); the substituted one is exact
    comp = composite_legendre_01(64, 8, sqrt_endpoints=True)
    got = integrate_01(comp, lambda u: np.sqrt(u * (1 - u)))
    assert got == pytest.approx(math.pi / 8, abs=1e-13)
    assert is_palindromic(comp, tol=1e-13)


def test_composite_weights_positive_points_increasing():
    comp = composite_legendre_01(16, 4, sqrt_endpoints=True)
    assert np.all(np.diff(comp.points) > 0)
    assert np.all(comp.weights > 0)


def test_endpoint_trapezoid_rule():
    rule = endpoint_trapezoid()
    assert list(rule.points) == [0.0, 1.0]
    assert list(rule.weights) == [0.5, 0.5]
    assert is_palindromic(rule)


def test_rule_is_immutable():
    rule = gauss_legendre_01(3)
    with pytest.raises(ValueError):
        rule.points[0] = 0.0


def test_tensor_gauss_hermite_integrates_mixed_polynomial():
    nodes, weights = tensor_gauss_hermite(2, 3)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    # E[x^2 y^4] = 1 * 3 for independent standard normals
    vals = nodes[:, 0] ** 2 * nodes[:, 1] ** 4
    assert float(np.dot(weights, vals)) == pytest.approx(3.0, rel=1e-13)
