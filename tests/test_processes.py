import math
import tracemalloc

import numpy as np
import pytest

from rwpath.calibration import calibrated_system
from rwpath.processes import (
    _MAX_BASIS_ENTRIES,
    covariance,
    exact_brownian,
    finite_kernel,
    make_custom,
    make_order3,
    make_order4,
    path_basis,
    variance_identity_error,
)
from rwpath.quadrature import Rule1D, composite_legendre_01, endpoint_trapezoid, integrate_01

CONT = composite_legendre_01(64, 8, sqrt_endpoints=True)


@pytest.mark.parametrize("alpha", [0.0, 1.3, 3.056620471, -2.0])
def test_order3_midpoint_values(alpha):
    system = make_order3(alpha)
    assert system.bridge[0](0.5) == pytest.approx(0.5)
    assert system.bridge[1](0.5) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.7, 3.056620471])
def test_order3_pythagorean_identity(alpha):
    system = make_order3(alpha)
    u = 0.3
    total = system.bridge[0](u) ** 2 + system.bridge[1](u) ** 2
    assert total == pytest.approx(0.21, abs=1e-14)


def test_order3_calibrated_centroid_sum():
    system = make_order3(3.056620471)
    total = sum(integrate_01(CONT, f) ** 2 for f in system.bridge)
    assert total == pytest.approx(1.0 / 12.0, abs=1e-8)


def test_order4_bridge_integrals():
    system = make_order4(1.0, 2.0)  # holds for any constants
    assert integrate_01(CONT, system.bridge[2]) == pytest.approx(0.0, abs=1e-13)
    assert integrate_01(CONT, system.bridge[0]) == pytest.approx(math.sqrt(3) / 6, abs=1e-13)


def test_order4_calibrated_residuals_vanish():
    from rwpath.calibration import residual_order4

    r1, r2 = residual_order4(5.768064999, 13.49214669)
    assert abs(r1) < 1e-7
    assert abs(r2) < 1e-7


@pytest.mark.parametrize(
    "factory", [lambda: make_order3(3.0566), lambda: make_order4(5.768, 13.492)]
)
def test_variance_identity(factory):
    assert variance_identity_error(factory()) < 1e-12


@pytest.mark.parametrize(
    "factory", [lambda: make_order3(2.7207), lambda: make_order4(6.3797, 8.1602)]
)
def test_bridge_functions_vanish_at_endpoints(factory):
    system = factory()
    for f in system.bridge:
        assert f(0.0) == pytest.approx(0.0, abs=1e-15)
        assert f(1.0) == pytest.approx(0.0, abs=1e-15)


def test_declared_symmetries_hold():
    u = np.linspace(0, 1, 101)
    for system, signs in ((make_order3(1.9), (1, -1)), (make_order4(4.2, 7.7), (1, 1, -1))):
        assert len(signs) == system.q
        for f, s in zip(system.bridge, signs):
            np.testing.assert_allclose(f(1 - u), s * f(u), atol=1e-14)


def test_make_custom_accepts_bridges_that_vanish_at_both_ends():
    # parity is left to the reweighted kernels, which check it at their nodes
    good = lambda u: np.sqrt(np.clip(u * (1 - u), 0, None))
    assert make_custom([good]).q == 1
    assert make_custom([good, lambda u: good(u) * (u - 0.3)]).q == 2


def test_make_custom_rejects_nonvanishing_endpoint():
    with pytest.raises(ValueError):
        make_custom([lambda u: np.cos(u)])


def test_covariance_exact_brownian():
    kern = exact_brownian()
    assert covariance(kern, 0.3, 0.7) == pytest.approx(0.3)
    assert covariance(kern, 1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        covariance(kern, -0.1, 0.5)


@pytest.mark.parametrize("alpha", [1.0, 3.056620471])
def test_covariance_finite_variance_identity(alpha):
    kern = finite_kernel(make_order3(alpha))
    for u in (0.0, 0.21, 0.5, 0.93, 1.0):
        assert covariance(kern, u, u) == pytest.approx(u, abs=1e-12)


def test_covariance_endpoint_agreement():
    # the endpoint value distributes identically for every system
    for kern in (exact_brownian(), finite_kernel(make_order4(5.768, 13.492))):
        assert covariance(kern, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_covariance_positive_semidefinite():
    rng = np.random.default_rng(7)
    times = rng.uniform(0, 1, size=10)
    for kern in (finite_kernel(make_order3(3.0566)), finite_kernel(make_order4(5.768, 13.492))):
        mat = covariance(kern, times[:, None], times[None, :])
        eigs = np.linalg.eigvalsh(mat)
        assert eigs.min() > -1e-10


def test_exact_brownian_covariance_matches_series_truncation():
    # 200-term series construction of the min kernel: truncation error ~ 1/K
    u, v = 0.25, 0.75
    k = np.arange(1, 201)
    series = u * v + np.sum(2.0 * np.sin(k * np.pi * u) * np.sin(k * np.pi * v) / (k * np.pi) ** 2)
    assert covariance(exact_brownian(), u, v) == pytest.approx(float(series), abs=1e-3)


# nodes on cell edges, off-centre and at a tent's peak, to probe every row
NODES = Rule1D(np.array([0.0, 0.1, 0.5, 0.8, 1.0]), np.full(5, 0.2))
ORDER3 = calibrated_system("order3-discrete")[0]
ORDER4 = calibrated_system("order4-discrete")[0]


def _tent(t):
    return np.where((t >= 0.0) & (t <= 0.5), t, np.where((t > 0.5) & (t <= 1.0), 1.0 - t, 0.0))


def test_path_basis_tent_values():
    basis = path_basis(ORDER3, NODES, levels=3)

    def at(u):
        return basis.values[:, basis.times == u]

    np.testing.assert_allclose(at(0.5)[0], 0.5)  # level-1 peak
    np.testing.assert_allclose(at(0.25)[1], 0.5 / math.sqrt(2), atol=1e-15)
    assert np.all(at(0.0125)[5] == 0.0)  # level-3 tent j=3 lives on [1/4, 1/2]
    assert np.all(at(1.0)[:7] == 0.0)


def test_path_basis_rows_are_dilations():
    levels = 3
    basis = path_basis(ORDER4, NODES, levels)
    u = basis.times
    ncell = 2**levels
    for lvl in range(1, levels + 1):
        for j in range(1, 2 ** (lvl - 1) + 1):
            want = 2.0 ** (-(lvl - 1) / 2) * _tent(2.0 ** (lvl - 1) * u - (j - 1))
            np.testing.assert_allclose(basis.values[2 ** (lvl - 1) - 2 + j], want, atol=1e-15)
    cell = np.repeat(np.arange(ncell), NODES.points.size)
    for l, f in enumerate(ORDER4.bridge):
        for j in range(ncell):
            want = np.where(cell == j, 2.0 ** (-levels / 2) * f(np.tile(NODES.points, ncell)), 0.0)
            np.testing.assert_allclose(basis.values[ncell - 1 + l * ncell + j], want, atol=1e-15)


def test_path_basis_endpoint_zeros_at_every_level():
    for system in (ORDER3, ORDER4):
        for levels in range(5):
            for rule in (endpoint_trapezoid(), NODES):
                basis = path_basis(system, rule, levels)
                assert basis.times[0] == 0.0 and basis.times[-1] == 1.0
                np.testing.assert_allclose(basis.values[:, [0, -1]], 0.0, atol=1e-15)


def test_path_basis_level_zero_is_bridge_values():
    for system, rule in (calibrated_system("order3-discrete"), calibrated_system("order4-discrete")):
        basis = path_basis(system, rule)
        assert np.array_equal(basis.values, system.bridge_values(rule.points))
        assert np.array_equal(basis.times, rule.points)
        assert np.array_equal(basis.weights, rule.weights)


def test_path_basis_shapes_and_validation():
    basis = path_basis(ORDER4, NODES, levels=2)
    assert basis.values.shape == (3 + 3 * 4, 4 * 5)
    assert basis.times.shape == basis.weights.shape == (20,)
    assert basis.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(basis.times) >= 0.0)
    with pytest.raises(ValueError):
        path_basis(ORDER4, NODES, levels=-1)


def test_path_basis_over_budget_raises_before_allocating():
    # (2^L (q + 1) - 1) x 2^L nq entries; the first level over the budget
    # and one whose table no machine could hold
    def entries(levels):
        return (2**levels * (ORDER4.q + 1) - 1) * 2**levels * NODES.points.size

    first = next(lvl for lvl in range(64) if entries(lvl) > _MAX_BASIS_ENTRIES)
    assert entries(first - 1) <= _MAX_BASIS_ENTRIES
    for levels in (first, 40):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                path_basis(ORDER4, NODES, levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


def _levy_covariance(system, rule, levels):
    """Closed-form covariance of the chained bridge: the Brownian-bridge
    kernel min(u, v) - uv across cells; within a cell, the linear
    interpolant of that kernel from the cell's edges plus the system's
    bridge covariance, compressed by 2^-levels."""
    ncell = 2**levels
    nq = rule.points.size
    t = np.tile(rule.points, ncell)
    cell = np.repeat(np.arange(ncell), nq)
    u = (t + cell) / ncell
    bb = np.minimum(u[:, None], u[None, :]) - u[:, None] * u[None, :]
    edges = np.stack([cell, cell + 1]) / ncell  # (2, T)
    interp = np.stack([1.0 - t, t])  # (2, T)
    kernel = np.minimum(edges[:, None, :, None], edges[None, :, None, :]) - (
        edges[:, None, :, None] * edges[None, :, None, :]
    )  # (2, 2, T, T)
    lin = np.einsum("au,bv,abuv->uv", interp, interp, kernel)
    bridge = covariance(finite_kernel(system), t[:, None], t[None, :]) - t[:, None] * t[None, :]
    same = cell[:, None] == cell[None, :]
    return np.where(same, lin + 2.0**-levels * bridge, bb)


def test_path_basis_gram_matches_levy_covariance():
    for family in ("order3-discrete", "order4-discrete"):
        system, rule = calibrated_system(family)
        for levels in range(5):
            for r in (rule, NODES):
                b = path_basis(system, r, levels).values
                np.testing.assert_allclose(b.T @ b, _levy_covariance(system, r, levels), rtol=0, atol=1e-14)
