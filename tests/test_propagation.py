import math

import numpy as np
import pytest

from rwpath.calibration import calibrated_system
from rwpath.kernels import (
    DiscreteReweightedKernel,
    FreeParticleKernel,
    PhysicalParams,
    TrotterKernel,
    rho_fp,
)
from rwpath.potentials import custom_potential, harmonic, quartic
from rwpath.propagation import (
    SpatialGrid,
    build_matrix,
    dvr_partition_function,
    matrix_power,
    mc_density_ratio,
    nmm_density_ratio,
    order_diagnostic,
    partition_function,
    reference_z,
    trotter_constant,
)

ORDER4 = calibrated_system("order4-discrete")
ORDER3 = calibrated_system("order3-discrete")


def zero_potential():
    return custom_potential(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        SpatialGrid(0.0, 1.0, 1)
    g = SpatialGrid(-4.0, 4.0, 400)
    assert g.h == pytest.approx(0.02)
    assert g.points.size == 401


def test_free_particle_row_sums_are_one():
    # h * sum_j rho_fp(x_i, x_j) ~ 1 for rows away from the boundary
    p = PhysicalParams(beta=1.0)
    g = SpatialGrid(-8.0, 8.0, 200)
    mat = build_matrix(FreeParticleKernel(zero_potential()), p, g, 0)
    sums = mat.values.sum(axis=1)
    interior = np.abs(g.points) < 2.0  # 6 sigma from either edge
    np.testing.assert_allclose(sums[interior], 1.0, atol=1e-10)


def test_matrix_symmetry_on_random_pairs():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-3.0, 3.0, 60)
    mat = build_matrix(DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1]), p, g, 3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        i, j = rng.integers(0, 61, size=2)
        assert mat.values[i, j] == pytest.approx(mat.values[j, i], rel=1e-12)
    assert np.all(mat.values >= 0.0)


def test_matrix_entries_match_kernel_formula():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-3.0, 3.0, 24)
    kernel = TrotterKernel(quartic())
    mat = build_matrix(kernel, p, g, 1)
    x = g.points
    want = g.h * kernel.rho0(p.with_beta(1.0), x[3], x[17])
    assert mat.values[3, 17] == pytest.approx(want, rel=1e-14)


def test_mirror_and_plain_builds_agree():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-3.0, 3.0, 50)
    kernel = DiscreteReweightedKernel(ORDER3[0], quartic(), ORDER3[1])
    a = build_matrix(kernel, p, g, 2, mirror=False).values
    b = build_matrix(kernel, p, g, 2, mirror=True).values
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_build_matrix_reports_nan_location():
    bad = custom_potential(
        lambda x: np.where(np.asarray(x, dtype=float) > 2.9, np.nan, 0.0),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    p = PhysicalParams(beta=1.0)
    g = SpatialGrid(-3.0, 3.0, 30)
    with pytest.raises(FloatingPointError, match="grid indices"):
        build_matrix(TrotterKernel(bad), p, g, 0)


def test_partition_function_trace_basics():
    g = SpatialGrid(0.0, 1.0, 3)
    diag = np.diag([0.5, 0.25, 0.125, 0.0625])
    from rwpath.propagation import KernelMatrix

    mat = KernelMatrix(diag, g, 1.0, 0, "test")
    assert partition_function(mat, 0) == pytest.approx(diag.trace())
    assert partition_function(mat, 3) == pytest.approx(float((np.diag(diag) ** 4).sum()))


def test_binary_exponentiation_matches_naive_products():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 0.1, size=(40, 40))
    a = 0.5 * (a + a.T)
    for power in range(1, 9):
        naive = np.linalg.multi_dot([a] * power) if power > 1 else a
        fast = matrix_power(a, power)
        assert abs(np.trace(fast) - np.trace(naive)) / abs(np.trace(naive)) < 1e-12


def test_partition_function_overflow_error():
    from rwpath.propagation import KernelMatrix

    g = SpatialGrid(0.0, 1.0, 3)
    mat = KernelMatrix(np.full((4, 4), 1e60), g, 1.0, 0, "test")
    with pytest.raises(OverflowError, match="rescal"):
        partition_function(mat, 15)


def test_harmonic_partition_function_analytic():
    # order-4 kernel, n = 63 against the level-sum closed form
    p = PhysicalParams(beta=10.0)
    g = SpatialGrid(-5.0, 5.0, 200)
    kernel = DiscreteReweightedKernel(ORDER4[0], harmonic(1.0), ORDER4[1])
    z = partition_function(build_matrix(kernel, p, g, 63))
    want = 1.0 / (2.0 * math.sinh(5.0))
    assert abs(z - want) / want < 1e-5


def test_dvr_matches_analytic_harmonic_spectrum():
    p = PhysicalParams(beta=10.0)
    g = SpatialGrid(-5.0, 5.0, 200)
    z = dvr_partition_function(harmonic(1.0), p, g)
    want = 1.0 / (2.0 * math.sinh(5.0))
    assert abs(z - want) / want < 1e-6


def test_reference_z_cross_checks_and_self_convergence():
    p = PhysicalParams(beta=10.0)
    g = SpatialGrid(-4.0, 4.0, 200)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    ref = reference_z(kernel, p, g, 255)
    assert ref.rel_gap < 1e-6
    ref2 = reference_z(kernel, p, g, 511)
    assert abs(ref.value - ref2.value) / ref2.value < 1e-6


def test_reference_z_raises_when_grid_underresolved():
    p = PhysicalParams(beta=10.0)
    g = SpatialGrid(-1.5, 1.5, 40)  # clips the quartic ground state badly
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    with pytest.raises(RuntimeError, match="grid"):
        reference_z(kernel, p, g, 63)


def test_reference_z_fails_closed_on_overflow():
    # a deep well overflows the matrix power, and inf times the zero wall
    # entries gives NaN; that must raise, not pass the cross-check as NaN
    def walled_deep_well(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 3.0, 0.5 * x * x - 80.0, np.inf)

    pot = custom_potential(walled_deep_well, lambda x: np.asarray(x, dtype=float), (-3.0, 3.0))
    with pytest.raises(OverflowError):
        reference_z(TrotterKernel(pot), PhysicalParams(beta=10.0), SpatialGrid(-3.0, 3.0, 120), 40)


def test_dvr_partition_function_fails_closed_on_overflow():
    def deep_well(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x * x - 80.0

    pot = custom_potential(deep_well, lambda x: np.asarray(x, dtype=float))
    with pytest.raises(OverflowError):
        dvr_partition_function(pot, PhysicalParams(beta=10.0), SpatialGrid(-3.0, 3.0, 120))


def test_doubling_grid_cells_leaves_z_unchanged():
    p = PhysicalParams(beta=10.0)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    z_coarse = partition_function(build_matrix(kernel, p, SpatialGrid(-4, 4, 200), 15))
    z_fine = partition_function(build_matrix(kernel, p, SpatialGrid(-4, 4, 400), 15))
    assert abs(z_coarse - z_fine) / z_fine < 1e-8


def test_order_diagnostic_requires_consecutive_m():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-4.0, 4.0, 50)
    kernel = TrotterKernel(quartic())
    with pytest.raises(ValueError):
        order_diagnostic(kernel, p, g, [1, 3, 5], 1.0)


def test_order_diagnostic_truncates_on_reference_limit():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-5.0, 5.0, 80)
    kernel = DiscreteReweightedKernel(ORDER4[0], harmonic(1.0), ORDER4[1])
    z_ref = partition_function(build_matrix(kernel, p, g, 127))
    with pytest.warns(UserWarning, match="truncated"):
        series = order_diagnostic(kernel, p, g, range(1, 8), z_ref)
    assert series.alpha_m.size < 6


def test_harmonic_trotter_slope_small_scale():
    # cheap sanity run: the splitting kernel shows slope ~2 already at m <= 12
    p = PhysicalParams(beta=4.0)
    g = SpatialGrid(-6.0, 6.0, 120)
    z_ref = 1.0 / (2.0 * math.sinh(2.0))
    series = order_diagnostic(TrotterKernel(harmonic(1.0)), p, g, range(1, 13), z_ref)
    assert series.slope == pytest.approx(2.0, abs=0.15)


def test_trotter_constant_harmonic_analytic():
    # c_th = (beta^3/24) <x^2> with <x^2> = coth(beta/2)/2 for unit frequency
    beta = 2.0
    p = PhysicalParams(beta=beta)
    g = SpatialGrid(-6.0, 6.0, 240)
    series = trotter_constant(p, g, harmonic(1.0), list(range(3, 40, 2)), n_ref=320)
    want = beta**3 / 24.0 * 0.5 / math.tanh(beta / 2.0)
    assert series.c_th == pytest.approx(want, rel=1e-4)
    assert series.c_n[-1] == pytest.approx(want, rel=0.05)


def test_trotter_constant_free_particle_is_zero():
    # with V = 0 the splitting kernel coincides with the free-particle kernel,
    # so measured against the free chain at the same n the error is zero; the
    # derivative average makes c_th exactly zero
    from rwpath.propagation import ReferenceZ

    p = PhysicalParams(beta=0.5)
    g = SpatialGrid(-8.0, 8.0, 100)
    zero = zero_potential()
    tk = TrotterKernel(zero)
    fk = FreeParticleKernel()
    for n in (3, 7):
        zt = partition_function(build_matrix(tk, p, g, n))
        zf = partition_function(build_matrix(fk, p, g, n))
        assert abs((n + 1) ** 2 * (zt - zf) / zf) < 1e-10
    ref = ReferenceZ(
        value=zf, n_ref=7, eigensolve_value=zf, rel_gap=0.0,
        diag_density=np.ones(g.points.size), grid=g,
    )
    series = trotter_constant(p, g, zero, [3, 7], reference=ref)
    assert series.c_th == 0.0
    assert abs(series.c_n[-1]) < 1e-10


def test_semigroup_consistency_of_converged_reference():
    # composing two converged half-temperature propagations reproduces the
    # full-temperature diagonal
    p = PhysicalParams(beta=10.0)
    g = SpatialGrid(-4.0, 4.0, 200)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    full = matrix_power(build_matrix(kernel, p, g, 511).values, 512)
    half = matrix_power(build_matrix(kernel, p.with_beta(5.0), g, 287).values, 288)
    composed = half @ half
    mask = np.diagonal(full) > np.max(np.diagonal(full)) * 1e-6
    rel = np.abs(np.diagonal(composed) - np.diagonal(full))[mask] / np.diagonal(full)[mask]
    assert float(rel.max()) < 1e-6


def test_he_cage_reference_free_energy_stability():
    # the helium cage at 5.11 K is ground-state dominated (the eigensolve gap
    # puts the thermal tail near 1%); the propagated free energy must track
    # the independent eigensolve to 1e-6 relative at beta and at 1.2 beta
    import math as _math

    from rwpath.kernels import units_constant
    from rwpath.potentials import he_cage
    from rwpath.propagation import dvr_partition_function

    pot = he_cage()
    grid = SpatialGrid(0.0, pot.params["box"], 300)
    base = PhysicalParams(beta=1 / 5.11, hbar=_math.sqrt(units_constant()), mass=4.0)
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    for params in (base, base.with_beta(1.2 * base.beta)):
        ref = reference_z(kernel, params, grid, 320)
        f_nmm = -_math.log(ref.value) / params.beta
        f_dvr = -_math.log(ref.eigensolve_value) / params.beta
        assert abs(f_nmm - f_dvr) / abs(f_dvr) < 1e-6


def test_nmm_density_ratio_requires_grid_point():
    p = PhysicalParams(beta=1.0)
    g = SpatialGrid(-4.0, 4.0, 100)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    with pytest.raises(ValueError):
        nmm_density_ratio(kernel, p, g, 3, 0.017, 0.0)


def test_mc_density_ratio_zero_potential_zero_variance():
    kernel = DiscreteReweightedKernel(ORDER4[0], zero_potential(), ORDER4[1])
    est, se = mc_density_ratio(kernel, PhysicalParams(beta=1.0), 0.0, 0.0, 3, 2000, seed=2)
    assert est == pytest.approx(1.0, abs=1e-14)
    assert se == pytest.approx(0.0, abs=1e-14)


def test_mc_density_ratio_level_zero_matches_single_kernel():
    kernel = DiscreteReweightedKernel(ORDER3[0], quartic(), ORDER3[1])
    p = PhysicalParams(beta=0.5)
    est, se = mc_density_ratio(kernel, p, 0.2, -0.4, 0, 400_000, seed=4)
    direct = kernel.rho0(p, 0.2, -0.4) / rho_fp(p, 0.2, -0.4)
    assert abs(est - direct) < 4.0 * se


def test_mc_density_ratio_matches_nmm_small_case():
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    p = PhysicalParams(beta=1.0)
    g = SpatialGrid(-4.0, 4.0, 200)
    est, se = mc_density_ratio(kernel, p, 0.0, 0.0, 2, 400_000, seed=8)
    want = nmm_density_ratio(kernel, p, g, 3, 0.0, 0.0)
    assert abs(est - want) < 4.0 * se


def test_mc_density_ratio_seed_zero_pin():
    # the draw order is fixed: perfbench pins seeded estimates to 1e-9
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    est, se = mc_density_ratio(kernel, PhysicalParams(beta=1.0), 0.0, 0.0, 3, 200_000, seed=0)
    assert est == pytest.approx(0.9554448496135921, rel=1e-12)
    assert se == pytest.approx(0.0001724729247325162, rel=1e-12)


def test_mc_density_ratio_rejects_other_kernels():
    with pytest.raises(TypeError):
        mc_density_ratio(TrotterKernel(quartic()), PhysicalParams(beta=1.0), 0, 0, 2, 100)
