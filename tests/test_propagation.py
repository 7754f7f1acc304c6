import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rwpath
from rwpath import calibration, kernels, propagation
from rwpath.calibration import calibrated_system
from rwpath.experiments import SYSTEMS, ladder
from rwpath.kernels import (
    _GH_BLOCK,
    _WORK_UNIT,
    DiscreteReweightedKernel,
    FreeParticleKernel,
    PhysicalParams,
    TrotterKernel,
    rho_fp,
)
from rwpath.potentials import custom_potential, harmonic, quartic
from rwpath.processes import path_basis
from rwpath.propagation import (
    _MC_BATCH,
    _MC_NORMALS,
    KernelMatrix,
    ReferenceZ,
    SpatialGrid,
    _pair_layout,
    _square_multiply,
    build_matrix,
    dvr_eigenvalues,
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
# pairs per unit of an order-4 ratio
ORDER4_PBLOCK = _WORK_UNIT // _GH_BLOCK
ORDER3 = calibrated_system("order3-discrete")


def zero_potential():
    return custom_potential(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def test_grid_validation():
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


def tilted_quartic():
    return custom_potential(
        lambda x: np.asarray(x, dtype=float) ** 4 + 0.5 * np.asarray(x, dtype=float),
        lambda x: 4.0 * np.asarray(x, dtype=float) ** 3 + 0.5,
    )


def four_scatter_build(kernel, params, grid, n, mirror):
    """The matrix assembled by scatters: the upper triangle (cut to
    i + j <= cells when mirrored) written to itself, its transpose and,
    when mirrored, both reflections."""
    x = grid.points
    iu, ju = np.triu_indices(x.size)
    if mirror:
        keep = iu + ju <= grid.cells
        iu, ju = iu[keep], ju[keep]
    vals = grid.h * kernel.rho0(params.with_beta(params.beta / (n + 1)), x[iu], x[ju])
    a = np.empty((x.size, x.size))
    a[iu, ju] = vals
    a[ju, iu] = vals
    if mirror:
        mi, mj = grid.cells - iu, grid.cells - ju
        a[mi, mj] = vals
        a[mj, mi] = vals
    return a


def test_mirror_and_plain_builds_agree():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-3.0, 3.0, 50)
    kernel = DiscreteReweightedKernel(ORDER3[0], quartic(), ORDER3[1])
    # the plain build: every upper-triangle entry from the kernel, reflected
    # across the diagonal only
    a = four_scatter_build(kernel, p, g, 2, mirror=False)
    b = build_matrix(kernel, p, g, 2).values
    # the quartic is even, so the build takes the mirror fill
    assert np.array_equal(b, b[::-1, ::-1])
    np.testing.assert_allclose(a, b, atol=1e-15)


@pytest.mark.parametrize(
    "potential, cells, mirror",
    [(quartic, 50, True), (quartic, 51, True), (tilted_quartic, 50, False)],
    ids=["mirrored-even-cells", "mirrored-odd-cells", "plain"],
)
def test_build_matrix_is_the_four_scatter_fill(potential, cells, mirror):
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-3.0, 3.0, cells)
    kernel = DiscreteReweightedKernel(ORDER4[0], potential(), ORDER4[1])
    got = build_matrix(kernel, p, g, 3).values
    assert np.array_equal(got, four_scatter_build(kernel, p, g, 3, mirror))
    assert np.array_equal(got, got[::-1, ::-1]) == mirror


def test_build_matrix_layout_cache_does_not_alias():
    p = PhysicalParams(beta=2.0)
    kernel = TrotterKernel(quartic())
    grids = [SpatialGrid(-3.0, 3.0, cells) for cells in (50, 51, 50)]
    mats = [build_matrix(kernel, p, g, 1).values for g in grids]
    assert mats[1].shape == (52, 52)
    assert np.array_equal(mats[0], mats[2])
    for g, m in zip(grids, mats):
        assert np.array_equal(m, four_scatter_build(kernel, p, g, 1, True))


def grid_symmetric_only(grid):
    """x^2/2 + 1 + 0.3 sin(pi (x - a) / h): mirror-symmetric on the grid
    points but not between them, so the mirror probe reads all its points
    before it finds the potential asymmetric."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x * x + 1.0 + 0.3 * np.sin(np.pi * (x - grid.a) / grid.h)

    return custom_potential(value, lambda x: np.asarray(x, dtype=float))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mirror", [True, False], ids=["mirror-symmetric", "asymmetric"])
def test_build_matrix_evaluates_the_counted_points(monkeypatch, mirror, workers):
    # the count perfbench's traced run checks: every pair at every
    # Gauss-Hermite and time node, its two wall checks, and the 2N - 1
    # points of the mirror probe
    grid = SpatialGrid(-3.0, 3.0, 80)
    inner = quartic() if mirror else grid_symmetric_only(grid)
    sizes = []

    def value(x):
        sizes.append(np.size(x))
        return inner.value(x)

    kernel = DiscreteReweightedKernel(ORDER4[0], custom_potential(value, inner.deriv1), ORDER4[1])
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    got = build_matrix(kernel, PhysicalParams(beta=2.0), grid, 3).values
    npts = grid.cells + 1
    pairs = sum(1 for i in range(npts) for j in range(i, npts) if not mirror or i + j <= grid.cells)
    nodes = kernel.gh_points**kernel.system.q * kernel.time_rule.points.size
    assert pairs > 2 * ORDER4_PBLOCK  # at least three units to share
    assert sum(sizes) == pairs * (nodes + 2) + (2 * npts - 1)
    assert np.array_equal(got, got[::-1, ::-1]) == mirror


@pytest.mark.parametrize("cells", [8, 9])
@pytest.mark.parametrize("mirror", [True, False])
def test_pair_layout_is_read_only_and_maps_entries_to_their_pairs(mirror, cells):
    iu, ju, entry = _pair_layout(cells, mirror)
    for arr in (iu, ju, entry):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert entry.dtype == np.intp
    assert np.array_equal(entry, entry.T)
    assert np.array_equal(entry, entry[::-1, ::-1]) == mirror
    assert np.array_equal(np.unique(entry), np.arange(iu.size))
    assert np.array_equal(entry[iu, ju], np.arange(iu.size))


def test_partition_function_trace_basics():
    g = SpatialGrid(0.0, 1.0, 3)
    diag = np.diag([0.5, 0.25, 0.125, 0.0625])
    mat0 = KernelMatrix(diag, g, 1.0, 0, "test")
    mat3 = KernelMatrix(diag, g, 1.0, 3, "test")
    assert partition_function(mat0) == pytest.approx(diag.trace())
    assert partition_function(mat3) == pytest.approx(float((np.diag(diag) ** 4).sum()))


def test_binary_exponentiation_matches_naive_products():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 0.1, size=(40, 40))
    a = 0.5 * (a + a.T)
    for power in range(1, 9):
        naive = np.linalg.multi_dot([a] * power) if power > 1 else a
        fast = matrix_power(a, power)
        assert abs(np.trace(fast) - np.trace(naive)) / abs(np.trace(naive)) < 1e-12


def plain_power(a, power):
    """The unfolded square-and-multiply on a copy of ``a``."""
    work = np.empty((3,) + a.shape)
    work[0] = a
    return _square_multiply(work, power)


def centrosymmetric(n, seed):
    # r + r.T and s + s[::-1, ::-1] add equal pairs, so both symmetries are exact
    r = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    s = r + r.T
    a = s + s[::-1, ::-1]
    return a / np.linalg.norm(a, 2)


@pytest.mark.parametrize("n", [40, 41])
def test_folded_power_matches_plain_products(n):
    a = centrosymmetric(n, n)
    eps = np.finfo(float).eps
    for power in [*range(1, 10), 64]:
        folded = matrix_power(a, power)
        plain = plain_power(a, power)
        assert np.array_equal(folded, folded[::-1, ::-1])
        # a is nonnegative, so any bracketing of a^p errs entrywise by at
        # most (power - 1) n eps relative, and the odd block's power is
        # bounded by the even block's, whose entries are p[i, k] plus the
        # mirror p[i, n-1-k]; the fold and the unfold round once each, and
        # both routes err
        tol = 2 * (power + 1) * n * eps
        assert np.all(np.abs(folded - plain) <= tol * (plain + plain[:, ::-1]))


@pytest.mark.parametrize(
    "n, row, col",
    [(40, 0, 1), (41, 0, 1), (40, 39, 3), (41, 40, 3), (41, 20, 2), (41, 20, 40)],
    ids=["40", "41", "bottom-40", "bottom-41", "centre-row-41", "centre-row-end-41"],
)
def test_power_of_non_centrosymmetric_matrix_keeps_plain_products(n, row, col):
    # the centrosymmetry test reads the top n // 2 rows against the rotated
    # bottom rows, and the centre row of an odd n against itself reversed,
    # so one asymmetric entry anywhere must keep the plain products
    a = centrosymmetric(n, n)
    a[row, col] = np.nextafter(a[row, col], np.inf)
    for power in (2, 7, 64):
        assert np.array_equal(matrix_power(a, power), plain_power(a, power))


@pytest.mark.parametrize("n", [40, 41])
def test_power_of_a_centrosymmetric_matrix_that_is_not_symmetric_matches_plain_products(n):
    # the even and odd blocks of such a matrix are not symmetric, so its
    # squarings must stay gemms: base @ base.T would square another matrix
    r = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, n))
    a = r + r[::-1, ::-1]
    a /= np.linalg.norm(a, 2)
    assert not np.array_equal(a, a.T)
    eps = np.finfo(float).eps
    for power in (2, 3, 7, 64):
        plain = plain_power(a, power)
        tol = 2 * (power + 1) * n * eps
        assert np.all(np.abs(matrix_power(a, power) - plain) <= tol * (plain + plain[:, ::-1]))


# Trotter rungs on the quartic's 401 points and the helium cage's 501 whose
# Z moved with the BLAS thread count while the products ran at it: with the
# gemm squarings (n = 87, 115, 135) or with the syrk ones (115, 51)
FOLDED_Z = """
from rwpath import kernels
from rwpath.experiments import SYSTEMS
from rwpath.propagation import build_matrix, partition_function
from rwpath.kernels import TrotterKernel
for name, n in (("quartic", 87), ("quartic", 115), ("he-cage", 51), ("he-cage", 135)):
    pot, params, grid = SYSTEMS[name].resolve()
    matrix = build_matrix(TrotterKernel(pot), params, grid, n)
    for cpus in (1, 2):
        kernels._usable_cpus = lambda: cpus
        print(repr(partition_function(matrix)))
"""


@pytest.mark.skipif(propagation._blas_pin() is None, reason="numpy bundles no OpenBLAS setter")
def test_folded_z_keeps_its_bits_at_one_and_two_blas_threads():
    src = str(Path(rwpath.__file__).parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", FOLDED_Z], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout.split())
    assert len(out[0]) == 8
    assert out[0] == out[1]


def quartic_trotter_matrix(n=121):
    pot, params, grid = SYSTEMS["quartic"].resolve()
    return build_matrix(TrotterKernel(pot), params, grid, n).values


def blas_threads():
    """The BLAS thread count as the calling thread sees it, read through the
    setter (which returns the count it replaces)."""
    setter = propagation._blas_pin()
    count = setter(1)
    setter(count)
    return count


def test_folded_power_keeps_its_bits_on_one_and_two_workers(monkeypatch):
    a = quartic_trotter_matrix()
    powers = []
    for cpus in (1, 2):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda cpus=cpus: cpus)
        powers.append(matrix_power(a, 122))
    assert np.array_equal(powers[0], powers[1])


def test_folded_power_without_the_blas_setter_keeps_z_to_rounding(monkeypatch):
    a = quartic_trotter_matrix()
    pinned = np.trace(matrix_power(a, 122))
    monkeypatch.setattr(propagation, "_blas_pin", lambda: None)
    assert abs(np.trace(matrix_power(a, 122)) - pinned) <= 1e-14 * pinned


def other_thread(fn):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


@pytest.mark.skipif(propagation._blas_pin() is None, reason="numpy bundles no OpenBLAS setter")
@pytest.mark.parametrize("cpus", [1, 2])
def test_folded_power_restores_every_threads_blas_count(monkeypatch, cpus):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    before = blas_threads(), other_thread(blas_threads)
    matrix_power(quartic_trotter_matrix(7), 8)
    assert (blas_threads(), other_thread(blas_threads)) == before


@pytest.mark.skipif(propagation._blas_pin() is None, reason="numpy bundles no OpenBLAS setter")
def test_concurrent_folded_powers_keep_their_bits_and_restore_the_blas_count(monkeypatch):
    # four callers with a worker each on fewer cores: the pin count is shared
    # by every thread, so a lost update would leave BLAS pinned or unpin a
    # chain while it runs
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    a = quartic_trotter_matrix(7)
    expected = matrix_power(a, 8)
    count = blas_threads()
    # the BLAS thread count each chain sees as it starts and ends
    seen = []
    square_multiply = propagation._square_multiply

    def watched(*args):
        seen.append(blas_threads())
        p = square_multiply(*args)
        seen.append(blas_threads())
        return p

    monkeypatch.setattr(propagation, "_square_multiply", watched)
    results, callers = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            callers.append(threading.Thread(
                target=lambda: results.extend(matrix_power(a, 8).copy() for _ in range(20))))
            callers[-1].start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 80
    assert all(np.array_equal(r, expected) for r in results)
    assert len(seen) == 320 and set(seen) == {1}
    assert propagation._pins[0] == 0
    assert blas_threads() == count


def test_an_exception_in_the_workers_chain_reaches_the_caller(monkeypatch):
    # t (I - J): the even block is 0 and the odd block 2 t I, whose square
    # overflows on the worker; the caller's errstate travels with the chain
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    a = 1e200 * (np.eye(40) - np.eye(40)[::-1])
    count = blas_threads() if propagation._blas_pin() else None
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        matrix_power(a, 2)
    if count is not None:
        assert blas_threads() == count
    assert propagation._pins[0] == 0


def test_slice_identity_of_trotter_ladder():
    # the splitting kernel at (beta, 2k+1) and at (beta/2, k) both use slices
    # beta/(2k+2), and halving beta is exact, so Z(beta) = tr(P P) with
    # P = A^{k+1} of the beta/2 build
    p = PhysicalParams(beta=10.0)
    g = SpatialGrid(-4.0, 4.0, 120)
    kernel = TrotterKernel(quartic())
    eps = np.finfo(float).eps
    for k in (2, 5, 12):
        full = build_matrix(kernel, p, g, 2 * k + 1)
        half = build_matrix(kernel, p.with_beta(5.0), g, k)
        assert np.array_equal(full.values, half.values)
        z = partition_function(full)
        pk = matrix_power(half.values, k + 1)
        z_half = float(np.trace(pk @ pk))
        # both routes chain 2k+2 nonnegative factors, so each errs by at
        # most (2k+1) n eps relative, plus two fold and unfold roundings per
        # folded power; a factor 2 covers the anti-diagonal entry the even
        # block adds to each folded diagonal entry, which is no larger
        # because the even power is positive semidefinite
        n = g.points.size
        tol = 2 * (2 * (2 * k + 1) + 4) * n * eps
        assert abs(z - z_half) / z <= tol


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


def dense_dvr_eigenvalues(potential, params, grid):
    # reference: the grid Hamiltonian from whole-matrix temporaries
    v_max = 2000.0 / params.beta
    nn = grid.cells
    idx = np.arange(1, nn)
    pref = params.hbar**2 / (2.0 * params.mass) * math.pi**2 / (2.0 * (grid.b - grid.a) ** 2)
    diff = idx[:, None] - idx[None, :]
    summ = idx[:, None] + idx[None, :]
    with np.errstate(divide="ignore"):
        off = ((-1.0) ** diff) * (
            1.0 / np.sin(math.pi * diff / (2.0 * nn)) ** 2
            - 1.0 / np.sin(math.pi * summ / (2.0 * nn)) ** 2
        )
    diag = (2.0 * nn**2 + 1.0) / 3.0 - 1.0 / np.sin(math.pi * idx / nn) ** 2
    t = pref * np.where(diff == 0, diag[:, None] * np.eye(idx.size), off)
    v = np.minimum(np.asarray(potential.value(grid.points[1:-1]), dtype=float), v_max)
    return np.linalg.eigvalsh(t + np.diag(v))


@pytest.mark.parametrize(
    "potential, params, grid",
    [
        SYSTEMS["he-cage"].resolve(),
        SYSTEMS["quartic"].resolve(),
        SYSTEMS["harmonic"].resolve(cells=7),
    ],
    ids=["helium", "quartic", "harmonic-odd"],
)
def test_dvr_eigenvalues_keep_the_dense_formula_bits(potential, params, grid):
    # the in-place build keeps the elementwise order of the dense formula
    want = dense_dvr_eigenvalues(potential, params, grid)
    assert np.array_equal(dvr_eigenvalues(potential, params, grid), want)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize(
    "potential, params, grid",
    [SYSTEMS["he-cage"].resolve(), SYSTEMS["quartic"].resolve()],
    ids=["helium", "quartic"],
)
def test_dvr_eigenvalues_hold_one_hamiltonian(potential, params, grid):
    # the (N-1)^2 Hamiltonian is the only matrix-sized array; a second one
    # for the 1/sin^2(pi (i+j) / 2N) term doubled the peak
    _, peak = traced_peak(dvr_eigenvalues, potential, params, grid)
    assert peak <= 1.2 * (grid.cells - 1) ** 2 * 8


def test_reference_z_peaks_no_higher_than_its_partition_function():
    # the kernel matrix and its power are freed before the eigensolve, so
    # the power is the peak, as in partition_function
    kernel = TrotterKernel(harmonic(1.0))
    p = PhysicalParams(beta=1.0)
    g = SpatialGrid(-8.0, 8.0, 300)
    build_matrix(kernel, p, g, 127)  # fills the pair-layout cache for both
    ref, ref_peak = traced_peak(reference_z, kernel, p, g, 127)
    z, z_peak = traced_peak(lambda: partition_function(build_matrix(kernel, p, g, 127)))
    assert ref.value == z
    assert ref_peak <= 1.01 * z_peak


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_dvr_eigenvalues_fail_closed_on_a_potential_that_is_not_a_number(bad):
    def value(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, bad, 0.5 * x * x)

    pot = custom_potential(value, lambda x: np.asarray(x, dtype=float))
    grid = SpatialGrid(-3.0, 3.0, 60)
    with pytest.raises(ValueError, match=r"potential is -?(nan|inf) at grid point x = 0\.6"):
        dvr_eigenvalues(pot, PhysicalParams(beta=1.0), grid)
    with pytest.raises(ValueError, match="grid point"):
        dvr_partition_function(pot, PhysicalParams(beta=1.0), grid)


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


@pytest.mark.parametrize("x, xp", [(-2.0, 2.0), (2.0, -2.0), (-1.0, 1.5), (-0.5, 0.5)])
def test_nmm_density_ratio_across_the_centre_matches_plain_products(x, xp):
    # at beta = 0.1 the entry for x = -2, x' = 2 is about 1e-35 of its mirror
    # entry, the diagonal one, so the folded power returns rounding noise
    # there; the ratio must come from the nonnegative products instead
    kernel = TrotterKernel(quartic())
    params = PhysicalParams(beta=0.1)
    grid = SpatialGrid(-4.0, 4.0, 80)
    n = 3
    i, j = (int(round((v - grid.a) / grid.h)) for v in (x, xp))
    a = build_matrix(kernel, params, grid, n).values
    expected = plain_power(a, n + 1)[i, j] / grid.h / rho_fp(params, x, xp)
    ratio = nmm_density_ratio(kernel, params, grid, n, x, xp)
    # two routes through n+1 nonnegative factors, each erring by at most
    # n (N eps) relative
    tol = 2 * n * grid.points.size * np.finfo(float).eps
    assert abs(ratio - expected) <= tol * expected


def test_doubling_grid_cells_leaves_z_unchanged():
    p = PhysicalParams(beta=10.0)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    z_coarse = partition_function(build_matrix(kernel, p, SpatialGrid(-4, 4, 200), 15))
    z_fine = partition_function(build_matrix(kernel, p, SpatialGrid(-4, 4, 400), 15))
    assert abs(z_coarse - z_fine) / z_fine < 1e-8


def test_order_diagnostic_truncates_on_reference_limit():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-5.0, 5.0, 80)
    kernel = DiscreteReweightedKernel(ORDER4[0], harmonic(1.0), ORDER4[1])
    z_ref = partition_function(build_matrix(kernel, p, g, 127))
    with pytest.warns(UserWarning, match="truncated"):
        series = order_diagnostic(kernel, p, g, range(1, 8), z_ref)
    assert series.alpha_m.size < 6


def test_order_diagnostic_without_a_slope_raises():
    p = PhysicalParams(beta=2.0)
    g = SpatialGrid(-5.0, 5.0, 80)
    kernel = TrotterKernel(harmonic(1.0))
    with pytest.raises(ValueError, match="at least 3"):
        order_diagnostic(kernel, p, g, [1, 2], 1.0)
    # a reference equal to the m = 2 rung truncates before the first alpha
    z_ref = partition_function(build_matrix(kernel, p, g, 5))
    with pytest.raises(RuntimeError, match="truncated at m=2"):
        order_diagnostic(kernel, p, g, [1, 2, 3], z_ref)


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
    ref = reference_z(DiscreteReweightedKernel(ORDER4[0], harmonic(1.0), ORDER4[1]), p, g, 320)
    series = trotter_constant(p, g, harmonic(1.0), list(range(3, 40, 2)), ref)
    want = beta**3 / 24.0 * 0.5 / math.tanh(beta / 2.0)
    assert series.c_th == pytest.approx(want, rel=1e-4)
    assert series.c_n[-1] == pytest.approx(want, rel=0.05)


def assert_same_bits(got, want):
    for field in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name),
                                      err_msg=field.name)


def test_ladder_keeps_the_bits_of_the_hand_written_sequence(monkeypatch):
    # the CLI tests' small harmonic set-up
    calls = []
    real = calibration.calibrate
    monkeypatch.setattr(calibration, "calibrate", lambda family: calls.append(family) or real(family))
    pot, p, g = SYSTEMS["harmonic"].resolve(2.0, -6.0, 6.0, 80)
    run = ladder(pot, p, g, {"trotter": 5, "order4-discrete": 4}, 5, n_ref=88)
    # the order-4 ladder's kernel builds the reference too
    assert calls == ["order4-discrete"]
    k4 = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    ref = reference_z(k4, p, g, 88)
    assert_same_bits(run.reference, ref)
    trotter = order_diagnostic(TrotterKernel(pot), p, g, range(1, 6), ref.value)
    assert_same_bits(run.orders["trotter"], trotter)
    assert_same_bits(run.orders["order4-discrete"], order_diagnostic(k4, p, g, range(1, 5), ref.value))
    assert_same_bits(run.constant, trotter_constant(p, g, pot, [3, 5, 7, 9, 11], ref))


def test_trotter_constant_free_particle_is_zero():
    # with V = 0 the splitting kernel coincides with the free-particle kernel,
    # so measured against the free chain at the same n the error is zero; the
    # derivative average makes c_th exactly zero
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


def test_trotter_constant_rejects_reference_on_another_grid():
    g = SpatialGrid(-4.0, 4.0, 80)
    ref = ReferenceZ(
        value=1.0, n_ref=7, eigensolve_value=1.0, rel_gap=0.0,
        diag_density=np.ones(g.points.size), grid=g,
    )
    with pytest.raises(ValueError, match="reference"):
        trotter_constant(PhysicalParams(beta=10.0), SpatialGrid(-3.0, 5.0, 80), quartic(),
                         [3, 5], reference=ref)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_trotter_constant_rejects_reference_z_not_finite_and_positive(value):
    g = SpatialGrid(-4.0, 4.0, 80)
    ref = ReferenceZ(
        value=value, n_ref=7, eigensolve_value=1.0, rel_gap=0.0,
        diag_density=np.ones(g.points.size), grid=g,
    )
    with pytest.raises(ValueError, match="finite and positive"):
        trotter_constant(PhysicalParams(beta=10.0), g, quartic(), [3, 5], ref)


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
    pot, base, grid = SYSTEMS["he-cage"].resolve(cells=300)
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    for params in (base, base.with_beta(1.2 * base.beta)):
        ref = reference_z(kernel, params, grid, 320)
        f_nmm = -math.log(ref.value) / params.beta
        f_dvr = -math.log(ref.eigensolve_value) / params.beta
        assert abs(f_nmm - f_dvr) / abs(f_dvr) < 1e-6


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


def test_mc_density_ratio_batch_memory_is_capped():
    # a batch draws at most 2^22 normals (32 MiB), whatever the level: at
    # levels 6 a row holds 255 normals, so 40k samples in one batch would
    # take 82 MB
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    tracemalloc.start()
    try:
        est, se = mc_density_ratio(kernel, PhysicalParams(beta=1.0), 0.0, 0.0, 6, 40_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    assert math.isfinite(est) and se > 0.0


def whole_batch_mc_density_ratio(kernel, params, x, xp, levels, samples, seed):
    # reference: every normal of a batch drawn before any path is built
    system = kernel.system
    basis = path_basis(system, kernel.time_rule, levels)
    ref = x + (xp - x) * basis.times
    rows = max(1, _WORK_UNIT // basis.times.size)
    batch = min(_MC_BATCH, max(1, _MC_NORMALS // basis.values.shape[0]))
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        nb = min(batch, samples - done)
        draws = [rng.standard_normal((nb, 2 ** (lvl - 1))) for lvl in range(1, levels + 1)]
        draws.append(rng.standard_normal((nb, system.q * 2**levels)))
        for r0 in range(0, nb, rows):
            coeff = np.hstack([d[r0 : r0 + rows] for d in draws])
            pts = coeff @ basis.values
            pts *= params.sigma
            pts += ref
            avg = np.asarray(kernel.potential.value(pts)) @ basis.weights
            avg *= -params.beta
            np.exp(avg, out=avg)
            total += float(avg.sum())
            total_sq += float(np.dot(avg, avg))
        done += nb
    mean = total / samples
    return mean, math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)


@pytest.mark.parametrize("system", [ORDER3, ORDER4], ids=["order3", "order4"])
@pytest.mark.parametrize("levels, samples", [(0, _MC_BATCH + 7), (3, _MC_BATCH + 7), (4, 70_001)])
def test_mc_density_ratio_streams_the_whole_batch_draws(system, levels, samples):
    # block-by-block bridge draws continue the stream of one whole-batch
    # draw, also across a partial last block and a partial last batch; at
    # levels 4 the order-4 batch is capped at 2^22 // 63 = 66,576 samples
    kernel = DiscreteReweightedKernel(system[0], quartic(), system[1])
    p = PhysicalParams(beta=1.0)
    got = mc_density_ratio(kernel, p, 0.3, -0.1, levels, samples, seed=5)
    assert got == whole_batch_mc_density_ratio(kernel, p, 0.3, -0.1, levels, samples, seed=5)


def test_mc_density_ratio_holds_only_the_tent_normals_of_a_batch():
    # at levels 3 a whole batch of 100k x 31 normals is 24.8 MB; its 7 tent
    # normals per sample are 5.6 MB
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    tracemalloc.start()
    try:
        mc_density_ratio(kernel, PhysicalParams(beta=1.0), 0.0, 0.0, 3, 200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_mc_density_ratio_rejects_other_kernels():
    with pytest.raises(TypeError):
        mc_density_ratio(TrotterKernel(quartic()), PhysicalParams(beta=1.0), 0, 0, 2, 100)
