"""Property tests on random polynomial potentials and tiny grids.

Every test is derandomized, so each run draws the same examples.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwpath import _parallel
from rwpath.experiments import make_kernel
from rwpath.kernels import PhysicalParams
from rwpath.potentials import custom_potential
from rwpath.propagation import (
    SpatialGrid,
    build_matrix,
    dvr_eigenvalues,
    matrix_power,
    nmm_density_ratio,
    partition_function,
)

PROPERTY = settings(max_examples=20, derandomize=True, deadline=None, database=None)

coefficient = st.floats(-1.0, 1.0)


@st.composite
def polynomials(draw, even=False):
    """V(x) = c1 x + c2 x^2 + c3 x^3 + c4 x^4 with c4 >= 0.1, so V is bounded
    below; an even draw has c1 = c3 = 0."""
    c1, c3 = (0.0, 0.0) if even else (draw(coefficient), draw(coefficient))
    c2, c4 = draw(coefficient), draw(st.floats(0.1, 1.0))

    def value(x):
        x = np.asarray(x, dtype=float)
        return c1 * x + c2 * x**2 + c3 * x**3 + c4 * x**4

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        return c1 + 2.0 * c2 * x + 3.0 * c3 * x**2 + 4.0 * c4 * x**3

    return custom_potential(value, deriv1)


kernels = st.sampled_from(["trotter", "order3-discrete"])
betas = st.floats(0.1, 2.0)
rungs = st.integers(0, 3)


@PROPERTY
@given(
    pot=polynomials(),
    name=kernels,
    beta=betas,
    n=rungs,
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
)
def test_build_matrix_is_symmetric_and_nonnegative(pot, name, beta, n, a, width, cells):
    grid = SpatialGrid(a, a + width, cells)
    mat = build_matrix(make_kernel(name, pot), PhysicalParams(beta=beta), grid, n).values
    assert np.array_equal(mat, mat.T)
    assert np.all(mat >= 0.0)


@PROPERTY
@given(
    pot=polynomials(even=True),
    name=kernels,
    beta=betas,
    n=rungs,
    half_width=st.floats(0.5, 3.0),
    cells=st.integers(2, 12),
)
def test_build_matrix_of_even_potential_equals_its_rotation(pot, name, beta, n, half_width, cells):
    # the mirror fill assigns every entry below the anti-diagonal from its
    # reflection, so the rotation is exact, not merely close
    grid = SpatialGrid(-half_width, half_width, cells)
    mat = build_matrix(make_kernel(name, pot), PhysicalParams(beta=beta), grid, n).values
    assert np.array_equal(mat, mat.T)
    assert np.all(mat >= 0.0)
    assert np.array_equal(mat, mat[::-1, ::-1])


@PROPERTY
@given(
    pot=polynomials(),
    beta=betas,
    size=st.integers(2, 1400),
    split=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_ratio_is_chunk_invariant_on_random_potentials(pot, beta, size, split, seed):
    # 100 Gauss-Hermite nodes per pair give 655-pair chunks, so the larger
    # draws cross a chunk boundary
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=size)
    xp = rng.uniform(-2.0, 2.0, size=size)
    cut = 1 + int(split * (size - 2))
    kernel = make_kernel("order3-discrete", pot)
    params = PhysicalParams(beta=beta)
    whole = kernel.ratio(params, x, xp)
    parts = np.concatenate([kernel.ratio(params, x[:cut], xp[:cut]), kernel.ratio(params, x[cut:], xp[cut:])])
    assert np.array_equal(whole, parts)


@PROPERTY
@given(
    pot=polynomials(),
    name=kernels,
    beta=betas,
    k=rungs,
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
)
def test_slice_identity_on_random_potentials(pot, name, beta, k, a, width, cells):
    # the kernel at (beta, 2k+1) and at (beta/2, k) share the slice
    # beta/(2k+2), so the matrices are equal and Z(beta) = tr(P P) with
    # P = A^{k+1} of the beta/2 build; the tolerance is the one derived in
    # test_slice_identity_of_trotter_ladder
    grid = SpatialGrid(a, a + width, cells)
    kernel = make_kernel(name, pot)
    params = PhysicalParams(beta=beta)
    full = build_matrix(kernel, params, grid, 2 * k + 1)
    half = build_matrix(kernel, params.with_beta(beta / 2.0), grid, k)
    assert np.array_equal(full.values, half.values)
    z = partition_function(full)
    pk = matrix_power(half.values, k + 1)
    z_half = float(np.trace(pk @ pk))
    n = grid.points.size
    tol = 2 * (2 * (2 * k + 1) + 4) * n * np.finfo(float).eps
    assert abs(z - z_half) / z <= tol


@PROPERTY
@given(
    pot=polynomials(),
    name=kernels,
    beta=betas,
    n=rungs,
    shift=st.integers(-1000, 10_000),
    cells=st.integers(2, 12),
)
def test_shifted_partition_function_is_positive_or_refused(pot, name, beta, n, shift, cells):
    # V + E with beta E / (n + 1) = shift: Z carries e^{-(n + 1) shift},
    # which overflows or underflows to 0 toward the ends of the range, and
    # below a shift of about -709 a single slice's weight overflows too
    offset = shift * (n + 1) / beta
    shifted = custom_potential(lambda x: pot.value(x) + offset, pot.deriv1)
    grid = SpatialGrid(-2.0, 2.0, cells)
    try:
        z = partition_function(build_matrix(make_kernel(name, shifted), PhysicalParams(beta=beta), grid, n))
    except (OverflowError, ValueError) as exc:
        assert re.search("overflowed|underflows to 0", str(exc))
        return
    assert math.isfinite(z) and z > 0.0


@PROPERTY
@given(
    pot=polynomials(),
    bad=st.sampled_from([math.nan, -math.inf]),
    beta=betas,
    n=rungs,
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
    at=st.floats(0.0, 1.0),
)
def test_a_grid_value_that_is_not_a_number_is_refused_at_its_x(pot, bad, beta, n, a, width, cells, at):
    # V is NaN or -inf at one interior grid point, which the grid eigensolve
    # reads too; every entry point that reads V there names that point
    grid = SpatialGrid(a, a + width, cells)
    xk = float(grid.points[1 + round(at * (cells - 2))])
    spiked = custom_potential(
        lambda x: np.where(np.asarray(x, dtype=float) == xk, bad, pot.value(x)), pot.deriv1
    )
    params = PhysicalParams(beta=beta)
    x0 = float(grid.points[0])
    calls = [
        *(lambda name=name: build_matrix(make_kernel(name, spiked), params, grid, n)
          for name in ("trotter", "order3-discrete")),
        lambda: nmm_density_ratio(make_kernel("order3-discrete", spiked), params, grid, n, x0, x0),
        lambda: dvr_eigenvalues(spiked, params, grid),
    ]
    message = f"^potential is {bad!r} at (grid point )?x = {re.escape(repr(xk))}$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@settings(PROPERTY, max_examples=8)
@given(
    pot=polynomials(),
    beta=betas,
    size=st.integers(656, 2700),
    workers=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_ratio_does_not_depend_on_the_worker_count(pot, beta, size, workers, seed):
    # 655-pair units, so every draw has 2 to 5 of them
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=size)
    xp = rng.uniform(-2.0, 2.0, size=size)
    kernel = make_kernel("order3-discrete", pot)
    params = PhysicalParams(beta=beta)
    with mock.patch.object(_parallel, "usable_cpus", return_value=1):
        one = kernel.ratio(params, x, xp)
    with mock.patch.object(_parallel, "usable_cpus", return_value=workers):
        many = kernel.ratio(params, x, xp)
    assert np.array_equal(one, many)


# the three kernels the acceptance ladders fit, at one and at seven slices
metamorphic_kernels = st.sampled_from(["trotter", "order3-discrete", "order4-discrete"])
few_or_many_slices = st.sampled_from([1, 7])


def relation_tolerance(n: int, grid: SpatialGrid) -> float:
    # each entry carries a few roundings and Z = tr(A^(n + 1)) sums (n + 1) N
    # of them; the largest miss in three runs of 300 random draws was
    # 0.52 (n + 1) N eps
    return 4 * (n + 1) * grid.points.size * np.finfo(float).eps


@PROPERTY
@given(
    pot=polynomials(),
    name=metamorphic_kernels,
    beta=betas,
    n=few_or_many_slices,
    shift=st.floats(0.25, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
)
def test_an_energy_shift_scales_z_by_its_boltzmann_factor(pot, name, beta, n, shift, sign, a, width, cells):
    # V + c multiplies each of the n + 1 slices by e^(-beta c / (n + 1)), so
    # Z by e^(-beta c); a slice of any other width breaks the relation
    c = sign * shift
    shifted = custom_potential(lambda x: pot.value(x) + c, pot.deriv1)
    params = PhysicalParams(beta=beta)
    grid = SpatialGrid(a, a + width, cells)
    z = partition_function(build_matrix(make_kernel(name, pot), params, grid, n))
    z_shifted = partition_function(build_matrix(make_kernel(name, shifted), params, grid, n))
    want = math.exp(-beta * c) * z
    assert abs(z_shifted - want) <= relation_tolerance(n, grid) * want


@PROPERTY
@given(
    pot=polynomials(),
    name=metamorphic_kernels,
    beta=betas,
    n=few_or_many_slices,
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
)
def test_the_mirror_image_has_the_same_z(pot, name, beta, n, a, width, cells):
    # V(-x) on (-b, -a) is V on (a, b) seen in a mirror; the two grids'
    # points are each other's mirror images up to rounding
    def mirrored(x):
        return pot.value(-np.asarray(x, dtype=float))

    def mirrored_deriv1(x):
        return -pot.deriv1(-np.asarray(x, dtype=float))

    params = PhysicalParams(beta=beta)
    grid = SpatialGrid(a, a + width, cells)
    z = partition_function(build_matrix(make_kernel(name, pot), params, grid, n))
    kernel = make_kernel(name, custom_potential(mirrored, mirrored_deriv1))
    z_mirror = partition_function(build_matrix(kernel, params, SpatialGrid(-grid.b, -grid.a, cells), n))
    assert abs(z_mirror - z) <= relation_tolerance(n, grid) * z


def exponent_tolerance(n: int, grid: SpatialGrid, beta: float, pot) -> float:
    # a relation that recomputes the exponents rounds each of them relative
    # to its size, about beta |V|: 1800 random draws of the four relations
    # below missed by up to 4.6 (n + 1) N eps in deep wells (Z up to 1e19),
    # and by at most 0.56 of this bound
    scale = beta * float(np.max(np.abs(pot.value(grid.points))))
    return relation_tolerance(n, grid) * max(1.0, scale)


@PROPERTY
@given(
    pot=polynomials(),
    name=metamorphic_kernels,
    beta=betas,
    n=few_or_many_slices,
    shift=st.floats(-3.0, 3.0),
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_an_energy_shift_scales_the_density_ratio_by_its_boltzmann_factor(
        pot, name, beta, n, shift, a, width, cells, ends):
    # V + c multiplies every entry of A^(n + 1), and so rho_n / rho_fp at
    # any pair of grid points, by e^(-beta c)
    shifted = custom_potential(lambda x: pot.value(x) + shift, pot.deriv1)
    params = PhysicalParams(beta=beta)
    grid = SpatialGrid(a, a + width, cells)
    x, xp = (float(grid.points[round(t * cells)]) for t in ends)
    ratio = nmm_density_ratio(make_kernel(name, pot), params, grid, n, x, xp)
    ratio_shifted = nmm_density_ratio(make_kernel(name, shifted), params, grid, n, x, xp)
    want = math.exp(-beta * shift) * ratio
    assert abs(ratio_shifted - want) <= exponent_tolerance(n, grid, beta, pot) * want


@PROPERTY
@given(
    pot=polynomials(),
    name=metamorphic_kernels,
    beta=betas,
    n=few_or_many_slices,
    shift=st.floats(-3.0, 3.0),
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
)
def test_a_translation_keeps_z(pot, name, beta, n, shift, a, width, cells):
    # V(x - s) on (a + s, b + s) is V on (a, b) moved by s; the two grids'
    # points and the paths between them differ by s up to rounding
    def moved(x):
        return pot.value(np.asarray(x, dtype=float) - shift)

    def moved_deriv1(x):
        return pot.deriv1(np.asarray(x, dtype=float) - shift)

    params = PhysicalParams(beta=beta)
    grid = SpatialGrid(a, a + width, cells)
    z = partition_function(build_matrix(make_kernel(name, pot), params, grid, n))
    kernel = make_kernel(name, custom_potential(moved, moved_deriv1))
    z_moved = partition_function(build_matrix(kernel, params, SpatialGrid(a + shift, grid.b + shift, cells), n))
    assert abs(z_moved - z) <= exponent_tolerance(n, grid, beta, pot) * z


@PROPERTY
@given(
    pot=polynomials(),
    name=metamorphic_kernels,
    beta=betas,
    n=few_or_many_slices,
    k=st.floats(0.25, 4.0),
    length=st.floats(0.25, 4.0),
    a=st.floats(-3.0, 0.0),
    width=st.floats(1.0, 5.0),
    cells=st.integers(2, 12),
)
def test_a_length_rescaling_keeps_z(pot, name, beta, n, k, length, a, width, cells):
    # sigma^2 = hbar^2 beta / m is unchanged by (hbar, m) -> (k hbar, k^2 m);
    # x -> L x with hbar -> L hbar scales sigma, the grid and every path by
    # L, and V(x / L) reads the same values, so Z, a sum of dimensionless
    # entries h rho_fp ratio, keeps its value
    def stretched(y):
        return pot.value(np.asarray(y, dtype=float) / length)

    def stretched_deriv1(y):
        return pot.deriv1(np.asarray(y, dtype=float) / length) / length

    params = PhysicalParams(beta=beta)
    grid = SpatialGrid(a, a + width, cells)
    tol = exponent_tolerance(n, grid, beta, pot)
    kernel = make_kernel(name, pot)
    z = partition_function(build_matrix(kernel, params, grid, n))
    z_units = partition_function(build_matrix(kernel, PhysicalParams(beta, k, k * k), grid, n))
    assert abs(z_units - z) <= tol * z
    kernel = make_kernel(name, custom_potential(stretched, stretched_deriv1))
    wide = SpatialGrid(length * a, length * grid.b, cells)
    z_wide = partition_function(build_matrix(kernel, PhysicalParams(beta, length), wide, n))
    assert abs(z_wide - z) <= tol * z
