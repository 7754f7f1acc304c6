"""Matrix propagation: partition functions and convergence diagnostics.

The density matrix at inverse temperature beta is approximated by chaining
n+1 copies of a short-time kernel at beta/(n+1) on a uniform spatial grid;
the partition function is then the trace of the (n+1)-th matrix power. The
diagnostics implemented here read off the empirical convergence order from
the slope of a log-ratio sequence, and compare the observed splitting-kernel
convergence constant against its closed-form thermal average.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .calibration import calibrated_system
from .kernels import (
    DiscreteReweightedKernel,
    PhysicalParams,
    ShortTimeKernel,
    TrotterKernel,
    rho_fp,
)
from .potentials import Potential
from .processes import path_basis

__all__ = [
    "SpatialGrid",
    "KernelMatrix",
    "build_matrix",
    "partition_function",
    "matrix_power",
    "dvr_eigenvalues",
    "dvr_partition_function",
    "ReferenceZ",
    "reference_z",
    "DiagnosticsSeries",
    "order_diagnostic",
    "TrotterConstantSeries",
    "trotter_constant",
    "mc_density_ratio",
    "nmm_density_ratio",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_i = a + i (b - a) / cells, 0 <= i <= cells."""

    a: float
    b: float
    cells: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("grid requires b > a")
        if self.cells < 2:
            raise ValueError("grid requires at least 2 cells")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.cells + 1)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized kernel h * rho0(x_i, x_j; beta/(n+1)) plus its metadata."""

    values: np.ndarray
    grid: SpatialGrid
    beta: float
    n: int
    kernel_kind: str

    def __post_init__(self):
        v = np.asarray(self.values)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _potential_is_mirror_symmetric(kernel: ShortTimeKernel, grid: SpatialGrid) -> bool:
    """True when the kernel is invariant under reflection about the grid
    centre: the potential must be mirror-symmetric (checked on the grid and
    on off-grid probe points) and the time-average rule palindromic."""
    rule = getattr(kernel, "time_rule", None)
    from .quadrature import is_palindromic

    if rule is not None and not is_palindromic(rule, tol=1e-12):
        return False
    potential = kernel.potential
    if potential is None:
        return True
    for probe in (grid.points, grid.points[:-1] + 0.5 * grid.h):
        v = np.asarray(potential.value(probe), dtype=float)
        vr = v[::-1]
        finite = np.isfinite(v) & np.isfinite(vr)
        if not np.array_equal(np.isfinite(v), np.isfinite(vr)):
            return False
        # rtol leaves room for grid rounding amplified by steep walls; a
        # genuinely asymmetric potential misses by many orders of magnitude
        if not np.allclose(v[finite], vr[finite], rtol=1e-8, atol=1e-300):
            return False
    return True


def build_matrix(
    kernel: ShortTimeKernel,
    params: PhysicalParams,
    grid: SpatialGrid,
    n: int,
    mirror: bool | None = None,
) -> KernelMatrix:
    """Assemble the symmetric kernel matrix at inverse temperature beta/(n+1).

    Only the upper triangle is evaluated; the rest is mirrored from the
    kernel's x <-> x' symmetry. When the potential is additionally symmetric
    about the grid centre (auto-detected, or forced via ``mirror``), only the
    half of the triangle with i + j <= cells is evaluated and the rest comes
    from the reflection. A NaN from the kernel is reported with its location.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    slice_params = params.with_beta(params.beta / (n + 1))
    x = grid.points
    npts = x.size
    iu, ju = np.triu_indices(npts)
    if mirror is None:
        mirror = _potential_is_mirror_symmetric(kernel, grid)
    if mirror:
        keep = iu + ju <= grid.cells
        iu, ju = iu[keep], ju[keep]
    try:
        vals = grid.h * np.asarray(kernel.rho0(slice_params, x[iu], x[ju]))
    except FloatingPointError:
        ratio = np.asarray(kernel.ratio(slice_params, x[iu], x[ju]))
        k = int(np.nonzero(np.isnan(ratio))[0][0])
        raise FloatingPointError(
            f"kernel produced a non-finite entry at grid indices ({iu[k]}, {ju[k]})"
        ) from None
    bad = np.nonzero(~np.isfinite(vals))[0]
    if bad.size:
        k = bad[0]
        raise FloatingPointError(
            f"kernel produced a non-finite entry at grid indices ({iu[k]}, {ju[k]})"
        )
    a = np.empty((npts, npts))
    a[iu, ju] = vals
    a[ju, iu] = vals
    if mirror:
        mi, mj = grid.cells - iu, grid.cells - ju
        a[mi, mj] = vals
        a[mj, mi] = vals
    return KernelMatrix(a, grid, params.beta, n, kernel.kind)


def matrix_power(a: np.ndarray, power: int) -> np.ndarray:
    """Dense matrix power by square-and-multiply.

    Every product goes into one three-matrix work block, allocated once per
    call, and the result is a view of it. glibc's malloc maps and
    page-faults separate matrix-sized arrays anew on every call, but serves
    a block this size from its heap after the first call frees one."""
    if power < 1:
        raise ValueError("power must be >= 1")
    a = np.asarray(a)
    work = np.empty((3,) + a.shape, dtype=a.dtype)
    base, spare, first = work
    base[...] = a
    result = None
    e = power
    while True:
        if e & 1:
            if result is None:
                result = first
                result[...] = base
            else:
                np.matmul(result, base, out=spare)
                result, spare = spare, result
        e >>= 1
        if not e:
            return result
        np.matmul(base, base, out=spare)
        base, spare = spare, base


def partition_function(matrix: KernelMatrix, n: int | None = None) -> float:
    """Trace of the (n+1)-th power of the kernel matrix, computed by binary
    exponentiation; the trace itself is accumulated in compensated summation.
    """
    if n is None:
        n = matrix.n
    p = _finite_power(matrix.values, n + 1)
    return float(math.fsum(np.diagonal(p)))


def _finite_power(a: np.ndarray, power: int) -> np.ndarray:
    """``matrix_power`` that raises instead of returning inf or NaN entries
    (an overflow times a zero wall entry gives NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = matrix_power(a, power)
    if not np.all(np.isfinite(p)):
        raise OverflowError(
            "matrix power overflowed; rescale by shifting the potential energy zero"
        )
    return p


def dvr_eigenvalues(
    potential: Potential,
    params: PhysicalParams,
    grid: SpatialGrid,
    v_cap: float | None = None,
) -> np.ndarray:
    """Eigenvalues of the grid Hamiltonian with box boundary conditions.

    The kinetic operator is the sine-basis (particle-in-a-box) discrete
    variable representation on the interior points, which is spectrally
    accurate for smooth potentials. Hard walls are handled by capping the
    potential (default cap 2000/beta, far above any thermally relevant
    energy) so the eigensolve stays well conditioned.
    """
    if v_cap is None:
        v_cap = 2000.0 / params.beta
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
    v = np.minimum(np.asarray(potential.value(grid.points[1:-1]), dtype=float), v_cap)
    h = t + np.diag(v)
    return np.linalg.eigvalsh(h)


def dvr_partition_function(
    potential: Potential,
    params: PhysicalParams,
    grid: SpatialGrid,
    v_cap: float | None = None,
) -> float:
    """Boltzmann sum over the grid spectrum; raises OverflowError when the
    sum is not finite rather than returning it."""
    energies = dvr_eigenvalues(potential, params, grid, v_cap)
    with np.errstate(under="ignore", over="ignore"):
        z = float(math.fsum(np.exp(-params.beta * energies)))
    if not math.isfinite(z):
        raise OverflowError(
            "Boltzmann sum overflowed; rescale by shifting the potential energy zero"
        )
    return z


@dataclass(frozen=True)
class ReferenceZ:
    """High-n reference partition function with its eigensolve cross-check
    and the diagonal density on the grid."""

    value: float
    n_ref: int
    eigensolve_value: float
    rel_gap: float
    diag_density: np.ndarray
    grid: SpatialGrid


def reference_z(
    kernel: ShortTimeKernel,
    params: PhysicalParams,
    grid: SpatialGrid,
    n_ref: int,
    check_tol: float = 1e-5,
) -> ReferenceZ:
    """Converged partition function from a high-n propagation of ``kernel``,
    cross-checked against the independent grid eigensolve; a gap beyond
    ``check_tol`` means the grid is under-resolved and raises, as do an
    overflowed matrix power and a NaN gap.
    """
    mat = build_matrix(kernel, params, grid, n_ref)
    p = _finite_power(mat.values, n_ref + 1)
    z = float(math.fsum(np.diagonal(p)))
    z_dvr = dvr_partition_function(kernel.potential, params, grid)
    gap = abs(z - z_dvr) / z_dvr
    # written so that a NaN gap fails
    if not (gap <= check_tol):
        raise RuntimeError(
            f"reference Z disagrees with the grid eigensolve by {gap:.2e} "
            f"(> {check_tol:.0e}); refine the grid or raise n_ref"
        )
    return ReferenceZ(z, n_ref, z_dvr, gap, np.diagonal(p) / grid.h, grid)


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Partition-function ladder Z_{2m+1} with the order diagnostics built
    from it: ratios R, the log-ratio sequence alpha_m, and the fitted slope
    (over the trailing half of the available alpha values)."""

    kernel_kind: str
    m: np.ndarray
    z: np.ndarray
    r: np.ndarray
    alpha_m: np.ndarray  # one entry per m[1:], paired with alpha_m_index
    alpha_m_index: np.ndarray
    slope: float
    fit_window: tuple[int, int]
    z_ref: float
    monotone: bool

    @property
    def n(self) -> np.ndarray:
        return 2 * self.m + 1


def _fit_slope(ms: np.ndarray, alphas: np.ndarray) -> tuple[float, tuple[int, int]]:
    if alphas.size < 2:
        return float("nan"), (0, 0)
    start = alphas.size // 2 if alphas.size > 3 else 0
    coef = np.polyfit(ms[start:], alphas[start:], 1)
    return float(coef[0]), (int(ms[start]), int(ms[-1]))


def order_diagnostic(
    kernel: ShortTimeKernel,
    params: PhysicalParams,
    grid: SpatialGrid,
    m_list,
    z_ref: float,
) -> DiagnosticsSeries:
    """Compute Z_{2m+1} for consecutive m, the ratios R = Z_{2m+1}/Z_ref and
    alpha_m = m^2 ln[1 + (R_{2m-1} - R_{2m+1}) / (R_{2m+1} - 1)], whose slope
    in m estimates the convergence order.

    The series is truncated with a warning once R - 1 falls below 1e-13
    (reference-limited) or the log argument leaves its domain."""
    m_arr = np.asarray(list(m_list), dtype=int)
    if m_arr.size < 2 or np.any(np.diff(m_arr) != 1):
        raise ValueError("m_list must be consecutive increasing integers")
    z_vals = []
    for m in m_arr:
        mat = build_matrix(kernel, params, grid, 2 * int(m) + 1)
        z_vals.append(partition_function(mat))
    z_arr = np.asarray(z_vals)
    r = z_arr / z_ref
    alphas = []
    alpha_ms = []
    truncated_at = None
    for i in range(1, m_arr.size):
        den = r[i] - 1.0
        if abs(den) < 1e-13:
            truncated_at = m_arr[i]
            break
        arg = 1.0 + (r[i - 1] - r[i]) / den
        if arg <= 0.0:
            truncated_at = m_arr[i]
            break
        alphas.append(float(m_arr[i]) ** 2 * math.log(arg))
        alpha_ms.append(m_arr[i])
    if truncated_at is not None:
        warnings.warn(
            f"alpha_m series truncated at m={truncated_at}: ratio is reference-limited",
            stacklevel=2,
        )
    alphas = np.asarray(alphas)
    alpha_ms = np.asarray(alpha_ms, dtype=int)
    slope, window = _fit_slope(alpha_ms, alphas)
    diffs = np.diff(z_arr)
    monotone = bool(np.all(diffs <= 0) or np.all(diffs >= 0))
    return DiagnosticsSeries(
        kernel.kind, m_arr, z_arr, r, alphas, alpha_ms, slope, window, z_ref, monotone
    )


@dataclass(frozen=True)
class TrotterConstantSeries:
    """Observed splitting-kernel convergence constants c_n against the
    closed-form thermal average c_th."""

    n: np.ndarray
    z: np.ndarray
    c_n: np.ndarray
    c_th: float
    z_ref: float
    rel_err_last: float


def trotter_constant(
    params: PhysicalParams,
    grid: SpatialGrid,
    potential: Potential,
    n_list,
    reference: ReferenceZ | None = None,
    n_ref: int | None = None,
    gh_points: int = 10,
) -> TrotterConstantSeries:
    """c_n = (n+1)^2 (Z_n - Z)/Z for the endpoint-splitting kernel, and the
    predicted limit c_th = (hbar^2 beta^3 / 24 m) <V'^2> where the thermal
    average uses the converged diagonal density of a fourth-order reference
    run (grid points carrying zero density are excluded; hard walls have
    infinite derivative there)."""
    n_arr = np.asarray(list(n_list), dtype=int)
    if reference is None:
        if n_ref is None:
            n_ref = 8 * int(n_arr.max())
        system, rule = calibrated_system("order4-discrete")
        ref_kernel = DiscreteReweightedKernel(system, potential, rule, gh_points)
        reference = reference_z(ref_kernel, params, grid, n_ref)
    z_ref = reference.value
    rho = reference.diag_density
    vp = np.asarray(potential.deriv1(grid.points), dtype=float)
    mask = np.isfinite(vp) & (rho > 0.0)
    avg_vp2 = float(np.sum(vp[mask] ** 2 * rho[mask]) / np.sum(rho[mask]))
    c_th = params.hbar**2 * params.beta**3 / (24.0 * params.mass) * avg_vp2
    tk = TrotterKernel(potential)
    z_vals = []
    c_vals = []
    for n in n_arr:
        mat = build_matrix(tk, params, grid, int(n))
        z = partition_function(mat)
        z_vals.append(z)
        c_vals.append((n + 1) ** 2 * (z - z_ref) / z_ref)
    c_arr = np.asarray(c_vals)
    rel = abs(c_arr[-1] - c_th) / abs(c_th) if c_th != 0.0 else abs(c_arr[-1])
    return TrotterConstantSeries(n_arr, np.asarray(z_vals), c_arr, c_th, z_ref, rel)


def nmm_density_ratio(
    kernel: ShortTimeKernel,
    params: PhysicalParams,
    grid: SpatialGrid,
    n: int,
    x: float,
    xp: float,
) -> float:
    """rho_n(x, x'; beta) / rho_fp(x, x'; beta) read off the propagated
    matrix; x and x' must be grid points."""
    pts = grid.points
    i = int(np.argmin(np.abs(pts - x)))
    j = int(np.argmin(np.abs(pts - xp)))
    if abs(pts[i] - x) > 1e-9 or abs(pts[j] - xp) > 1e-9:
        raise ValueError("x and x' must lie on the grid")
    mat = build_matrix(kernel, params, grid, n)
    p = matrix_power(mat.values, n + 1)
    return float(p[i, j] / grid.h / rho_fp(params, x, xp))


def mc_density_ratio(
    kernel: DiscreteReweightedKernel,
    params: PhysicalParams,
    x: float,
    xp: float,
    levels: int,
    samples: int,
    seed: int = 0,
    batch: int = 100_000,
) -> tuple[float, float]:
    """Monte Carlo estimate of rho_n(x, x'; beta) / rho_fp(x, x'; beta) for
    n = 2^levels - 1, sampling the chained-path representation directly:
    tent coefficients fill in the dyadic skeleton and one compressed copy of
    the kernel's bridge system lives in each of the 2^levels cells. Returns
    (estimate, standard error).
    """
    if not isinstance(kernel, DiscreteReweightedKernel):
        raise TypeError("mc_density_ratio needs a discrete reweighted kernel")
    system = kernel.system
    basis = path_basis(system, kernel.time_rule, levels)
    beta, sigma = params.beta, params.sigma
    ref = x + (xp - x) * basis.times
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        nb = min(batch, samples - done)
        # coefficients in the basis's row order: tents level by level, then
        # the (bridge, cell) grid
        draws = [rng.standard_normal((nb, 2 ** (lvl - 1))) for lvl in range(1, levels + 1)]
        draws.append(rng.standard_normal((nb, system.q * 2**levels)))
        pts = ref[None, :] + sigma * (np.hstack(draws) @ basis.values)
        avg = np.asarray(kernel.potential.value(pts)) @ basis.weights
        with np.errstate(under="ignore"):
            vals = np.exp(-beta * avg)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += nb
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    se = math.sqrt(var / samples) if samples > 1 else float("nan")
    return mean, se
