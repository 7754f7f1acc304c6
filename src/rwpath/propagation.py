"""Matrix propagation: partition functions and convergence diagnostics.

The density matrix at inverse temperature beta is approximated by chaining
n+1 copies of a short-time kernel at beta/(n+1) on a uniform spatial grid;
the partition function is then the trace of the (n+1)-th matrix power. The
diagnostics implemented here read off the empirical convergence order from
the slope of a log-ratio sequence, and compare the observed splitting-kernel
convergence constant against its closed-form thermal average.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _checks, _parallel
from .kernels import (
    _WORK_UNIT,
    DiscreteReweightedKernel,
    PhysicalParams,
    ShortTimeKernel,
    TrotterKernel,
    rho_fp,
)
from .potentials import Potential
from .processes import _gaussian_path, path_basis

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
        _checks.finite("grid a", self.a)
        _checks.finite("grid b", self.b)
        if not self.b > self.a:
            raise ValueError("grid requires finite a < b")
        _checks.count("grid cells", self.cells, 2)
        # dvr_eigenvalues divides by the squared width
        _checks.positive("squared grid width (b - a)^2", (self.b - self.a) * (self.b - self.a))

    def nearest(self, name: str, value: float) -> int:
        """Index of the grid point nearest ``value``. A value that is not
        finite, or lies more than half a cell outside [a, b], is refused
        under ``name``."""
        _checks.finite(name, value)
        if not self.a - self.h / 2 <= value <= self.b + self.h / 2:
            raise ValueError(f"{name} = {value!r} lies outside the grid [{self.a!r}, {self.b!r}]")
        return int(np.argmin(np.abs(self.points - value)))

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


def _potential_is_mirror_symmetric(potential: Potential, grid: SpatialGrid) -> bool:
    """True when ``potential`` is mirror-symmetric about the grid centre,
    probed at the 2N - 1 grid points and cell midpoints. A kernel on such a
    potential is invariant under the reflection: a reweighted kernel checks,
    when built, that its time rule is palindromic and each bridge has a
    parity at its nodes."""
    for probe in (grid.points, grid.points[:-1] + 0.5 * grid.h):
        v = np.asarray(potential.value(probe), dtype=float)
        # rtol leaves room for grid rounding amplified by steep walls; a
        # genuinely asymmetric potential misses by many orders of magnitude
        if not np.allclose(v, v[::-1], rtol=1e-8, atol=1e-300):
            return False
    return True


# Entries of one N x N matrix, a kernel matrix or the grid Hamiltonian: 2^22
# float64 values, 32 MiB, N = 2048; the largest in use, the helium grid's
# 501 points, has 251,001, 16.7x inside.
_MAX_MATRIX_ENTRIES = 2**22


@functools.lru_cache(maxsize=8)
def _pair_layout(cells: int, mirror: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only pair layout of a kernel matrix on ``cells + 1`` points.

    ``iu``, ``ju`` are the pairs the kernel is evaluated on: the upper
    triangle, cut to i + j <= cells when the matrix is also mirrored about
    the grid centre. ``entry`` maps every matrix entry to the index of the
    one pair whose value it takes: the pair itself, its transpose and, when
    mirrored, both reflections."""
    npts = cells + 1
    iu, ju = np.triu_indices(npts)
    if mirror:
        keep = iu + ju <= cells
        iu, ju = iu[keep], ju[keep]
    pair = np.arange(iu.size)
    entry = np.empty((npts, npts), dtype=np.intp)
    entry[iu, ju] = pair
    entry[ju, iu] = pair
    if mirror:
        mi, mj = cells - iu, cells - ju
        entry[mi, mj] = pair
        entry[mj, mi] = pair
    for arr in (iu, ju, entry):
        arr.setflags(write=False)
    return iu, ju, entry


def build_matrix(
    kernel: ShortTimeKernel,
    params: PhysicalParams,
    grid: SpatialGrid,
    n: int,
) -> KernelMatrix:
    """Assemble the symmetric kernel matrix at inverse temperature beta/(n+1).

    Only the upper triangle is evaluated; the rest is mirrored from the
    kernel's x <-> x' symmetry. When the potential is additionally symmetric
    about the grid centre (probed on and between the grid points), only the
    half of the triangle with i + j <= cells is evaluated and the rest comes
    from the reflection. The pair layout depends only on ``(cells, mirror)``
    and is cached, so the matrix is one gather of the pair values. The
    entries are h * rho0, which refuses the potential and the weights. A
    matrix over ``_MAX_MATRIX_ENTRIES`` entries, or a kernel whose potential
    has no callable ``value``, is refused before anything is built.
    """
    n = _checks.count("n", n, 0)
    npts = grid.cells + 1
    _checks.budget(f"a kernel matrix on {npts} grid points", npts * npts, _MAX_MATRIX_ENTRIES,
                   "matrix entries", "use fewer grid cells")
    if not callable(getattr(getattr(kernel, "potential", None), "value", None)):
        raise ValueError(f"{type(kernel).__name__} sets no potential, which build_matrix "
                         "probes for mirror symmetry")
    slice_params = params.with_beta(params.beta / (n + 1))
    x = grid.points
    iu, ju, entry = _pair_layout(grid.cells, _potential_is_mirror_symmetric(kernel.potential, grid))
    xi, xj = x[iu], x[ju]
    vals = grid.h * kernel.rho0(slice_params, xi, xj)
    # freed before the gather: a higher heap peak is trimmed
    # and faulted back in on every build (991 against 677 page faults per
    # quartic Trotter build on 401 points)
    del xi, xj
    return KernelMatrix(vals[entry], grid, params.beta, n, kernel.kind)


def matrix_power(a: np.ndarray, power: int) -> np.ndarray:
    """Dense matrix power by square-and-multiply.

    A symmetric, centrosymmetric matrix (``a`` equal bit for bit to its
    transpose and its 180° rotation, as every kernel matrix of a
    mirror-symmetric potential is) is powered as two half-size blocks, a
    quarter of the flops, each squared with syrk. Where numpy's bundled
    OpenBLAS can be pinned, their two chains of products run at once, one on
    the caller and one on the process's worker pool, each on single-threaded
    BLAS (see ``_folded_power``), so the power's bits do not depend on the
    BLAS thread count. Any other matrix, a centrosymmetric one that is not
    symmetric too, takes the plain products at the process's BLAS thread
    count, whose bits may. An entry p[i, k] of a folded power is accurate
    only relative to the larger of it and its mirror p[i, N-1-k], because
    it is half the sum or difference of two block entries of that size: an
    entry far below its mirror (one across the centre, for a kernel that
    decays with distance) can come out as rounding noise, even zero or
    negative. All work goes into one block allocated once per call, and the
    result is a view of it. glibc's malloc maps and page-faults separate
    matrix-sized arrays anew on every call, but serves a block this size
    from its heap after the first call frees one."""
    power = _checks.count("power", power, 1)
    a = np.asarray(a)
    if a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype.kind in "fc":
        if _is_bisymmetric(a):
            return _folded_power(a, power)
    work = np.empty((3,) + a.shape, dtype=a.dtype)
    work[0] = a
    return _square_multiply(work, power)


def _is_bisymmetric(a: np.ndarray) -> bool:
    """True when the square ``a`` equals its 180° rotation and its transpose
    bit for bit: its top N // 2 rows equal its rotated bottom rows and its
    top columns, and for odd N its centre row is a palindrome. Through the
    rotation the top rows' symmetry covers every entry. NaN fails."""
    n = a.shape[0]
    m = n // 2
    top = a[:m]
    if not (np.array_equal(top, a[::-1, ::-1][:m]) and np.array_equal(top, a[:, :m].T)):
        return False
    return n % 2 == 0 or np.array_equal(a[m], a[m, ::-1])


def _folded_power(a: np.ndarray, power: int) -> np.ndarray:
    """Power of a symmetric, centrosymmetric matrix through its even and odd
    blocks.

    With J the exchange matrix, m = N // 2 and a[:m, :m] = B, the mirrored
    columns a[:m, ::-1][:, :m] = C J, the even block is B + C J and the odd
    block B - C J. For odd N the even block also carries the centre c: the
    orthogonal fold puts sqrt(2) a[:m, c] in its column and sqrt(2) a[c, :c]
    in its row. Both blocks are symmetric bit for bit, as ``a`` is, so every
    squaring is a syrk (``base @ base.T``). The power's centre row and column
    are scaled back; its diagonal needs no change.

    The two blocks' chains of products run at once, each on single-threaded
    BLAS (``_parallel.one_blas_thread``), the odd one on the process's pool
    (``_parallel.submit``), when ``_parallel.usable_cpus()`` gives more than
    one CPU and the BLAS can be pinned (or on the caller, if the pool has
    not started it). Otherwise both run on the caller, at the process's
    BLAS thread count where it cannot be pinned. The power's top rows are
    (E^p ± O^p) / 2, each chain halving its own rows, and its bottom rows
    their rotation, so the result is centrosymmetric by construction."""
    n = a.shape[0]
    m, h = n // 2, n - n // 2
    root2 = math.sqrt(2.0)
    block = np.empty(3 * h * h + 3 * m * m + n * n, dtype=a.dtype)
    even = block[: 3 * h * h].reshape(3, h, h)
    odd = block[3 * h * h : 3 * (h * h + m * m)].reshape(3, m, m)
    out = block[3 * (h * h + m * m) :].reshape(n, n)
    mirrored = a[:m, ::-1][:, :m]

    def chain(work: np.ndarray) -> np.ndarray:
        with _parallel.one_blas_thread():
            p = _square_multiply(work, power, True)
        p[:m] *= 0.5
        return p

    def odd_chain() -> np.ndarray:
        np.subtract(a[:m, :m], mirrored, out=odd[0])
        return chain(odd)

    # unpinned, two chains at the process's BLAS thread count oversubscribe
    # the CPUs: 8-10 against 5.7 ms serially for a quartic Trotter rung
    # (n = 121, 401 points) on a 2-vCPU VM
    concurrent = _parallel.usable_cpus() > 1 and _parallel.blas_pin() is not None
    tasks = [_parallel.submit(odd_chain)] if concurrent else []
    np.add(a[:m, :m], mirrored, out=even[0, :m, :m])
    if h > m:
        np.multiply(a[:m, m], root2, out=even[0, :m, m])
        np.multiply(a[m, :m], root2, out=even[0, m, :m])
        even[0, m, m] = a[m, m]
    try:
        e = chain(even)
    finally:
        done = _parallel.join(tasks)  # the odd chain writes into the block
    o = done[0] if concurrent else odd_chain()
    top = out[:m]
    np.add(e[:m, :m], o, out=top[:, :m])
    np.subtract(e[:m, :m], o, out=top[:, h:][:, ::-1])
    if h > m:
        np.multiply(e[:m, m], root2, out=top[:, m])
        np.divide(e[m, :m], root2, out=out[m, :m])
        out[m, m] = e[m, m]
        out[m, h:] = out[m, :m][::-1]
    out[h:] = top[::-1, ::-1]
    return out


def _square_multiply(work: np.ndarray, power: int, symmetric: bool = False) -> np.ndarray:
    """work[0]**power by square-and-multiply inside the (3, n, n) ``work``
    block; the result is a view of it. A ``symmetric`` work[0] is squared as
    ``base @ base.T``, which numpy hands to syrk; its squares are symmetric
    bit for bit in turn."""
    base, spare, first = work
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
        np.matmul(base, base.T if symmetric else base, out=spare)
        base, spare = spare, base


def partition_function(matrix: KernelMatrix) -> float:
    """Trace of the (matrix.n + 1)-th power of the kernel matrix, computed by
    binary exponentiation (on two half-size blocks when the matrix is
    centrosymmetric, as it is for a mirror-symmetric potential); the trace
    itself is accumulated in compensated summation. The trace is refused
    by ``_checks.result`` unless it is finite and above 0.
    """
    return _power_trace(matrix.values, matrix.n + 1, f"Z_{matrix.n}")[1]


def _power_trace(a: np.ndarray, power: int, name: str) -> tuple[np.ndarray, float]:
    """A copy of the diagonal of ``matrix_power(a, power)``, so that the
    power's block is freed when this returns, and its compensated sum,
    refused under ``name`` unless finite and above 0. An overflow reaches
    the diagonal as inf, or as NaN through a zero wall entry, and the plain
    sum is finite only when every entry is; it is checked first because
    fsum raises its own error on inf - inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.diagonal(matrix_power(a, power)).copy()
        _checks.result(name, diag.sum())
    return diag, _checks.result(name, math.fsum(diag))


def dvr_eigenvalues(
    potential: Potential,
    params: PhysicalParams,
    grid: SpatialGrid,
) -> np.ndarray:
    """Eigenvalues of the grid Hamiltonian with box boundary conditions.

    The kinetic operator is the sine-basis (particle-in-a-box) discrete
    variable representation on the interior points, which is spectrally
    accurate for smooth potentials. Hard walls are handled by capping the
    potential at 2000/beta, far above any thermally relevant energy, so the
    eigensolve stays well conditioned. A potential that is NaN or -inf at an
    interior grid point is refused by ``_checks.potential`` at the first
    such point. At its peak it holds one (N-1)^2 array, the Hamiltonian,
    beside LAPACK's own workspace; one over ``_MAX_MATRIX_ENTRIES`` entries
    is refused before V is read. It runs on one BLAS thread, whose bits do
    not depend on the process's BLAS thread count.
    """
    v_max = 2000.0 / params.beta
    nn = grid.cells
    _checks.budget(f"the grid Hamiltonian on {nn - 1} interior points", (nn - 1) ** 2,
                   _MAX_MATRIX_ENTRIES, "matrix entries", "use fewer grid cells")
    pts = grid.points[1:-1]
    v = np.minimum(_checks.potential(potential.value(pts), "at grid point", pts), v_max)
    idx = np.arange(1.0, nn)
    pref = params.hbar**2 / (2.0 * params.mass) * math.pi**2 / (2.0 * (grid.b - grid.a) ** 2)
    # off-diagonal: (-1)^(i-j) [1/sin^2(pi (i-j) / 2N) - 1/sin^2(pi (i+j) / 2N)],
    # built in place in h; the second term depends on i + j alone, so it is
    # one table over the 2N - 3 sums, subtracted as a Hankel view of it
    h = np.subtract.outer(idx, idx)
    sums = np.arange(2.0, 2.0 * nn - 1.0)
    with np.errstate(divide="ignore"):
        for arr in (h, sums):
            arr *= math.pi
            arr /= 2.0 * nn
            np.sin(arr, out=arr)
            np.square(arr, out=arr)
            np.divide(1.0, arr, out=arr)
    h -= np.lib.stride_tricks.sliding_window_view(sums, idx.size)
    # i - j is odd on this checkerboard
    np.negative(h[::2, 1::2], out=h[::2, 1::2])
    np.negative(h[1::2, ::2], out=h[1::2, ::2])
    np.fill_diagonal(h, (2.0 * nn**2 + 1.0) / 3.0 - 1.0 / np.sin(math.pi * idx / nn) ** 2)
    h *= pref
    h.flat[:: idx.size + 1] += v
    with _parallel.one_blas_thread():
        return np.linalg.eigvalsh(h)


def dvr_partition_function(
    potential: Potential,
    params: PhysicalParams,
    grid: SpatialGrid,
) -> float:
    """Boltzmann sum over the grid spectrum, refused by ``_checks.result``
    unless it is finite and above 0."""
    energies = dvr_eigenvalues(potential, params, grid)
    with np.errstate(under="ignore", over="ignore"):
        return _checks.result("Boltzmann sum", math.fsum(np.exp(-params.beta * energies)))


# Largest relative gap between a reference Z and the grid eigensolve.
_REFERENCE_GAP_TOL = 1e-5


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
) -> ReferenceZ:
    """Converged partition function from a high-n propagation of ``kernel``,
    cross-checked against the independent grid eigensolve; a gap beyond
    1e-5 means the grid is under-resolved and raises RuntimeError. Before
    that, each Z is refused by ``_checks.result`` unless it is finite and
    above 0.

    Only the power's diagonal outlives the power, so the peak is that of
    ``partition_function``: the N^2 kernel matrix beside the power's block
    (about 2.5 N^2 when folded). The eigensolve that follows holds one
    (N-1)^2 Hamiltonian.
    """
    n_ref = _checks.count("n_ref", n_ref, 0)
    diag, z = _power_trace(
        build_matrix(kernel, params, grid, n_ref).values, n_ref + 1, "reference Z"
    )
    z_dvr = dvr_partition_function(kernel.potential, params, grid)
    gap = abs(z - z_dvr) / z_dvr
    # written so that a NaN gap fails
    if not (gap <= _REFERENCE_GAP_TOL):
        raise RuntimeError(
            f"reference Z disagrees with the grid eigensolve by {gap:.2e} "
            f"(> {_REFERENCE_GAP_TOL:.0e}); refine the grid or raise n_ref"
        )
    return ReferenceZ(z, n_ref, z_dvr, gap, diag / grid.h, grid)


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
    start = alphas.size // 2 if alphas.size > 3 else 0
    coef = np.polyfit(ms[start:], alphas[start:], 1)
    return float(coef[0]), (int(ms[start]), int(ms[-1]))


def _ladder_z(
    kernel: ShortTimeKernel, params: PhysicalParams, grid: SpatialGrid, steps
) -> np.ndarray:
    """Z_n of ``kernel`` chained over n + 1 slices, for each n in ``steps``."""
    return np.asarray(
        [partition_function(build_matrix(kernel, params, grid, int(n))) for n in steps]
    )


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
    (reference-limited) or the log argument leaves its domain. Fewer than 3
    values of m, or a truncation that leaves fewer than 2 alpha values, leave
    no slope to fit and raise, as does a ``z_ref`` that is not finite and
    positive."""
    _checks.positive("reference Z", z_ref)
    m_arr = np.asarray([_checks.count("m", m, 0) for m in m_list], dtype=int)
    if m_arr.size < 3 or np.any(np.diff(m_arr) != 1):
        raise ValueError("m_list must be at least 3 consecutive increasing integers")
    z_arr = _ladder_z(kernel, params, grid, 2 * m_arr + 1)
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
    if len(alphas) < 2:
        raise RuntimeError(
            f"alpha_m series truncated at m={truncated_at} with {len(alphas)} "
            "alpha values; a slope needs 2"
        )
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
    reference: ReferenceZ,
) -> TrotterConstantSeries:
    """c_n = (n+1)^2 (Z_n - Z)/Z for the endpoint-splitting kernel, and the
    predicted limit c_th = (hbar^2 beta^3 / 24 m) <V'^2> where the thermal
    average uses the converged diagonal density of ``reference``, a
    fourth-order run built on ``grid`` (grid points carrying zero density
    are excluded; hard walls have infinite derivative there). Its Z must be
    finite and positive, and V' finite wherever the density is above 0."""
    n_arr = np.asarray([_checks.count("n", n, 0) for n in n_list], dtype=int)
    if n_arr.size == 0:
        raise ValueError("n_list must hold at least one Trotter step count")
    if reference.grid != grid:
        raise ValueError(
            f"reference was built on {reference.grid}, not on {grid}; its diagonal "
            "density would be misaligned"
        )
    z_ref = reference.value
    _checks.positive("reference Z", z_ref)
    rho = reference.diag_density
    vp = np.asarray(potential.deriv1(grid.points), dtype=float)
    mask = rho > 0.0
    bad = np.flatnonzero(mask & ~np.isfinite(vp))
    if bad.size:
        _checks.finite(f"V'(x) at x = {float(grid.points[bad[0]])!r}", float(vp[bad[0]]))
    avg_vp2 = float(np.sum(vp[mask] ** 2 * rho[mask]) / np.sum(rho[mask]))
    c_th = params.hbar**2 * params.beta**3 / (24.0 * params.mass) * avg_vp2
    z_arr = _ladder_z(TrotterKernel(potential), params, grid, n_arr)
    c_arr = (n_arr + 1) ** 2 * (z_arr - z_ref) / z_ref
    rel = abs(c_arr[-1] - c_th) / abs(c_th) if c_th != 0.0 else abs(c_arr[-1])
    return TrotterConstantSeries(n_arr, z_arr, c_arr, c_th, z_ref, rel)


def nmm_density_ratio(
    kernel: ShortTimeKernel,
    params: PhysicalParams,
    grid: SpatialGrid,
    n: int,
    x: float,
    xp: float,
) -> float:
    """rho_n(x, x'; beta) / rho_fp(x, x'; beta) read off the propagated
    matrix; x and x' must be grid points, to a millionth of a cell. An
    entry below its mirror entry, which the folded power does not resolve,
    is recomputed from n+1 matrix-vector products. Raises ValueError when
    x or x' is not a grid point. rho_fp(x, x'), checked before anything is
    built, and the ratio are refused by ``_checks.result`` unless finite
    and above 0; rho_fp is 0 for points too far apart at this beta."""
    i, j = grid.nearest("x", x), grid.nearest("x'", xp)
    pts = grid.points
    # relative to the cell: on a fine grid an absolute tolerance spans cells
    if max(abs(pts[i] - x), abs(pts[j] - xp)) > 1e-6 * grid.h:
        raise ValueError("x and x' must lie on the grid")
    at = f"at x = {x}, x' = {xp}"
    den = _checks.result(f"rho_fp(x, x') {at}", rho_fp(params, x, xp))
    mat = build_matrix(kernel, params, grid, n)
    with np.errstate(over="ignore", invalid="ignore"):
        p = matrix_power(mat.values, n + 1)
    entry = float(p[i, j])
    if entry < p[i, -1 - j]:
        col = mat.values[:, j]
        for _ in range(n):
            col = mat.values @ col
        entry = float(col[i])
    return _checks.result(f"density ratio {at}", entry / grid.h / den)


# Samples per batch, at most _MC_NORMALS normals per batch. A batch draws
# its tent normals level by level and then its bridge normals, so both caps
# fix the draw order and with it every seeded estimate. Only the tent
# normals are held for the whole batch, at most 2^22 / (q + 1) of them;
# the bridge normals are drawn block by block. Rows of 31 or fewer normals
# (the calibrated systems up to levels 3) keep whole batches.
_MC_BATCH = 100_000
_MC_NORMALS = 2**22


def mc_density_ratio(
    kernel: DiscreteReweightedKernel,
    params: PhysicalParams,
    x: float,
    xp: float,
    levels: int,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of rho_n(x, x'; beta) / rho_fp(x, x'; beta) for
    n = 2^levels - 1, sampling the chained-path representation directly:
    tent coefficients fill in the dyadic skeleton and one compressed copy of
    the kernel's bridge system lives in each of the 2^levels cells. Each
    batch of at most 2^22 normals draws its 2^levels - 1 tent normals per
    sample into buffers allocated once per call, and its bridge normals
    block by block into one reused buffer, continuing the same stream, so
    memory does not grow with the level. Returns (estimate, standard
    error); raises ValueError when x or x' is not finite or a path's time
    average of V is NaN or -inf. The time nodes are interior: V is never
    read at x or x'. The estimate and the sum of squared weights are
    refused by ``_checks.result`` unless finite and above 0, so an endpoint
    on a wall, where every weight is 0, is refused.
    """
    if not isinstance(kernel, DiscreteReweightedKernel):
        raise TypeError("mc_density_ratio needs a discrete reweighted kernel")
    _checks.finite("x", x)
    _checks.finite("x'", xp)
    # two samples at least, for a standard error
    samples = _checks.count("samples", samples, 2)
    _checks.seed(seed)
    system = kernel.system
    basis = path_basis(system, kernel.time_rule, levels)
    beta, sigma = params.beta, params.sigma
    ref = x + (xp - x) * basis.times
    rows = max(1, _WORK_UNIT // basis.times.size)
    batch = min(_MC_BATCH, samples, max(1, _MC_NORMALS // basis.values.shape[0]))
    # coefficients in the basis's row order: tents level by level, then the
    # (bridge, cell) grid
    tents = [np.empty((batch, 2 ** (lvl - 1))) for lvl in range(1, levels + 1)]
    bridge = np.empty((min(rows, batch), system.q * 2**levels))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        nb = min(batch, samples - done)
        for t in tents:
            rng.standard_normal(out=t[:nb])
        # the paths are built and weighed in blocks of about _WORK_UNIT points
        for r0 in range(0, nb, rows):
            r1 = min(r0 + rows, nb)
            # standard_normal fills in C order, so block draws continue the
            # stream of one whole-batch draw
            rng.standard_normal(out=bridge[: r1 - r0])
            coeff = np.hstack([t[r0:r1] for t in tents] + [bridge[: r1 - r0]])
            pts = _gaussian_path(coeff, basis.values)
            pts *= sigma
            pts += ref
            avg = np.asarray(kernel.potential.value(pts)) @ basis.weights
            # a NaN or -inf reaches the path average; +inf (a wall) weighs 0
            avg = _checks.potential(avg, "on a sampled path")
            avg *= -beta
            with np.errstate(under="ignore", over="ignore"):
                np.exp(avg, out=avg)
                total += float(avg.sum())
                total_sq += float(np.dot(avg, avg))
        done += nb
    at = f"at x = {x}, x' = {xp}"
    mean = _checks.result(f"Monte Carlo density ratio {at}", total / samples)
    _checks.result(f"sum of squared path weights {at}", total_sq)
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)
