"""Finite-dimensional Gaussian path systems and their covariance kernels.

A path system is a family of bridge functions that, together with the
reference profile u -> u, defines a finite Gaussian process standing in
for Brownian motion on [0, 1]. The module also provides the exact
Brownian reference kernel min(u, v) and `path_basis`, which evaluates a
system chained across 2^levels dyadic cells, under the dyadic tents, at
time nodes. The kernels, the moment sampler and the chained-path Monte
Carlo all build their paths from it, in one pinned product (`_gaussian_path`).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Sequence

import numpy as np

from . import _checks, _parallel
from .quadrature import Rule1D

Bridge = Callable[[np.ndarray], np.ndarray]


def _sqrt_env(u: np.ndarray) -> np.ndarray:
    # clip guards float noise just outside [0, 1]
    return np.sqrt(np.clip(u * (1.0 - u), 0.0, None))


@dataclass(frozen=True)
class LambdaSystem:
    """A family of bridge functions defining a finite Gaussian path process.

    The full process is a0 * u + sum_k a_k * bridge[k](u) with i.i.d.
    standard-normal coefficients; the reference profile is always u -> u.
    A reweighted kernel checks, when built, that each bridge function is
    symmetric or antisymmetric under u -> 1 - u at its time nodes and
    vanishes at u = 0 and 1.
    """

    bridge: tuple[Bridge, ...]
    _: KW_ONLY
    family: str = "custom"
    params: tuple[float, ...] = ()

    @property
    def q(self) -> int:
        return len(self.bridge)

    def bridge_values(self, u) -> np.ndarray:
        """Stack bridge-function values: shape (q,) + shape(u)."""
        u = np.asarray(u, dtype=float)
        return np.stack([f(u) for f in self.bridge])


def make_order3(alpha: float) -> LambdaSystem:
    """Two-bridge system whose free rotation rate ``alpha`` is calibrated to
    give a third-order short-time approximation.

    bridge[0](u) = sqrt(u(1-u)) cos(alpha (u - 1/2))   (symmetric)
    bridge[1](u) = sqrt(u(1-u)) sin(alpha (u - 1/2))   (antisymmetric)
    """
    _checks.finite("alpha", alpha)

    def lam1(u):
        u = np.asarray(u, dtype=float)
        return _sqrt_env(u) * np.cos(alpha * (u - 0.5))

    def lam2(u):
        u = np.asarray(u, dtype=float)
        return _sqrt_env(u) * np.sin(alpha * (u - 0.5))

    return LambdaSystem((lam1, lam2), family="order3", params=(float(alpha),))


def make_order4(alpha1: float, alpha2: float) -> LambdaSystem:
    """Three-bridge system calibrated to give a fourth-order approximation.

    bridge[0](u) = sqrt(3) u(1-u), and bridge[1], bridge[2] share the
    envelope r(u) = sqrt(u(1-u)(1 - 3u(1-u))) rotated by the odd phase
    alpha1 (u - 1/2) + alpha2 (u - 1/2)^3.
    """
    _checks.finite("alpha1", alpha1)
    _checks.finite("alpha2", alpha2)

    def lam1(u):
        u = np.asarray(u, dtype=float)
        return math.sqrt(3.0) * u * (1.0 - u)

    def phase(u):
        s = u - 0.5
        return alpha1 * s + alpha2 * s**3

    def renv(u):
        t = u * (1.0 - u)
        return np.sqrt(np.clip(t * (1.0 - 3.0 * t), 0.0, None))

    def lam2(u):
        u = np.asarray(u, dtype=float)
        return renv(u) * np.cos(phase(u))

    def lam3(u):
        u = np.asarray(u, dtype=float)
        return renv(u) * np.sin(phase(u))

    return LambdaSystem(
        (lam1, lam2, lam3), family="order4", params=(float(alpha1), float(alpha2))
    )


def make_custom(bridge: Sequence[Bridge]) -> LambdaSystem:
    """Wrap user-supplied bridge functions, verifying that each vanishes at
    u = 0 and u = 1; a reweighted kernel checks their parity, and their
    endpoints again, when it is built. A system that must skip this check
    is built as a ``LambdaSystem``.
    """
    bridge = tuple(bridge)
    for f in bridge:
        # written so that NaN fails
        if not np.all(np.abs(np.asarray(f(np.array([0.0, 1.0])), dtype=float)) <= 1e-12):
            raise ValueError("bridge functions must vanish at u = 0 and u = 1")
    return LambdaSystem(bridge)


@dataclass(frozen=True)
class CovarianceKernel:
    """Second-order law of a path process: exact Brownian (min kernel) when
    ``system`` is None, otherwise the finite kernel u v + sum_k bridge_k(u) bridge_k(v).
    """

    system: LambdaSystem | None = None

    @property
    def is_exact_brownian(self) -> bool:
        return self.system is None


def exact_brownian() -> CovarianceKernel:
    return CovarianceKernel(None)


def finite_kernel(system: LambdaSystem) -> CovarianceKernel:
    return CovarianceKernel(system)


def covariance(kernel: CovarianceKernel, u, v):
    """Covariance C(u, v) of the process at times u, v in [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # written so that NaN fails
    if not (np.all((u >= 0.0) & (u <= 1.0)) and np.all((v >= 0.0) & (v <= 1.0))):
        raise ValueError("covariance times must lie in [0, 1]")
    if kernel.is_exact_brownian:
        out = np.minimum(u, v)
    else:
        sysm = kernel.system
        out = u * v
        for f in sysm.bridge:
            out = out + f(u) * f(v)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PathBasis:
    """The bridge part of a finite Gaussian path at fixed time nodes.

    With K i.i.d. standard-normal coefficients ``a``, the path's bridge part
    at ``times`` is ``a @ values``. The rows of ``values`` (K, T) are the
    2^levels - 1 dyadic tents, level by level, followed by the q bridge
    functions compressed into each of the 2^levels dyadic cells and scaled
    by 2^(-levels/2), in (bridge, cell) row-major order. ``times`` and
    ``weights`` repeat the time rule in every cell, so ``f(path) @ weights``
    is the time average of ``f`` along the chained path.
    """

    values: np.ndarray
    times: np.ndarray
    weights: np.ndarray


# Entries the basis table may hold: 2^24 float64 values, 128 MiB. The table
# has (2^levels (q + 1) - 1) x 2^levels nq entries, so it grows fourfold per
# level; the order-4 system (q = 3, 4 nodes) reaches the budget at levels 10.
_MAX_BASIS_ENTRIES = 2**24


def path_basis(system: LambdaSystem, rule: Rule1D, levels: int = 0) -> PathBasis:
    """Chain ``system`` across 2^levels dyadic cells of [0, 1] and evaluate
    the basis at the copies of ``rule``'s nodes; at ``levels = 0`` the rows
    are exactly ``system.bridge_values(rule.points)``. Raises ValueError,
    before allocating, when the table would exceed ``_MAX_BASIS_ENTRIES``.
    """
    levels = _checks.count("levels", levels, 0)
    ncell = 2**levels
    nq = rule.points.size
    entries = (ncell - 1 + system.q * ncell) * ncell * nq
    _checks.budget(f"levels = {levels}", entries, _MAX_BASIS_ENTRIES, "path basis entries",
                   "lower levels")
    times = (np.tile(rule.points, ncell) + np.repeat(np.arange(ncell), nq)) / ncell
    weights = np.tile(rule.weights, ncell) / ncell
    values = np.zeros((ncell - 1 + system.q * ncell, times.size))
    cols = np.arange(times.size)
    for lvl in range(1, levels + 1):
        # the level's 2^(lvl-1) tents rise to 2^(-(lvl+1)/2) mid-cell
        ncl = 2 ** (lvl - 1)
        idx = np.minimum((ncl * times).astype(int), ncl - 1)
        t = ncl * times - idx
        values[ncl - 1 + idx, cols] = 2.0 ** (-(lvl - 1) / 2.0) * np.where(t <= 0.5, t, 1.0 - t)
    bridges = 2.0 ** (-levels / 2.0) * system.bridge_values(rule.points)  # (q, nq)
    for j in range(ncell):
        values[ncell - 1 + j :: ncell, j * nq : (j + 1) * nq] = bridges
    return PathBasis(values, times, weights)


def _gaussian_path(coeff: np.ndarray, table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Finite Gaussian paths ``coeff @ table``, into ``out`` when given, on
    one BLAS thread: their bits depend on the product's shape alone."""
    with _parallel.one_blas_thread():
        return np.matmul(coeff, table, out=out)


def variance_identity_error(system: LambdaSystem) -> float:
    """Maximum deviation of u^2 + sum_k bridge_k(u)^2 from u over 1000
    uniform samples of [0, 1]; zero (to rounding) for valid reweighted
    systems.
    """
    u = np.linspace(0.0, 1.0, 1000)
    return float(np.max(np.abs(covariance(finite_kernel(system), u, u) - u)))
