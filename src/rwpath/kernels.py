"""Short-time density-matrix approximations.

Every kernel factorizes as rho0 = rho_fp * ratio, where rho_fp is the
free-particle density matrix and ratio is a potential-dependent average
along paths bridging x and x'. Four kinds are provided: the free particle,
the symmetrized kinetic/potential splitting (endpoint time average, no
Gaussian integral), and the continuous and discrete reweighted kernels
(tensor Gauss-Hermite average over the bridge coefficients).

The reweighted ``ratio`` works in fixed cache-sized units: chunks of pairs
times a fixed block of Gauss-Hermite nodes, about 64k points each, reusing
two buffers. Each pair's nodes are summed in an order set by the block
alone, so a pair's value is bit-identical however many pairs share the call
(chunk-invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential
from .processes import LambdaSystem, path_basis
from .quadrature import (
    Rule1D,
    composite_legendre_01,
    is_palindromic,
    tensor_gauss_hermite,
)

__all__ = [
    "PhysicalParams",
    "units_constant",
    "rho_fp",
    "ShortTimeKernel",
    "FreeParticleKernel",
    "TrotterKernel",
    "ContinuousReweightedKernel",
    "DiscreteReweightedKernel",
]

# Work unit of _ReweightedKernel.ratio: Gauss-Hermite nodes per block and
# elements (pairs x nodes) per unit, sized so a unit's buffers stay in L2.
_GH_BLOCK = 100
_WORK_UNIT = 65_536

# CODATA values: hbar in J s, atomic mass unit in kg, Boltzmann constant in
# J/K, angstrom in m.
_HBAR_SI = 1.054571817e-34
_AMU_SI = 1.66053906892e-27
_KB_SI = 1.380649e-23
_ANGSTROM_SI = 1e-10


def units_constant() -> float:
    """hbar^2 / (1 amu * 1 A^2 * k_B) expressed in kelvin.

    This is the single conversion needed to run the helium cage in
    kelvin/angstrom/amu units; in the dimensionless (hbar = m0 = 1) quartic
    setup the analogous constant is just 1.
    """
    return _HBAR_SI**2 / (_AMU_SI * _ANGSTROM_SI**2 * _KB_SI)


@dataclass(frozen=True)
class PhysicalParams:
    """Inverse temperature and particle constants; sigma is always derived.

    ``hbar`` and ``mass`` default to 1 (dimensionless units). For the
    kelvin/angstrom/amu system pass hbar = sqrt(units_constant()) and the
    mass in amu; beta is then in 1/K and sigma comes out in angstrom.
    """

    beta: float
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.hbar <= 0 or self.mass <= 0:
            raise ValueError("beta, hbar and mass must all be positive")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.hbar**2 * self.beta / self.mass)

    def with_beta(self, beta: float) -> "PhysicalParams":
        return PhysicalParams(beta, self.hbar, self.mass)


def rho_fp(params: PhysicalParams, x, xp):
    """Free-particle density matrix (2 pi sigma^2)^{-1/2} exp(-(x'-x)^2 / 2 sigma^2)."""
    s2 = params.sigma**2
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    out = np.exp(-((xp - x) ** 2) / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    return float(out) if out.ndim == 0 else out


class ShortTimeKernel:
    """Base class: subclasses implement ``ratio`` (rho0 / rho_fp)."""

    kind = "abstract"
    potential: Potential | None = None

    def ratio(self, params: PhysicalParams, x, xp):
        raise NotImplementedError

    def rho0(self, params: PhysicalParams, x, xp):
        """Kernel value rho0(x, x'; beta). Zero where the potential is +inf;
        a NaN from the potential inside its domain raises instead."""
        r = np.asarray(self.ratio(params, x, xp))
        if np.any(np.isnan(r)):
            raise FloatingPointError(
                "potential returned a non-finite value inside its domain"
            )
        out = rho_fp(params, x, xp) * r
        return float(out) if out.ndim == 0 else out


class FreeParticleKernel(ShortTimeKernel):
    kind = "free-particle"

    def __init__(self, potential: Potential | None = None):
        self.potential = potential

    def ratio(self, params, x, xp):
        shape = np.broadcast(np.asarray(x), np.asarray(xp)).shape
        return np.ones(shape) if shape else 1.0


class TrotterKernel(ShortTimeKernel):
    """Symmetrized splitting kernel: rho_fp * exp(-beta (V(x) + V(x'))/2).

    Equivalent to a reweighted kernel whose time average uses only the two
    endpoints with weights 1/2; it needs no Gaussian average because every
    bridge function vanishes at the endpoints.
    """

    kind = "trotter"

    def __init__(self, potential: Potential):
        self.potential = potential

    def ratio(self, params, x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        expo = -params.beta * 0.5 * (self.potential.value(x) + self.potential.value(xp))
        with np.errstate(under="ignore"):
            return np.exp(expo)


class _ReweightedKernel(ShortTimeKernel):
    """Shared machinery: tensor Gauss-Hermite average over bridge
    coefficients of exp(-beta * <V along path>)."""

    def __init__(
        self,
        system: LambdaSystem,
        potential: Potential,
        time_rule: Rule1D,
        gh_points: int = 10,
        _check_palindromic: bool = True,
    ):
        if _check_palindromic and not is_palindromic(time_rule, tol=1e-12):
            raise ValueError("time-average rule must be palindromic")
        self.system = system
        self.potential = potential
        self.time_rule = time_rule
        self.gh_points = int(gh_points)
        # cached per instance: the time nodes and the Gauss-Hermite
        # displacement table (rho0 is called ~M^2 times)
        basis = path_basis(system, time_rule)
        self._u = basis.times
        self._w = basis.weights
        nodes, weights = tensor_gauss_hermite(system.q, self.gh_points)
        self._gh_weights = weights
        self._disp = np.ascontiguousarray((nodes @ basis.values).T)  # (T, G)

    def ratio(self, params, x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        x, xp = np.broadcast_arrays(x, xp)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x).ravel()
        dxf = np.atleast_1d(xp).ravel() - xf
        beta = params.beta
        acc = np.zeros(xf.size)
        # the density vanishes where either argument sits on an infinite wall,
        # even when the interior time rule never samples the endpoints
        with np.errstate(invalid="ignore"):
            wall = ~(
                np.isfinite(np.asarray(self.potential.value(xf), dtype=float))
                & np.isfinite(np.asarray(self.potential.value(xf + dxf), dtype=float))
            )
        u, w = self._u, self._w
        sdisp = params.sigma * self._disp  # (T, G)
        ng = sdisp.shape[1]
        gblock = min(ng, _GH_BLOCK)
        pblock = max(1, _WORK_UNIT // gblock)
        # flat buffers reshaped per unit, so every unit is C-contiguous
        pts_buf = np.empty(min(pblock, xf.size) * gblock)
        avg_buf = np.empty_like(pts_buf)
        for p0 in range(0, xf.size, pblock):
            p1 = min(p0 + pblock, xf.size)
            ref = [(xf[p0:p1] + dxf[p0:p1] * u[t])[:, None] for t in range(u.size)]
            for g0 in range(0, ng, gblock):
                g1 = min(g0 + gblock, ng)
                shape = (p1 - p0, g1 - g0)
                pts = pts_buf[: shape[0] * shape[1]].reshape(shape)
                avg = avg_buf[: pts.size].reshape(shape)
                avg.fill(0.0)
                for t in range(u.size):
                    np.add(ref[t], sdisp[t, g0:g1], out=pts)
                    vt = self.potential.value(pts)
                    vt *= w[t]
                    avg += vt
                avg *= -beta
                with np.errstate(under="ignore"):
                    np.exp(avg, out=avg)
                avg *= self._gh_weights[g0:g1]
                # a row sum reduces each pair's nodes in an order fixed by the
                # block width alone, whatever the number of rows
                acc[p0:p1] += avg.sum(axis=1)
        acc[wall] = 0.0
        out = acc.reshape(x.shape) if not scalar else float(acc[0])
        return out


class ContinuousReweightedKernel(_ReweightedKernel):
    """Reweighted kernel with exact (densely resolved) time average; exists
    mainly to validate the discrete production kernel."""

    kind = "continuous-reweighted"

    def __init__(self, system, potential, time_rule: Rule1D | None = None, gh_points: int = 10):
        if time_rule is None:
            time_rule = composite_legendre_01(64, 8, sqrt_endpoints=True)
        super().__init__(system, potential, time_rule, gh_points, _check_palindromic=False)


class DiscreteReweightedKernel(_ReweightedKernel):
    """Reweighted kernel with a minimalist palindromic time-average rule;
    the production path for matrix propagation."""

    kind = "discrete-reweighted"
