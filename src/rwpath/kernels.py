"""Short-time density-matrix approximations.

Every kernel factorizes as rho0 = rho_fp * ratio, where rho_fp is the
free-particle density matrix and ratio is a potential-dependent average
along paths bridging x and x'. Three kinds are provided, each on a
potential: the symmetrized kinetic/potential splitting (endpoint time
average, no Gaussian integral; on V = 0 its ratio is exactly 1, the free
particle), and the continuous and discrete reweighted kernels (tensor
Gauss-Hermite average over the bridge coefficients). V at x or x' is a
number or +inf, a wall of density 0: ``ratio`` refuses NaN or -inf
there through ``_checks``. The kernel that makes a weight refuses it, through
``_checks.weights``, unless it is finite: NaN, met by a path between x and
x', as a NaN potential on that path, and inf (an overflow, or -inf on that
path) as an overflow; ``rho0`` is ratio times rho_fp, refused the same way.
A reweighted kernel refuses, when it is built, a bridge with no
parity under u -> 1 - u at its time nodes (``build_matrix`` mirrors its
matrix across the diagonal) or one that does not vanish at u = 0 and 1
(its paths would not end at x and x'), and, through ``_checks.budget``, a
Gauss-Hermite table over ``_MAX_TABLE_ENTRIES``; a ``ratio`` call over
``_MAX_RATIO_POINTS`` potential points is refused before it reads V.

The reweighted ``ratio`` works in fixed cache-sized units: chunks of pairs
times a fixed block of Gauss-Hermite nodes, about 64k points each, reusing
two buffers. Each pair's nodes are summed in an order set by the block
alone, so a pair's value is bit-identical however many pairs share the call
(chunk-invariant). A call hands its whole units to one worker per usable
core, on the caller and the pool (``_parallel``): worker k takes unit k,
then pulls the next free unit from one shared counter. A unit writes only
its own pairs, so the results are bit-identical for any worker count and any
schedule. A potential's ``value`` is therefore called from several threads
at once, so a custom potential must not mutate shared state.

Two shortcuts keep every bit: exponents below ``_EXP_ZERO``, where ``exp``
is exactly +0.0, are set instead of computed, and a Gauss-Hermite block
whose exponents all lie there adds nothing to its pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks, _parallel
from .potentials import Potential
from .processes import LambdaSystem, path_basis
from .quadrature import _EXACT_TIME_RULE, Rule1D, is_palindromic, tensor_gauss_hermite

__all__ = [
    "PhysicalParams",
    "units_constant",
    "rho_fp",
    "ShortTimeKernel",
    "TrotterKernel",
    "ContinuousReweightedKernel",
    "DiscreteReweightedKernel",
]

# Work unit of _ReweightedKernel.ratio: Gauss-Hermite nodes per block and
# elements (pairs x nodes) per unit, sized so a unit's buffers stay in L2.
_GH_BLOCK = 100
_WORK_UNIT = 65_536
# np.exp is exactly +0.0 below about -745.13 (half the smallest subnormal);
# ratio sets the lanes below this cut instead of computing them
_EXP_ZERO = -746.0
# Work a reweighted kernel may take on: entries of its Gauss-Hermite table,
# gh_points^q x time nodes (2^24 float64 values, 128 MiB; the largest in use,
# continuous order 4 at gh_points = 10, has 512,000), and potential points
# of one ratio call, pairs x table entries (the largest build in use, a
# helium order-4 rung, needs 63,001 x 4,000 = 2.52e8, 8.5x inside 2^31).
_MAX_TABLE_ENTRIES = 2**24
_MAX_RATIO_POINTS = 2**31

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
        for name in ("beta", "hbar", "mass"):
            _checks.positive(name, getattr(self, name))
        # sigma and rho_fp need sigma^2 as a positive float
        _checks.positive("sigma^2 = hbar^2 beta / mass", self.hbar * self.hbar * self.beta / self.mass)

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
    """Base class: a subclass sets ``potential`` and implements ``ratio``
    (rho0 / rho_fp). ``build_matrix`` probes the potential for mirror
    symmetry and refuses a kernel whose potential has no callable ``value``."""

    kind = "abstract"
    potential: Potential

    def ratio(self, params: PhysicalParams, x, xp):
        """rho0 / rho_fp at (x, x'), elementwise: the weight, 0 where V(x) or
        V(x') is +inf. A weight that is NaN raises ValueError, and one that
        overflows OverflowError, naming x and x' (``_checks.weights``)."""
        raise NotImplementedError

    def rho0(self, params: PhysicalParams, x, xp):
        """Kernel value rho0(x, x'; beta) = ratio * rho_fp, 0 where V(x) or
        V(x') is +inf, refused like ``ratio``'s weights unless finite."""
        out = _checks.weights(self.ratio(params, x, xp) * rho_fp(params, x, xp), x, xp)
        return float(out) if np.ndim(out) == 0 else out


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
        v = _checks.potential(self.potential.value(x), "at", x)
        vp = _checks.potential(self.potential.value(xp), "at", xp)
        with np.errstate(under="ignore", over="ignore"):
            return _checks.weights(np.exp(-params.beta * 0.5 * (v + vp)), x, xp)


class _ReweightedKernel(ShortTimeKernel):
    """Shared machinery: tensor Gauss-Hermite average over bridge
    coefficients of exp(-beta * <V along path>)."""

    def __init__(
        self,
        system: LambdaSystem,
        potential: Potential,
        time_rule: Rule1D,
        gh_points: int = 10,
    ):
        if not is_palindromic(time_rule, tol=1e-12):
            raise ValueError("time-average rule must be palindromic")
        self.system = system
        self.potential = potential
        self.time_rule = time_rule
        self.gh_points = _checks.count("gh_points", gh_points, 1)
        _checks.budget(
            f"gh_points = {self.gh_points} on {time_rule.points.size} time nodes",
            self.gh_points**system.q * time_rule.points.size, _MAX_TABLE_ENTRIES,
            "Gauss-Hermite table entries", "lower gh_points",
        )
        # cached per instance: the time nodes and the Gauss-Hermite
        # displacement table (rho0 is called ~M^2 times)
        basis = path_basis(system, time_rule)
        # the time nodes are interior, so the endpoints are read on their own
        ends = system.bridge_values(np.array([0.0, 1.0]))
        for k, (row, end) in enumerate(zip(basis.values, ends)):
            tol = 1e-10 * np.max(np.abs(row))
            miss = min(np.max(np.abs(row - row[::-1])), np.max(np.abs(row + row[::-1])))
            if not miss <= tol:  # NaN fails
                raise ValueError(f"bridge {k} is neither symmetric nor antisymmetric under u -> 1 - u "
                                 f"at the time nodes: off by {miss:.3g}, over 1e-10 of its largest value")
            miss = np.max(np.abs(end))
            if not miss <= tol:  # NaN fails
                raise ValueError(f"bridge {k} does not vanish at u = 0 and 1: {miss:.3g} there, "
                                 "over 1e-10 of its largest value at the time nodes")
        self._u = basis.times
        self._w = basis.weights
        nodes, weights = tensor_gauss_hermite(system.q, self.gh_points)
        self._gh_weights = weights
        self._disp = np.ascontiguousarray((nodes @ basis.values).T)  # (T, G)

    def ratio(self, params, x, xp):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        x, xp = np.broadcast_arrays(x, xp)
        _checks.budget(
            f"ratio on {x.size} pairs", x.size * self._disp.size, _MAX_RATIO_POINTS,
            "potential points", "use a coarser grid, fewer gh_points or a discrete kernel",
        )
        xf = np.atleast_1d(x).ravel()
        dxf = np.atleast_1d(xp).ravel() - xf
        acc = np.zeros(xf.size)
        # the density vanishes where either argument sits on an infinite wall,
        # even when the interior time rule never samples the endpoints
        with np.errstate(invalid="ignore"):
            wall = np.isposinf(_checks.potential(self.potential.value(xf), "at", xf))
            wall |= np.isposinf(_checks.potential(self.potential.value(xf + dxf), "at", xf + dxf))
        sdisp = params.sigma * self._disp  # (T, G)
        gblock = min(sdisp.shape[1], _GH_BLOCK)
        pblock = max(1, _WORK_UNIT // gblock)
        units = -(-xf.size // pblock)
        workers = max(1, min(_parallel.usable_cpus(), units))
        # worker k takes unit k, then pulls further units from one shared
        # counter until they run out; a unit writes only its own slice of acc
        shared = itertools.count(workers)
        # flat buffers reshaped per unit, so every unit is C-contiguous; the
        # caller allocates them all
        size = min(pblock, xf.size) * gblock
        bufs = [(np.empty(size), np.empty(size)) for _ in range(workers)]

        def run(k: int) -> None:
            self._ratio_units(
                params.beta, sdisp, xf, dxf, acc, pblock, gblock,
                itertools.chain((k,), shared), *bufs[k],
            )

        tasks = [_parallel.submit(run, k) for k in range(1, workers)]
        try:
            run(0)
        finally:
            _parallel.join(tasks)  # they write into acc: none runs on past the return
        acc[wall] = 0.0
        return _checks.weights(acc.reshape(x.shape) if x.ndim else float(acc[0]), x, xp)

    def _ratio_units(self, beta, sdisp, xf, dxf, acc, pblock, gblock, units, pts_buf, avg_buf):
        """Write acc[p0:p0 + pblock], p0 = unit * pblock, for each unit index
        drawn from ``units`` until one starts past the last pair; a unit is
        pblock pairs times gblock Gauss-Hermite nodes at a time."""
        u, w = self._u, self._w
        ng = sdisp.shape[1]
        masks = pts_buf.view(np.bool_)
        for unit in units:
            p0 = unit * pblock
            if p0 >= xf.size:
                return
            p1 = min(p0 + pblock, xf.size)
            ref = [(xf[p0:p1] + dxf[p0:p1] * u[t])[:, None] for t in range(u.size)]
            for g0 in range(0, ng, gblock):
                g1 = min(g0 + gblock, ng)
                shape = (p1 - p0, g1 - g0)
                n = shape[0] * shape[1]
                pts = pts_buf[:n].reshape(shape)
                avg = avg_buf[:n].reshape(shape)
                for t in range(u.size):
                    # pts = ref[t] + sdisp[t, g0:g1]; a broadcast copy and an
                    # in-place add are faster than one broadcast add
                    np.copyto(pts, sdisp[t, g0:g1])
                    pts += ref[t]
                    vt = self.potential.value(pts)
                    if t == 0:
                        np.multiply(vt, w[0], out=avg)
                    else:
                        vt *= w[t]
                        avg += vt
                avg *= -beta
                # exp is exactly +0.0 below _EXP_ZERO, so those lanes are set
                # rather than computed; the masks live in pts's bytes, free now
                low = masks[:n].reshape(shape)
                np.less(avg, _EXP_ZERO, out=low)
                if low.all():
                    # every term is +0.0, and adding +0.0 to acc is exact
                    continue
                high = masks[n : 2 * n].reshape(shape)
                np.logical_not(low, out=high)
                np.copyto(avg, 0.0, where=low)
                # an overflow is left to ratio's check of the weights
                with np.errstate(under="ignore", over="ignore"):
                    np.exp(avg, out=avg, where=high)
                    avg *= self._gh_weights[g0:g1]
                    # a row sum reduces each pair's nodes in an order fixed by
                    # the block width alone, whatever the number of rows
                    acc[p0:p1] += avg.sum(axis=1)


class ContinuousReweightedKernel(_ReweightedKernel):
    """Reweighted kernel with exact (densely resolved) time average; exists
    mainly to validate the discrete production kernel."""

    kind = "continuous-reweighted"

    def __init__(self, system, potential, gh_points: int = 10):
        super().__init__(system, potential, _EXACT_TIME_RULE, gh_points)


class DiscreteReweightedKernel(_ReweightedKernel):
    """Reweighted kernel with a minimalist palindromic time-average rule;
    the production path for matrix propagation."""

    kind = "discrete-reweighted"
