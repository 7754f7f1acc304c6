"""The kernel names, the benchmark systems and the one ladder run that
measures them.

``make_kernel`` and ``make_spec`` are the only code that turns a kernel name
into its kernel and its moment law. ``SYSTEMS`` holds one row per benchmark
system. ``ladder`` runs what every caller measures: an order-4 reference Z,
one convergence-order ladder per kernel family, and the splitting-kernel
constant against that reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from . import _checks
from .calibration import calibrated_system
from .kernels import (ContinuousReweightedKernel, DiscreteReweightedKernel, PhysicalParams,
                      ShortTimeKernel, TrotterKernel, units_constant)
from .moments import MomentSpec
from .potentials import Potential, harmonic, he_cage, quartic
from .processes import exact_brownian, finite_kernel
from .propagation import (DiagnosticsSeries, ReferenceZ, SpatialGrid, TrotterConstantSeries,
                          order_diagnostic, reference_z, trotter_constant)
from .quadrature import endpoint_trapezoid

__all__ = ["BenchmarkSystem", "SYSTEMS", "LadderResult", "make_kernel", "make_spec", "ladder"]


def make_kernel(name: str, potential: Potential, gh_points: int = 10) -> ShortTimeKernel:
    """The kernel ``name`` on ``potential``: 'trotter' (endpoint splitting),
    or the reweighted kernel of a calibrated family, which averages over
    ``gh_points`` Gauss-Hermite nodes per bridge coefficient."""
    gh_points = _checks.count("gh_points", gh_points, 1)
    if name == "trotter":
        return TrotterKernel(potential)
    system, rule = calibrated_system(name)
    if rule is None:
        return ContinuousReweightedKernel(system, potential, gh_points=gh_points)
    return DiscreteReweightedKernel(system, potential, rule, gh_points)


def make_spec(name: str) -> MomentSpec:
    """The moment law of the kernel ``name``: for 'trotter' the Brownian path
    at its two endpoints, for a calibrated family its path system averaged
    by its time rule (exact time integrals when it has none)."""
    if name == "trotter":
        # the splitting kernel samples the path at its endpoints only, where
        # every system's covariance is Brownian
        return MomentSpec(exact_brownian(), endpoint_trapezoid())
    system, rule = calibrated_system(name)
    return MomentSpec(finite_kernel(system), rule)


@dataclass(frozen=True)
class BenchmarkSystem:
    """A benchmark system: the maker of its potential, beta, its unit system
    (hbar, mass), its default grid window (a, b, cells), the top rung m of
    each family's convergence-order ladder, and the top rung of its
    splitting-constant ladder (None: not measured)."""

    make: Callable[[], Potential]
    beta: float
    hbar: float
    mass: float
    grid: tuple[float, float, int]
    tops: Mapping[str, int]
    constant_top: int | None = None

    def resolve(self, beta=None, a=None, b=None, cells=None):
        """(potential, PhysicalParams, SpatialGrid), with each of beta and
        the grid window given in place of the row's default."""
        d_a, d_b, d_cells = self.grid
        params = PhysicalParams(self.beta if beta is None else beta, self.hbar, self.mass)
        grid = SpatialGrid(d_a if a is None else a, d_b if b is None else b,
                           d_cells if cells is None else cells)
        return self.make(), params, grid


SYSTEMS = MappingProxyType({
    "quartic": BenchmarkSystem(
        quartic, 10.0, 1.0, 1.0, (-4.0, 4.0, 400),
        MappingProxyType({"trotter": 60, "order3-discrete": 60, "order4-discrete": 30}), 60),
    # kelvin/angstrom/amu, helium-4 at 5.11 K
    "he-cage": BenchmarkSystem(
        he_cage, 1.0 / 5.11, math.sqrt(units_constant()), 4.0, (0.0, he_cage().params["box"], 500),
        MappingProxyType({"order3-discrete": 40, "order4-discrete": 56}), 120),
    # the analytic cross-check, on which the paper runs no ladder
    "harmonic": BenchmarkSystem(
        lambda: harmonic(1.0), 10.0, 1.0, 1.0, (-5.0, 5.0, 300), MappingProxyType({})),
})


@dataclass(frozen=True)
class LadderResult:
    """The reference Z, one convergence-order series per family, and the
    splitting-kernel constant (None when not asked for)."""

    reference: ReferenceZ
    orders: Mapping[str, DiagnosticsSeries]
    constant: TrotterConstantSeries | None


def ladder(
    potential: Potential, params: PhysicalParams, grid: SpatialGrid, tops: Mapping[str, int],
    constant_top: int | None = None, n_ref: int | None = None, gh_points: int = 10,
) -> LadderResult:
    """Measure the families of ``tops`` against one order-4 reference Z.

    The reference reuses the ladder's order-4 discrete kernel when there is
    one. By default it takes n_ref = 8 (2 m + 1) steps, eight times the top
    rung, where m is the largest of ``tops``, or ``constant_top`` when
    ``tops`` is empty. Each family then runs the rungs m = 1..tops[family]
    (n = 2m + 1), and the splitting constant the rungs m = 1..constant_top.
    A top below 1 leaves an empty ladder, which its function refuses; the
    default n_ref of a negative top is negative, which reference_z refuses.
    """
    tops = {name: _checks.integer("m_top", m) for name, m in tops.items()}
    if constant_top is not None:
        constant_top = _checks.integer("constant_top", constant_top)
    kernels = {name: make_kernel(name, potential, gh_points) for name in tops}
    if n_ref is None:
        top = max(tops.values(), default=constant_top)
        if top is None:
            raise ValueError("a ladder with no rungs needs an explicit n_ref")
        n_ref = 8 * (2 * top + 1)
    k4 = kernels.get("order4-discrete") or make_kernel("order4-discrete", potential, gh_points)
    reference = reference_z(k4, params, grid, n_ref)
    orders = {
        name: order_diagnostic(kernel, params, grid, range(1, tops[name] + 1), reference.value)
        for name, kernel in kernels.items()
    }
    constant = None
    if constant_top is not None:
        n_list = [2 * m + 1 for m in range(1, constant_top + 1)]
        constant = trotter_constant(params, grid, potential, n_list, reference)
    return LadderResult(reference, orders, constant)
