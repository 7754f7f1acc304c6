"""One hostile-input row per public name of rwpath.

Each row holds a valid call whose keyword arguments stand for the numeric
parameters, and the values each parameter must refuse: NaN, +-inf, 0, a
negative value, a fraction and a bool wherever they are invalid. A refusal is
a ValueError whose message starts with the parameter's name, as
``rwpath._checks`` words it, followed by the words of the rule when the
values are a ``Refused`` set. A row may also list other refused calls with
their messages, among them a potential that is NaN or -inf where the call
reads it, or NaN on a path between two points it names, as
``rwpath._checks.potential`` words it, and the result an
elementwise function gives for NaN, which it passes through instead of
refusing. A call whose predicted size is over its budget is refused, as
``rwpath._checks.budget`` words it, before anything is allocated. Records
that a public function returns, and the base classes,
take no numeric input of their own; their rows hold a valid construction
and say so.

A second table holds valid inputs whose result is not representable: a Z,
Boltzmann sum, density ratio or kernel weight that overflows or underflows
to 0 must be refused, as ``rwpath._checks.result`` words it, not returned.
"""

import ast
import dataclasses
import inspect
import math
import re
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import rwpath
from rwpath import (
    FAMILIES,
    SYSTEMS,
    CalibrationError,
    CalibrationResult,
    ContinuousReweightedKernel,
    CovarianceKernel,
    DiagnosticsSeries,
    DiscreteReweightedKernel,
    KernelMatrix,
    LadderResult,
    LambdaSystem,
    MomentIndex,
    MomentSpec,
    OrderReport,
    PathBasis,
    PhysicalParams,
    Potential,
    ReferenceZ,
    Rule1D,
    ShortTimeKernel,
    SpatialGrid,
    TrotterConstantSeries,
    TrotterKernel,
    brownian_moment,
    build_matrix,
    calibrate,
    calibrated_system,
    composite_legendre_01,
    continuous_spec,
    covariance,
    custom_potential,
    discrete_spec,
    dvr_eigenvalues,
    dvr_partition_function,
    endpoint_trapezoid,
    enumerate_indices,
    exact_brownian,
    finite_kernel,
    gauss_hermite,
    gauss_legendre_01,
    harmonic,
    he_cage,
    integrate_01,
    is_palindromic,
    ladder,
    make_custom,
    make_kernel,
    make_order3,
    make_order4,
    make_spec,
    matrix_power,
    mc_density_ratio,
    mc_moment_oracle,
    moment,
    nmm_density_ratio,
    order_diagnostic,
    partition_function,
    path_basis,
    quartic,
    reference_z,
    residual_order3,
    residual_order4,
    rho_fp,
    sample_spec_moments,
    tensor_gauss_hermite,
    trotter_constant,
    units_constant,
    variance_identity_error,
    verify_order,
)
from rwpath import _checks, cli, kernels


class Refused(tuple):
    """Values that one rule refuses, and the words after "<name> must " that
    its refusal starts with."""

    def __new__(cls, words: str, values):
        self = super().__new__(cls, values)
        self.words = words
        return self


NAN, INF = math.nan, math.inf
FINITE = Refused("be finite, got", (NAN, INF, -INF, True))
POSITIVE = Refused("be finite and positive, got", (*FINITE, 0.0, -1.0))
# an integer of any sign
INTEGER = Refused("be an integer, got", (NAN, INF, -INF, 0.5, 1.0, True, np.True_))


def count(low: int) -> Refused:
    """What a count of at least ``low`` refuses: NaN, +-inf, every integer
    from -1 up to ``low`` - 1, a fraction, an integral float and the bools."""
    return Refused(f"be an integer >= {low}, got",
                   (NAN, INF, -INF, *range(-1, low), low + 0.5, float(low + 1), True, np.True_))


class Row(NamedTuple):
    call: Callable  # the valid call; keywords replace its numeric arguments
    hostile: dict = {}  # argument -> values it refuses
    labels: dict = {}  # argument -> the name its refusal starts with, if not its own
    refused: tuple = ()  # (message pattern, call) of other refused calls
    at_nan: dict = {}  # elementwise argument -> the result at NaN
    note: str = ""


SYS4, RULE4 = calibrated_system("order4-discrete")
SPEC4 = discrete_spec(finite_kernel(SYS4), RULE4)
EB = continuous_spec(exact_brownian())
IDX = MomentIndex(1, (2, 0))
P = PhysicalParams(beta=10.0)
G = SpatialGrid(-4.0, 4.0, 40)
TK = TrotterKernel(quartic())
K4 = DiscreteReweightedKernel(SYS4, quartic(), RULE4, gh_points=4)
REF = reference_z(K4, P, G, 127)
SERIES = order_diagnostic(TK, P, G, [1, 2, 3], REF.value)
# a spec with a time rule samples at its nodes, whatever the truncation
TIME_RULE_TRUNCATION = r"^truncation applies only to exact time integrals, not to a time rule$"
RECORD = "a result record: its fields were checked by the function that filled it"


def tent(u):
    return np.minimum(u, 1.0 - u)


def half_square(bad, where):
    """The value function of 0.5 x^2, but ``bad`` where ``where(x)`` holds."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.where(where(x), bad, 0.5 * x * x)

    return value


def kernel4(value):
    return DiscreteReweightedKernel(SYS4, custom_potential(value, np.sign), RULE4, gh_points=4)


def trotter(value):
    return TrotterKernel(custom_potential(value, np.sign))


def continuous4(value):
    return ContinuousReweightedKernel(SYS4, custom_potential(value, np.sign), gh_points=2)


def at_zero(x):
    return x == 0.0


def inside(x):
    # inside the paths between x = 0 and x' = 0.5, away from their ends
    return (0.05 < x) & (x < 0.45)


P1 = PhysicalParams(beta=1.0)
# the grid holds x = 0; NaN or -inf there is refused wherever V(0) is read
G8 = SpatialGrid(-2.0, 2.0, 8)


def skew(u):
    # vanishes at both ends, but has no parity under u -> 1 - u
    u = np.asarray(u, dtype=float)
    return u * (1.0 - u) * (u - 0.3)


NO_PARITY = LambdaSystem((skew,))


def no_parity(off: str) -> str:
    return (r"^bridge 0 is neither symmetric nor antisymmetric under u -> 1 - u at the time nodes: "
            rf"off by {off}, over 1e-10 of its largest value$")


# symmetric, but its paths do not end at x and x'
NO_ENDS = LambdaSystem((lambda u: np.full(np.shape(u), 0.3),))
OPEN_ENDS = (r"^bridge 0 does not vanish at u = 0 and 1: 0\.3 there, "
             r"over 1e-10 of its largest value at the time nodes$")


class NoPotential(ShortTimeKernel):
    """The Trotter kernel of V = 0.3 x, with no potential to probe: filled
    as mirror-symmetric, its Z_3 on 80 cells of [-4, 4] at beta = 1 would
    be 5.475, against 3.630 from TrotterKernel on V = 0.3 x."""

    kind = "no-potential"

    def ratio(self, params, x, xp):
        return np.exp(-params.beta * (0.3 * np.asarray(x) + 0.3 * np.asarray(xp)) / 2)


class NonePotential(NoPotential):
    """NoPotential with its potential set to None, which has no value to probe."""

    potential = None


# the harmonic row with a coarse grid, where the order-4 reference density
# is above 0 at every grid point
HARMONIC = SYSTEMS["harmonic"].resolve(2.0, -6.0, 6.0, 80)


def nan_slope(where):
    """trotter_constant on the harmonic row, with V' NaN where ``where(x)``
    holds."""
    pot, params, grid = HARMONIC

    def deriv1(x):
        return np.where(where(np.asarray(x, dtype=float)), NAN, pot.deriv1(x))

    reference = reference_z(make_kernel("order4-discrete", pot), params, grid, 88)
    return trotter_constant(params, grid, dataclasses.replace(pot, deriv1=deriv1), [3, 5], reference)


ROWS = {
    # quadrature
    "Rule1D": Row(
        lambda points=(0.25, 0.75), weights=(0.5, 0.5): Rule1D(points, weights),
        {"points": Refused("be strictly increasing and finite",
                           ((NAN, 0.75), (0.25, INF), (0.75, 0.25), (0.5, 0.2))),
         "weights": Refused("be positive and finite",
                            ((NAN, 0.5), (0.5, INF), (0.0, 0.5), (-0.5, 0.5), (0.5, NAN), (0.5, -0.5)))},
        # a one-point rule, whose increment check is vacuous, and a middle entry
        refused=((r"^points must be strictly increasing and finite", lambda: Rule1D((NAN,), (1.0,))),
                 (r"^points must be strictly increasing and finite", lambda: Rule1D((INF,), (1.0,))),
                 (r"^points must be strictly increasing and finite",
                  lambda: Rule1D((0.2, NAN, 0.9), (0.3, 0.3, 0.4))),
                 (r"^points must be strictly increasing and finite",
                  lambda: Rule1D((0.2, INF, 0.9), (0.3, 0.3, 0.4)))),
        note="array arguments: every entry finite, points increasing, weights positive",
    ),
    "composite_legendre_01": Row(
        lambda cells=4, panel=2: composite_legendre_01(cells, panel),
        {"cells": count(1), "panel": count(1)},
    ),
    "endpoint_trapezoid": Row(lambda: endpoint_trapezoid()),
    "gauss_hermite": Row(lambda p=3: gauss_hermite(p), {"p": count(1)}),
    "gauss_legendre_01": Row(lambda p=3: gauss_legendre_01(p), {"p": count(1)}),
    "integrate_01": Row(
        lambda: integrate_01(gauss_legendre_01(2), np.square),
        refused=((r"^integrate_01 expects", lambda: integrate_01(gauss_hermite(2), np.square)),
                 (r"^integrate_01 expects", lambda: integrate_01(gauss_hermite(4), lambda u: u))),
        note="sums f at the rule's points; a NaN from f is its own result",
    ),
    "is_palindromic": Row(
        lambda tol=1e-14: is_palindromic(gauss_legendre_01(2), tol), {"tol": FINITE},
        note="tol = 0 asks for exact symmetry; a negative tol finds none",
    ),
    "tensor_gauss_hermite": Row(
        lambda q=2, p=3: tensor_gauss_hermite(q, p), {"q": count(1), "p": count(1)}
    ),
    # processes
    "CovarianceKernel": Row(lambda: CovarianceKernel(SYS4), note="holds a system; no numbers"),
    "LambdaSystem": Row(
        lambda: LambdaSystem((tent,)),
        note="built directly it skips make_custom's endpoint check; the reweighted kernels check again",
    ),
    "PathBasis": Row(lambda: PathBasis(np.ones((1, 2)), np.zeros(2), np.ones(2)), note=RECORD),
    "covariance": Row(
        lambda u=0.25, v=0.5: covariance(exact_brownian(), u, v),
        {"u": (NAN, INF, -INF, -0.5, 1.5), "v": (NAN, INF, -INF, -0.5, 1.5)},
        {"u": "covariance times", "v": "covariance times"},
        note="elementwise over arrays of times in [0, 1]",
    ),
    "exact_brownian": Row(lambda: exact_brownian()),
    "finite_kernel": Row(lambda: finite_kernel(SYS4)),
    "make_custom": Row(
        lambda: make_custom([tent]),
        refused=((r"^bridge functions must vanish at u = 0 and u = 1$", lambda: make_custom([np.cos])),
                 (r"^bridge functions must vanish at u = 0 and u = 1$",
                  lambda: make_custom([lambda u: u * NAN]))),
        note="a bridge's parity is checked by the reweighted kernels, at their time nodes",
    ),
    "make_order3": Row(lambda alpha=1.0: make_order3(alpha), {"alpha": FINITE}),
    "make_order4": Row(
        lambda alpha1=1.0, alpha2=1.0: make_order4(alpha1, alpha2),
        {"alpha1": FINITE, "alpha2": FINITE},
    ),
    "path_basis": Row(
        lambda levels=1: path_basis(SYS4, RULE4, levels), {"levels": count(0)},
        # levels 10 holds 16,773,120 entries
        refused=((r"^levels = 11 needs 67100672 path basis entries, over the budget of 16777216; "
                  r"lower levels$", lambda: path_basis(SYS4, RULE4, 11)),),
    ),
    "variance_identity_error": Row(lambda: variance_identity_error(SYS4)),
    # moments
    "MomentIndex": Row(
        lambda mu=1, j=(2, 0): MomentIndex(mu, j),
        {"mu": count(1), "j": ((-2, 2), (NAN, 1), (0.5, 0.75), (True, 0), (2.0, 0))},
        {"j": "multiplicity"},
        refused=((r"^index must have length", lambda: MomentIndex(1, (2,))),
                 (r"^weighted multiplicities", lambda: MomentIndex(1, (1, 1))),
                 (r"^weighted multiplicities", lambda: MomentIndex(2, (1, 0, 0, 0)))),
    ),
    "MomentSpec": Row(
        lambda: MomentSpec(exact_brownian(), endpoint_trapezoid()),
        refused=((r"^discrete time-average weights",
                  lambda: MomentSpec(exact_brownian(), Rule1D((0.5,), (0.5,)))),
                 (r"^discrete time-average points",
                  lambda: MomentSpec(exact_brownian(), Rule1D((0.5, 2.0), (0.5, 0.5))))),
    ),
    "OrderReport": Row(lambda: OrderReport(1, 1e-9, ()), note=RECORD),
    "brownian_moment": Row(lambda: brownian_moment(IDX)),
    "continuous_spec": Row(lambda: continuous_spec(exact_brownian())),
    "discrete_spec": Row(lambda: discrete_spec(exact_brownian(), endpoint_trapezoid())),
    "enumerate_indices": Row(lambda mu=2: enumerate_indices(mu), {"mu": count(1)}),
    "mc_moment_oracle": Row(
        lambda samples=100, truncation=None, seed=0: mc_moment_oracle(EB, IDX, samples, truncation, seed),
        {"samples": count(2), "truncation": count(1), "seed": count(0)},
        refused=((r"^truncation must be >= 50",
                  lambda: mc_moment_oracle(EB, IDX, 100, truncation=10)),
                 (TIME_RULE_TRUNCATION, lambda: mc_moment_oracle(SPEC4, IDX, 100, truncation=300))),
    ),
    "moment": Row(
        lambda: moment(EB, IDX),
        refused=((r"^this moment needs \d+ quadrature points, over the budget",
                  lambda: moment(EB, MomentIndex.from_multiplicities(
                      17, {1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}))),),
    ),
    "sample_spec_moments": Row(
        lambda samples=100, truncation=None, max_power=2, seed=0: sample_spec_moments(
            EB, samples, truncation, seed, max_power),
        {"samples": count(1), "truncation": count(1), "max_power": count(1), "seed": count(0)},
        refused=((r"^truncation must be >= 50", lambda: sample_spec_moments(EB, 100, 10)),
                 (r"^truncation must be an integer",
                  lambda: sample_spec_moments(SPEC4, 100, truncation=50.7)),
                 (r"^truncation must be an integer",
                  lambda: sample_spec_moments(EB, 100, truncation=50.7)),
                 (TIME_RULE_TRUNCATION, lambda: sample_spec_moments(SPEC4, 1000, truncation=300)),
                 (TIME_RULE_TRUNCATION, lambda: sample_spec_moments(
                     MomentSpec(exact_brownian(), endpoint_trapezoid()), 100, truncation=300))),
    ),
    "verify_order": Row(
        lambda nu=1, tol=None: verify_order(EB, nu, tol), {"nu": count(1), "tol": POSITIVE}
    ),
    # calibration
    "CalibrationError": Row(lambda: CalibrationError("no root", (0.5,), 1.0), note=RECORD),
    "CalibrationResult": Row(lambda: CalibrationResult("order3-discrete", (1.0,), 0.0, 1), note=RECORD),
    "FAMILIES": Row(lambda: FAMILIES, note="a tuple of family names, not a function"),
    "calibrate": Row(
        lambda: calibrate("order3-discrete"),
        refused=((r"^unknown family 'bogus'", lambda: calibrate("bogus")),),
    ),
    "calibrated_system": Row(
        lambda: calibrated_system("order3-discrete"),
        refused=((r"^unknown family 'bogus'", lambda: calibrated_system("bogus")),),
    ),
    "residual_order3": Row(lambda alpha=1.0: residual_order3(alpha), {"alpha": FINITE}),
    "residual_order4": Row(
        lambda alpha1=1.0, alpha2=1.0: residual_order4(alpha1, alpha2),
        {"alpha1": FINITE, "alpha2": FINITE},
    ),
    # potentials
    "Potential": Row(
        lambda x=0.5: Potential("custom", np.abs, np.sign, params={}).value(x),
        at_nan={"x": NAN},
        note="value is elementwise and passes NaN through",
    ),
    "custom_potential": Row(
        lambda x=0.5: custom_potential(np.abs, np.sign).value(x),
        at_nan={"x": NAN},
        note="wraps user code; a wall is where its value is +inf",
    ),
    "harmonic": Row(
        lambda omega=1.0, mass=1.0, x=0.5: harmonic(omega, mass).value(x),
        {"omega": POSITIVE, "mass": POSITIVE},
        at_nan={"x": NAN},
    ),
    "he_cage": Row(
        lambda eps=10.22, sigma_lj=2.556, box=7.153, x=3.0: he_cage(eps, sigma_lj, box).value(x),
        {"eps": POSITIVE, "sigma_lj": POSITIVE, "box": POSITIVE},
        at_nan={"x": NAN},
    ),
    "quartic": Row(lambda x=0.5: quartic().value(x), at_nan={"x": NAN}),
    # kernels
    "ContinuousReweightedKernel": Row(
        lambda gh_points=2: ContinuousReweightedKernel(SYS4, quartic(), gh_points=gh_points),
        {"gh_points": count(1)},
        # 32^3 Gauss-Hermite nodes on 512 time nodes fill the budget exactly
        refused=((r"^gh_points = 33 on 512 time nodes needs 18399744 Gauss-Hermite table entries, "
                  r"over the budget of 16777216; lower gh_points$",
                  lambda: ContinuousReweightedKernel(SYS4, quartic(), gh_points=33)),
                 (no_parity(r"0\.0962"), lambda: ContinuousReweightedKernel(NO_PARITY, quartic())),
                 (OPEN_ENDS, lambda: ContinuousReweightedKernel(NO_ENDS, quartic())),
                 (r"^potential is nan on a path between x = 0\.0, x' = 0\.5$",
                  lambda: continuous4(half_square(NAN, inside)).ratio(P1, 0.0, 0.5))),
    ),
    "DiscreteReweightedKernel": Row(
        lambda gh_points=2: DiscreteReweightedKernel(SYS4, quartic(), RULE4, gh_points),
        {"gh_points": count(1)},
        refused=((r"^time-average rule must be palindromic", lambda: DiscreteReweightedKernel(
            SYS4, quartic(), Rule1D((0.2, 0.5), (0.5, 0.5)))),
                 (r"^time-average rule must be palindromic", lambda: DiscreteReweightedKernel(
                     SYS4, quartic(), Rule1D((0.2, 0.5, 0.9), (0.3, 0.3, 0.4)))),
                 # its interior time nodes never read V(0), its wall test does
                 (r"^potential is nan at x = 0\.0$",
                  lambda: kernel4(half_square(NAN, at_zero)).rho0(P1, 0.0, 0.5)),
                 # K4's table holds 4^3 x 4 = 256 entries, so 2^23 pairs fill the budget
                 (r"^ratio on 8388609 pairs needs 2147483904 potential points, over the budget of "
                  r"2147483648; use a coarser grid, fewer gh_points or a discrete kernel$",
                  lambda: K4.ratio(P, np.broadcast_to(0.0, 2**23 + 1), 0.0)),
                 (no_parity(r"0\.0752"),
                  lambda: DiscreteReweightedKernel(NO_PARITY, quartic(), gauss_legendre_01(4))),
                 (OPEN_ENDS, lambda: DiscreteReweightedKernel(NO_ENDS, quartic(), gauss_legendre_01(4))),
                 # the endpoints are read and pass, so the NaN lies on a path between them;
                 # ratio refuses it before rho0 multiplies by rho_fp(0, 0.5), 0 at beta = 1e-4
                 *((r"^potential is nan on a path between x = 0\.0, x' = 0\.5$",
                    lambda beta=beta: kernel4(half_square(NAN, inside)).rho0(
                        PhysicalParams(beta), 0.0, 0.5))
                   for beta in (1.0, 1e-4)),
                 (r"^potential is nan on a path between x = 0\.0, x' = 0\.5$",
                  lambda: kernel4(half_square(NAN, inside)).ratio(P1, 0.0, 0.5))),
    ),
    "PhysicalParams": Row(
        lambda beta=1.0, hbar=1.0, mass=1.0: PhysicalParams(beta, hbar, mass),
        {"beta": POSITIVE, "hbar": POSITIVE, "mass": POSITIVE},
        # sigma^2 overflows, or underflows to 0
        refused=((r"^sigma\^2 = hbar\^2 beta / mass must be finite and positive, got inf$",
                  lambda: PhysicalParams(1.0, hbar=1e200)),
                 (r"^sigma\^2 = hbar\^2 beta / mass must be finite and positive, got 0\.0$",
                  lambda: PhysicalParams(1.0, hbar=1e-200))),
    ),
    "ShortTimeKernel": Row(lambda: ShortTimeKernel(), note="abstract base class"),
    "TrotterKernel": Row(
        lambda: TrotterKernel(quartic()),
        refused=((r"^potential is nan at x = 0\.0$",
                  lambda: trotter(half_square(NAN, lambda x: abs(x) < 0.1)).rho0(P1, 0.0, 0.0)),
                 (r"^potential is -inf at x = 0\.0$",
                  lambda: trotter(half_square(-INF, at_zero)).rho0(P1, 0.0, 0.5)),
                 # the splitting kernel reads V at x and x' only, so that is where its NaN and -inf lie
                 (r"^potential is nan at x = 0\.0$",
                  lambda: trotter(half_square(NAN, at_zero)).ratio(P1, 0.0, 0.5)),
                 (r"^potential is -inf at x = 0\.0$",
                  lambda: trotter(half_square(-INF, at_zero)).ratio(P1, 0.0, 0.5))),
    ),
    "rho_fp": Row(
        lambda x=0.0, xp=0.5: rho_fp(P, x, xp),
        at_nan={"x": NAN, "xp": NAN},
        note="elementwise: passes NaN through",
    ),
    "units_constant": Row(lambda: units_constant()),
    # propagation
    "DiagnosticsSeries": Row(lambda: DiagnosticsSeries(**vars(SERIES)), note=RECORD),
    "KernelMatrix": Row(lambda: KernelMatrix(np.eye(2), G, 1.0, 0, "trotter"), note=RECORD),
    "ReferenceZ": Row(lambda: ReferenceZ(**vars(REF)), note=RECORD),
    "TrotterConstantSeries": Row(
        lambda: TrotterConstantSeries(np.ones(1), np.ones(1), np.ones(1), 1.0, 1.0, 0.0),
        note=RECORD,
    ),
    "SpatialGrid": Row(
        lambda a=-1.0, b=1.0, cells=4: SpatialGrid(a, b, cells),
        {"a": FINITE, "b": FINITE, "cells": count(2)},
        {"a": "grid a", "b": "grid b", "cells": "grid cells"},
        refused=((r"^grid requires finite a < b", lambda: SpatialGrid(1.0, 0.0, 4)),
                 # the squared width underflows to 0, or overflows
                 (r"^squared grid width \(b - a\)\^2 must be finite and positive, got 0\.0$",
                  lambda: SpatialGrid(0.0, 1e-300, 4)),
                 (r"^squared grid width \(b - a\)\^2 must be finite and positive, got inf$",
                  lambda: SpatialGrid(-1e300, 1e300, 4))),
    ),
    "build_matrix": Row(
        lambda n=1: build_matrix(TK, P, G, n), {"n": count(0)},
        refused=((r"^potential is nan at x = 0\.0$", lambda: build_matrix(kernel4(
            half_square(NAN, at_zero)), P1, G8, 3)),
                 (r"^potential is -inf at x = 0\.0$",
                  lambda: build_matrix(trotter(half_square(-INF, at_zero)), P1, G8, 3)),
                 # the first pair whose x reads the NaN is the last pair, (30, 30)
                 (r"^potential is nan at x = 3\.0$", lambda: build_matrix(
                     trotter(half_square(NAN, lambda x: x > 2.9)), P1, SpatialGrid(-3.0, 3.0, 30), 0)),
                 # 2048 points fill the budget exactly
                 (r"^a kernel matrix on 2049 grid points needs 4198401 matrix entries, over the budget "
                  r"of 4194304; use fewer grid cells$",
                  lambda: build_matrix(TK, P, SpatialGrid(-4.0, 4.0, 2048), 0)),
                 # the poisoned pair on the mirrored and the plain layout
                 (r"^potential is nan on a path between x = -2\.0, x' = -0\.5999999999999996$",
                  lambda: build_poisoned(quartic().value, NAN)),
                 (r"^potential is nan on a path between x = -2\.0, x' = -0\.5999999999999996$",
                  lambda: build_poisoned(tilted_quartic, NAN)),
                 (r"^NoPotential sets no potential, which build_matrix probes for mirror symmetry$",
                  lambda: build_matrix(NoPotential(), P1, SpatialGrid(-4.0, 4.0, 80), 3)),
                 (r"^NonePotential sets no potential, which build_matrix probes for mirror symmetry$",
                  lambda: build_matrix(NonePotential(), P1, SpatialGrid(-4.0, 4.0, 8), 3))),
    ),
    "dvr_eigenvalues": Row(
        lambda: dvr_eigenvalues(quartic(), P, G),
        refused=((r"^potential is nan at grid point", lambda: dvr_eigenvalues(
            custom_potential(lambda x: x * NAN, np.sign), P, G)),
                 (r"^potential is -inf at grid point x = 0\.0$", lambda: dvr_eigenvalues(
                     custom_potential(half_square(-INF, at_zero), np.sign), P1, G8)),
                 # 2048 interior points fill the budget exactly
                 (r"^the grid Hamiltonian on 2049 interior points needs 4198401 matrix entries, over "
                  r"the budget of 4194304; use fewer grid cells$",
                  lambda: dvr_eigenvalues(quartic(), P, SpatialGrid(-4.0, 4.0, 2050)))),
    ),
    "dvr_partition_function": Row(lambda: dvr_partition_function(quartic(), P, G)),
    "matrix_power": Row(lambda power=2: matrix_power(np.eye(3), power), {"power": count(1)}),
    "mc_density_ratio": Row(
        lambda x=0.0, xp=0.0, levels=1, samples=100, seed=0: mc_density_ratio(
            K4, P, x, xp, levels, samples, seed),
        {"x": FINITE, "xp": FINITE, "levels": count(0), "samples": count(2), "seed": count(0)},
        {"xp": "x'"},
        # shifting the energy zero cannot mend these, so they are not overflows
        refused=((r"^potential is nan on a sampled path$", lambda: mc_density_ratio(
            kernel4(half_square(NAN, lambda x: x > 0.5)), P1, 0.0, 0.0, 2, 1000)),
                 (r"^potential is -inf on a sampled path$", lambda: mc_density_ratio(
                     kernel4(half_square(-INF, lambda x: x > 0.5)), P1, 0.0, 0.0, 2, 1000))),
    ),
    "nmm_density_ratio": Row(
        lambda n=1, x=0.0, xp=0.0: nmm_density_ratio(K4, P, G, n, x, xp),
        {"n": count(0), "x": FINITE, "xp": FINITE},
        {"xp": "x'"},
        refused=((r"^x and x' must lie on the grid",
                  lambda: nmm_density_ratio(K4, P, G, 1, 0.05, 0.0)),
                 (r"^x' = 4.2 lies outside the grid \[-4.0, 4.0\]",
                  lambda: nmm_density_ratio(K4, P, G, 1, 0.0, 4.2)),
                 # half a cell from x = 0 on a grid finer than any absolute tolerance
                 (r"^x and x' must lie on the grid",
                  lambda: nmm_density_ratio(K4, P, SpatialGrid(0.0, 1e-10, 4), 1, 1.2e-11, 0.0)),
                 (r"^x and x' must lie on the grid",
                  lambda: nmm_density_ratio(K4, P, SpatialGrid(-4.0, 4.0, 100), 3, 0.017, 0.0)),
                 (r"^potential is nan at x = 0\.0$",
                  lambda: nmm_density_ratio(kernel4(half_square(NAN, at_zero)), P1, G8, 3, 0.0, 0.5))),
    ),
    "order_diagnostic": Row(
        lambda z_ref=REF.value, m_list=(1, 2, 3): order_diagnostic(TK, P, G, m_list, z_ref),
        {"z_ref": POSITIVE,
         "m_list": ([1.5, 2.5, 3.5], [1, 2, 2.5], [True, 2, 3], [NAN, 1, 2], [-1, 0, 1])},
        {"z_ref": "reference Z", "m_list": "m"},
        refused=((r"^m_list must be at least 3 consecutive",
                  lambda: order_diagnostic(TK, P, G, [1, 3, 5], REF.value)),),
    ),
    "partition_function": Row(
        lambda: partition_function(build_matrix(TK, P, G, 1)),
        refused=((r"^potential is nan at x = 0\.0$", lambda: partition_function(
            build_matrix(kernel4(half_square(NAN, at_zero)), P1, G8, 3))),),
    ),
    "reference_z": Row(lambda n_ref=127: reference_z(K4, P, G, n_ref), {"n_ref": count(0)}),
    "trotter_constant": Row(
        lambda n_list=(3, 5), reference=REF: trotter_constant(P, G, quartic(), n_list, reference),
        {"n_list": ([2.5], [3, True], [NAN], [-1]),
         "reference": tuple(dataclasses.replace(REF, value=v) for v in POSITIVE)},
        {"n_list": "n", "reference": "reference Z"},
        refused=((r"^n_list must hold at least one", lambda: trotter_constant(P, G, quartic(), [], REF)),
                 # V' is refused where the reference density is above 0
                 (r"^V'\(x\) at x = -6\.0 must be finite, got nan$", lambda: nan_slope(lambda x: x == x)),
                 (r"^V'\(x\) at x = 0\.14999999999999947 must be finite, got nan$",
                  lambda: nan_slope(lambda x: x > 0.0))),
    ),
    # experiments
    "BenchmarkSystem": Row(
        lambda beta=2.0, a=-1.0, b=1.0, cells=4: SYSTEMS["harmonic"].resolve(beta, a, b, cells),
        {"beta": POSITIVE, "a": FINITE, "b": FINITE, "cells": count(2)},
        {"a": "grid a", "b": "grid b", "cells": "grid cells"},
        note="resolve passes its overrides to PhysicalParams and SpatialGrid",
    ),
    "LadderResult": Row(lambda: LadderResult(REF, {"trotter": SERIES}, None), note=RECORD),
    "SYSTEMS": Row(lambda: SYSTEMS, note="a read-only table of BenchmarkSystem rows"),
    "ladder": Row(
        lambda m_top=3, constant_top=2, n_ref=127, gh_points=4: ladder(
            quartic(), P, G, {"trotter": m_top}, constant_top, n_ref, gh_points),
        {"m_top": INTEGER, "constant_top": INTEGER, "n_ref": count(0), "gh_points": count(1)},
        refused=((r"^a ladder with no rungs needs an explicit n_ref",
                  lambda: ladder(quartic(), P, G, {})),
                 # a top below 1 is left to the functions it feeds, as the CLI's --m-max
                 (r"^n_ref must be an integer >= 0, got -8", lambda: ladder(quartic(), P, G, {}, -1)),
                 (r"^m_list must be at least 3", lambda: ladder(quartic(), P, G, {"trotter": 0}, None, 127)),
                 (r"^n_list must hold at least one", lambda: ladder(quartic(), P, G, {}, -2, 127))),
    ),
    "make_kernel": Row(
        lambda gh_points=2: make_kernel("order4-discrete", quartic(), gh_points),
        {"gh_points": count(1)},
        refused=((r"^unknown family 'bogus'", lambda: make_kernel("bogus", quartic())),
                 (r"^unknown family 'free-particle'", lambda: make_kernel("free-particle", quartic()))),
    ),
    "make_spec": Row(
        lambda: make_spec("trotter"),
        refused=((r"^unknown family 'bogus'", lambda: make_spec("bogus")),
                 (r"^unknown family 'free-particle'", lambda: make_spec("free-particle"))),
    ),
}


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 24 else type(value).__name__


HOSTILE = [
    pytest.param(name, arg, value, id=f"{name}-{arg}-{k}-{_short(value)}")
    for name, row in ROWS.items()
    for arg, values in row.hostile.items()
    for k, value in enumerate(values)
]
REFUSED = [
    pytest.param(pattern, call, id=f"{name}-{k}")
    for name, row in ROWS.items()
    for k, (pattern, call) in enumerate(row.refused)
]
AT_NAN = [
    pytest.param(name, arg, result, id=f"{name}-{arg}")
    for name, row in ROWS.items()
    for arg, result in row.at_nan.items()
]


def test_every_public_name_has_a_row():
    public = {
        name for name, value in vars(rwpath).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(ROWS) == public


@pytest.mark.parametrize("name", list(ROWS))
def test_valid_call_is_accepted(name):
    ROWS[name].call()


@pytest.mark.parametrize("name, arg, value", HOSTILE)
def test_hostile_value_is_refused(name, arg, value):
    label = ROWS[name].labels.get(arg, arg)
    words = getattr(ROWS[name].hostile[arg], "words", "")
    with pytest.raises(ValueError, match=f"^{re.escape(label)} must {re.escape(words)}"):
        ROWS[name].call(**{arg: value})


@pytest.mark.parametrize("pattern, call", REFUSED)
def test_other_refusals_keep_their_messages(pattern, call):
    with pytest.raises(ValueError, match=pattern):
        call()


@pytest.mark.parametrize("pattern, call", [p for p in REFUSED if "over the budget" in p.values[0]])
def test_a_call_over_its_budget_allocates_nothing_first(pattern, call):
    # each of these would allocate 32 MiB or more after its check
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=pattern):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_a_budget_admits_its_limit():
    _checks.budget("this call", 8, 8, "points", "take fewer")
    with pytest.raises(ValueError, match=r"^this call needs 9 points, over the budget of 8; take fewer$"):
        _checks.budget("this call", 9, 8, "points", "take fewer")


def test_the_moment_code_takes_a_bridge_with_no_parity():
    # only the reweighted kernels mirror their matrices, so only they refuse it
    spec = discrete_spec(finite_kernel(NO_PARITY), gauss_legendre_01(4))
    assert math.isfinite(moment(continuous_spec(finite_kernel(NO_PARITY)), IDX))
    assert math.isfinite(moment(spec, IDX))
    assert verify_order(spec, 2).entries


@pytest.mark.parametrize("call", [
    lambda: LambdaSystem((tent,), (1, -1)),
    lambda: Potential("custom", np.abs, np.sign, (0.0, 1.0)),
    lambda: make_custom([tent], [1]),
], ids=["LambdaSystem", "Potential", "make_custom"])
def test_a_positional_symmetry_or_domain_is_a_type_error(call):
    # the fields after the removed symmetry and domain are keyword-only, so
    # an old call cannot put its tags or its interval into the next field
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("name, arg, result", AT_NAN)
def test_elementwise_functions_pass_nan_through(name, arg, result):
    np.testing.assert_equal(ROWS[name].call(**{arg: NAN}), result)


def _numpy_forms(default) -> list:
    """The same number as numpy scalars, and a float with an integral value
    as a Python int."""
    if isinstance(default, bool) or not isinstance(default, (int, float)):
        return []
    if isinstance(default, int):
        return [np.int64(default), np.int32(default)]
    return [np.float64(default)] + ([int(default)] if default.is_integer() else [])


SCALAR_FORMS = [
    pytest.param(name, arg, form, id=f"{name}-{arg}-{type(form).__name__}")
    for name, row in ROWS.items()
    for arg in row.hostile
    for form in _numpy_forms(inspect.signature(row.call).parameters[arg].default)
]


@pytest.mark.parametrize("name, arg, form", SCALAR_FORMS)
def test_numpy_numbers_and_ints_for_reals_are_accepted(name, arg, form):
    ROWS[name].call(**{arg: form})


@pytest.mark.parametrize("name", ["mc_density_ratio", "mc_moment_oracle", "sample_spec_moments"])
def test_every_seed_form_draws_the_same_stream(name):
    # default_rng takes an int, a numpy int and a SeedSequence to the same
    # stream, and uses a Generator as given
    forms = (3, np.int64(3), np.random.SeedSequence(3), np.random.default_rng(3))
    runs = [ROWS[name].call(seed=form) for form in forms]
    np.testing.assert_equal(runs[1:], runs[:1] * 3)


def deep_well(x):
    # at beta = 10 the Boltzmann weights reach e^800, past the float range
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x - 80.0


def walled_deep_well(x):
    # an overflow times the zero wall entries gives NaN
    return np.where(np.abs(np.asarray(x, dtype=float)) < 3.0, deep_well(x), INF)


def constant(value):
    return lambda x: np.full(np.shape(x), value)


class PoisonedPairKernel(ShortTimeKernel):
    """Free-particle ratio except at one grid pair (either order), where it
    is ``bad``; counts its ``ratio`` calls."""

    kind = "poisoned"

    def __init__(self, potential, xi, xj, bad):
        self.potential = potential
        self.pair = (xi, xj)
        self.bad = bad
        self.ratio_calls = 0

    def ratio(self, params, x, xp):
        self.ratio_calls += 1
        x, xp = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(xp, dtype=float))
        xi, xj = self.pair
        hit = ((x == xi) & (xp == xj)) | ((x == xj) & (xp == xi))
        return np.where(hit, self.bad, 1.0)


def build_poisoned(value, bad):
    # (5, 12) is the only evaluated pair holding the poisoned value on both
    # layouts: its reflection (18, 25) lies past i + j <= cells; one
    # evaluation of the pairs both finds and names it
    g = SpatialGrid(-3.0, 3.0, 30)
    kernel = PoisonedPairKernel(custom_potential(value, np.sign), g.points[5], g.points[12], bad)
    try:
        build_matrix(kernel, P1, g, 0)
    finally:
        assert kernel.ratio_calls == 1


def tilted_quartic(x):
    x = np.asarray(x, dtype=float)
    return x**4 + 0.5 * x


COLD = PhysicalParams(beta=1000.0)
WELL_GRID = SpatialGrid(-3.0, 3.0, 120)
COLD_HARMONIC = (PhysicalParams(beta=2000.0), SpatialGrid(-5.0, 5.0, 60))
ADVICE = "; shift the potential energy zero or change beta$"


def overflowed(name: str, got: str = "(-?inf|nan)") -> str:
    return f"^{re.escape(name)} overflowed, got {got}{ADVICE}"


def weight_overflowed(x: float, xp: float) -> str:
    return overflowed(f"kernel weight at x = {x!r}, x' = {xp!r}", "inf")


def underflows(name: str) -> str:
    return f"^{re.escape(name)} underflows to 0, got 0\\.0{ADVICE}"


AT_0 = "at x = 0.0, x' = 0.0"
# id -> (exception, message pattern, call); the quartic order-4 rows at
# beta = 1000 (eigensolve Z 2.7e-218) underflow to 0
UNREPRESENTABLE = {
    # both sizes are centrosymmetric, so both take the folded power
    **{f"partition_function-overflow-{cells}": (
        OverflowError, overflowed("Z_15"), lambda cells=cells: partition_function(KernelMatrix(
            np.full((cells + 1, cells + 1), 1e60), SpatialGrid(0.0, 1.0, cells), 1.0, 15, "test")))
       for cells in (3, 4)},
    "partition_function-underflow": (
        ValueError, underflows("Z_3"), lambda: partition_function(build_matrix(K4, COLD, G, 3))),
    "reference_z-overflow": (
        OverflowError, overflowed("reference Z"),
        lambda: reference_z(TrotterKernel(custom_potential(walled_deep_well, np.sign)), P, WELL_GRID, 40)),
    "reference_z-underflow": (
        ValueError, underflows("reference Z"), lambda: reference_z(K4, COLD, G, 3)),
    # the eigensolve's Boltzmann sum underflows, so the gap never divides by 0
    "reference_z-boltzmann-sum-underflow": (
        ValueError, underflows("Boltzmann sum"),
        lambda: reference_z(TrotterKernel(harmonic(1.0)), *COLD_HARMONIC, 56)),
    "dvr_partition_function-overflow": (
        OverflowError, overflowed("Boltzmann sum"),
        lambda: dvr_partition_function(custom_potential(deep_well, np.sign), P, WELL_GRID)),
    # beta E_0 = 1000 for the unit harmonic oscillator at beta = 2000
    "dvr_partition_function-underflow": (
        ValueError, underflows("Boltzmann sum"),
        lambda: dvr_partition_function(harmonic(1.0), *COLD_HARMONIC)),
    "nmm_density_ratio-rho_fp-underflow": (
        ValueError, underflows("rho_fp(x, x') at x = -4.0, x' = 4.0"),
        lambda: nmm_density_ratio(TK, PhysicalParams(beta=0.01), SpatialGrid(-4.0, 4.0, 80), 3, -4.0, 4.0)),
    "nmm_density_ratio-overflow": (
        OverflowError, overflowed(f"density ratio {AT_0}"),
        lambda: nmm_density_ratio(TrotterKernel(custom_potential(walled_deep_well, np.sign)),
                                  P, WELL_GRID, 40, 0.0, 0.0)),
    "nmm_density_ratio-underflow": (
        ValueError, underflows(f"density ratio {AT_0}"),
        lambda: nmm_density_ratio(K4, COLD, G, 3, 0.0, 0.0)),
    "mc_density_ratio-overflow": (
        OverflowError, overflowed(f"Monte Carlo density ratio {AT_0}"),
        lambda: mc_density_ratio(kernel4(walled_deep_well), P, 0.0, 0.0, 2, 1000)),
    "mc_density_ratio-underflow": (
        ValueError, underflows(f"Monte Carlo density ratio {AT_0}"),
        lambda: mc_density_ratio(K4, COLD, 0.0, 0.0, 1, 100)),
    # every weight is e^400, or e^-400: the mean is representable, its square is not
    "mc_density_ratio-squares-overflow": (
        OverflowError, overflowed(f"sum of squared path weights {AT_0}"),
        lambda: mc_density_ratio(kernel4(constant(-40.0)), P, 0.0, 0.0, 1, 100)),
    "mc_density_ratio-squares-underflow": (
        ValueError, underflows(f"sum of squared path weights {AT_0}"),
        lambda: mc_density_ratio(kernel4(constant(40.0)), P, 0.0, 0.0, 1, 100)),
    # a kernel weight: one slice's e^{-beta V} with V = 0.5 x^2 - 100 at beta = 10
    "build_matrix-weight-overflow": (
        OverflowError, weight_overflowed(-4.0, -4.0),
        lambda: build_matrix(trotter(lambda x: deep_well(x) - 20.0), P, G, 0)),
    # the weight overflows where rho_fp underflows to 0; ratio refuses it
    # before rho0 multiplies the two
    "rho0-overflow-times-zero": (
        OverflowError, weight_overflowed(0.0, 0.5),
        lambda: kernel4(constant(-1e7)).rho0(PhysicalParams(1e-4), 0.0, 0.5)),
    # a -inf inside a path also overflows the weight
    "rho0-minus-inf-inside-path": (
        OverflowError, weight_overflowed(0.0, 0.5),
        lambda: kernel4(half_square(-INF, inside)).rho0(P1, 0.0, 0.5)),
    # each kernel's ratio refuses the weights it makes: e^1000 on the deep
    # well, and -inf inside a path, which the splitting kernel never reads
    **{f"ratio-{name}-overflow": (
        OverflowError, weight_overflowed(0.0, 0.5),
        lambda make=make: make(constant(-1e7)).ratio(PhysicalParams(1e-4), 0.0, 0.5))
       for name, make in (("trotter", trotter), ("discrete", kernel4), ("continuous", continuous4))},
    **{f"ratio-{name}-minus-inf-inside-path": (
        OverflowError, weight_overflowed(0.0, 0.5),
        lambda make=make: make(half_square(-INF, inside)).ratio(P1, 0.0, 0.5))
       for name, make in (("discrete", kernel4), ("continuous", continuous4))},
    # a kernel whose ratio returns an inf weight is refused by rho0
    **{f"build_matrix-poisoned-pair-{layout}-inf": (
        OverflowError, weight_overflowed(-2.0, -0.5999999999999996),
        lambda value=value: build_poisoned(value, INF))
       for layout, value in (("mirrored", quartic().value), ("plain", tilted_quartic))},
}


@pytest.mark.parametrize("error, pattern, call", UNREPRESENTABLE.values(), ids=list(UNREPRESENTABLE))
def test_unrepresentable_result_is_refused(error, pattern, call):
    with pytest.raises(error, match=pattern):
        call()


SRC_DIR = Path(rwpath.__file__).parent
SRC = sorted(SRC_DIR.glob("*.py"))
CHECKS = SRC_DIR / "_checks.py"


def matching_lines(pattern: str, paths) -> list[str]:
    """"file:line" of every line of ``paths`` that ``pattern`` matches."""
    return [
        f"{path.name}:{n}"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(pattern, line)
    ]


def test_only_the_checks_module_words_the_scalar_rule():
    # every "must be finite" and "must be an integer" refusal comes from one
    # module and is tested in this one, so neither the rule nor its table can
    # drift apart again; the CLI tests read the rule's words off stderr
    tests = Path(__file__).parent
    paths = [
        path for path in SRC + sorted(tests.glob("*.py"))
        if path not in (CHECKS, tests / "test_hostile_inputs.py", tests / "test_cli.py")
    ]
    assert matching_lines(r"must be (finite|an integer)", paths) == []


def test_only_the_checks_module_words_the_result_rule():
    # every refusal of a result that overflowed or underflows to 0 comes from
    # _checks.result; the tests and the CLI may match on its words
    assert matching_lines(r"overflowed|underflows to 0", [p for p in SRC if p != CHECKS]) == []


def test_only_the_checks_module_words_the_potential_rule():
    # every refusal of a potential value that is NaN or -inf comes from
    # _checks.potential, and none is a FloatingPointError, which the CLI
    # would not catch
    others = [p for p in SRC if p != CHECKS]
    assert matching_lines(r"potential is (\{|nan|-inf|NaN)", others) == []
    assert matching_lines(r"FloatingPointError", SRC) == []


def test_only_the_checks_module_words_the_weight_rule():
    # every refusal of a kernel weight that is not finite comes from
    # _checks.weights, so ratio and rho0 cannot word it apart
    assert matching_lines(r"on a path between", [p for p in SRC if p != CHECKS]) == []


def test_only_the_checks_module_words_the_budget_rule():
    # every refusal of a call for its size comes from _checks.budget, so
    # each budget is checked and worded the same way; the tests and the CLI
    # may match on its words
    assert matching_lines(r"over the budget", [p for p in SRC if p != CHECKS]) == []


def test_no_input_declares_a_parity_or_a_domain():
    # a bridge's parity is derived by the kernel that relies on it, and a
    # wall is where a potential's value is +inf
    declared = [f.name for cls in (LambdaSystem, Potential) for f in dataclasses.fields(cls)]
    declared += [name for fn in (LambdaSystem, make_custom, custom_potential)
                 for name in inspect.signature(fn).parameters]
    assert [name for name in declared if re.search(r"symmetr|parity|domain", name)] == []
    assert {line.split(":")[0] for line in matching_lines(r"neither symmetric nor antisymmetric", SRC)} \
        == {"kernels.py"}


def test_only_the_parallel_module_starts_threads_or_reads_the_cpus():
    # one pool, one BLAS pin and one CPU count: a thread started elsewhere
    # would bypass the pool's rule that a caller runs what it has not started
    threaded = {"_thread", "threading", "concurrent", "ctypes", "contextvars"}
    importers = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in threaded for name in names):
                importers.add(path.name)
    assert importers == {"_parallel.py"}
    assert {line.split(":")[0] for line in matching_lines(r"sched_getaffinity", SRC)} == {"_parallel.py"}


def test_only_the_experiment_table_writes_the_benchmark_set_ups():
    # the helium temperature and the acceptance runs' n_ref (968 and 904, by
    # ladder's rule) live in experiments.py; the acceptance suite pins them,
    # and the unit tests keep their own small set-ups
    demos = Path(__file__).resolve().parents[1] / "demos"
    assert demos.is_dir()
    paths = [p for p in SRC + sorted(demos.glob("*.py")) if p != SRC_DIR / "experiments.py"]
    assert matching_lines(r"(?<![\d.])(5\.11|968|904)(?!\d)", paths) == []


def test_only_the_kernels_module_writes_the_gauss_hermite_default():
    # the count of Gauss-Hermite nodes per bridge coefficient is written once;
    # every default of it, the CLI's included, reads that one constant
    written = matching_lines(r"(?i)(gh_points|gauss.hermite).*(?<![\w.-])10(?![\w.])", SRC)
    assert written == matching_lines(r"^_GH_POINTS = 10$", SRC)
    assert [line.split(":")[0] for line in written] == ["kernels.py"]
    defaults = [inspect.signature(fn).parameters["gh_points"].default
                for fn in (make_kernel, ladder, kernels._ReweightedKernel,
                           ContinuousReweightedKernel, DiscreteReweightedKernel)]
    assert defaults + [cli.OPTIONS["gh_points"].default] == [kernels._GH_POINTS] * 6
