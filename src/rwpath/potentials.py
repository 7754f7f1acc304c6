"""Test potentials with values and first derivatives.

The quartic oscillator and the helium cage are the two benchmark systems;
the harmonic oscillator is kept as an analytic cross-check (its density
matrix and partition function are known in closed form). A value is a
number, or +inf, a wall of zero density; the kernels and the grid
eigensolve refuse NaN and -inf through ``_checks.potential``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Callable

import numpy as np

from . import _checks

__all__ = ["Potential", "quartic", "harmonic", "he_cage", "custom_potential"]


@dataclass(frozen=True)
class Potential:
    """A one-dimensional potential: vectorized value and first derivative,
    and the defining parameters. A wall is where ``value`` is +inf."""

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv1: Callable[[np.ndarray], np.ndarray]
    _: KW_ONLY
    params: dict

    def __call__(self, x):
        return self.value(x)


def quartic() -> Potential:
    """V(x) = x^4 / 2 on the whole line."""

    def value(x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        return 0.5 * x2 * x2

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x * x * x

    return Potential("quartic", value, deriv1, params={})


def harmonic(omega: float, mass: float = 1.0) -> Potential:
    """V(x) = m omega^2 x^2 / 2; the analytic-reference oscillator."""
    _checks.positive("omega", omega)
    _checks.positive("mass", mass)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * mass * omega**2 * x**2

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        return mass * omega**2 * x

    return Potential("harmonic", value, deriv1, params={"omega": omega, "mass": mass})


def he_cage(
    eps: float = 10.22, sigma_lj: float = 2.556, box: float = 7.153
) -> Potential:
    """A particle trapped between two fixed atoms a distance ``box`` apart,
    interacting with each through a pairwise Lennard-Jones potential.

    Parameters default to the helium system in kelvin/angstrom units:
    well depth eps = 10.22 K, sigma_lj = 2.556 A, box = 7.153 A. The value
    is +inf outside the open interval (0, box) and NaN at NaN.
    """
    for name, value in (("eps", eps), ("sigma_lj", sigma_lj), ("box", box)):
        _checks.positive(name, value)

    def _pow6(t):
        t2 = t * t
        return t2 * t2 * t2

    def _lj_terms(x):
        # y^6*(y^6 - 1) form avoids inf - inf at the walls
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y6 = _pow6(sigma_lj / x)
            z6 = _pow6(sigma_lj / (x - box))
        return y6, z6

    def value(x):
        # 4 eps (y6 (y6 - 1) + z6 (z6 - 1)) evaluated in place in three
        # buffers, with the operation order of _lj_terms and of that formula,
        # so the bits match the one-temporary-per-step evaluation; np.square
        # rounds t * t exactly as np.multiply does, but runs faster
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        t2 = np.empty_like(x)
        t6 = np.empty_like(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(sigma_lj, x, out=t2)
            np.square(t2, out=t2)
            np.square(t2, out=t6)
            np.multiply(t6, t2, out=t6)
            np.subtract(t6, 1.0, out=out)
            np.multiply(t6, out, out=out)
            np.subtract(x, box, out=t2)
            np.divide(sigma_lj, t2, out=t2)
            np.square(t2, out=t2)
            np.square(t2, out=t6)
            np.multiply(t6, t2, out=t6)
            np.subtract(t6, 1.0, out=t2)
            np.multiply(t6, t2, out=t2)
            np.add(out, t2, out=out)
            np.multiply(out, 4.0 * eps, out=out)
        # most blocks lie inside (0, box) and skip the mask; NaN, +-inf and
        # empty input fail the test and take it, and NaN stays NaN
        if not (x.size and x.min() > 0.0 and x.max() < box):
            np.copyto(out, np.inf, where=(x <= 0.0) | (x >= box))
        return float(out) if out.ndim == 0 else out

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        y6, z6 = _lj_terms(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d = 4.0 * eps * (
                (-12.0 * y6 * y6 + 6.0 * y6) / x + (-12.0 * z6 * z6 + 6.0 * z6) / (x - box)
            )
        out = np.where((x <= 0.0) | (x >= box), np.inf, d)
        return float(out) if out.ndim == 0 else out

    return Potential("he-cage", value, deriv1, params={"eps": eps, "sigma_lj": sigma_lj, "box": box})


def custom_potential(value, deriv1, *, params=None) -> Potential:
    """Wrap user code as a potential (code-only; not loadable from config)."""
    return Potential("custom", value, deriv1, params=dict(params or {}))
