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

    def _sixth(d, out, scratch):
        # (sigma_lj / d)^6 as (t^2)^2 t^2, t = sigma_lj / d, into out; scratch
        # may alias d. np.square rounds t * t exactly as np.multiply does,
        # but runs faster
        np.divide(sigma_lj, d, out=scratch)
        np.square(scratch, out=scratch)
        np.square(scratch, out=out)
        np.multiply(out, scratch, out=out)

    def value(x):
        # 4 eps (y6 (y6 - 1) + z6 (z6 - 1)) in place in three buffers, in that
        # formula's operation order, so the bits match the one-temporary-per-
        # step evaluation; the y6 (y6 - 1) form avoids inf - inf at the walls
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        s = np.empty_like(x)
        p6 = np.empty_like(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _sixth(x, p6, s)
            np.subtract(p6, 1.0, out=out)
            np.multiply(p6, out, out=out)
            np.subtract(x, box, out=s)
            _sixth(s, p6, s)
            np.subtract(p6, 1.0, out=s)
            np.multiply(p6, s, out=s)
            np.add(out, s, out=out)
            np.multiply(out, 4.0 * eps, out=out)
        # most blocks lie inside (0, box) and skip the mask; NaN, +-inf and
        # empty input fail the test and take it, and NaN stays NaN
        if not (x.size and x.min() > 0.0 and x.max() < box):
            np.copyto(out, np.inf, where=(x <= 0.0) | (x >= box))
        return float(out) if out.ndim == 0 else out

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        xb = x - box
        y6, z6, s = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _sixth(x, y6, s)
            _sixth(xb, z6, s)
            d = 4.0 * eps * ((-12.0 * y6 * y6 + 6.0 * y6) / x + (-12.0 * z6 * z6 + 6.0 * z6) / xb)
        out = np.where((x <= 0.0) | (x >= box), np.inf, d)
        return float(out) if out.ndim == 0 else out

    return Potential("he-cage", value, deriv1, params={"eps": eps, "sigma_lj": sigma_lj, "box": box})


def custom_potential(value, deriv1, *, params=None) -> Potential:
    """Wrap user code as a potential (code-only; not loadable from config)."""
    return Potential("custom", value, deriv1, params=dict(params or {}))
