"""One solver for the free constants of the order-3 and order-4 path systems.

The third-order family has one free rotation rate fixed by a single
centroid-variance residual; the fourth-order family has two constants fixed
by a 2x2 residual system (zero mean of the second bridge function, and a
Gram-matrix square-sum condition). Both come in a continuous variant (exact
time integrals) and a discrete variant (quadrature sums). All four residual
systems are solved by the same damped least-squares iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .processes import LambdaSystem, make_order3, make_order4
from .quadrature import _EXACT_TIME_RULE, Rule1D, gauss_legendre_01

__all__ = [
    "CalibrationResult",
    "FAMILIES",
    "residual_order3",
    "residual_order4",
    "calibrate",
    "calibrated_system",
]

# Iteration cap of the damped least-squares solver.
_MAX_ITER = 100


def _check_rule_exactness(rule: Rule1D, degree: int) -> None:
    """The discrete residuals are only meaningful if the rule integrates all
    polynomials up to ``degree`` exactly."""
    for dpow in range(degree + 1):
        got = float(np.dot(rule.weights, rule.points**dpow))
        if abs(got - 1.0 / (dpow + 1)) > 1e-12:
            raise ValueError(
                f"rule must integrate u^{dpow} exactly to calibrate this family"
            )


def _bridge_averages(system: LambdaSystem, rule: Rule1D | None) -> np.ndarray:
    r = _EXACT_TIME_RULE if rule is None else rule
    vals = system.bridge_values(r.points)
    return vals @ r.weights


def residual_order3(alpha: float, rule: Rule1D | None = None) -> float:
    """Centroid-variance residual of the order-3 family:
    sum_k (average of bridge_k)^2 - 1/12, with averages taken as exact
    integrals (rule None) or as quadrature sums of ``rule``."""
    if rule is not None:
        _check_rule_exactness(rule, 2)
    means = _bridge_averages(make_order3(alpha), rule)
    return float(np.sum(means**2) - 1.0 / 12.0)


def residual_order4(alpha1: float, alpha2: float, rule: Rule1D | None = None) -> tuple[float, float]:
    """Residual pair of the order-4 family: (average of bridge function 2,
    Gram square-sum - 1/6), where the Gram matrix collects the pairwise
    averages of all four profile functions (reference included)."""
    if rule is not None:
        _check_rule_exactness(rule, 3)
    system = make_order4(alpha1, alpha2)
    r = _EXACT_TIME_RULE if rule is None else rule
    u = r.points
    vals = np.vstack([u, system.bridge_values(u)])  # (4, N) profiles incl. reference
    gram = (vals * r.weights) @ vals.T
    mean2 = float(np.dot(r.weights, vals[2]))
    return mean2, float(np.sum(gram**2) - 1.0 / 6.0)


@dataclass(frozen=True)
class CalibrationResult:
    family: str
    constants: tuple[float, ...]
    residual_norm: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "constants": list(self.constants),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
        }


class CalibrationError(RuntimeError):
    """Raised when the solver fails to converge; carries the best iterate."""

    def __init__(self, message: str, best: tuple[float, ...], residual_norm: float):
        super().__init__(message)
        self.best = best
        self.residual_norm = residual_norm


def _fd_jacobian(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian, the derivative model used by the
    damped least-squares iteration."""
    n = x.size
    r0 = np.asarray(fun(x))
    jac = np.empty((r0.size, n))
    for i in range(n):
        step = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        jac[:, i] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * step)
    return jac


def _levenberg_marquardt(fun, x0, max_iter: int):
    """Small damped least-squares iteration for a square residual system."""
    x = np.asarray(x0, dtype=float)
    lam = 1e-3
    res = np.asarray(fun(x))
    for it in range(1, max_iter + 1):
        if np.max(np.abs(res)) < 1e-13:
            return x, it - 1
        jac = _fd_jacobian(fun, x)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        for _ in range(30):
            step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj) + 1e-30), jtr)
            trial = x - step
            tres = np.asarray(fun(trial))
            if np.linalg.norm(tres) < np.linalg.norm(res):
                x, res = trial, tres
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 3.0
        else:
            break
        if np.max(np.abs(step)) < 1e-13:
            break
    return x, max_iter


class _Family(NamedTuple):
    """One path-system family: the maker of its system from the constants,
    the residual system that fixes them (constants, then the rule), the
    fixed solver guess, and the time rule of the discrete variants (None
    for exact time integrals)."""

    make: Callable[..., LambdaSystem]
    residual: Callable
    guess: tuple[float, ...]
    rule: Rule1D | None


# The residual systems have several roots; each guess seeds the solver next
# to the intended branch. The discrete variants average over the 2- and
# 4-point Gauss-Legendre rules on [0, 1].
_FAMILIES = {
    "order3-continuous": _Family(make_order3, residual_order3, (3.0,), None),
    "order3-discrete": _Family(make_order3, residual_order3, (2.5,), gauss_legendre_01(2)),
    "order4-continuous": _Family(make_order4, residual_order4, (6.0, 13.0), None),
    "order4-discrete": _Family(make_order4, residual_order4, (6.0, 8.0), gauss_legendre_01(4)),
}
FAMILIES = tuple(_FAMILIES)


def _row(family: str) -> _Family:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    return _FAMILIES[family]


def calibrate(family: str) -> CalibrationResult:
    """Solve the residual system of ``family`` against its time rule by
    damped least squares and return the constants.

    A fixed guess per family seeds the solver next to the intended root, so
    calibration is reproducible: it always yields bit-identical constants.
    """
    row = _row(family)
    fun = lambda x: np.atleast_1d(row.residual(*x, row.rule))
    x, iters = _levenberg_marquardt(fun, np.asarray(row.guess), _MAX_ITER)
    constants = tuple(float(c) for c in x)
    resid = float(np.max(np.abs(fun(x))))
    if resid > 1e-10:
        raise CalibrationError(
            f"calibration of {family} did not converge (residual {resid:.3e})",
            constants,
            resid,
        )
    return CalibrationResult(family, constants, resid, iters)


def calibrated_system(family: str) -> tuple[LambdaSystem, Rule1D | None]:
    """Calibrate ``family`` and build its path system, together with the time
    rule of the discrete variants (None for continuous ones)."""
    result = calibrate(family)
    row = _FAMILIES[family]
    return row.make(*result.constants), row.rule
