"""One-dimensional quadrature rules with polynomial-exactness guarantees.

Everything downstream (time averages along paths, Gaussian coefficient
averages, calibration integrals) is built from the rules in this module.
Rules are frozen after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks


@dataclass(frozen=True)
class Rule1D:
    """A one-dimensional quadrature rule.

    Parameters
    ----------
    points : array_like
        Finite, strictly increasing abscissas.
    weights : array_like
        Finite positive weights, one per abscissa.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if pts.size == 0:
            raise ValueError("a rule needs at least one point")
        # written so that NaN fails
        if not (np.all(np.isfinite(pts)) and np.all(np.diff(pts) > 0)):
            raise ValueError("points must be strictly increasing and finite")
        if not np.all(np.isfinite(wts) & (wts > 0)):
            raise ValueError("weights must be positive and finite")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return self.points.size


def gauss_legendre_01(p: int) -> Rule1D:
    """Gauss-Legendre rule with ``p`` points mapped to the interval [0, 1].

    Exact for polynomials of degree <= 2p - 1. The rule is palindromic:
    points come in mirror pairs u, 1 - u carrying equal weights.
    """
    x, w = np.polynomial.legendre.leggauss(_checks.count("p", p, 1))
    return Rule1D(0.5 * (x + 1.0), 0.5 * w)


def gauss_hermite(p: int) -> Rule1D:
    """Probabilist Gauss-Hermite rule with ``p`` points.

    Integrates against the standard normal density; the weights sum to 1,
    and polynomials of degree <= 2p - 1 are integrated exactly.
    """
    x, w = np.polynomial.hermite_e.hermegauss(_checks.count("p", p, 1))
    return Rule1D(x, w / w.sum())


def composite_legendre_01(cells: int = 64, panel: int = 8, sqrt_endpoints: bool = False) -> Rule1D:
    """Composite Gauss-Legendre rule on [0, 1]: ``cells`` uniform cells with a
    ``panel``-point rule in each.

    With ``sqrt_endpoints=True`` the rule is built in the variable
    u = sin^2(pi * theta / 2), which turns sqrt(u(1-u))-type endpoint
    behaviour into an analytic integrand and restores spectral accuracy.
    """
    cells = _checks.count("cells", cells, 1)
    base = gauss_legendre_01(_checks.count("panel", panel, 1))
    edges = np.linspace(0.0, 1.0, cells + 1)
    pts = (edges[:-1, None] + np.diff(edges)[:, None] * base.points[None, :]).ravel()
    wts = (np.diff(edges)[:, None] * base.weights[None, :]).ravel()
    if sqrt_endpoints:
        theta = pts
        pts = np.sin(0.5 * np.pi * theta) ** 2
        wts = wts * (0.5 * np.pi) * np.sin(np.pi * theta)
    return Rule1D(pts, wts)


# Stand-in for the exact time integrals of the continuous path systems: their
# integrands carry sqrt(u(1-u)) endpoint factors, which the substituted
# composite rule makes analytic, so it converges past 1e-13.
_EXACT_TIME_RULE = composite_legendre_01(64, 8, sqrt_endpoints=True)


def endpoint_trapezoid() -> Rule1D:
    """The two-point endpoint rule on [0, 1]: points {0, 1}, weights {1/2, 1/2}.

    Exact for polynomials of degree <= 1. This is the time average used by
    the symmetrized kinetic/potential splitting kernel.
    """
    return Rule1D(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


def integrate_01(rule: Rule1D, f) -> float:
    """Apply ``rule`` to a function on [0, 1]: returns sum_i w_i f(u_i).
    The rule's points must lie in [0, 1]."""
    # the points increase, so the end points bound them
    if rule.points[0] < 0.0 or rule.points[-1] > 1.0:
        raise ValueError("integrate_01 expects a rule defined on [0, 1]")
    return float(np.dot(rule.weights, f(rule.points)))


def is_palindromic(rule: Rule1D, tol: float = 1e-14) -> bool:
    """True if the rule on [0, 1] is symmetric under u -> 1 - u.

    Checks that sorted points satisfy u_i + u_{n+1-i} = 1 and that the
    weight sequence is a palindrome.
    """
    _checks.finite("tol", tol)
    p, w = rule.points, rule.weights
    return bool(
        np.all(np.abs(p + p[::-1] - 1.0) <= tol) and np.all(np.abs(w - w[::-1]) <= tol)
    )


def tensor_gauss_hermite(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product probabilist Gauss-Hermite grid over ``q`` dimensions.

    Returns (nodes, weights) with nodes of shape (p**q, q) and weights
    summing to 1. Exact for multivariate polynomials of per-variable
    degree <= 2p - 1 against the q-dimensional standard normal.
    """
    return _tensor_rule(gauss_hermite(p), _checks.count("q", q, 1))


def _tensor_rule(rule: Rule1D, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``d``-fold product of ``rule``: nodes of shape (len(rule)**d, d),
    the last coordinate varying fastest, and their weights, each a running
    product over the coordinates in order."""
    grids = np.meshgrid(*([rule.points] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for wg in np.meshgrid(*([rule.weights] * d), indexing="ij"):
        weights = weights * wg.ravel()
    return nodes, weights
