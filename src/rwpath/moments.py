"""Gaussian moment identities controlling the convergence order.

An approximation built from a finite path system has convergence order nu
exactly when a family of mixed moments of (endpoint value, time averages of
path powers) matches the corresponding Brownian moments, for every moment
index up to nu. This module enumerates those indices, evaluates both sides
through Isserlis pairing sums over the covariance kernel, and provides an
independent Monte Carlo oracle for cross-checking.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .processes import CovarianceKernel, covariance, exact_brownian, path_basis
from .quadrature import Rule1D, composite_legendre_01, gauss_legendre_01

__all__ = [
    "MomentIndex",
    "MomentSpec",
    "OrderEntry",
    "OrderReport",
    "enumerate_indices",
    "continuous_spec",
    "discrete_spec",
    "moment",
    "brownian_moment",
    "verify_order",
    "mc_moment_oracle",
    "sample_spec_moments",
]


@dataclass(frozen=True)
class MomentIndex:
    """One moment equation: a tuple (j_1, ..., j_{2mu}) with sum k*j_k = 2mu.

    j_1 counts endpoint factors, j_2 counts trivial (constant) time averages,
    and j_k for k >= 3 counts time averages of the (k-2)-th path power.
    """

    mu: int
    j: tuple[int, ...]

    def __post_init__(self):
        if self.mu < 1:
            raise ValueError("mu must be a positive integer")
        j = tuple(int(v) for v in self.j)
        if len(j) != 2 * self.mu:
            raise ValueError("index must have length 2*mu")
        if any(v < 0 for v in j):
            raise ValueError("multiplicities must be non-negative")
        if sum((k + 1) * v for k, v in enumerate(j)) != 2 * self.mu:
            raise ValueError("weighted multiplicities must sum to 2*mu")
        object.__setattr__(self, "j", j)

    @classmethod
    def from_multiplicities(cls, mu: int, mults: dict[int, int]) -> "MomentIndex":
        j = [0] * (2 * mu)
        for k, v in mults.items():
            j[k - 1] = v
        return cls(mu, tuple(j))

    @property
    def nonzero(self) -> dict[int, int]:
        return {k + 1: v for k, v in enumerate(self.j) if v}

    @property
    def time_powers(self) -> tuple[int, ...]:
        """Path power carried by each time variable (one entry per average)."""
        out: list[int] = []
        for k, v in enumerate(self.j[2:], start=3):
            out.extend([k - 2] * v)
        return tuple(out)

    @property
    def time_dim(self) -> int:
        return len(self.time_powers)

    @property
    def gaussian_degree(self) -> int:
        return self.j[0] + sum(self.time_powers)

    def label(self) -> str:
        return ",".join(f"j{k}={v}" for k, v in sorted(self.nonzero.items(), reverse=True))


def _partitions(n: int, max_part: int):
    """Partitions of n with parts <= max_part, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_indices(mu: int) -> list[MomentIndex]:
    """All moment indices for a given ``mu``: the partitions of 2*mu encoded
    as multiplicity tuples, largest part first. The count is the integer
    partition number p(2*mu).
    """
    if mu < 1:
        raise ValueError("mu must be a positive integer")
    out = []
    for part in _partitions(2 * mu, 2 * mu):
        j = [0] * (2 * mu)
        for p in part:
            j[p - 1] += 1
        out.append(MomentIndex(mu, tuple(j)))
    return out


@dataclass(frozen=True)
class MomentSpec:
    """A process law plus a time-average convention.

    ``rule is None`` means exact time integrals over [0, 1]; otherwise time
    averages are the finite quadrature sums of ``rule`` (whose weights must
    sum to 1).
    """

    kernel: CovarianceKernel
    rule: Rule1D | None = None

    def __post_init__(self):
        if self.rule is not None:
            if abs(float(self.rule.weights.sum()) - 1.0) > 1e-12:
                raise ValueError("discrete time-average weights must sum to 1")
            if self.rule.points[0] < 0.0 or self.rule.points[-1] > 1.0:
                raise ValueError("discrete time-average points must lie in [0, 1]")

    @property
    def is_discrete(self) -> bool:
        return self.rule is not None


def continuous_spec(kernel: CovarianceKernel) -> MomentSpec:
    return MomentSpec(kernel, None)


def discrete_spec(kernel: CovarianceKernel, rule: Rule1D) -> MomentSpec:
    return MomentSpec(kernel, rule)


@lru_cache(maxsize=32)
def _pairings(g: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings of range(g); (g-1)!! of them."""
    if g % 2:
        raise ValueError("cannot pair an odd number of factors")
    if g == 0:
        return ((),)
    items = list(range(g))

    def rec(rest):
        if not rest:
            yield ()
            return
        first = rest[0]
        for i in range(1, len(rest)):
            pair = (first, rest[i])
            for tail in rec(rest[1:i] + rest[i + 1 :]):
                yield (pair,) + tail

    return tuple(rec(items))


def _double_factorial(n: int) -> int:
    out = 1
    for v in range(n, 1, -2):
        out *= v
    return out


# Fixed composite resolutions for exact time integrals against smooth finite
# kernels; coarser grids for higher dimension keep the tensor mesh small.
_FINITE_RULES: dict[int, tuple[int, int]] = {1: (64, 8), 2: (64, 8), 3: (24, 6), 4: (12, 4)}

_MAX_TIME_DIM = 4


@lru_cache(maxsize=8)
def _finite_time_rule(d: int) -> Rule1D:
    cells, panel = _FINITE_RULES[d]
    return composite_legendre_01(cells, panel, sqrt_endpoints=True)


def _slots(idx: MomentIndex) -> list[int]:
    """Per-Gaussian-factor time slot: -1 for endpoint factors, otherwise the
    id of the time variable the factor belongs to."""
    slots = [-1] * idx.j[0]
    for i, p in enumerate(idx.time_powers):
        slots.extend([i] * p)
    return slots


def moment(spec: MomentSpec, idx: MomentIndex) -> float:
    """Expected value of the product (endpoint)^{j_1} * prod_k (M_k)^{j_{k+2}}
    for the spec's process, where M_k is the time average of the k-th path
    power (exact integral or quadrature sum).

    Expands every time average, applies the Isserlis pairing formula over the
    covariance kernel, and integrates/sums over the time variables. Indices of
    odd Gaussian degree are analytically zero.
    """
    if idx.gaussian_degree % 2:
        return 0.0
    if not spec.is_discrete and idx.time_dim > _MAX_TIME_DIM:
        raise ValueError(
            f"time-integral dimension {idx.time_dim} exceeds {_MAX_TIME_DIM}; "
            "use mc_moment_oracle for this index"
        )
    if idx.time_dim == 0:
        c11 = float(covariance(spec.kernel, 1.0, 1.0))
        return _double_factorial(idx.gaussian_degree - 1) * c11 ** (idx.gaussian_degree // 2)
    if spec.is_discrete:
        return _moment_finite_integral(spec.kernel, idx, spec.rule)
    if spec.kernel.is_exact_brownian:
        return _moment_exact_brownian_integral(idx)
    return _moment_finite_integral(spec.kernel, idx, _finite_time_rule(idx.time_dim))


def _moment_finite_integral(kernel: CovarianceKernel, idx: MomentIndex, rule: Rule1D) -> float:
    """Isserlis pairing sum over the covariance kernel, summed on the tensor
    grid of ``rule`` in every time variable: the exact moment of a discrete
    spec on its own rule, or a quadrature of the time integrals."""
    d = idx.time_dim
    u = rule.points
    w = rule.weights
    n = len(u)
    cvv = covariance(kernel, u[:, None], u[None, :])
    cv1 = covariance(kernel, u, np.ones_like(u))
    c11 = float(covariance(kernel, 1.0, 1.0))
    var_u = np.diagonal(cvv).copy()
    slots = _slots(idx)

    def axis_view(vec, axis):
        shape = [1] * d
        shape[axis] = n
        return vec.reshape(shape)

    def mat_view(axis_a, axis_b):
        shape = [1] * d
        shape[axis_a] = n
        shape[axis_b] = n
        return cvv.reshape(shape)

    total = np.zeros((n,) * d)
    for pairing in _pairings(idx.gaussian_degree):
        scal = 1.0
        arrs = []
        for a, b in pairing:
            sa, sb = slots[a], slots[b]
            if sa < 0 and sb < 0:
                scal *= c11
            elif sa < 0 or sb < 0:
                arrs.append(axis_view(cv1, max(sa, sb)))
            elif sa == sb:
                arrs.append(axis_view(var_u, sa))
            else:
                arrs.append(mat_view(min(sa, sb), max(sa, sb)))
        term = scal
        for arr in arrs:
            term = term * arr
        total = total + term
    for _ in range(d):
        total = np.tensordot(w, total, axes=(0, 0))
    return float(total)


def _moment_exact_brownian_integral(idx: MomentIndex) -> float:
    """Time integrals against the min kernel, split over ordering simplices
    where the kernel is coordinate-monotone; each simplex is mapped onto the
    unit cube, where the integrand is polynomial and a fixed Gauss-Legendre
    tensor rule is exact.
    """
    d = idx.time_dim
    base = gauss_legendre_01(12)
    grids = np.meshgrid(*([base.points] * d), indexing="ij")
    t = np.stack([g.ravel() for g in grids], axis=1)
    wt = np.ones(t.shape[0])
    for g in np.meshgrid(*([base.weights] * d), indexing="ij"):
        wt = wt * g.ravel()
    # ordered coordinates 0 <= W[:,0] <= ... <= W[:,d-1] <= 1 and Jacobian
    w_coord = np.empty_like(t)
    w_coord[:, d - 1] = t[:, d - 1]
    for i in range(d - 2, -1, -1):
        w_coord[:, i] = w_coord[:, i + 1] * t[:, i]
    jac = np.ones(t.shape[0])
    for jpos in range(1, d):
        jac *= t[:, jpos] ** jpos
    slots = _slots(idx)
    pairings = _pairings(idx.gaussian_degree)
    total = 0.0
    for perm in itertools.permutations(range(d)):
        times = [w_coord[:, perm[i]] for i in range(d)]
        integrand = np.zeros(t.shape[0])
        for pairing in pairings:
            prod = np.ones(t.shape[0])
            for a, b in pairing:
                sa, sb = slots[a], slots[b]
                if sa < 0 and sb < 0:
                    continue
                elif sa < 0 or sb < 0:
                    prod = prod * times[max(sa, sb)]
                elif sa == sb:
                    prod = prod * times[sa]
                else:
                    prod = prod * np.minimum(times[sa], times[sb])
            integrand = integrand + prod
        total += float(np.dot(wt * jac, integrand))
    return total


_BROWNIAN_CACHE: dict[tuple[int, ...], float] = {}


def brownian_moment(idx: MomentIndex) -> float:
    """Exact-Brownian continuous moment (the left-hand side of every order
    identity); cached since it is independent of the approximating spec."""
    key = idx.j
    if key not in _BROWNIAN_CACHE:
        _BROWNIAN_CACHE[key] = moment(continuous_spec(exact_brownian()), idx)
    return _BROWNIAN_CACHE[key]


@dataclass(frozen=True)
class OrderEntry:
    index: MomentIndex
    lhs: float
    rhs: float
    residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "index": list(self.index.j),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class OrderReport:
    nu: int
    tol: float
    entries: tuple[OrderEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max(abs(e.residual) for e in self.entries)

    @property
    def violations(self) -> tuple[OrderEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "tol": self.tol,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


def verify_order(spec: MomentSpec, nu: int, tol: float | None = None) -> OrderReport:
    """Check every moment identity for 1 <= mu <= nu against the exact
    Brownian values; the spec has convergence order nu iff all pass.

    Default tolerances: 1e-12 for discrete specs (finite sums, exact) and
    1e-9 for continuous specs (quadrature-limited).
    """
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    if tol is None:
        tol = 1e-12 if spec.is_discrete else 1e-9
    entries = []
    for mu in range(1, nu + 1):
        for idx in enumerate_indices(mu):
            lhs = brownian_moment(idx)
            rhs = moment(spec, idx)
            res = rhs - lhs
            entries.append(OrderEntry(idx, lhs, rhs, res, abs(res) < tol))
    return OrderReport(nu, tol, tuple(entries))


def sample_spec_moments(
    spec: MomentSpec,
    samples: int,
    truncation: int | None = None,
    seed: int = 0,
    max_power: int = 6,
    batch: int | None = None,
) -> dict:
    """Monte Carlo sample of the endpoint value and the time averages of the
    first ``max_power`` path powers, shared across oracle evaluations.

    Finite-kernel paths are sampled exactly from their series representation.
    Exact Brownian paths are sampled exactly (independent Gaussian
    increments) on the time nodes; for continuous averages the nodes come
    from a composite panel rule whose panel count is ``truncation``
    (minimum 50 for exact Brownian, the default being 256).
    """
    if spec.is_discrete:
        rule = spec.rule
    elif spec.kernel.is_exact_brownian:
        panels = 256 if truncation is None else int(truncation)
        if panels < 50:
            raise ValueError("truncation must be >= 50 for exact Brownian sampling")
        rule = composite_legendre_01(panels, 2, sqrt_endpoints=False)
    else:
        panels = 64 if truncation is None else int(truncation)
        rule = composite_legendre_01(panels, 2, sqrt_endpoints=True)
    nodes = rule.points
    weights = rule.weights

    if batch is None:
        # keep the per-batch path matrix around 250 MB
        batch = max(10_000, 30_000_000 // max(nodes.size, 1))
    rng = np.random.default_rng(seed)
    b1 = np.empty(samples)
    mk = {k: np.empty(samples) for k in range(1, max_power + 1)}
    finite = not spec.kernel.is_exact_brownian
    if finite:
        lam = np.vstack([nodes, path_basis(spec.kernel.system, rule).values])  # (q+1, T)
    else:
        has_end = nodes[-1] >= 1.0 - 1e-15
        ts = nodes if has_end else np.append(nodes, 1.0)
        sdt = np.sqrt(np.diff(np.concatenate([[0.0], ts])))

    done = 0
    while done < samples:
        b = min(batch, samples - done)
        sl = slice(done, done + b)
        if finite:
            coeff = rng.standard_normal((b, lam.shape[0]))
            paths = coeff @ lam
            b1[sl] = coeff[:, 0]
        else:
            z = rng.standard_normal((b, sdt.size))
            full = np.cumsum(sdt[None, :] * z, axis=1)
            paths = full[:, : nodes.size]
            b1[sl] = full[:, -1] if not has_end else full[:, nodes.size - 1]
        pw = paths.copy()
        for k in range(1, max_power + 1):
            if k > 1:
                pw *= paths
            mk[k][sl] = pw @ weights
        done += b
    return {"B1": b1, "M": mk}


def mc_moment_oracle(
    spec: MomentSpec,
    idx: MomentIndex,
    samples: int,
    truncation: int | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Plain Monte Carlo estimate of the same expectation as `moment`,
    usable in any time dimension. Returns (estimate, standard error).
    """
    max_power = max([1] + list(idx.time_powers))
    data = sample_spec_moments(spec, samples, truncation, seed, max_power=max_power)
    vals = moment_product_from_samples(data, idx)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return mean, se


def moment_product_from_samples(data: dict, idx: MomentIndex) -> np.ndarray:
    """Per-sample product (endpoint)^{j_1} * prod_k M_k^{j_{k+2}} from a
    `sample_spec_moments` payload."""
    vals = np.ones_like(data["B1"])
    if idx.j[0]:
        vals = vals * data["B1"] ** idx.j[0]
    for k, v in enumerate(idx.j[2:], start=3):
        if v:
            vals = vals * data["M"][k - 2] ** v
    return vals
