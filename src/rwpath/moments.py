"""Gaussian moment identities controlling the convergence order.

An approximation built from a finite path system has convergence order nu
exactly when a family of mixed moments of (endpoint value, time averages of
path powers) matches the corresponding Brownian moments, for every moment
index up to nu. This module enumerates those indices, evaluates both sides
through Isserlis pairing sums over the covariance kernel, and provides an
independent Monte Carlo oracle for cross-checking. The pairing sum counts
the pairings of the endpoint and time-variable slots from their
multiplicities instead of listing all (g-1)!! of them.

The sampler streams fixed blocks of about 64k path values through buffers
allocated once per call, and reduces each sample in an order set by the
number of time nodes alone. Its memory is bounded whatever the sample
count, and sample i comes out bit-identical however many samples are drawn.
One worker thread per call draws the next block of normals into the second
of two 64k-element buffers while the caller reduces the current one; only
the worker draws, in the stream's order, so the output is the same as from
drawing in the caller.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import _WORK_UNIT
from .processes import CovarianceKernel, covariance, exact_brownian, path_basis
from .quadrature import Rule1D, _tensor_rule, composite_legendre_01, gauss_legendre_01

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
    def slot_counts(self) -> tuple[int, ...]:
        """Gaussian factors per slot: the endpoint, then each time variable."""
        return (self.j[0],) + self.time_powers

    @property
    def gaussian_degree(self) -> int:
        return sum(self.slot_counts)

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


def _isserlis_sum(counts: tuple[int, ...], cov):
    """Isserlis pairing sum: over all pairings of the Gaussian factors, the
    product of ``cov(slot_a, slot_b)`` over the pairs, summed. ``counts[s]``
    is the number of factors in slot s - 1: slot -1 is the endpoint and slot
    i >= 0 time variable i, and every pair arrives with ``slot_a <= slot_b``.

    Pairings are counted, not listed: the first factor of the lowest occupied
    slot a pairs with another factor of a in m_a - 1 ways and with a later
    slot b in m_b ways, and each choice recurses on the remaining counts.
    """
    if sum(counts) % 2:
        raise ValueError("cannot pair an odd number of factors")
    a = next((s for s, m in enumerate(counts) if m), None)
    if a is None:
        return 1.0
    rest = list(counts)
    rest[a] -= 1
    total = 0.0
    for b in range(a, len(rest)):
        ways = rest[b]
        if ways:
            rest[b] -= 1
            total = total + ways * cov(a - 1, b - 1) * _isserlis_sum(tuple(rest), cov)
            rest[b] += 1
    return total


# Fixed composite resolutions for exact time integrals against smooth finite
# kernels; coarser grids for higher dimension keep the tensor mesh small.
_FINITE_RULES: dict[int, tuple[int, int]] = {1: (64, 8), 2: (64, 8), 3: (24, 6), 4: (12, 4)}

_MAX_TIME_DIM = 4

# Sample blocks with fewer time nodes than this are summed column by column:
# one numpy call costs about as much as many short per-row inner loops, so
# per-row sums lose on narrow blocks. The default sampled widths, 4 (order-4
# rule), 128 (continuous finite kernels) and 512 (exact Brownian), lie on
# either side of it.
_NARROW = 16


@lru_cache(maxsize=8)
def _finite_time_rule(d: int) -> Rule1D:
    cells, panel = _FINITE_RULES[d]
    return composite_legendre_01(cells, panel, sqrt_endpoints=True)


def moment(spec: MomentSpec, idx: MomentIndex) -> float:
    """Expected value of the product (endpoint)^{j_1} * prod_k (M_k)^{j_{k+2}}
    for the spec's process, where M_k is the time average of the k-th path
    power (exact integral or quadrature sum).

    Expands every time average, applies the Isserlis pairing formula over the
    covariance kernel, and integrates/sums over the time variables.
    """
    if not spec.is_discrete and idx.time_dim > _MAX_TIME_DIM:
        raise ValueError(
            f"time-integral dimension {idx.time_dim} exceeds {_MAX_TIME_DIM}; "
            "use mc_moment_oracle for this index"
        )
    if idx.time_dim == 0:
        c11 = float(covariance(spec.kernel, 1.0, 1.0))
        return _isserlis_sum(idx.slot_counts, lambda sa, sb: c11)
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
    n = len(u)
    cvv = covariance(kernel, u[:, None], u[None, :])
    cv1 = covariance(kernel, u, np.ones_like(u))
    c11 = float(covariance(kernel, 1.0, 1.0))
    var_u = np.diagonal(cvv).copy()

    def view(arr, *axes):
        shape = [1] * d
        for axis in axes:
            shape[axis] = n
        return arr.reshape(shape)

    def cov(sa, sb):
        if sb < 0:
            return c11
        if sa < 0:
            return view(cv1, sb)
        if sa == sb:
            return view(var_u, sa)
        return view(cvv, sa, sb)

    total = _isserlis_sum(idx.slot_counts, cov)
    for _ in range(d):
        total = np.tensordot(rule.weights, total, axes=(0, 0))
    return float(total)


def _moment_exact_brownian_integral(idx: MomentIndex) -> float:
    """Time integrals against the min kernel, split over ordering simplices
    where the kernel is coordinate-monotone; each simplex is mapped onto the
    unit cube, where the integrand is polynomial and a fixed Gauss-Legendre
    tensor rule is exact.
    """
    d = idx.time_dim
    t, wt = _tensor_rule(gauss_legendre_01(12), d)
    # ordered coordinates 0 <= W[:,0] <= ... <= W[:,d-1] <= 1 and Jacobian
    w_coord = np.empty_like(t)
    w_coord[:, d - 1] = t[:, d - 1]
    for i in range(d - 2, -1, -1):
        w_coord[:, i] = w_coord[:, i + 1] * t[:, i]
    jac = np.ones(t.shape[0])
    for jpos in range(1, d):
        jac *= t[:, jpos] ** jpos
    times: list[np.ndarray] = []

    def cov(sa, sb):
        if sb < 0:
            return 1.0
        if sa < 0 or sa == sb:
            return times[sb]
        return np.minimum(times[sa], times[sb])

    total = 0.0
    for perm in itertools.permutations(range(d)):
        times = [w_coord[:, perm[i]] for i in range(d)]
        total += float(np.dot(wt * jac, _isserlis_sum(idx.slot_counts, cov)))
    return total


@lru_cache(maxsize=None)
def brownian_moment(idx: MomentIndex) -> float:
    """Exact-Brownian continuous moment (the left-hand side of every order
    identity); cached since it is independent of the approximating spec."""
    return moment(continuous_spec(exact_brownian()), idx)


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
    1e-9 for continuous specs (quadrature-limited). A given ``tol`` must be
    finite and positive.
    """
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    if tol is None:
        tol = 1e-12 if spec.is_discrete else 1e-9
    # written so that NaN fails
    elif not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    entries = []
    for mu in range(1, nu + 1):
        for idx in enumerate_indices(mu):
            lhs = brownian_moment(idx)
            rhs = moment(spec, idx)
            res = rhs - lhs
            entries.append(OrderEntry(idx, lhs, rhs, res, abs(res) < tol))
    return OrderReport(nu, tol, tuple(entries))


def _row_sums(a: np.ndarray, out: np.ndarray) -> None:
    """out[i] = sum of row i of ``a``, added in an order fixed by the row
    width alone. (A BLAS gemv's order also depends on the number of rows.)"""
    if a.shape[1] < _NARROW:
        np.copyto(out, a[:, 0])
        for t in range(1, a.shape[1]):
            out += a[:, t]
    else:
        a.sum(axis=1, out=out)


def _series_paths(coeff: np.ndarray, lam: np.ndarray, out: np.ndarray) -> None:
    """out = coeff @ lam, added term by term in the coefficient index, so a
    row's bits do not depend on how many rows share the call."""
    for t in range(out.shape[1]):
        np.multiply(coeff[:, 0], lam[0, t], out=out[:, t])
        for j in range(1, lam.shape[0]):
            out[:, t] += coeff[:, j] * lam[j, t]


def _normal_blocks(rng: np.random.Generator, samples: int, rows: int, width: int):
    """Yield (r0, r1, block): standard normals for sample rows r0:r1, drawn
    from ``rng`` in C order, block after block, so the stream is the one that
    ``rng.standard_normal(out=block)`` in the caller's loop would give.

    One worker thread draws block k + 1 into the second of two (rows, width)
    buffers while the caller uses block k, which it may overwrite: that
    buffer is drawn into again only once the caller asks for block k + 1.
    Only the worker touches ``rng``. The worker is joined before the
    generator finishes or is closed.
    """
    from concurrent.futures import ThreadPoolExecutor

    bufs = (np.empty((rows, width)), np.empty((rows, width)))
    starts = range(0, samples, rows)

    def draw(k: int) -> np.ndarray:
        block = bufs[k % 2][: min(rows, samples - starts[k])]
        rng.standard_normal(out=block)
        return block

    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(draw, 0)
        for k, r0 in enumerate(starts):
            block = ahead.result()
            if k + 1 < len(starts):
                ahead = pool.submit(draw, k + 1)
            yield r0, r0 + block.shape[0], block


def sample_spec_moments(
    spec: MomentSpec,
    samples: int,
    truncation: int | None = None,
    seed: int = 0,
    max_power: int = 6,
) -> dict:
    """Monte Carlo sample of the endpoint value and the time averages of the
    first ``max_power`` path powers, shared across oracle evaluations.

    Finite-kernel paths are sampled exactly from their series representation.
    Exact Brownian paths are sampled exactly (independent Gaussian
    increments) on the time nodes; for continuous averages the nodes come
    from a composite panel rule whose panel count is ``truncation``
    (minimum 50 for exact Brownian, the default being 256).

    Samples are drawn and reduced in fixed blocks of about ``_WORK_UNIT``
    elements, reusing the same buffers, so memory does not grow with
    ``samples`` and sample i is the same whatever ``samples`` is. The normals
    are drawn one block ahead by one worker thread, into two buffers of
    ``_WORK_UNIT`` elements, from the same stream in the same order; the
    worker is joined before the call returns or raises.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
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

    rng = np.random.default_rng(seed)
    b1 = np.empty(samples)
    mk = {k: np.empty(samples) for k in range(1, max_power + 1)}
    finite = not spec.kernel.is_exact_brownian
    if finite:
        lam = np.vstack([nodes, path_basis(spec.kernel.system, rule).values])  # (q+1, T)
        draws = lam.shape[0]
    else:
        ts = nodes if nodes[-1] >= 1.0 - 1e-15 else np.append(nodes, 1.0)
        sdt = np.sqrt(np.diff(np.concatenate([[0.0], ts])))
        draws = sdt.size
    rows = min(samples, max(1, _WORK_UNIT // max(draws, nodes.size)))
    paths = np.empty((rows, nodes.size)) if finite else None
    acc = np.empty((rows, nodes.size))

    with contextlib.closing(_normal_blocks(rng, samples, rows, draws)) as blocks:
        for r0, r1, zb in blocks:
            if finite:
                pb = paths[: r1 - r0]
                _series_paths(zb, lam, pb)
                b1[r0:r1] = zb[:, 0]
            else:
                zb *= sdt
                np.cumsum(zb, axis=1, out=zb)
                # the path at the nodes; the endpoint is the last column either way
                pb = zb[:, : nodes.size]
                b1[r0:r1] = zb[:, -1]
            # acc holds weights * path^k, raised one power at a time
            ab = acc[: r1 - r0]
            np.multiply(pb, weights, out=ab)
            for k in range(1, max_power + 1):
                if k > 1:
                    ab *= pb
                _row_sums(ab, mk[k][r0:r1])
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
    if samples < 2:
        raise ValueError("samples must be >= 2 for a standard error")
    max_power = max([1] + list(idx.time_powers))
    data = sample_spec_moments(spec, samples, truncation, seed, max_power=max_power)
    vals = moment_product_from_samples(data, idx)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    return mean, se


def moment_product_from_samples(data: dict, idx: MomentIndex) -> np.ndarray:
    """Per-sample product (endpoint)^{j_1} * prod_k M_k^{j_{k+2}} from a
    `sample_spec_moments` payload (left unchanged)."""
    factors = [(data["B1"], idx.j[0])]
    factors += [(data["M"][k - 2], v) for k, v in enumerate(idx.j[2:], start=3) if v]
    vals = np.ones_like(data["B1"])
    # repeated multiplication: numpy's float ** int is ~20x slower for v >= 3
    for base, power in factors:
        for _ in range(power):
            vals *= base
    return vals
