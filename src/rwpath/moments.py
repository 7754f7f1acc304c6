"""Gaussian moment identities controlling the convergence order.

An approximation built from a finite path system has convergence order nu
exactly when a family of mixed moments of (endpoint value, time averages of
path powers) matches the corresponding Brownian moments, for every moment
index up to nu. This module enumerates those indices, evaluates both sides
exactly, and provides an independent Monte Carlo oracle for cross-checking.

Each path law has one exact integrator, in any number of time variables. A
finite path's moment of order mu is the tensor Gauss-Hermite average, mu
points per coefficient, of the per-path statistics the oracle averages. An
exact-Brownian moment is an Isserlis pairing sum over the min kernel on
weighted time tuples: the rule's grid, or the ordering simplex under an exact
Gauss-Legendre rule. The pairing sum counts pairings from the slot
multiplicities instead of listing all (g-1)!! of them. A moment over a fixed
budget of quadrature points is refused before anything is allocated.

The sampler streams blocks of one shape, about 64k path values, through
buffers allocated once per call; each block's finite paths are one pinned
product, and each sample is reduced in an order set by its time nodes alone.
Memory is bounded, and sample i's bits do not depend on the sample count.
The next block of normals is drawn on the process's pool (``_parallel``), in
the stream's order, while the caller reduces the current one.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _checks, _parallel
from .kernels import _WORK_UNIT
from .processes import CovarianceKernel, LambdaSystem, _gaussian_path, covariance, exact_brownian, path_basis
from .quadrature import _EXACT_TIME_RULE, Rule1D, _tensor_rule, composite_legendre_01
from .quadrature import gauss_legendre_01, tensor_gauss_hermite

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
        mu = _checks.count("mu", self.mu, 1)
        j = tuple(_checks.count("multiplicity", v, 0) for v in self.j)
        if len(j) != 2 * mu:
            raise ValueError("index must have length 2*mu")
        if sum((k + 1) * v for k, v in enumerate(j)) != 2 * mu:
            raise ValueError("weighted multiplicities must sum to 2*mu")
        object.__setattr__(self, "mu", mu)
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
    mu = _checks.count("mu", mu, 1)
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


# Points one moment may sum over: Gauss-Hermite nodes times time nodes for a
# finite path (continuous order 4 stays inside up to mu = 9), or weighted time
# tuples for exact Brownian, at most 32 MiB per time variable.
_MAX_QUADRATURE_POINTS = 2**22

# Sample blocks with fewer time nodes than this are summed column by column:
# one numpy call costs about as much as many short per-row inner loops, so
# per-row sums lose on narrow blocks. The default sampled widths, 4 (order-4
# rule), 128 (continuous finite kernels) and 512 (exact Brownian), lie on
# either side of it.
_NARROW = 16


def moment(spec: MomentSpec, idx: MomentIndex) -> float:
    """Expected value of the product (endpoint)^{j_1} * prod_k (M_k)^{j_{k+2}}
    for the spec's process, where M_k is the time average of the k-th path
    power (exact integral or quadrature sum; ``_EXACT_TIME_RULE`` stands in
    for a finite path's time integrals). Exact in any number of time
    variables; raises ValueError, pointing to `mc_moment_oracle`, over
    ``_MAX_QUADRATURE_POINTS``.
    """
    return _moment(spec, idx)


def _moment(spec: MomentSpec, idx: MomentIndex, finite: tuple | None = None) -> float:
    """`moment`, reading a finite spec's `_finite_statistics` for idx.mu
    from ``finite`` when given; an endpoint-only index needs only C(1, 1)."""
    if idx.time_dim == 0:
        c11 = float(covariance(spec.kernel, 1.0, 1.0))
        return _isserlis_sum(idx.slot_counts, lambda sa, sb: c11)
    if spec.kernel.is_exact_brownian:
        return _moment_brownian(idx, spec.rule)
    data, weights = finite or _finite_statistics(spec, idx.mu, max(idx.time_powers))
    return math.fsum(weights * moment_product_from_samples(data, idx))


def _finite_statistics(spec: MomentSpec, mu: int, max_power: int) -> tuple[dict, np.ndarray]:
    """The `sample_spec_moments` payload of a finite spec's paths at the
    tensor Gauss-Hermite nodes of its q + 1 coefficients, mu points each, and
    their weights: exact for every order-mu index with a time average, whose
    Gaussian degree is at most 2 mu - 2."""
    system = spec.kernel.system
    rule = _EXACT_TIME_RULE if spec.rule is None else spec.rule
    _checks.budget("this moment", mu ** (system.q + 1) * rule.points.size, _MAX_QUADRATURE_POINTS,
                   "quadrature points", "use mc_moment_oracle for this index")
    nodes, weights = tensor_gauss_hermite(system.q + 1, mu)
    n = nodes.shape[0]
    rows = min(n, max(1, _WORK_UNIT // rule.points.size))
    blocks = ((r0, min(n, r0 + rows), nodes[r0 : r0 + rows]) for r0 in range(0, n, rows))
    paths = _finite_paths(blocks, system, rule, rows)
    return _path_statistics(paths, n, rows, rule.weights, max_power), weights


def _moment_brownian(idx: MomentIndex, rule: Rule1D | None) -> float:
    """Isserlis pairing sum over the min kernel, summed over weighted time
    tuples: the tensor grid of ``rule``, or for exact time integrals the
    ordered tuples 0 <= t_0 <= ... <= t_{d-1} <= 1 of each distinct
    arrangement of the time powers, weighted by the prod m_p! orderings that
    give it. The simplex maps onto the cube by t_i = prod_{j >= i} c_j, with
    Jacobian prod_j c_j^j. Each pair of factors contributes one min(t_a, t_b),
    so the integrand has degree gaussian_degree / 2 in the times and at most
    d - 1 more in each c_j, which Gauss-Legendre integrates exactly.
    """
    d = idx.time_dim
    if rule is not None:
        _checks.budget("this moment", rule.points.size**d, _MAX_QUADRATURE_POINTS,
                       "quadrature points", "use mc_moment_oracle for this index")
        t, w = _tensor_rule(rule, d)
        arrangements = [idx.time_powers]
    else:
        powers = idx.time_powers
        orderings = math.prod(math.factorial(powers.count(p)) for p in set(powers))
        g = (idx.gaussian_degree // 2 + d + 1) // 2
        _checks.budget("this moment", math.factorial(d) // orderings * g**d, _MAX_QUADRATURE_POINTS,
                       "quadrature points", "use mc_moment_oracle for this index")
        cube, w = _tensor_rule(gauss_legendre_01(g), d)
        t = np.cumprod(cube[:, ::-1], axis=1)[:, ::-1]
        w = w * np.prod(cube ** np.arange(d), axis=1) * orderings
        arrangements = sorted(set(itertools.permutations(powers)))

    def cov(sa, sb):
        if sb < 0:
            return 1.0
        if sa < 0 or sa == sb:
            return t[:, sb]
        return np.minimum(t[:, sa], t[:, sb])

    return math.fsum(np.concatenate([w * _isserlis_sum((idx.j[0],) + p, cov) for p in arrangements]))


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


def verify_order(spec: MomentSpec, nu: int, tol: float | None = None) -> OrderReport:
    """Check every moment identity for 1 <= mu <= nu against the exact
    Brownian values; the spec has convergence order nu iff all pass.

    An identity passes when |rhs - lhs| < tol * max(1, |lhs|), so a moment
    above 1 is held to tol relative to it, not below its float64 rounding.
    Default tolerances: 1e-12 for discrete specs (finite sums, exact) and
    1e-9 for continuous specs (limited by ``_EXACT_TIME_RULE``). A given
    ``tol`` is refused unless finite and positive. A finite spec's Gauss-Hermite
    payload is built once per mu, so each ``rhs`` is bit-identical to
    ``moment(spec, idx)``.
    """
    nu = _checks.count("nu", nu, 1)
    if tol is None:
        tol = 1e-12 if spec.is_discrete else 1e-9
    else:
        _checks.positive("tol", tol)
    entries = []
    for mu in range(1, nu + 1):
        finite = None if spec.kernel.is_exact_brownian else _finite_statistics(spec, mu, max(1, 2 * mu - 2))
        for idx in enumerate_indices(mu):
            lhs = brownian_moment(idx)
            rhs = _moment(spec, idx, finite)
            res = rhs - lhs
            entries.append(OrderEntry(idx, lhs, rhs, res, abs(res) < tol * max(1.0, abs(lhs))))
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


def _normal_blocks(rng: np.random.Generator, samples: int, rows: int, width: int):
    """Yield (r0, r1, block): a (rows, width) block, one shape for all,
    whose first r1 - r0 rows hold the normals of sample rows r0:r1, drawn
    from ``rng`` in C order, so the stream is the one that
    ``rng.standard_normal(out=block[: r1 - r0])`` in the caller's loop gives.

    The caller draws block 0 and a pool worker block k + 1, into the second
    of two zeroed buffers, while the caller uses block k, which it
    may overwrite. Each draw ahead is joined before the generator goes on,
    finishes or is closed, so the draws run one at a time, in order.
    """
    bufs = (np.zeros((rows, width)), np.zeros((rows, width)))
    starts = range(0, samples, rows)

    def draw(k: int) -> np.ndarray:
        rng.standard_normal(out=bufs[k % 2][: min(rows, samples - starts[k])])
        return bufs[k % 2]

    block = draw(0)
    for k, r0 in enumerate(starts):
        ahead = [_parallel.submit(draw, k + 1)] if k + 1 < len(starts) else []
        try:
            yield r0, min(samples, r0 + rows), block
        finally:
            (block,) = _parallel.join(ahead) or (None,)


def _finite_paths(blocks, system: LambdaSystem, rule: Rule1D, rows: int):
    """Yield (r0, r1, paths, endpoints) per (r0, r1, block) of at most ``rows``
    coefficients: `_gaussian_path` of the whole block and [u; bridges] at the
    rule's nodes, and at u = 1 into its own contiguous buffer, both reused."""
    lam = np.vstack([rule.points, path_basis(system, rule).values])
    end = np.append(1.0, system.bridge_values(1.0))[:, None]
    paths, ends = np.empty((rows, lam.shape[1])), np.empty((rows, 1))
    for r0, r1, zb in blocks:
        _gaussian_path(zb, lam, paths[: zb.shape[0]])
        _gaussian_path(zb, end, ends[: zb.shape[0]])
        yield r0, r1, paths[: r1 - r0], ends[: r1 - r0, 0]


def _brownian_paths(blocks, sdt: np.ndarray, nt: int):
    """Yield (r0, r1, paths, endpoints): the running sums of each block's
    rows r0:r1 scaled by ``sdt``, in place, at the first ``nt`` nodes and last."""
    for r0, r1, zb in blocks:
        zb = zb[: r1 - r0]
        zb *= sdt
        np.cumsum(zb, axis=1, out=zb)
        yield r0, r1, zb[:, :nt], zb[:, -1]


def _path_statistics(paths, n: int, rows: int, weights: np.ndarray, max_power: int) -> dict:
    """The `sample_spec_moments` payload of n paths from ``paths``, which
    yields (r0, r1, paths, endpoints) for rows r0:r1, at most ``rows``."""
    b1 = np.empty(n)
    mk = {k: np.empty(n) for k in range(1, max_power + 1)}
    acc = np.empty((rows, weights.size))
    for r0, r1, pb, end in paths:
        b1[r0:r1] = end
        # acc holds weights * path^k, raised one power at a time
        ab = acc[: r1 - r0]
        np.multiply(pb, weights, out=ab)
        for k in range(1, max_power + 1):
            if k > 1:
                ab *= pb
            _row_sums(ab, mk[k][r0:r1])
    return {"B1": b1, "M": mk}


def sample_spec_moments(spec: MomentSpec, samples: int, truncation: int | None = None,
                        seed: int = 0, max_power: int = 6) -> dict:
    """Monte Carlo sample of the endpoint value and the time averages of the
    first ``max_power`` path powers, shared across oracle evaluations.

    Finite-kernel paths are sampled exactly from their series representation,
    the endpoint included; exact Brownian paths from independent Gaussian
    increments. For continuous averages the nodes come from a composite panel
    rule of ``truncation`` panels (an integer; default 64, or 256 and at
    least 50 for exact Brownian), refused on a spec with a time rule.

    Samples are drawn and reduced in blocks of one shape, about
    ``_WORK_UNIT`` elements, in reused buffers, so memory does not grow with
    ``samples`` and sample i's bits do not depend on it. A pool worker draws the
    normals a block ahead, from the same stream in the same order, into a
    second buffer; it is joined before the call returns or raises.
    """
    samples = _checks.count("samples", samples, 1)
    max_power = _checks.count("max_power", max_power, 1)
    if truncation is not None:
        truncation = _checks.count("truncation", truncation, 1)
        if spec.rule is not None:
            raise ValueError("truncation applies only to exact time integrals, not to a time rule")
    _checks.seed(seed)
    brownian = spec.kernel.is_exact_brownian
    rule = spec.rule
    if rule is None:
        panels = truncation or (256 if brownian else 64)
        if brownian and panels < 50:
            raise ValueError("truncation must be >= 50 for exact Brownian sampling")
        rule = composite_legendre_01(panels, 2, sqrt_endpoints=not brownian)
    nodes = rule.points
    # normal increments up to t = 1, or the q + 1 coefficients
    ts = nodes if nodes[-1] == 1.0 else np.append(nodes, 1.0)
    draws = ts.size if brownian else spec.kernel.system.q + 1
    rows = max(1, _WORK_UNIT // max(draws, nodes.size))
    rng = np.random.default_rng(seed)
    with contextlib.closing(_normal_blocks(rng, samples, rows, draws)) as blocks:
        if brownian:
            paths = _brownian_paths(blocks, np.sqrt(np.diff(ts, prepend=0.0)), nodes.size)
        else:
            paths = _finite_paths(blocks, spec.kernel.system, rule, rows)
        return _path_statistics(paths, samples, rows, rule.weights, max_power)


def mc_moment_oracle(spec: MomentSpec, idx: MomentIndex, samples: int,
                     truncation: int | None = None, seed: int = 0) -> tuple[float, float]:
    """Plain Monte Carlo estimate of the same expectation as `moment`,
    usable in any time dimension. Returns (estimate, standard error).
    """
    # two samples at least, for a standard error
    samples = _checks.count("samples", samples, 2)
    data = sample_spec_moments(spec, samples, truncation, seed, max_power=max(idx.time_powers, default=1))
    vals = moment_product_from_samples(data, idx)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


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
