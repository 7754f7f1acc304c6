import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from rwpath import _parallel, kernels
from rwpath.calibration import FAMILIES, calibrated_system
from rwpath.experiments import SYSTEMS
from rwpath.kernels import (
    ContinuousReweightedKernel,
    DiscreteReweightedKernel,
    PhysicalParams,
    TrotterKernel,
    rho_fp,
    units_constant,
)
from rwpath.potentials import custom_potential, harmonic, he_cage, quartic
from rwpath.processes import path_basis
from rwpath.propagation import SpatialGrid, build_matrix, matrix_power
from rwpath.quadrature import _EXACT_TIME_RULE, Rule1D


def mehler_kernel(params: PhysicalParams, omega: float, x: float, xp: float) -> float:
    """Closed-form harmonic-oscillator density matrix."""
    t = params.beta * params.hbar * omega
    s, c = math.sinh(t), math.cosh(t)
    pref = math.sqrt(params.mass * omega / (2 * math.pi * params.hbar * s))
    expo = -params.mass * omega / (2 * params.hbar * s) * ((x * x + xp * xp) * c - 2 * x * xp)
    return pref * math.exp(expo)


ORDER4 = calibrated_system("order4-discrete")
ORDER3 = calibrated_system("order3-discrete")
HE_PARAMS = SYSTEMS["he-cage"].resolve()[1]
# helium slice of an n = 57 rung
HE_SLICE = PhysicalParams(1 / (5.11 * 58), math.sqrt(units_constant()), 4.0)


def test_units_constant_codata():
    assert units_constant() == pytest.approx(48.51, abs=0.01)


def test_units_constant_dimensionless_mode():
    p = PhysicalParams(beta=0.3)
    assert p.hbar == 1.0 and p.mass == 1.0
    assert p.sigma == pytest.approx(math.sqrt(0.3))


def test_sigma_for_helium_is_positive_finite():
    assert 0.0 < HE_PARAMS.sigma < 10.0


def test_rho_fp_peak_and_symmetry():
    p = PhysicalParams(beta=1.0)
    assert rho_fp(p, 0.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert rho_fp(p, 0.0, 1.0) == pytest.approx(rho_fp(p, 1.0, 0.0))


def test_rho_fp_normalization():
    p = PhysicalParams(beta=0.5)
    x = np.linspace(-10, 10, 4001)
    total = np.trapezoid(rho_fp(p, 0.3, x), x)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_zero_potential_reduces_to_free_particle():
    zero = custom_potential(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    p = PhysicalParams(beta=0.7)
    for kernel in (
        TrotterKernel(zero),
        DiscreteReweightedKernel(ORDER3[0], zero, ORDER3[1]),
        ContinuousReweightedKernel(ORDER4[0], zero, gh_points=6),
    ):
        assert kernel.rho0(p, 0.4, -1.1) == pytest.approx(rho_fp(p, 0.4, -1.1), rel=1e-12)


def test_trotter_closed_form_on_quartic():
    p = PhysicalParams(beta=0.1)
    kernel = TrotterKernel(quartic())
    want = rho_fp(p, 1.0, 1.0) * math.exp(-0.1 * 0.5)
    assert kernel.rho0(p, 1.0, 1.0) == pytest.approx(want, rel=1e-14)


def test_kernel_symmetry_on_random_pairs():
    rng = np.random.default_rng(0)
    p = PhysicalParams(beta=0.25)
    kernels = [
        TrotterKernel(quartic()),
        DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1]),
        DiscreteReweightedKernel(ORDER3[0], quartic(), ORDER3[1]),
    ]
    x = rng.uniform(-2, 2, size=100)
    xp = rng.uniform(-2, 2, size=100)
    for kernel in kernels:
        a = np.asarray(kernel.rho0(p, x, xp))
        b = np.asarray(kernel.rho0(p, xp, x))
        np.testing.assert_allclose(a, b, rtol=1e-12)


@pytest.mark.parametrize(
    "pot,params,lo,hi",
    [
        (he_cage(), HE_SLICE, 0.0, 7.153),
        (quartic(), PhysicalParams(beta=0.25), -2.0, 2.0),
    ],
)
def test_ratio_is_chunk_invariant(pot, params, lo, hi):
    # a pair's value must not depend on how many pairs share the call
    rng = np.random.default_rng(7)
    x = rng.uniform(lo, hi, size=5000)
    xp = rng.uniform(lo, hi, size=5000)
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    whole = kernel.ratio(params, x, xp)
    singles = np.array([kernel.ratio(params, a, b) for a, b in zip(x, xp)])
    slices = np.concatenate(
        [kernel.ratio(params, x[i : i + 37], xp[i : i + 37]) for i in range(0, x.size, 37)]
    )
    assert np.count_nonzero(whole) > x.size // 2
    assert np.array_equal(singles, whole)
    assert np.array_equal(slices, whole)


# pairs per unit of an order-4 ratio: 1000 Gauss-Hermite nodes in blocks of 100
ORDER4_PBLOCK = kernels._WORK_UNIT // kernels._GH_BLOCK


@pytest.mark.parametrize(
    "pot,params,lo,hi",
    [(he_cage(), HE_PARAMS, 0.0, 7.153), (quartic(), PhysicalParams(beta=0.25), -2.0, 2.0)],
)
def test_ratio_and_build_matrix_do_not_depend_on_worker_count(monkeypatch, pot, params, lo, hi):
    # 4 units, the last one partial, so 3 workers get runs of 1, 1 and 2 units
    rng = np.random.default_rng(3)
    x = rng.uniform(lo, hi, size=3 * ORDER4_PBLOCK + 17)
    xp = rng.uniform(lo, hi, size=x.size)
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    grid = SpatialGrid(lo, hi, 90)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: workers)
        results.append(
            (
                kernel.ratio(params, x, xp),
                kernel.ratio(params, x[5], xp[5]),
                build_matrix(kernel, params, grid, 3).values,
            )
        )
    assert np.count_nonzero(results[0][0]) > x.size // 2
    for got in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))


def test_ratio_split_survives_fast_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond
    x = np.linspace(0.5, 6.5, 6 * ORDER4_PBLOCK + 1)
    kernel = DiscreteReweightedKernel(ORDER4[0], he_cage(), ORDER4[1])
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
    want = kernel.ratio(HE_PARAMS, x, x[::-1])
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = kernel.ratio(HE_PARAMS, x, x[::-1])
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


def test_ratio_joins_its_workers_and_passes_on_their_errors(monkeypatch):
    caller = threading.current_thread()
    lock = threading.Lock()
    calls = []  # the thread of each potential call
    running = [0]  # potential calls under way
    slow, fail = [True], []

    def value(x):
        with lock:
            calls.append(threading.current_thread())
            running[0] += 1
        try:
            if slow:
                # the worker starts while the caller is busy, and a worker
                # left running past the return would still be inside V
                time.sleep(1e-3)
            if fail and threading.current_thread() is not caller:
                raise RuntimeError("worker failed")
            return np.asarray(x, dtype=float) ** 2
        finally:
            with lock:
                running[0] -= 1

    pot = custom_potential(value, lambda x: 2.0 * np.asarray(x, dtype=float))
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    p = PhysicalParams(beta=0.5)
    x = np.linspace(-1.0, 1.0, 2 * ORDER4_PBLOCK + 5)
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    want = kernel.ratio(p, x, x[::-1])
    assert running == [0]
    threads = set(calls)
    assert caller in threads and len(threads) == 2
    after_one = threading.active_count()

    fail.append(True)
    with pytest.raises(RuntimeError, match="worker failed"):
        kernel.ratio(p, x, x[::-1])
    assert running == [0]
    fail.clear()
    assert np.array_equal(kernel.ratio(p, x, x[::-1]), want)

    # a one-unit call, scalar or not, runs on the caller alone
    calls.clear()
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 3)
    kernel.ratio(p, x[:ORDER4_PBLOCK], x[:ORDER4_PBLOCK])
    kernel.ratio(p, 0.2, 0.3)
    assert set(calls) == {caller}

    # the pool's threads persist and are reused: no call leaves one behind.
    # A pool of more than one thread may still start its others.
    slow.clear()
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    for _ in range(50):
        kernel.ratio(p, x, x[::-1])
    pool = max(1, len(os.sched_getaffinity(0)) - 1) if hasattr(os, "sched_getaffinity") else 1
    assert after_one <= threading.active_count() <= after_one + pool - 1


def test_a_potential_that_powers_a_matrix_inside_a_ratio_worker_finishes(monkeypatch):
    # the worker and the caller each submit a folded power's odd chain to the
    # pool the worker itself occupies; each takes its chain back and runs it
    r = np.random.default_rng(5).uniform(0.0, 1.0, size=(30, 30))
    a = r + r.T
    a = (a + a[::-1, ::-1]) / 60.0

    def value(pts):
        return 0.5 * np.asarray(pts, dtype=float) ** 2 + 1e-3 * np.trace(matrix_power(a, 9))

    pot = custom_potential(value, lambda pts: np.asarray(pts, dtype=float))
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    p = PhysicalParams(beta=0.5)
    x = np.linspace(-1.0, 1.0, 2 * ORDER4_PBLOCK + 5)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
        out = []
        caller = threading.Thread(target=lambda: out.append(kernel.ratio(p, x, x[::-1])))
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive()
        results.append(out[0])
    assert np.count_nonzero(results[0]) == x.size
    assert np.array_equal(results[0], results[1])


def test_ratio_workers_keep_the_callers_errstate(monkeypatch):
    # V overflows where |x| > 37.5, which the widest Gauss-Hermite paths
    # reach at this beta (sigma = 12.2) and the endpoints never do
    def value(x):
        x = np.asarray(x, dtype=float)
        return np.exp(x * x - 700.0)

    pot = custom_potential(value, lambda x: 2.0 * np.asarray(x, dtype=float) * value(x))
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    p = PhysicalParams(beta=150.0)
    x = np.linspace(-1.0, 1.0, 2 * ORDER4_PBLOCK)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
        with pytest.raises(RuntimeWarning, match="overflow"):
            kernel.ratio(p, x, x[::-1])
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(_parallel, "usable_cpus", lambda: workers)
            with np.errstate(over="ignore"):
                results.append(kernel.ratio(p, x, x[::-1]))
    assert np.all((results[0] > 0.0) & (results[0] < 1.0))
    assert np.array_equal(results[0], results[1])


def plain_exp_unit_loop(kernel, params, x, xp):
    """The unit loop as it stood before the exp shortcuts, on one thread:
    every lane goes through np.exp and every block is summed. Returns the
    ratio and the exponents of each Gauss-Hermite block."""
    xf = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    dxf = np.atleast_1d(np.asarray(xp, dtype=float)).ravel() - xf
    acc = np.zeros(xf.size)
    sdisp = params.sigma * kernel._disp
    u, w = kernel._u, kernel._w
    ng = sdisp.shape[1]
    gblock = min(ng, kernels._GH_BLOCK)
    pblock = max(1, kernels._WORK_UNIT // gblock)
    exponents = []
    for p0 in range(0, xf.size, pblock):
        p1 = min(p0 + pblock, xf.size)
        ref = [(xf[p0:p1] + dxf[p0:p1] * u[t])[:, None] for t in range(u.size)]
        for g0 in range(0, ng, gblock):
            g1 = min(g0 + gblock, ng)
            avg = np.zeros((p1 - p0, g1 - g0))
            for t in range(u.size):
                vt = kernel.potential.value(ref[t] + sdisp[t, g0:g1])
                vt *= w[t]
                avg += vt
            avg *= -params.beta
            exponents.append(avg.copy())
            with np.errstate(under="ignore"):
                np.exp(avg, out=avg)
            avg *= kernel._gh_weights[g0:g1]
            acc[p0:p1] += avg.sum(axis=1)
    with np.errstate(invalid="ignore"):
        wall = ~(np.isfinite(kernel.potential.value(xf)) & np.isfinite(kernel.potential.value(xf + dxf)))
    acc[wall] = 0.0
    return acc, exponents


@pytest.mark.parametrize(
    "x, xp, case",
    [
        (np.linspace(2.6, 4.5, 12), np.linspace(4.5, 2.6, 12), "no lane underflows"),
        (np.linspace(0.8, 6.3, 30), np.linspace(1.5, 5.6, 30), "some lanes underflow"),
        (np.full(5, 0.4), np.linspace(0.35, 0.45, 5), "every lane underflows"),
        (np.linspace(0.968, 0.972, 5), np.linspace(0.968, 0.972, 5), "only subnormal terms"),
    ],
)
def test_ratio_keeps_the_bits_of_the_plain_exp_loop(x, xp, case):
    kernel = DiscreteReweightedKernel(ORDER4[0], he_cage(), ORDER4[1])
    want, exponents = plain_exp_unit_loop(kernel, HE_SLICE, x, xp)
    low = [np.count_nonzero(e < kernels._EXP_ZERO) for e in exponents]
    if case == "no lane underflows":
        assert not any(low) and np.all(want > 0.0)
    elif case == "some lanes underflow":
        assert any(0 < n < e.size for n, e in zip(low, exponents))
        # exponents in the subnormal band still go through exp
        band = np.concatenate([e[(e > kernels._EXP_ZERO) & (e < -708.0)] for e in exponents])
        assert band.size > 0
    elif case == "every lane underflows":
        assert all(n == e.size for n, e in zip(low, exponents)) and not np.any(want)
    else:
        # the largest exponent of a pair lies in the subnormal band, so its
        # ratio is a sum of subnormal terms
        top = np.max(np.hstack(exponents), axis=1)
        assert np.any((top > kernels._EXP_ZERO) & (top < -708.0))
        assert np.any((want > 0.0) & (want < np.finfo(float).tiny))
    got = kernel.ratio(HE_SLICE, x, xp)
    assert np.array_equal(got, want) and not np.any(np.signbit(got))


def test_exp_below_the_cut_is_exactly_plus_zero():
    # ratio sets these lanes to +0.0 instead of computing them
    below = kernels._EXP_ZERO - np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 4000)])
    below = np.append(below, [np.nextafter(kernels._EXP_ZERO, -np.inf), -np.inf])
    with np.errstate(under="ignore"):
        got = np.exp(below)
    assert np.all(got == 0.0) and not np.any(np.signbit(got))


def test_a_slow_unit_leaves_the_other_units_to_the_worker(monkeypatch):
    # the first unit's pairs sit at x = 50; its potential calls wait until
    # the worker has evaluated every other unit, which a fixed split of the
    # units into one run per worker never lets it do
    units = 6
    rest = np.linspace(-1.0, 1.0, (units - 1) * ORDER4_PBLOCK)
    x = np.concatenate([np.full(ORDER4_PBLOCK, 50.0), rest])
    xp = np.concatenate([np.full(ORDER4_PBLOCK, 50.5), rest[::-1]])
    caller = threading.current_thread()
    calls = []  # (thread, first unit) per call inside the unit loop
    others_done = threading.Event()

    def value(pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 2:
            first = bool(pts.min() > 25.0)
            calls.append((threading.current_thread(), first))
            if first and not others_done.wait(timeout=10.0):
                others_done.set()  # wait once, then let the unit finish
            elif sum(t is not caller for t, _ in calls) == (units - 1) * calls_per_unit:
                others_done.set()
        return 0.5 * pts * pts

    pot = custom_potential(value, lambda x: np.asarray(x, dtype=float))
    kernel = DiscreteReweightedKernel(ORDER4[0], pot, ORDER4[1])
    calls_per_unit = kernel._u.size * (kernel._disp.shape[1] // kernels._GH_BLOCK)
    p = PhysicalParams(beta=0.01)
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
    others_done.set()
    want = kernel.ratio(p, x, xp)
    calls.clear()
    others_done.clear()
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    got = kernel.ratio(p, x, xp)
    assert np.array_equal(got, want) and np.count_nonzero(got) == x.size
    mine = [first for t, first in calls if t is caller]
    theirs = [first for t, first in calls if t is not caller]
    # the caller evaluated the first unit alone, the worker the other five
    assert mine == [True] * calls_per_unit
    assert len(theirs) == (units - 1) * calls_per_unit and not any(theirs)


def test_kernel_positivity():
    p = PhysicalParams(beta=0.5)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    x = np.linspace(-3, 3, 41)
    vals = np.asarray(kernel.rho0(p, x[:, None], x[None, :]))
    assert np.all(vals > 0)


def test_mehler_residual_magnitude_at_benchmark_point():
    kernel = DiscreteReweightedKernel(ORDER4[0], harmonic(1.0), ORDER4[1], gh_points=14)
    p = PhysicalParams(beta=0.2)
    got = kernel.rho0(p, 0.0, 0.0)
    want = mehler_kernel(p, 1.0, 0.0, 0.0)
    assert abs(got - want) / want < 5e-6


def test_mehler_propagated_residual_scales_as_beta_fifth():
    # the convergence order governs the kernel's action on smooth functions;
    # the residual of the propagated Gaussian halves five binary digits per
    # beta halving (the raw diagonal residual scales one order lower)
    kernel = DiscreteReweightedKernel(ORDER4[0], harmonic(1.0), ORDER4[1], gh_points=14)

    def propagated_residual(beta):
        p = PhysicalParams(beta=beta)
        xg = np.linspace(-8.0, 8.0, 2001)
        psi = np.exp(-0.5 * xg * xg)
        approx = np.asarray(kernel.rho0(p, 0.0, xg))
        exact = np.array([mehler_kernel(p, 1.0, 0.0, v) for v in xg])
        num = float(np.trapezoid((approx - exact) * psi, xg))
        den = float(np.trapezoid(exact * psi, xg))
        return abs(num / den)

    r_coarse = propagated_residual(0.2)
    r_fine = propagated_residual(0.1)
    assert abs(r_coarse / r_fine - 32.0) < 0.15 * 32.0


def test_gauss_hermite_point_count_convergence():
    kernel10 = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1], gh_points=10)
    kernel14 = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1], gh_points=14)
    p = PhysicalParams(beta=0.1)
    for x, xp in [(0.0, 0.0), (0.5, -0.3), (1.2, 1.0)]:
        a = kernel10.rho0(p, x, xp)
        b = kernel14.rho0(p, x, xp)
        assert abs(a - b) / b < 1e-9


def test_short_time_limit_toward_reference_path_average():
    # rho0/rho_fp -> exp(-beta <V along the straight path>) + O(beta^2)
    kernel = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1])
    rule = ORDER4[1]
    x, xp = 0.4, 0.9
    ref_avg = float(
        np.dot(rule.weights, quartic().value(x + (xp - x) * rule.points))
    )
    errs = []
    for beta in (0.08, 0.04, 0.02):
        p = PhysicalParams(beta=beta)
        ratio = kernel.rho0(p, x, xp) / rho_fp(p, x, xp)
        errs.append(abs(ratio - math.exp(-beta * ref_avg)))
    # Richardson-style: successive halving shrinks the defect ~4x
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_infinite_walls_give_zero_density_not_errors():
    kernel = DiscreteReweightedKernel(ORDER4[0], he_cage(), ORDER4[1])
    assert kernel.rho0(HE_PARAMS, 0.0, 3.5) == 0.0
    assert kernel.rho0(HE_PARAMS, 7.153, 7.153) == 0.0
    inside = kernel.rho0(HE_PARAMS.with_beta(HE_PARAMS.beta / 16), 3.5, 3.6)
    assert inside > 0.0


def test_reweighted_kernel_requires_palindromic_rule():
    skewed = Rule1D([0.2, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteReweightedKernel(ORDER3[0], quartic(), skewed)
    # on this rule ratio(0.3, 1.1) and ratio(1.1, 0.3) differ by 10%, which
    # build_matrix's mirrored lower triangle would hide
    with pytest.raises(ValueError):
        DiscreteReweightedKernel(ORDER4[0], quartic(), Rule1D([0.2, 0.5, 0.9], [0.3, 0.3, 0.4]))


@pytest.mark.parametrize("family", FAMILIES)
def test_calibrated_bridges_keep_their_parity_far_inside_the_refusal(family):
    # a kernel refuses a bridge that misses its parity at the time nodes by
    # more than 1e-10 of its largest value; the calibrated bridges miss by
    # 1.9e-13 at most (order4-continuous), so a drift shows here first
    system, rule = calibrated_system(family)
    for row in path_basis(system, _EXACT_TIME_RULE if rule is None else rule).values:
        miss = min(np.max(np.abs(row - row[::-1])), np.max(np.abs(row + row[::-1])))
        assert miss <= 1e-12 * np.max(np.abs(row))


def test_continuous_and_discrete_reweighted_agree_at_small_beta():
    p = PhysicalParams(beta=0.05)
    cont = ContinuousReweightedKernel(ORDER4[0], quartic(), gh_points=8)
    disc = DiscreteReweightedKernel(ORDER4[0], quartic(), ORDER4[1], gh_points=8)
    for x, xp in [(0.0, 0.0), (0.7, -0.2)]:
        a, b = cont.rho0(p, x, xp), disc.rho0(p, x, xp)
        assert abs(a - b) / b < 1e-6
