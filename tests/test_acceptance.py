"""Acceptance suite: every exit criterion at its stated tolerance.

Heavy artifacts (references, ladders, Monte Carlo samples) are shared
through module-scoped fixtures; each criterion prints its own pass/fail
line (visible with ``pytest -s``). The full module is the long end of the
test suite: ``pytest -s tests/test_acceptance.py`` took 98 s on 2026-10-22
on a 2-vCPU Intel Xeon VM (numpy 2.4.6, OpenBLAS), 86 s of it in the
convergence-order ladders (the criterion-5 fixture set-up).
"""

import json
import math
import time

import numpy as np
import pytest

from rwpath.calibration import calibrate, calibrated_system
from rwpath.experiments import SYSTEMS, BenchmarkSystem, make_kernel, make_spec
from rwpath.kernels import DiscreteReweightedKernel, PhysicalParams, units_constant
from rwpath.moments import (
    MomentIndex,
    brownian_moment,
    continuous_spec,
    discrete_spec,
    enumerate_indices,
    moment,
    moment_product_from_samples,
    sample_spec_moments,
    verify_order,
)
from rwpath.potentials import he_cage, quartic
from rwpath.processes import (
    covariance,
    exact_brownian,
    finite_kernel,
    variance_identity_error,
)
from rwpath.propagation import (
    build_matrix,
    mc_density_ratio,
    nmm_density_ratio,
    partition_function,
)
from rwpath.quadrature import (
    composite_legendre_01,
    endpoint_trapezoid,
    gauss_legendre_01,
    is_palindromic,
)

from make_acceptance_golden import GOLDEN, acceptance_ladders, golden_values

GOLDEN_CONSTANTS = {
    "order3-continuous": (3.056620471,),
    "order3-discrete": (2.720699046,),
    "order4-continuous": (5.768064999, 13.49214669),
    "order4-discrete": (6.379716466, 8.160188248),
}


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def calibrations():
    t0 = time.perf_counter()
    results = {family: calibrate(family) for family in GOLDEN_CONSTANTS}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ladders():
    """The ladders of every benchmark system that has them (the quartic and
    the helium cage), and their wall time."""
    t0 = time.perf_counter()
    runs = acceptance_ladders()
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mc_samples():
    eb = continuous_spec(exact_brownian())
    o4 = make_spec("order4-discrete")
    return {
        "exact-brownian": (eb, sample_spec_moments(eb, 1_000_000, seed=101, max_power=6)),
        "order-4": (o4, sample_spec_moments(o4, 1_000_000, seed=202, max_power=6)),
    }


# --------------------------------------------------------------- criteria

def test_criterion_1_calibration_golden_numbers(calibrations):
    results, elapsed = calibrations
    worst = 0.0
    for family, want in GOLDEN_CONSTANTS.items():
        got = results[family].constants
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / abs(w))
    passed = worst < 5e-8 and elapsed < 10.0
    report(1, passed, f"max rel dev {worst:.2e} over 4 families, {elapsed:.2f}s")
    assert worst < 5e-8, "calibrated constants drifted beyond 8 significant digits"
    assert elapsed < 10.0


def test_criterion_2_moment_identity_suite():
    t0 = time.perf_counter()
    counts = [len(enumerate_indices(mu)) for mu in (1, 2, 3, 4)]
    assert counts == [2, 5, 11, 22]
    worst = {}
    for family, nu in [
        ("order3-continuous", 3),
        ("order3-discrete", 3),
        ("order4-continuous", 4),
        ("order4-discrete", 4),
    ]:
        spec = make_spec(family)
        tol = 1e-10 if spec.is_discrete else 1e-7
        rep = verify_order(spec, nu, tol=tol)
        worst[family] = rep.max_residual
        assert rep.passed, f"{family}: max residual {rep.max_residual:.2e} > {tol}"
    elapsed = time.perf_counter() - t0
    passed = elapsed < 60.0
    report(
        2,
        passed,
        "residuals "
        + ", ".join(f"{f}={v:.1e}" for f, v in worst.items())
        + f"; counts {counts}; {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_3_splitting_kernel_moment_discrepancies():
    system, _ = calibrated_system("order3-discrete")
    spec = discrete_spec(finite_kernel(system), endpoint_trapezoid())
    expected = {
        MomentIndex.from_multiplicities(3, {6: 1}).j: (1.5, 1.0),
        MomentIndex.from_multiplicities(3, {5: 1, 1: 1}).j: (1.5, 1.0),
        MomentIndex.from_multiplicities(3, {4: 1, 1: 2}).j: (1.5, 7.0 / 6.0),
        MomentIndex.from_multiplicities(3, {3: 2}).j: (0.25, 1.0 / 3.0),
    }
    violations = {}
    for mu in (1, 2, 3):
        for idx in enumerate_indices(mu):
            lhs = brownian_moment(idx)
            rhs = moment(spec, idx)
            if abs(rhs - lhs) >= 1e-12:
                violations[idx.j] = (rhs, lhs)
    passed = set(violations) == set(expected)
    report(3, passed, f"{len(violations)} violations; expected set matched: {passed}")
    assert passed, f"violated set {sorted(violations)} != expected {sorted(expected)}"
    for j, (rhs, lhs) in expected.items():
        got_rhs, got_lhs = violations[j]
        assert abs(got_rhs - rhs) < 1e-12
        assert abs(got_lhs - lhs) < 1e-12


def test_criterion_4_oracle_equivalence(mc_samples):
    worst = 0.0
    checked = 0
    for label, (spec, data) in mc_samples.items():
        for mu in (1, 2, 3, 4):
            for idx in enumerate_indices(mu):
                vals = moment_product_from_samples(data, idx)
                est = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(vals.size))
                det = moment(spec, idx)
                if se == 0.0:
                    assert abs(est - det) < 1e-12
                    continue
                zscore = abs(est - det) / se
                worst = max(worst, zscore)
                checked += 1
                assert zscore < 4.0, f"{label} {idx.label()}: {zscore:.2f} sigma"
    report(4, True, f"{checked} index/spec pairs, worst deviation {worst:.2f} sigma")


def test_criterion_5_convergence_orders(ladders):
    runs, elapsed = ladders
    q, h = runs["quartic"], runs["he-cage"]
    slopes = {
        "quartic-trotter": (q.orders["trotter"].slope, 2.0, 0.1),
        "quartic-order3": (q.orders["order3-discrete"].slope, 3.0, 0.1),
        "quartic-order4": (q.orders["order4-discrete"].slope, 4.0, 0.15),
        "he-order3": (h.orders["order3-discrete"].slope, 3.0, 0.2),
        "he-order4": (h.orders["order4-discrete"].slope, 4.0, 0.2),
    }
    detail = ", ".join(f"{k}={v[0]:.3f}" for k, v in slopes.items())
    ok = all(abs(v[0] - v[1]) < v[2] for v in slopes.values()) and elapsed < 1800.0
    report(5, ok, detail + f"; {elapsed:.0f}s")
    for name, (got, want, tol) in slopes.items():
        assert abs(got - want) < tol, f"{name}: slope {got:.3f} not within {tol} of {want}"
    assert elapsed < 1800.0


def test_criterion_6_trotter_convergence_constant(ladders):
    runs, _ = ladders
    q, h = runs["quartic"].constant, runs["he-cage"].constant
    q_cth_ok = abs(q.c_th - 88.35) / 88.35 < 0.005
    q_cn_ok = q.rel_err_last < 0.01
    h_ok = h.rel_err_last < 0.02
    report(
        6,
        q_cth_ok and q_cn_ok and h_ok,
        f"quartic c_th={q.c_th:.3f} (ref 88.35), c_n gap {q.rel_err_last:.2%}; "
        f"he c_th={h.c_th:.3f}, c_n gap {h.rel_err_last:.2%}",
    )
    assert q_cth_ok, f"quartic c_th {q.c_th} not within 0.5% of 88.35"
    assert q_cn_ok
    assert h_ok


# drift budget per golden kind: relative for Z and c_th, absolute for slopes
GOLDEN_BUDGET = {"z": 1e-12, "slope": 1e-6, "c_th": 1e-9}


def test_acceptance_golden_drift(ladders):
    # the ladders' Z, slopes and c_th against tests/acceptance_golden.json
    # (tests/make_acceptance_golden.py), each kind's largest drift reported
    # with its share of the budget
    golden = json.loads(GOLDEN.read_text())
    got = golden_values(ladders[0])
    drift = {}
    for kind, budget in GOLDEN_BUDGET.items():
        assert got[kind].keys() == golden[kind].keys(), f"{kind}: the golden labels moved"
        drift[kind] = max(
            abs(got[kind][label] - want) / (1.0 if kind == "slope" else abs(want))
            for label, want in golden[kind].items()
        )
    print("ACCEPTANCE GOLDEN: " + ", ".join(
        f"{kind} drift {drift[kind]:.1e} ({drift[kind] / budget:.0%} of {budget:.0e})"
        for kind, budget in GOLDEN_BUDGET.items()) + f"; made at {golden['sha'][:12]}")
    for kind, budget in GOLDEN_BUDGET.items():
        # written so that a NaN drift fails
        assert drift[kind] <= budget, f"{kind} drift {drift[kind]:.2e} over the budget of {budget:.0e}"


def test_ladders_run_the_benchmark_set_ups(ladders):
    # criteria 5 and 6 are stated for these set-ups; SYSTEMS may not drift
    assert SYSTEMS["quartic"] == BenchmarkSystem(
        quartic, 10.0, 1.0, 1.0, (-4.0, 4.0, 400),
        {"trotter": 60, "order3-discrete": 60, "order4-discrete": 30}, 60)
    assert SYSTEMS["he-cage"] == BenchmarkSystem(
        he_cage, 1.0 / 5.11, math.sqrt(units_constant()), 4.0, (0.0, 7.153, 500),
        {"order3-discrete": 40, "order4-discrete": 56}, 120)
    assert [run.reference.n_ref for run in ladders[0].values()] == [968, 904]


def test_criterion_7_harmonic_analytic_cross_check():
    pot, params, grid = SYSTEMS["harmonic"].resolve()
    kernel = make_kernel("order4-discrete", pot)
    z = partition_function(build_matrix(kernel, params, grid, 63))
    z_want = 1.0 / (2.0 * math.sinh(5.0))
    z_ok = abs(z - z_want) / z_want < 1e-5

    # short-time residual order: the kernel's action on a smooth state gains
    # five binary digits per halving of beta (the pointwise diagonal residual
    # is one order lower and is checked only for magnitude)
    kernel14 = make_kernel("order4-discrete", pot, gh_points=14)

    def mehler(beta, x, xg):
        s, c = math.sinh(beta), math.cosh(beta)
        pref = math.sqrt(1.0 / (2 * math.pi * s))
        return pref * np.exp(-((x * x + xg * xg) * c - 2 * x * xg) / (2 * s))

    def propagated_residual(beta):
        p = PhysicalParams(beta=beta)
        xg = np.linspace(-8.0, 8.0, 2001)
        psi = np.exp(-0.5 * xg * xg)
        diff = np.asarray(kernel14.rho0(p, 0.0, xg)) - mehler(beta, 0.0, xg)
        return abs(
            float(np.trapezoid(diff * psi, xg))
            / float(np.trapezoid(mehler(beta, 0.0, xg) * psi, xg))
        )

    ratio = propagated_residual(0.2) / propagated_residual(0.1)
    ratio_ok = abs(ratio - 32.0) < 0.15 * 32.0
    p02 = PhysicalParams(beta=0.2)
    m02 = float(mehler(0.2, 0.0, 0.0))
    point_ok = abs(kernel14.rho0(p02, 0.0, 0.0) - m02) / m02 < 5e-6
    report(
        7,
        z_ok and ratio_ok and point_ok,
        f"Z(n=63) rel err {abs(z - z_want) / z_want:.2e}; "
        f"beta^5 ratio {ratio:.1f} (target 32); pointwise residual ok",
    )
    assert z_ok
    assert ratio_ok
    assert point_ok


def test_criterion_8_monte_carlo_cross_check():
    pot, params, grid = SYSTEMS["quartic"].resolve(beta=1.0)
    kernel = make_kernel("order4-discrete", pot)
    est, se = mc_density_ratio(kernel, params, 0.0, 0.0, 3, 1_000_000, seed=7)
    want = nmm_density_ratio(kernel, params, grid, 7, 0.0, 0.0)
    z = abs(est - want) / se
    report(8, z < 4.0, f"mc {est:.6f} +/- {se:.1e} vs nmm {want:.6f} ({z:.2f} sigma)")
    assert z < 4.0


def test_criterion_9_structural_invariants():
    # kernel symmetry
    rng = np.random.default_rng(12)
    params = PhysicalParams(beta=0.4)
    s4, r4 = calibrated_system("order4-discrete")
    s3c, _ = calibrated_system("order3-continuous")
    s4c, _ = calibrated_system("order4-continuous")
    kernel = DiscreteReweightedKernel(s4, quartic(), r4)
    x, xp = rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100)
    sym_gap = float(
        np.max(
            np.abs(
                np.asarray(kernel.rho0(params, x, xp))
                - np.asarray(kernel.rho0(params, xp, x))
            )
            / np.asarray(kernel.rho0(params, x, xp))
        )
    )
    # variance identity for every calibrated family
    var_gap = max(
        variance_identity_error(s)
        for s in (s4, s3c, s4c, calibrated_system("order3-discrete")[0])
    )
    # palindromic rules
    palin = all(is_palindromic(r) for r in (gauss_legendre_01(2), gauss_legendre_01(4),
                                            endpoint_trapezoid(),
                                            composite_legendre_01(64, 8, sqrt_endpoints=True)))
    # covariance positive semidefiniteness on random time sets
    times = rng.uniform(0, 1, 10)
    psd_floor = 0.0
    for system in (s3c, s4, s4c):
        mat = covariance(finite_kernel(system), times[:, None], times[None, :])
        psd_floor = min(psd_floor, float(np.linalg.eigvalsh(mat).min()))
    ok = sym_gap < 1e-12 and var_gap < 1e-12 and palin and psd_floor > -1e-10
    report(
        9,
        ok,
        f"symmetry {sym_gap:.1e}, variance identity {var_gap:.1e}, "
        f"palindromic rules {palin}, min covariance eigenvalue {psd_floor:.1e}",
    )
    assert sym_gap < 1e-12
    assert var_gap < 1e-12
    assert palin
    assert psd_floor > -1e-10
