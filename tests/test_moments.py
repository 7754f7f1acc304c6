import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rwpath import moments
from rwpath.calibration import calibrated_system
from rwpath.experiments import make_spec
from rwpath.kernels import _WORK_UNIT
from rwpath.moments import (
    MomentIndex,
    _isserlis_sum,
    brownian_moment,
    continuous_spec,
    discrete_spec,
    enumerate_indices,
    mc_moment_oracle,
    moment,
    moment_product_from_samples,
    sample_spec_moments,
    verify_order,
)
from rwpath.processes import LambdaSystem, covariance, exact_brownian, finite_kernel, make_order3, path_basis
from rwpath.quadrature import _EXACT_TIME_RULE, composite_legendre_01, endpoint_trapezoid, gauss_legendre_01

EB = continuous_spec(exact_brownian())


def ix(mu, mults):
    return MomentIndex.from_multiplicities(mu, mults)


def trotter_spec():
    system, _ = calibrated_system("order3-discrete")
    return discrete_spec(finite_kernel(system), endpoint_trapezoid())


def lifted_system():
    """A custom system whose bridges do not vanish at u = 1, where its
    covariance C(1, 1) = 1.25 + sin(1)^2 is about 1.958."""
    return LambdaSystem(
        (lambda u: 0.5 * np.asarray(u, dtype=float) ** 2, lambda u: np.sin(np.asarray(u, dtype=float))),
    )


# -- index enumeration --------------------------------------------------

def test_enumeration_counts_match_partition_numbers():
    # cross-checked against a brute-force partition counter
    def brute_partitions(n, max_part):
        if n == 0:
            return 1
        return sum(brute_partitions(n - p, p) for p in range(min(n, max_part), 0, -1))

    for mu in range(1, 9):
        assert len(enumerate_indices(mu)) == brute_partitions(2 * mu, 2 * mu)


def test_enumeration_reference_counts():
    assert [len(enumerate_indices(mu)) for mu in (1, 2, 3, 4)] == [2, 5, 11, 22]


def test_mu1_indices_explicit():
    got = {idx.j for idx in enumerate_indices(1)}
    assert got == {(0, 1), (2, 0)}


def test_indices_are_valid_and_unique():
    for mu in (2, 3, 4):
        idxs = enumerate_indices(mu)
        assert len({i.j for i in idxs}) == len(idxs)
        for idx in idxs:
            assert sum((k + 1) * v for k, v in enumerate(idx.j)) == 2 * mu
            assert idx.gaussian_degree % 2 == 0


# -- exact Brownian moments ---------------------------------------------

@pytest.mark.parametrize(
    "idx,value",
    [
        (ix(3, {6: 1}), 1.0),  # fourth-power time average
        (ix(3, {3: 2}), 1.0 / 3.0),  # squared path centroid
        (ix(4, {4: 2}), 7.0 / 12.0),
        (ix(4, {5: 1, 3: 1}), 5.0 / 8.0),
        (ix(3, {5: 1, 1: 1}), 1.0),
        (ix(3, {4: 1, 1: 2}), 7.0 / 6.0),
        (ix(1, {2: 1}), 1.0),
        (ix(1, {1: 2}), 1.0),
        (ix(2, {1: 4}), 3.0),
        (ix(2, {4: 1}), 0.5),
    ],
)
def test_exact_brownian_values(idx, value):
    assert moment(EB, idx) == pytest.approx(value, abs=1e-12)


def test_gaussian_degree_always_even_and_odd_branch_guarded():
    # valid integer-mu indices always have even degree (2mu minus twice the
    # number of average factors), so moment() has no odd-degree branch, and
    # the pairing sum refuses odd counts outright
    for mu in (1, 2, 3, 4, 5):
        for idx in enumerate_indices(mu):
            assert idx.gaussian_degree % 2 == 0
    with pytest.raises(ValueError):
        _isserlis_sum((3,), lambda sa, sb: 1.0)


def listed_isserlis_sum(counts, cov):
    """Reference pairing sum that lists all (g-1)!! pairings of the factors
    one by one; returns the sum and the sum of the absolute terms."""
    slots = [s - 1 for s, m in enumerate(counts) for _ in range(m)]

    def pairings(rest):
        if not rest:
            yield ()
            return
        for i in range(1, len(rest)):
            for tail in pairings(rest[1:i] + rest[i + 1 :]):
                yield ((rest[0], rest[i]),) + tail

    total = size = 0.0
    for pairing in pairings(list(range(len(slots)))):
        term = math.prod(cov(slots[a], slots[b]) for a, b in pairing)
        total += term
        size += abs(term)
    return total, size


def test_counted_pairing_sum_matches_listed_pairings():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5))
    table = a + a.T

    def cov(sa, sb):
        assert sa <= sb
        return table[sa + 1, sb + 1]

    eps = np.finfo(float).eps
    all_counts = {idx.slot_counts for mu in range(1, 7) for idx in enumerate_indices(mu)}
    for counts in all_counts:
        want, size = listed_isserlis_sum(counts, cov)
        g = sum(counts)
        pairings = math.prod(range(g - 1, 0, -2))
        assert abs(_isserlis_sum(counts, cov) - want) <= (pairings + g) * eps * size


def test_counted_pairing_sum_counts_equal_terms():
    # 16 endpoint factors: 15!! pairings, all equal, in one cov call per pair
    calls = []

    def cov(sa, sb):
        calls.append((sa, sb))
        return 1.5

    assert _isserlis_sum((16,), cov) == math.prod(range(15, 0, -2)) * 1.5**8
    assert calls == [(-1, -1)] * 8


def test_endpoint_only_moments_match_closed_form():
    # with no time average the pairing sum has (g-1)!! equal terms
    # C(1,1)^(g/2); the custom system's bridges do not vanish at u = 1, so
    # there C(1,1) != 1
    lifted = lifted_system()
    assert covariance(finite_kernel(lifted), 1.0, 1.0) == pytest.approx(1.25 + math.sin(1.0) ** 2)
    system3, rule3 = calibrated_system("order3-discrete")
    specs = [EB, trotter_spec(), discrete_spec(finite_kernel(system3), rule3)]
    specs += [discrete_spec(finite_kernel(lifted), gauss_legendre_01(3)), continuous_spec(finite_kernel(lifted))]
    eps = np.finfo(float).eps
    for spec in specs:
        c11 = covariance(spec.kernel, 1.0, 1.0)
        for mu in range(1, 6):
            for idx in enumerate_indices(mu):
                if idx.time_dim:
                    continue
                g = idx.gaussian_degree
                pairings = math.prod(range(g - 1, 0, -2))
                want = pairings * c11 ** (g // 2)
                assert moment(spec, idx) == pytest.approx(want, rel=(pairings + g) * eps, abs=0)


def test_time_dimension_bound_raises_toward_oracle():
    # six averages of the distinct powers 1..6: 720 arrangements of 9^6
    # simplex points each, far over the quadrature budget
    idx = ix(17, {1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1})
    assert idx.time_dim == 6
    with pytest.raises(ValueError, match="mc_moment_oracle"):
        moment(EB, idx)
    # the continuous order-4 system passes the budget at mu = 10
    system, _ = calibrated_system("order4-continuous")
    with pytest.raises(ValueError, match="mc_moment_oracle"):
        moment(continuous_spec(finite_kernel(system)), ix(10, {20: 1}))


def test_five_time_variables_match_steins_lemma():
    # E[X Y^5] = 5 Cov(X, Y) E[Y^4] = 15 Cov(X, Y) Var(Y)^2 for the endpoint
    # X and the path centroid Y; for Brownian motion Cov = 1/2, Var = 1/3
    idx = MomentIndex(8, (1, 0, 5) + (0,) * 13)
    assert idx.time_dim == 5
    assert abs(brownian_moment(idx) - 5.0 / 6.0) <= 1e-14
    # a finite path is phi(u) . a: Cov = phi(1) . m and Var = m . m, where m
    # is phi averaged over the time rule
    system, _ = calibrated_system("order4-continuous")
    u, w = _EXACT_TIME_RULE.points, _EXACT_TIME_RULE.weights
    m = np.vstack([u, system.bridge_values(u)]) @ w
    phi1 = np.append(1.0, system.bridge_values(1.0))
    want = 15.0 * (phi1 @ m) * (m @ m) ** 2
    assert moment(continuous_spec(finite_kernel(system)), idx) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("case", ["lifted", "order4-discrete"])
def test_finite_moments_match_the_covariance_pairing_sum(case):
    # the Gauss-Hermite average over the coefficients against the Isserlis
    # sum over the covariance kernel on the rule's tensor grid
    if case == "lifted":
        system, rule = lifted_system(), gauss_legendre_01(3)
    else:
        system, rule = calibrated_system(case)
    spec = discrete_spec(finite_kernel(system), rule)
    u = rule.points
    for mu in range(1, 5):
        for idx in enumerate_indices(mu):
            grids = np.meshgrid(*([u] * idx.time_dim), indexing="ij")
            t = [g.ravel() for g in grids]

            def cov(sa, sb):
                return covariance(spec.kernel, 1.0 if sa < 0 else t[sa], 1.0 if sb < 0 else t[sb])

            wt = np.ones(1)
            for _ in range(idx.time_dim):
                wt = np.multiply.outer(wt, rule.weights).ravel()
            want = float(np.sum(wt * _isserlis_sum(idx.slot_counts, cov)))
            assert moment(spec, idx) == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_verify_order_rhs_is_the_moment_bit_for_bit():
    system, rule = calibrated_system("order4-continuous")
    for spec in (order4_spec(), continuous_spec(finite_kernel(system))):
        for entry in verify_order(spec, 5).entries:
            assert entry.rhs == moment(spec, entry.index)


# -- discrete endpoint rule (splitting kernel) ---------------------------

@pytest.mark.parametrize(
    "idx,value",
    [
        (ix(3, {6: 1}), 1.5),
        (ix(3, {5: 1, 1: 1}), 1.5),
        (ix(3, {4: 1, 1: 2}), 1.5),
        (ix(3, {3: 2}), 0.25),
    ],
)
def test_endpoint_rule_discrepancies(idx, value):
    assert moment(trotter_spec(), idx) == pytest.approx(value, abs=1e-12)


def test_endpoint_rule_violates_exactly_four_indices():
    report = verify_order(trotter_spec(), 3, tol=1e-12)
    assert not report.passed
    violated = {e.index.j for e in report.violations}
    want = {
        ix(3, {6: 1}).j,
        ix(3, {5: 1, 1: 1}).j,
        ix(3, {4: 1, 1: 2}).j,
        ix(3, {3: 2}).j,
    }
    assert violated == want
    # and the exact values on the other side
    lhs = {tuple(e.index.j): e.lhs for e in report.violations}
    assert lhs[ix(3, {6: 1}).j] == pytest.approx(1.0, abs=1e-12)
    assert lhs[ix(3, {5: 1, 1: 1}).j] == pytest.approx(1.0, abs=1e-12)
    assert lhs[ix(3, {4: 1, 1: 2}).j] == pytest.approx(7.0 / 6.0, abs=1e-12)
    assert lhs[ix(3, {3: 2}).j] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_endpoint_rule_passes_orders_one_and_two():
    assert verify_order(trotter_spec(), 2, tol=1e-12).passed


# -- spec invariants ------------------------------------------------------

def test_discrete_weights_must_sum_to_one():
    from rwpath.quadrature import Rule1D

    bad = Rule1D([0.2, 0.8], [0.4, 0.4])
    with pytest.raises(ValueError):
        discrete_spec(exact_brownian(), bad)


def test_j1_j2_indices_agree_for_any_valid_spec():
    # indices touching only the endpoint and the trivial average depend on
    # nothing but the endpoint law and the weight normalization
    system, rule = calibrated_system("order3-discrete")
    specs = [
        EB,
        trotter_spec(),
        discrete_spec(finite_kernel(system), rule),
        continuous_spec(finite_kernel(system)),
    ]
    for mu in (1, 2, 3):
        for idx in enumerate_indices(mu):
            if set(idx.nonzero) <= {1, 2}:
                vals = [moment(s, idx) for s in specs]
                assert max(vals) - min(vals) < 1e-10


def test_moment_invariant_under_time_reversal():
    system, rule = calibrated_system("order4-discrete")
    reversed_system = LambdaSystem(
        tuple((lambda f: (lambda u, _f=f: _f(1.0 - np.asarray(u, dtype=float))))(f) for f in system.bridge),
    )
    for spec_fwd, spec_rev in [
        (
            discrete_spec(finite_kernel(system), rule),
            discrete_spec(finite_kernel(reversed_system), rule),
        ),
        (
            continuous_spec(finite_kernel(system)),
            continuous_spec(finite_kernel(reversed_system)),
        ),
    ]:
        for mu in (1, 2, 3, 4):
            for idx in enumerate_indices(mu):
                assert moment(spec_fwd, idx) == pytest.approx(
                    moment(spec_rev, idx), abs=1e-10
                )


def test_calibrated_systems_verify_their_orders():
    cases = [
        ("order3-continuous", 3, None),
        ("order3-discrete", 3, None),
        ("order4-continuous", 4, None),
        ("order4-discrete", 4, None),
    ]
    for family, nu, _ in cases:
        system, rule = calibrated_system(family)
        kern = finite_kernel(system)
        spec = continuous_spec(kern) if rule is None else discrete_spec(kern, rule)
        report = verify_order(spec, nu)
        assert report.passed, f"{family} failed: {report.max_residual}"
        beyond = verify_order(spec, nu + 1, tol=1e-4)
        assert not beyond.passed, f"{family} should not reach order {nu + 1}"


@pytest.mark.parametrize("family, nu, flipped", [
    ("order3-discrete", 6, 0), ("order3-discrete", 7, 1), ("order3-discrete", 8, 9),
    ("order4-discrete", 6, 0), ("order4-discrete", 7, 0), ("order4-discrete", 8, 37),
])
def test_verify_order_passes_an_identity_off_by_rounding_alone(family, nu, flipped):
    # an absolute 1e-12 is below one ulp of a mu >= 7 moment above about
    # 4500, so the floor is relative above |lhs| = 1; the entries it passes,
    # and only they, differ from the absolute test, each off by 11 ulps or less,
    # while every violation left misses by 4.3e-4 of |lhs| or more
    report = verify_order(make_spec(family), nu)
    moved = [e for e in report.entries if e.passed != (abs(e.residual) < report.tol)]
    assert len(moved) == flipped
    assert all(e.passed and abs(e.residual) <= 16 * np.spacing(e.lhs) for e in moved)
    assert all(abs(e.residual) >= 4e-4 * max(1.0, abs(e.lhs)) for e in report.violations)
    if (family, nu) == ("order3-discrete", 7):
        assert (moved[0].index.j, moved[0].lhs) == (ix(7, {1: 11, 3: 1}).j, 5197.5)
    if (family, nu) == ("order4-discrete", 8):
        j16 = next(e for e in moved if e.index.j == ix(8, {16: 1}).j)
        assert j16.lhs == pytest.approx(16891.875, rel=1e-14)


def test_order_report_json_round_trip():
    import json

    report = verify_order(trotter_spec(), 1)
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert payload["nu"] == 1
    assert payload["pass"] is True
    assert {"index", "lhs", "rhs", "residual", "pass"} <= set(payload["entries"][0])


# -- Isserlis self-test ---------------------------------------------------

def isserlis_quartic_check(M, dim: int, samples: int = 1_000_000, seed: int = 0):
    """Self-test of the pairing formula on a quartic form.

    Returns the pair (Monte Carlo estimate of E[sum a_i a_j a_k a_l M_ijkl]
    over a standard normal vector, pairing-formula value
    sum_ij (M_iijj + M_ijij + M_ijji)).
    """
    if dim < 1 or dim > 6:
        raise ValueError("dim must be between 1 and 6")
    M = np.asarray(M, dtype=float).reshape(dim, dim, dim, dim)
    pairing = (
        float(np.einsum("iijj->", M))
        + float(np.einsum("ijij->", M))
        + float(np.einsum("ijji->", M))
    )
    est, _ = _quartic_form_mc(M, dim, samples, seed)
    return est, pairing


def _quartic_form_mc(M: np.ndarray, dim: int, samples: int, seed: int):
    """Mean and standard error of the quartic form over normal samples."""
    rng = np.random.default_rng(seed)
    mr = M.reshape(dim * dim, dim * dim)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(200_000, samples - done)
        a = rng.standard_normal((b, dim))
        outer = np.einsum("si,sj->sij", a, a).reshape(b, dim * dim)
        vals = np.einsum("sm,mn,sn->s", outer, mr, outer)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def test_isserlis_quartic_all_zero():
    est, pairing = isserlis_quartic_check(np.zeros((2, 2, 2, 2)), 2, samples=10_000)
    assert est == 0.0
    assert pairing == 0.0


def test_isserlis_quartic_single_variable():
    est, pairing = isserlis_quartic_check(np.ones((1, 1, 1, 1)), 1, samples=200_000)
    assert pairing == pytest.approx(3.0)
    assert abs(est - 3.0) < 0.1


def test_isserlis_quartic_random_tensor_agrees_with_mc():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((3, 3, 3, 3))
    est, pairing = isserlis_quartic_check(m, 3, samples=1_000_000, seed=1)
    _, se = _quartic_form_mc(m, 3, 200_000, 1)
    assert abs(est - pairing) < 4.0 * se


def test_isserlis_quartic_dim_bound():
    with pytest.raises(ValueError):
        isserlis_quartic_check(np.zeros((7,) * 4), 7)


# -- Monte Carlo oracle ---------------------------------------------------

def test_mc_oracle_exact_brownian_reference_values():
    for idx, want in [(ix(3, {6: 1}), 1.0), (ix(1, {1: 2}), 1.0), (ix(4, {4: 2}), 7.0 / 12.0)]:
        est, se = mc_moment_oracle(EB, idx, samples=200_000, seed=3)
        assert abs(est - want) < 4.0 * se
        assert se < 0.05


def test_mc_oracle_matches_engine_on_finite_discrete_spec():
    system, rule = calibrated_system("order3-discrete")
    spec = discrete_spec(finite_kernel(system), rule)
    data = sample_spec_moments(spec, 400_000, seed=9, max_power=4)
    for idx in [ix(2, {4: 1}), ix(3, {3: 2}), ix(3, {4: 1, 1: 2})]:
        vals = moment_product_from_samples(data, idx)
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
        assert abs(est - moment(spec, idx)) < 4.0 * se


def test_mc_oracle_continuous_finite_spec():
    system, _ = calibrated_system("order4-continuous")
    spec = continuous_spec(finite_kernel(system))
    idx = ix(4, {5: 1, 3: 1})
    est, se = mc_moment_oracle(spec, idx, samples=300_000, seed=17)
    assert abs(est - moment(spec, idx)) < 4.0 * se


def test_mc_oracle_endpoint_includes_the_bridges_at_one():
    spec = discrete_spec(finite_kernel(lifted_system()), gauss_legendre_01(3))
    idx = ix(1, {1: 2})
    assert moment(spec, idx) == pytest.approx(1.25 + math.sin(1.0) ** 2, rel=1e-14)
    est, se = mc_moment_oracle(spec, idx, samples=200_000, seed=6)
    assert abs(est - moment(spec, idx)) < 4.0 * se


def test_sample_spec_moments_memory_is_bounded():
    tracemalloc.start()
    try:
        sample_spec_moments(EB, 20_000, truncation=256, max_power=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the payload is 7 x 160 kB; the path matrix alone would be 82 MB
    assert peak < 16 * 2**20


def order4_spec():
    system, rule = calibrated_system("order4-discrete")
    return discrete_spec(finite_kernel(system), rule)


def sampled_rule(spec):
    """The time rule sample_spec_moments averages over at its default
    truncation."""
    if spec.rule is not None:
        return spec.rule
    return composite_legendre_01(256 if spec.kernel.is_exact_brownian else 64, 2,
                                 sqrt_endpoints=not spec.kernel.is_exact_brownian)


def sample_block_rows(spec):
    """Rows per block of sample_spec_moments at its default truncation: the
    row width is the larger of the draws per sample and the time nodes."""
    nodes = sampled_rule(spec).points
    if spec.kernel.is_exact_brownian:
        draws = nodes.size + (nodes[-1] < 1.0)  # increments, plus one to t = 1
    else:
        draws = 1 + spec.kernel.system.q
    return _WORK_UNIT // max(draws, nodes.size)


# exact Brownian (512 nodes), order-4 on its 4-node rule, and order-4 with
# exact time integrals, sampled on 128 nodes
SAMPLED_SPECS = pytest.mark.parametrize(
    "spec", [EB, order4_spec(), make_spec("order4-continuous")],
    ids=["exact-brownian", "order-4", "order-4-continuous"])


@SAMPLED_SPECS
def test_sample_spec_moments_do_not_depend_on_blocking(spec):
    rows = sample_block_rows(spec)
    n2 = 2 * rows + 3
    whole = sample_spec_moments(spec, n2, seed=21)
    for n1 in (1, 127, rows + 1):
        part = sample_spec_moments(spec, n1, seed=21)
        assert np.array_equal(part["B1"], whole["B1"][:n1])
        for k in range(1, 7):
            assert np.array_equal(part["M"][k], whole["M"][k][:n1])


@SAMPLED_SPECS
def test_sample_spec_moments_match_unblocked_reference(spec):
    # the whole draw at once, reduced by BLAS: same stream, same endpoint bits,
    # averages equal up to the order of the time-node sum
    n, seed = 3000, 8
    rng = np.random.default_rng(seed)
    rule = sampled_rule(spec)
    if spec is EB:
        ts = np.append(rule.points, 1.0)
        full = np.cumsum(np.sqrt(np.diff(ts, prepend=0.0)) * rng.standard_normal((n, ts.size)), axis=1)
        paths, b1 = full[:, :-1], full[:, -1]
    else:
        lam = np.vstack([rule.points, path_basis(spec.kernel.system, rule).values])
        coeff = rng.standard_normal((n, lam.shape[0]))
        paths, b1 = coeff @ lam, coeff[:, 0]
    data = sample_spec_moments(spec, n, seed=seed)
    assert np.array_equal(data["B1"], b1)
    for k in range(1, 7):
        scale = np.abs(paths) ** k @ rule.weights
        assert np.all(np.abs(data["M"][k] - paths**k @ rule.weights) <= 1e-13 * scale)


def caller_thread_blocks(rng, samples, rows, width):
    """The draw loop without a worker: each block drawn in the caller's
    thread into the first rows of one reused, zero-initialised buffer."""
    z = np.zeros((rows, width))
    for r0 in range(0, samples, rows):
        r1 = min(samples, r0 + rows)
        rng.standard_normal(out=z[: r1 - r0])
        yield r0, r1, z


def test_normal_blocks_continue_one_stream():
    rows, width, samples = 7, 5, 3 * 7 + 2
    got = [(r0, r1, block.shape, block[: r1 - r0].copy()) for r0, r1, block in
           moments._normal_blocks(np.random.default_rng(3), samples, rows, width)]
    assert [(r0, r1) for r0, r1, _, _ in got] == [(0, 7), (7, 14), (14, 21), (21, 23)]
    assert {shape for _, _, shape, _ in got} == {(rows, width)}
    whole = np.random.default_rng(3).standard_normal((samples, width))
    assert np.array_equal(np.vstack([b for _, _, _, b in got]), whole)


@SAMPLED_SPECS
def test_sample_spec_moments_match_caller_thread_draws(spec, monkeypatch):
    n = 3 * sample_block_rows(spec) + 5  # three whole blocks and a partial one
    drawn_ahead = sample_spec_moments(spec, n, seed=13)
    monkeypatch.setattr(moments, "_normal_blocks", caller_thread_blocks)
    reference = sample_spec_moments(spec, n, seed=13)
    assert np.array_equal(drawn_ahead["B1"], reference["B1"])
    for k in range(1, 7):
        assert np.array_equal(drawn_ahead["M"][k], reference["M"][k])


def test_sample_spec_moments_join_their_one_worker(monkeypatch):
    n = 3 * sample_block_rows(EB) + 5
    caller = threading.current_thread()
    lock = threading.Lock()
    draws = []  # the thread of each block's draw
    running = [0]  # draws under way
    fail = []

    class Watched:
        """The sampler's generator, recording who draws; a draw is slow, so
        one left running past the return would still be under way."""

        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            with lock:
                draws.append(threading.current_thread())
                running[0] += 1
            try:
                time.sleep(2e-3)
                if fail and threading.current_thread() is not caller:
                    raise RuntimeError("draw failed")
                return self.rng.standard_normal(out=out)
            finally:
                with lock:
                    running[0] -= 1

    normal_blocks = moments._normal_blocks
    monkeypatch.setattr(moments, "_normal_blocks", lambda rng, *args: normal_blocks(Watched(rng), *args))
    row_sums = moments._row_sums

    def slow(a, out):
        time.sleep(5e-3)  # the worker starts its draw while the caller reduces
        row_sums(a, out)

    monkeypatch.setattr(moments, "_row_sums", slow)
    want = sample_spec_moments(EB, n, seed=2, max_power=1)
    assert running == [0]
    assert len(draws) == 4 and draws[0] is caller and len(set(draws)) == 2
    after_one = threading.active_count()

    reduced = []

    def failing(a, out):
        reduced.append(a.shape[0])
        if len(reduced) == 2:  # the second block of this call, once the third is being drawn
            deadline = time.monotonic() + 10.0
            while not running[0] and time.monotonic() < deadline:
                time.sleep(1e-4)
            raise RuntimeError("reduction failed")
        slow(a, out)

    monkeypatch.setattr(moments, "_row_sums", failing)
    with pytest.raises(RuntimeError, match="reduction failed"):
        sample_spec_moments(EB, n, seed=2, max_power=1)
    assert running == [0]

    fail.append(True)
    monkeypatch.setattr(moments, "_row_sums", slow)
    with pytest.raises(RuntimeError, match="draw failed"):
        sample_spec_moments(EB, n, seed=2, max_power=1)
    assert running == [0]
    fail.clear()
    got = sample_spec_moments(EB, n, seed=2, max_power=1)
    assert np.array_equal(got["B1"], want["B1"]) and np.array_equal(got["M"][1], want["M"][1])

    # a one-block call draws on the caller alone
    draws.clear()
    sample_spec_moments(EB, 5, seed=2, max_power=1)
    assert draws == [caller]

    # the pool's threads persist and are reused: no call leaves one behind.
    # A pool of more than one thread may still start its others.
    monkeypatch.setattr(moments, "_row_sums", row_sums)
    for _ in range(50):
        sample_spec_moments(EB, n, seed=2, max_power=1)
    pool = max(1, len(os.sched_getaffinity(0)) - 1) if hasattr(os, "sched_getaffinity") else 1
    assert after_one <= threading.active_count() <= after_one + pool - 1


def test_moment_product_matches_power_formula_and_keeps_payload():
    data = sample_spec_moments(EB, 2000, seed=4)
    before = {"B1": data["B1"].copy(), "M": {k: v.copy() for k, v in data["M"].items()}}
    indices = [idx for mu in range(1, 5) for idx in enumerate_indices(mu)]
    assert len(indices) == 40
    for idx in indices:
        want = data["B1"] ** idx.j[0]
        for k, v in enumerate(idx.j[2:], start=3):
            want = want * data["M"][k - 2] ** v
        got = moment_product_from_samples(data, idx)
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)
    assert np.array_equal(data["B1"], before["B1"])
    assert all(np.array_equal(data["M"][k], before["M"][k]) for k in before["M"])
