import math

import numpy as np
import pytest

from rwpath.calibration import calibrated_system
from rwpath.moments import (
    MomentIndex,
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
from rwpath.processes import exact_brownian, finite_kernel, make_custom, make_order3
from rwpath.quadrature import endpoint_trapezoid, gauss_legendre_01

EB = continuous_spec(exact_brownian())


def ix(mu, mults):
    return MomentIndex.from_multiplicities(mu, mults)


def trotter_spec():
    system, _ = calibrated_system("order3-discrete")
    return discrete_spec(finite_kernel(system), endpoint_trapezoid())


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


def test_index_validation():
    with pytest.raises(ValueError):
        MomentIndex(2, (1, 0, 0, 0))  # weighted sum != 2 mu
    with pytest.raises(ValueError):
        MomentIndex(1, (2,))  # wrong length
    with pytest.raises(ValueError):
        MomentIndex(0, ())


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
    # number of average factors); the analytic-zero branch for odd degree is
    # defensive and the pairing enumerator refuses odd counts outright
    for mu in (1, 2, 3, 4, 5):
        for idx in enumerate_indices(mu):
            assert idx.gaussian_degree % 2 == 0
    from rwpath.moments import _pairings

    with pytest.raises(ValueError):
        _pairings(3)


def test_time_dimension_bound_raises_toward_oracle():
    # five cubic averages: d = 5 > 4
    idx = MomentIndex(8, (1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="mc_moment_oracle"):
        moment(EB, idx)


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
    reversed_system = make_custom(
        [(lambda f: (lambda u, _f=f: _f(1.0 - np.asarray(u, dtype=float))))(f) for f in system.bridge],
        system.symmetry,
        check=False,
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


def test_order_report_json_round_trip():
    import json

    report = verify_order(trotter_spec(), 1)
    payload = json.loads(report.to_json())
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


def test_mc_oracle_truncation_precondition():
    with pytest.raises(ValueError):
        mc_moment_oracle(EB, ix(1, {1: 2}), samples=1000, truncation=10)


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
