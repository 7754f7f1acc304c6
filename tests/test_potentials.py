import math

import numpy as np
import pytest

from rwpath.calibration import calibrated_system
from rwpath.kernels import DiscreteReweightedKernel
from rwpath.potentials import custom_potential, harmonic, he_cage, quartic
from rwpath.propagation import SpatialGrid


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_quartic_values():
    pot = quartic()
    assert pot.value(1.0) == pytest.approx(0.5)
    assert pot.value(0.0) == 0.0
    assert pot.deriv1(0.0) == 0.0
    x = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(pot.value(-x), pot.value(x), atol=1e-15)


def test_harmonic_values_and_derivative():
    pot = harmonic(1.0)
    assert pot.value(2.0) == pytest.approx(2.0)
    got = pot.deriv1(0.7)
    assert abs(got - central_diff(pot.value, 0.7)) < 1e-9


def test_harmonic_partition_function_oracle():
    # geometric series for the analytic level sum
    beta, omega = 2.0, 1.0
    direct = sum(math.exp(-beta * (k + 0.5) * omega) for k in range(200))
    assert direct == pytest.approx(1.0 / (2.0 * math.sinh(beta * omega / 2)), rel=1e-12)


def test_he_cage_parameters_echo():
    pot = he_cage()
    assert pot.params["eps"] == 10.22
    assert pot.params["sigma_lj"] == 2.556
    assert pot.params["box"] == 7.153


def test_he_cage_midpoint_value():
    pot = he_cage()
    box, eps, sig = 7.153, 10.22, 2.556
    want = 2 * 4 * eps * ((2 * sig / box) ** 12 - (2 * sig / box) ** 6)
    assert pot.value(box / 2) == pytest.approx(want, rel=1e-12)


def test_he_cage_mirror_symmetry():
    pot = he_cage()
    x = np.linspace(0.5, 6.6, 31)
    np.testing.assert_allclose(pot.value(7.153 - x), pot.value(x), rtol=1e-10)
    np.testing.assert_allclose(pot.deriv1(7.153 - x), -pot.deriv1(x), rtol=1e-9)


def test_he_cage_walls_are_infinite_not_errors():
    pot = he_cage()
    assert pot.value(0.0) == math.inf
    assert pot.value(7.153) == math.inf
    assert pot.value(-1.0) == math.inf
    assert pot.value(9.0) == math.inf
    vals = pot.value(np.array([-0.5, 3.5, 8.0]))
    assert np.isinf(vals[0]) and np.isfinite(vals[1]) and np.isinf(vals[2])
    assert not np.any(np.isnan(vals))


def pow6(t):
    t2 = t * t
    return t2 * t2 * t2


def lj_cage_reference(x, eps=10.22, sig=2.556, box=7.153):
    """The textbook cage formula, one temporary per step, in the operation
    order he_cage fuses: (t^2 t^2) t^2 and 4 eps (y6 (y6 - 1) + z6 (z6 - 1)),
    +inf outside (0, box) and NaN at NaN."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y6 = pow6(sig / x)
        z6 = pow6(sig / (x - box))
        v = 4.0 * eps * (y6 * (y6 - 1.0) + z6 * (z6 - 1.0))
    return np.where((x <= 0.0) | (x >= box), np.inf, v)


def test_he_cage_fused_value_is_bit_identical_to_textbook_formula():
    pot = he_cage()
    box = 7.153
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, box, -1.0, box + 1.0, 1e-300, box - 1e-12, math.inf, -math.inf]
    x = np.concatenate([rng.uniform(-3.0, 10.0, 200_000), special])
    kept = x.copy()
    assert np.array_equal(pot.value(x), lj_cage_reference(x))
    assert np.array_equal(x, kept)
    grid = x[:600].reshape(20, 30)
    got = pot.value(grid)
    assert got.shape == (20, 30)
    assert np.array_equal(got, lj_cage_reference(grid))
    for scalar in (3.5, 0.0, np.float64(2.2), np.array(4.4), 3):
        got = pot.value(scalar)
        assert type(got) is float
        assert got == float(lj_cage_reference(scalar))
    ints = np.arange(-1, 9)
    assert np.array_equal(pot.value(ints), lj_cage_reference(ints.astype(float)))


def lj_cage_force_reference(x, eps=10.22, sig=2.556, box=7.153):
    """he_cage().deriv1 in its textbook form, one temporary per step:
    4 eps ((-12 y6 y6 + 6 y6) / x + (-12 z6 z6 + 6 z6) / (x - box)), with y6
    and z6 as (t^2 t^2) t^2, and +inf outside (0, box)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y6 = pow6(sig / x)
        z6 = pow6(sig / (x - box))
        d = 4.0 * eps * ((-12.0 * y6 * y6 + 6.0 * y6) / x + (-12.0 * z6 * z6 + 6.0 * z6) / (x - box))
    return np.where((x <= 0.0) | (x >= box), np.inf, d)


BOX = 7.153
# both walls, +-0, one ulp inside and outside each wall, the centre, +-inf, NaN
CAGE_SPECIAL = {
    "left-wall": 0.0, "minus-zero": -0.0, "right-wall": BOX,
    "ulp-inside-left": float(np.nextafter(0.0, 1.0)), "ulp-outside-left": float(np.nextafter(-0.0, -1.0)),
    "ulp-inside-right": float(np.nextafter(BOX, 0.0)), "ulp-outside-right": float(np.nextafter(BOX, math.inf)),
    "centre": BOX / 2, "plus-inf": math.inf, "minus-inf": -math.inf, "nan": math.nan,
}
CAGE_POINTS = np.concatenate([np.linspace(-1.0, 8.0, 989), list(CAGE_SPECIAL.values())])
CAGE_REFERENCE = {"value": lj_cage_reference, "deriv1": lj_cage_force_reference}


@pytest.mark.parametrize("which", list(CAGE_REFERENCE))
@pytest.mark.parametrize(
    "x",
    [CAGE_POINTS, CAGE_POINTS.reshape(40, 25), np.empty(0), *CAGE_SPECIAL.values(), np.array(BOX / 2)],
    ids=["points", "2d", "empty", *CAGE_SPECIAL, "0d-array"],
)
def test_he_cage_energy_and_force_keep_the_textbook_bits(which, x):
    # the energy and the force share one (sigma / d)^6 routine; both keep
    # the bits of the one-temporary-per-step formulas on every kind of point
    got = getattr(he_cage(), which)(x)
    assert np.array_equal(got, CAGE_REFERENCE[which](x), equal_nan=True)
    assert np.shape(got) == np.shape(x)
    if np.ndim(x) == 0:
        assert type(got) is float


def masked_he_cage_value(x, eps=10.22, sigma_lj=2.556, box=7.153):
    """he_cage().value as it stood with an unconditional domain mask."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    t2 = np.empty_like(x)
    t6 = np.empty_like(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(sigma_lj, x, out=t2)
        np.multiply(t2, t2, out=t2)
        np.multiply(t2, t2, out=t6)
        np.multiply(t6, t2, out=t6)
        np.subtract(t6, 1.0, out=out)
        np.multiply(t6, out, out=out)
        np.subtract(x, box, out=t2)
        np.divide(sigma_lj, t2, out=t2)
        np.multiply(t2, t2, out=t2)
        np.multiply(t2, t2, out=t6)
        np.multiply(t6, t2, out=t6)
        np.subtract(t6, 1.0, out=t2)
        np.multiply(t6, t2, out=t2)
        np.add(out, t2, out=out)
        np.multiply(out, 4.0 * eps, out=out)
    np.copyto(out, np.inf, where=(x <= 0.0) | (x >= box))
    return float(out) if out.ndim == 0 else out


def _block(*special):
    """An 8 x 5 block of points inside the cage, its last ones ``special``."""
    return np.concatenate([np.linspace(0.3, 6.8, 40 - len(special)), special]).reshape(8, 5)


@pytest.mark.parametrize(
    "x",
    [
        _block(),
        _block(0.0, -0.0, -1.0, 7.153, 9.0),
        _block(0.0),
        _block(-0.0),
        _block(7.153),
        _block(math.nan, 3.0),
        _block(math.inf, 3.0),
        _block(-math.inf, 3.0),
        np.array([math.nan, math.nan]),
        np.array([5e-324, np.nextafter(7.153, 0.0)]),
        np.empty(0),
        np.empty((0, 3)),
        np.array(3.0),
        np.array(math.nan),
        np.array(-2.0),
        3.5,
        math.inf,
    ],
    ids=[
        "inside", "walls-and-outside", "left-wall", "minus-zero", "right-wall", "nan", "plus-inf", "minus-inf", "all-nan",
        "just-inside", "empty", "empty-2d", "0d", "0d-nan", "0d-outside", "float", "float-inf",
    ],
)
def test_he_cage_value_masks_only_when_needed_with_the_same_bits(x):
    got = he_cage().value(x)
    want = masked_he_cage_value(x)
    assert type(got) is type(want)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.shape(got) == np.shape(x)


def test_he_cage_diverges_toward_walls():
    pot = he_cage()
    assert pot.value(0.01) > 1e10
    assert pot.value(7.143) > 1e10


@pytest.mark.parametrize(
    "pot,pts",
    [
        (quartic(), [-2.1, -0.3, 0.7, 1.9]),
        (harmonic(1.4), [-1.5, 0.4, 2.2]),
        (he_cage(), [2.2, 3.0, 3.6, 4.6, 5.0]),
    ],
)
def test_deriv1_matches_central_differences(pot, pts):
    for x in pts:
        want = central_diff(pot.value, x)
        got = pot.deriv1(x)
        assert abs(got - want) / max(abs(want), 1.0) < 1e-6


def test_potentials_bounded_from_below_on_domain():
    pot = he_cage()
    x = np.linspace(1e-3, 7.152, 20001)
    assert float(np.min(pot.value(x))) > -2 * 4 * 10.22  # two full wells is a hard floor
    assert float(np.min(quartic().value(np.linspace(-10, 10, 101)))) >= 0.0


def test_custom_potential_wrapping():
    pot = custom_potential(lambda x: np.abs(x), lambda x: np.sign(x))
    assert pot.kind == "custom"
    assert pot.value(1.5) == 1.5


def test_integer_counts_accept_numpy_integers():
    system, rule = calibrated_system("order4-discrete")
    assert DiscreteReweightedKernel(system, quartic(), rule, gh_points=np.int64(3)).gh_points == 3
    assert SpatialGrid(0.0, 1.0, np.int32(4)).points.size == 5
