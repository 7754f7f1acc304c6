"""Checks of the scalar arguments of the public entry points: a physical
value is finite (and positive where required), an integer may have any
sign, and a count is an integer at or above a floor. Each is written so
that NaN fails, refuses a bool, accepts numpy numbers and raises ValueError
naming the argument. ``potential`` holds a potential's values to a number or
+inf (a wall), ``result`` a returned Z, Boltzmann sum or density ratio to
finite and above 0, and ``weights`` a kernel weight to finite, in their words.
``budget`` refuses a call whose predicted work or memory is over its limit,
before anything is allocated or evaluated.
"""

import math
import numbers

import numpy as np


def finite(name: str, value) -> None:
    """Refuse ``value`` unless it is a finite real number."""
    if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def positive(name: str, value) -> None:
    """Refuse ``value`` unless it is a finite real number above 0."""
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def integer(name: str, value) -> int:
    """``value`` as an int, refused unless it is an integer; an integral
    float such as 2.0 is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def count(name: str, value, low: int) -> int:
    """``value`` as an int, refused unless it is an integer >= ``low``; an
    integral float such as 2.0 is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def seed(value) -> None:
    """Refuse a seed for ``np.random.default_rng`` that is a bool or a number
    other than an integer >= 0; a SeedSequence, a Generator or None is left
    to numpy."""
    if isinstance(value, (numbers.Number, np.bool_)):
        count("seed", value, 0)


def potential(values, at: str, x=None) -> np.ndarray:
    """``values`` of a potential as a float array, refused unless each is a
    number or +inf: the first NaN or -inf raises ValueError placed ``at``,
    then at its point x when ``x`` holds the points the values were taken at."""
    values = np.asarray(values, dtype=float)
    # written so that NaN fails
    bad = np.flatnonzero(~(values > -np.inf))
    if bad.size:
        where = at if x is None else f"{at} x = {float(np.ravel(x)[bad[0]])!r}"
        raise ValueError(f"potential is {float(values.flat[bad[0]])!r} {where}")
    return values


def result(name: str, value) -> float:
    """``value`` as a float, refused under ``name`` unless it is finite and
    above 0: NaN and +-inf raise OverflowError, 0 or less ValueError."""
    value = float(value)
    advice = "shift the potential energy zero or change beta"
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflowed, got {value!r}; {advice}")
    if not value > 0:
        raise ValueError(f"{name} underflows to 0, got {value!r}; {advice}")
    return value


def weights(values, x, xp):
    """``values``, a kernel's weights at the pairs (x, x'), refused at the first
    that is not finite: NaN as a NaN potential on a path between x and x' (its
    ends were read), +-inf as an overflow, in the words of the two rules."""
    out = np.asarray(values)
    # two reductions, NaN if one value is; the bad pair is sought only then
    if out.size and not (math.isfinite(out.min()) and math.isfinite(out.max())):
        k = np.flatnonzero(~np.isfinite(out))[0]
        x, xp = (float(np.broadcast_to(v, out.shape).flat[k]) for v in (x, xp))
        where = f"x = {x!r}, x' = {xp!r}"
        if math.isnan(out.flat[k]):
            potential(out.flat[k], f"on a path between {where}")
        result(f"kernel weight at {where}", out.flat[k])
    return values


def budget(what: str, needed: int, limit: int, units: str, advice: str) -> None:
    """Refuse ``what`` with ValueError when it needs more than ``limit``
    ``units``; ``needed`` is predicted from the sizes, before the work."""
    if needed > limit:
        raise ValueError(f"{what} needs {needed} {units}, over the budget of {limit}; {advice}")
