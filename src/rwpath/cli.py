"""Command-line front end.

Subcommands map onto the four reproduction recipes plus a Monte Carlo
cross-check:

  calibrate        solve for the constants of a path-system family
  verify           check the order identities of a kernel family
  order            partition-function ladder and fitted convergence order
  trotter-constant observed vs predicted splitting-kernel constant
  mc-check         chained-path Monte Carlo vs matrix propagation

Every option is declared once, in ``OPTIONS``: its type, its default and
its choices. Each subcommand accepts exactly the options it reads
(``READS``), as flags or config keys, and its resolved config holds those
options and no others. Results are printed as JSON, echoing that config;
`--out` writes a ladder as CSV, or the `verify` JSON.
Exit codes:
0 success, 1 tolerance failure, 2 usage or configuration error (including an
unreadable `--config`, an unwritable `--out`, a reference Z that the grid
eigensolve refutes, and a Z or density ratio that is not finite and above 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

import numpy as np

from .calibration import FAMILIES, CalibrationError, calibrate
from .experiments import SYSTEMS, ladder, make_kernel, make_spec
from .kernels import DiscreteReweightedKernel
from .moments import verify_order
from .propagation import mc_density_ratio, nmm_density_ratio

USAGE_ERROR = 2
TOLERANCE_FAILURE = 1

# --kernel names of the calibrated families; 'trotter' passes through unchanged
_FAMILY_OF = {
    "order3": "order3-discrete",
    "order4": "order4-discrete",
    "order3-continuous": "order3-continuous",
    "order4-continuous": "order4-continuous",
}
KERNEL_CHOICES = ("trotter", *_FAMILY_OF)

POTENTIAL_CHOICES = tuple(SYSTEMS)


class Option(NamedTuple):
    """A command-line option: its type, its default and its choices (None
    for any value of the type)."""

    kind: type
    default: object = None
    choices: tuple[str, ...] | None = None


# Every option, declared once: its flag is --name with '_' as '-', and its
# config key is the name with either separator.
OPTIONS = {
    "potential": Option(str, "quartic", POTENTIAL_CHOICES),
    "kernel": Option(str, "order4", KERNEL_CHOICES),
    "nu": Option(int, 4),
    "beta": Option(float),
    "grid_a": Option(float),
    "grid_b": Option(float),
    "grid_m": Option(int),
    "m_max": Option(int, 20),
    "n_ref": Option(int),
    "gh_points": Option(int, 10),
    "levels": Option(int, 3),
    "samples": Option(int, 100_000),
    "seed": Option(int, 0),
    "x": Option(float, 0.0),
    "xp": Option(float, 0.0),
    "tol": Option(float),
    "out": Option(str),
}

# The options each subcommand reads; it accepts no other flag or config key.
_GRID = ("beta", "grid_a", "grid_b", "grid_m")
READS = {
    "calibrate": (),
    "verify": ("kernel", "nu", "tol", "out"),
    "order": ("potential", "kernel", *_GRID, "m_max", "n_ref", "gh_points", "out"),
    "trotter-constant": ("potential", *_GRID, "m_max", "n_ref", "gh_points", "out"),
    "mc-check": ("potential", "kernel", *_GRID, "gh_points", "levels", "samples", "seed", "x", "xp"),
}


def _coerce(name: str, raw: str):
    if name not in OPTIONS:
        raise ValueError(f"unknown configuration key {name!r}")
    kind, default, choices = OPTIONS[name]
    if choices is not None and raw not in choices:
        raise ValueError(f"invalid {name} {raw!r} (choose from {', '.join(choices)})")
    # 'none' restores a default of None; no other option can be unset
    if raw == "none" and default is None:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"invalid {name} {raw!r}") from None


def load_config(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = _coerce(key.replace("-", "_"), raw)
    return out


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The options the subcommand reads and no others: defaults, then the
    config file, then the flags. A config key the subcommand does not read
    is a configuration error."""
    reads = READS[args.command]
    overrides = load_config(args.config) if getattr(args, "config", None) else {}
    for key in overrides:
        if key not in reads:
            raise ValueError(f"{args.command} does not read configuration key {key!r}")
    for name in reads:
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return argparse.Namespace(
        **{name: overrides.get(name, OPTIONS[name].default) for name in reads}
    )


def _setup(cfg: argparse.Namespace):
    """The configured system's potential, parameters and grid."""
    return SYSTEMS[cfg.potential].resolve(cfg.beta, cfg.grid_a, cfg.grid_b, cfg.grid_m)


def _family(cfg: argparse.Namespace) -> str:
    """The calibration family of the configured kernel name."""
    return _FAMILY_OF.get(cfg.kernel, cfg.kernel)


def _emit(cfg: argparse.Namespace, payload: dict, out: str | None = None) -> None:
    """Print ``payload`` as JSON, echoing the options the subcommand read,
    after writing the same JSON to ``out`` if given."""
    text = json.dumps({"config": vars(cfg), **payload}, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def cmd_calibrate(args, cfg: argparse.Namespace) -> int:
    try:
        result = calibrate(args.family)
    except CalibrationError as exc:
        _emit(cfg, {"error": str(exc), "best": list(exc.best)})
        return TOLERANCE_FAILURE
    _emit(cfg, {"result": result.to_dict(), "pass": True})
    return 0


def cmd_verify(args, cfg: argparse.Namespace) -> int:
    report = verify_order(make_spec(_family(cfg)), cfg.nu, cfg.tol)
    _emit(cfg, {"report": report.to_dict()}, cfg.out)
    return 0 if report.passed else TOLERANCE_FAILURE


def cmd_order(args, cfg: argparse.Namespace) -> int:
    pot, params, grid = _setup(cfg)
    run = ladder(pot, params, grid, {_family(cfg): cfg.m_max}, None, cfg.n_ref, cfg.gh_points)
    ref, series = run.reference, run.orders[_family(cfg)]
    rows = []
    alpha_by_m = dict(zip(series.alpha_m_index.tolist(), series.alpha_m.tolist()))
    for i, m in enumerate(series.m.tolist()):
        rows.append(
            (series.n[i], series.z[i], series.r[i], alpha_by_m.get(m, float("nan")))
        )
    if cfg.out:
        _write_csv(cfg.out, ["n", "Z_n", "R", "alpha_m"], rows)
    _emit(
        cfg,
        {
            "slope": series.slope,
            "fit_window": list(series.fit_window),
            "z_ref": series.z_ref,
            "reference_gap": ref.rel_gap,
            "monotone": series.monotone,
        },
    )
    return 0


def cmd_trotter_constant(args, cfg: argparse.Namespace) -> int:
    pot, params, grid = _setup(cfg)
    series = ladder(pot, params, grid, {}, cfg.m_max, cfg.n_ref, cfg.gh_points).constant
    rows = list(zip(series.n.tolist(), series.z.tolist(),
                    (series.z / series.z_ref).tolist(), series.c_n.tolist()))
    if cfg.out:
        _write_csv(cfg.out, ["n", "Z_n", "R", "c_n"], rows)
    _emit(
        cfg,
        {
            "c_th": series.c_th,
            "c_last": float(series.c_n[-1]),
            "rel_err_last": series.rel_err_last,
            "z_ref": series.z_ref,
        },
    )
    return 0


def cmd_mc_check(args, cfg: argparse.Namespace) -> int:
    pot, params, grid = _setup(cfg)
    kernel = make_kernel(_family(cfg), pot, cfg.gh_points)
    if not isinstance(kernel, DiscreteReweightedKernel):
        raise ValueError("mc-check needs a discrete reweighted kernel (order3 or order4)")
    # both estimators run at the grid points nearest x and x'
    pts = grid.points
    x, xp = float(pts[grid.nearest("x", cfg.x)]), float(pts[grid.nearest("x'", cfg.xp)])
    est, se = mc_density_ratio(kernel, params, x, xp, cfg.levels, cfg.samples, cfg.seed)
    if se == 0:
        # the library refuses all-zero weights (a wall), so these are equal
        # and nonzero, as at a tiny beta: a z-score would pass vacuously
        raise ValueError(
            f"every sampled path has the same weight {est!r} at x = {x!r}, x' = {xp!r}: "
            "the weights have no spread at this beta"
        )
    n = 2**cfg.levels - 1
    nmm = nmm_density_ratio(kernel, params, grid, n, x, xp)
    z = abs(est - nmm) / se
    _emit(
        cfg,
        {"x_grid": x, "xp_grid": xp, "estimate": est, "standard_error": se, "nmm": nmm,
         "z_score": z, "pass": bool(z < 4.0)},
    )
    return 0 if z < 4.0 else TOLERANCE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwpath",
        description="Short-time density-matrix approximations: calibration, "
        "order verification, and convergence diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("calibrate", cmd_calibrate, "solve for a family's constants"),
        ("verify", cmd_verify, "check the order identities of a kernel family"),
        ("order", cmd_order, "convergence-order ladder for a kernel/potential"),
        ("trotter-constant", cmd_trotter_constant, "observed vs predicted convergence constant"),
        ("mc-check", cmd_mc_check, "chained-path Monte Carlo vs matrix propagation"),
    ):
        p = subs.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        if command == "calibrate":
            p.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
            continue
        flags = READS[command]
        if command == "verify":
            p.add_argument("kernel", nargs="?", choices=KERNEL_CHOICES, help="kernel family")
            flags = [name for name in flags if name != "kernel"]
        p.add_argument("--config", help="flat key=value file of the options below")
        for name in flags:
            opt = OPTIONS[name]
            p.add_argument(
                "--" + name.replace("_", "-"), dest=name, type=opt.kind, choices=opt.choices
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, resolve_config(args))
    # RuntimeError: a reference Z the grid eigensolve refutes. OverflowError
    # (and ValueError): a Z, density ratio or kernel weight out of range.
    # OSError: a --config that cannot be read or an --out that cannot be written.
    except (ValueError, OSError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
