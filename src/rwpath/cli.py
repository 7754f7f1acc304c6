"""Command-line front end.

Subcommands map onto the four reproduction recipes plus a Monte Carlo
cross-check:

  calibrate        solve for the constants of a path-system family
  verify           check the order identities of a kernel family
  order            partition-function ladder and fitted convergence order
  trotter-constant observed vs predicted splitting-kernel constant
  mc-check         chained-path Monte Carlo vs matrix propagation

Results are printed as JSON (with the fully resolved configuration echoed
back); ladders are additionally written as CSV with `--out`. Exit codes:
0 success, 1 tolerance failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .calibration import (
    FAMILIES,
    CalibrationError,
    calibrate,
    calibrated_system,
    default_rule,
)
from .kernels import (
    ContinuousReweightedKernel,
    DiscreteReweightedKernel,
    FreeParticleKernel,
    PhysicalParams,
    TrotterKernel,
    units_constant,
)
from .moments import continuous_spec, discrete_spec, verify_order
from .potentials import Potential, harmonic, he_cage, quartic
from .processes import finite_kernel, make_order3, make_order4
from .propagation import (
    SpatialGrid,
    mc_density_ratio,
    nmm_density_ratio,
    order_diagnostic,
    reference_z,
    trotter_constant,
)
from .quadrature import endpoint_trapezoid

USAGE_ERROR = 2
TOLERANCE_FAILURE = 1

KERNEL_CHOICES = (
    "trotter",
    "free-particle",
    "order3",
    "order4",
    "order3-continuous",
    "order4-continuous",
)
POTENTIAL_CHOICES = ("quartic", "he-cage", "harmonic")


@dataclass
class ExperimentConfig:
    """Resolved run configuration; every field has a default, and the JSON
    echo of a config parses back to an identical config."""

    potential: str = "quartic"
    kernel: str = "order4"
    nu: int = 4
    beta: float | None = None
    grid_a: float | None = None
    grid_b: float | None = None
    grid_m: int | None = None
    m_max: int = 20
    n_ref: int | None = None
    gh_points: int = 10
    levels: int = 3
    samples: int = 100_000
    seed: int = 0
    x: float = 0.0
    xp: float = 0.0
    tol: float | None = None
    out: str | None = None
    # explicit system constants; omitted means "calibrate"
    alpha: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_TYPES = {f.name: f for f in fields(ExperimentConfig)}


def _coerce(name: str, raw: str):
    if name not in _CONFIG_TYPES:
        raise ValueError(f"unknown configuration key {name!r}")
    if raw == "none":
        return None
    if name in ("potential", "kernel", "out"):
        return raw
    if name in ("nu", "grid_m", "m_max", "n_ref", "gh_points", "levels", "samples", "seed"):
        return int(raw)
    return float(raw)


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


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(load_config(args.config))
    for f in fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


# Per-potential defaults: grid window, inverse temperature and unit system.
def _system_defaults(cfg: ExperimentConfig) -> tuple[Potential, PhysicalParams, SpatialGrid]:
    if cfg.potential == "quartic":
        pot = quartic()
        beta = 10.0 if cfg.beta is None else cfg.beta
        params = PhysicalParams(beta=beta)
        a, b, m = -4.0, 4.0, 400
    elif cfg.potential == "he-cage":
        pot = he_cage()
        beta = 1.0 / 5.11 if cfg.beta is None else cfg.beta
        params = PhysicalParams(beta=beta, hbar=math.sqrt(units_constant()), mass=4.0)
        a, b, m = 0.0, pot.params["box"], 500
    elif cfg.potential == "harmonic":
        pot = harmonic(1.0)
        beta = 10.0 if cfg.beta is None else cfg.beta
        params = PhysicalParams(beta=beta)
        a, b, m = -5.0, 5.0, 300
    else:
        raise ValueError(f"unknown potential {cfg.potential!r}")
    grid = SpatialGrid(
        a if cfg.grid_a is None else cfg.grid_a,
        b if cfg.grid_b is None else cfg.grid_b,
        m if cfg.grid_m is None else cfg.grid_m,
    )
    return pot, params, grid


def _resolve_family(cfg: ExperimentConfig):
    """(system, rule) of a reweighted kernel name. The system uses explicit
    constants from the configuration when given, otherwise it is freshly
    calibrated; the rule is the family's calibration rule, None for the
    continuous families."""
    name = cfg.kernel
    family = name + "-discrete" if name in ("order3", "order4") else name
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {name!r}")
    if family.startswith("order3"):
        if cfg.alpha is not None:
            return make_order3(cfg.alpha), default_rule(family)
    elif cfg.alpha1 is not None and cfg.alpha2 is not None:
        return make_order4(cfg.alpha1, cfg.alpha2), default_rule(family)
    return calibrated_system(family)


def _build_kernel(cfg: ExperimentConfig, pot: Potential):
    if cfg.kernel == "trotter":
        return TrotterKernel(pot)
    if cfg.kernel == "free-particle":
        return FreeParticleKernel(pot)
    system, rule = _resolve_family(cfg)
    if rule is None:
        return ContinuousReweightedKernel(system, pot, gh_points=cfg.gh_points)
    return DiscreteReweightedKernel(system, pot, rule, cfg.gh_points)


def _moment_spec(cfg: ExperimentConfig):
    if cfg.kernel == "trotter":
        system, _ = calibrated_system("order3-discrete")
        return discrete_spec(finite_kernel(system), endpoint_trapezoid())
    system, rule = _resolve_family(cfg)
    if rule is None:
        return continuous_spec(finite_kernel(system))
    return discrete_spec(finite_kernel(system), rule)


NOMINAL_ORDER = {
    "trotter": 2.0,
    "order3": 3.0,
    "order3-continuous": 3.0,
    "order4": 4.0,
    "order4-continuous": 4.0,
}


def _emit(payload: dict, stream=None) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2), file=stream or sys.stdout)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def cmd_calibrate(args) -> int:
    cfg = resolve_config(args)
    family = args.family
    if family not in FAMILIES:
        print(f"error: unknown family {family!r}; choose from {', '.join(FAMILIES)}", file=sys.stderr)
        return USAGE_ERROR
    try:
        result = calibrate(family)
    except CalibrationError as exc:
        _emit({"config": cfg.to_dict(), "error": str(exc), "best": list(exc.best)})
        return TOLERANCE_FAILURE
    _emit({"config": cfg.to_dict(), "result": result.to_dict(), "pass": True})
    return 0


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    try:
        spec = _moment_spec(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = verify_order(spec, cfg.nu, cfg.tol)
    payload = {"config": cfg.to_dict(), "report": report.to_dict()}
    _emit(payload)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    return 0 if report.passed else TOLERANCE_FAILURE


def cmd_order(args) -> int:
    cfg = resolve_config(args)
    pot, params, grid = _system_defaults(cfg)
    kernel = _build_kernel(cfg, pot)
    n_ref = cfg.n_ref if cfg.n_ref is not None else 8 * (2 * cfg.m_max + 1)
    system, rule = calibrated_system("order4-discrete")
    ref_kernel = DiscreteReweightedKernel(system, pot, rule, cfg.gh_points)
    ref = reference_z(ref_kernel, params, grid, n_ref)
    series = order_diagnostic(kernel, params, grid, range(1, cfg.m_max + 1), ref.value)
    rows = []
    alpha_by_m = dict(zip(series.alpha_m_index.tolist(), series.alpha_m.tolist()))
    for i, m in enumerate(series.m.tolist()):
        rows.append(
            (series.n[i], series.z[i], series.r[i], alpha_by_m.get(m, float("nan")))
        )
    if cfg.out:
        _write_csv(cfg.out, ["n", "Z_n", "R", "alpha_m"], rows)
    _emit(
        {
            "config": cfg.to_dict(),
            "slope": series.slope,
            "fit_window": list(series.fit_window),
            "z_ref": series.z_ref,
            "reference_gap": ref.rel_gap,
            "monotone": series.monotone,
        }
    )
    return 0


def cmd_trotter_constant(args) -> int:
    cfg = resolve_config(args)
    pot, params, grid = _system_defaults(cfg)
    n_list = [2 * m + 1 for m in range(1, cfg.m_max + 1)]
    series = trotter_constant(
        params, grid, pot, n_list, n_ref=cfg.n_ref, gh_points=cfg.gh_points
    )
    rows = list(zip(series.n.tolist(), series.z.tolist(),
                    (series.z / series.z_ref).tolist(), series.c_n.tolist()))
    if cfg.out:
        _write_csv(cfg.out, ["n", "Z_n", "R", "c_n"], rows)
    _emit(
        {
            "config": cfg.to_dict(),
            "c_th": series.c_th,
            "c_last": float(series.c_n[-1]),
            "rel_err_last": series.rel_err_last,
            "z_ref": series.z_ref,
        }
    )
    return 0


def cmd_mc_check(args) -> int:
    cfg = resolve_config(args)
    pot, params, grid = _system_defaults(cfg)
    if cfg.kernel not in ("order3", "order4"):
        print("error: mc-check needs a discrete reweighted kernel (order3 or order4)", file=sys.stderr)
        return USAGE_ERROR
    kernel = _build_kernel(cfg, pot)
    est, se = mc_density_ratio(
        kernel, params, cfg.x, cfg.xp, cfg.levels, cfg.samples, cfg.seed
    )
    n = 2**cfg.levels - 1
    nmm = nmm_density_ratio(kernel, params, grid, n, cfg.x, cfg.xp)
    z = abs(est - nmm) / se if se > 0 else 0.0
    payload = {
        "config": cfg.to_dict(),
        "estimate": est,
        "standard_error": se,
        "nmm": nmm,
        "z_score": z,
        "pass": bool(z < 4.0),
    }
    _emit(payload)
    return 0 if z < 4.0 else TOLERANCE_FAILURE


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--potential", choices=POTENTIAL_CHOICES)
    sub.add_argument("--kernel", choices=KERNEL_CHOICES)
    sub.add_argument("--nu", type=int)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--grid-a", dest="grid_a", type=float)
    sub.add_argument("--grid-b", dest="grid_b", type=float)
    sub.add_argument("--grid-m", dest="grid_m", type=int)
    sub.add_argument("--m-max", dest="m_max", type=int)
    sub.add_argument("--n-ref", dest="n_ref", type=int)
    sub.add_argument("--gh-points", dest="gh_points", type=int)
    sub.add_argument("--levels", type=int)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--x", type=float)
    sub.add_argument("--xp", type=float)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--out", help="CSV/JSON output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwpath",
        description="Short-time density-matrix approximations: calibration, "
        "order verification, and convergence diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("calibrate", help="solve for a family's constants")
    p.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("verify", help="check the order identities of a kernel family")
    p.add_argument("kernel_name", nargs="?", help="kernel family (same as --kernel)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("order", help="convergence-order ladder for a kernel/potential")
    _add_common(p)
    p.set_defaults(func=cmd_order)

    p = subs.add_parser("trotter-constant", help="observed vs predicted convergence constant")
    _add_common(p)
    p.set_defaults(func=cmd_trotter_constant)

    p = subs.add_parser("mc-check", help="chained-path Monte Carlo vs matrix propagation")
    _add_common(p)
    p.set_defaults(func=cmd_mc_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kernel_name", None) and not args.kernel:
        args.kernel = args.kernel_name
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
