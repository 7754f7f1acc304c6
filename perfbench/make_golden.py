"""Regenerate perfbench/golden.json from the library's own ladder functions.

    python3 perfbench/make_golden.py

Takes about a minute on two cores. Z values are stored as exact float
reprs. The ladders come from ``order_diagnostic`` and ``trotter_constant``
over the benchmark's rungs; the Monte Carlo entries are the exact moments,
the matrix-propagated density ratio, and the seed-0 first-round estimates
with their z-scores. A regenerated file is a benchmark change: commit it
only together with the reason the golden outputs moved.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run

TOLERANCES = {
    # relative drift allowed on a partition function; the square-and-multiply
    # error model gives ~1e-14 at the rungs used here
    "z_rel_tol": 1e-12,
    "slope_rel_tol": 1e-6,
    "c_th_rel_tol": 1e-9,
    # paper value of the quartic splitting constant and the acceptance margin
    "c_th_paper": 88.35,
    "c_th_paper_rel_tol": 0.005,
    "moment_rel_tol": 1e-12,
    "moment_abs_tol": 1e-14,
    "nmm_rel_tol": 1e-12,
    # a fixed seed reproduces its estimates to rounding
    "seed0_rel_tol": 1e-9,
    # |z| bound for Monte Carlo checks; the benchmark runs many seeds, so the
    # bound sits beyond the acceptance suite's 4 sigma at fixed seeds
    "z_max": 5.0,
}


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = str(run.nproc())
    rwpath, api = run.import_rwpath()
    import workloads as W

    golden = {}
    system, rule = api.C.calibrated_system("order4-discrete")

    he = W.WORKLOADS["he-order4-ladder"]
    params, pot, grid = he.inputs(api)
    kernel = api.K.DiscreteReweightedKernel(system, pot, rule)
    ref = api.P.reference_z(kernel, params, grid, he.n_ref)
    series = api.P.order_diagnostic(kernel, params, grid, he.m_window, ref.value)
    slope = W.alpha_slope(series.m, series.z, ref.value)
    if not math.isclose(slope, series.slope, rel_tol=1e-12):
        sys.exit(f"benchmark slope {slope!r} disagrees with order_diagnostic {series.slope!r}")
    golden[he.name] = {
        **TOLERANCES,
        "z_ref": ref.value,
        "z": {str(2 * m + 1): z for m, z in zip(series.m.tolist(), series.z.tolist())},
        "alpha": dict(zip(map(str, series.alpha_m_index.tolist()), series.alpha_m.tolist())),
        "slope": series.slope,
    }

    q = W.WORKLOADS["quartic-trotter-ladder"]
    params, pot, grid = q.inputs(api)
    ref = api.P.reference_z(api.K.DiscreteReweightedKernel(system, pot, rule), params, grid, q.n_ref)
    tc = api.P.trotter_constant(params, grid, pot, q.n_list, reference=ref)
    golden[q.name] = {
        **TOLERANCES,
        "z_ref": ref.value,
        "z": {str(n): z for n, z in zip(tc.n.tolist(), tc.z.tolist())},
        "c_th": tc.c_th,
        "c_n_last": float(tc.c_n[-1]),
    }

    mc = W.WORKLOADS["mc-crosscheck"]
    specs, indices, params, grid, kernel = mc.inputs(api, system, rule)
    entry = {
        **TOLERANCES,
        "exact": {
            label: {idx.label(): api.M.moment(spec, idx) for idx in indices}
            for label, spec in specs.items()
        },
        "nmm": api.P.nmm_density_ratio(kernel, params, grid, mc.dr_n, 0.0, 0.0),
    }
    checks = W.Checks()
    state = mc.setup(api, entry, checks)
    record = {"seed": 0}
    mc.run_op(api, state, ("round", None), entry, checks, record)
    if checks.failed:
        sys.exit("golden Monte Carlo round failed its checks: " + "; ".join(checks.messages))
    entry["seed0"] = record["estimates"]
    golden[mc.name] = entry

    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
