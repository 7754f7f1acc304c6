"""Regenerate tests/acceptance_golden.json from the acceptance ladders.

    PYTHONPATH=src python tests/make_acceptance_golden.py

Runs the ladders of every benchmark system that has them, as the acceptance
suite's ``ladders`` fixture does (about two minutes on two cores), and
stores at full precision: each ladder's reference Z, the Z of every rung
that a slope fit reads, each constant ladder's last Z, every slope and
c_th, with the numpy version, the BLAS and the source SHA they were made
at. ``test_acceptance_golden_drift`` reads the file. A regenerated file
moves the goldens: commit it only together with the old and new values and
the reason they moved.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import numpy as np

from rwpath.experiments import SYSTEMS, ladder

GOLDEN = Path(__file__).with_name("acceptance_golden.json")


def acceptance_ladders() -> dict:
    """The ladder of every benchmark system that has one, by system name."""
    return {name: ladder(*row.resolve(), row.tops, row.constant_top)
            for name, row in SYSTEMS.items() if row.tops}


def golden_values(runs: dict) -> dict:
    """{"z": ..., "slope": ..., "c_th": ...}, each a flat map from a label
    such as "quartic/trotter/m=30" to its value. A slope reads the alphas
    of its fit window, and alpha_m the Z of rungs m - 1 and m."""
    z, slope, c_th = {}, {}, {}
    for name, run in runs.items():
        z[f"{name}/reference"] = run.reference.value
        for family, series in run.orders.items():
            lo, hi = series.fit_window
            rungs = dict(zip(series.m.tolist(), series.z.tolist()))
            for m in range(lo - 1, hi + 1):
                z[f"{name}/{family}/m={m}"] = rungs[m]
            slope[f"{name}/{family}"] = series.slope
        if run.constant is not None:
            z[f"{name}/constant/n={int(run.constant.n[-1])}"] = float(run.constant.z[-1])
            c_th[name] = run.constant.c_th
    return {"z": z, "slope": slope, "c_th": c_th}


def made_with() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=Path(__file__).parent, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "sha": sha}


def main() -> None:
    golden = {**made_with(), **golden_values(acceptance_ladders())}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
