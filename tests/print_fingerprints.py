"""Print bit fingerprints of the library's outputs, one per line.

    PYTHONPATH=src python tests/print_fingerprints.py > fingerprints.txt

Run it on two source trees and diff the files to see which outputs a change
moved; a line that moves names the output that lost its bits. Each line is
``label value``. The value is a sha1 of the raw float64 bytes, a ``repr``,
or both. It prints:

- the hash of the helium cage's force, ``he_cage().deriv1``, on its
  default grid;
- per benchmark system (on a coarse grid) and kernel: the ``build_matrix``
  hash and Z at n = 0 and 7;
- per system with a ladder: its order-4 ``reference_z`` at the default
  n_ref, and c_th with the splitting kernel's c_n at the top rung;
- seeded ``sample_spec_moments`` for the trotter, order4-discrete and
  order4-continuous laws: B1, then M_1..M_6 together;
- one seeded ``mc_density_ratio``;
- per calibrated family: the hash of the ``verify_order`` rhs column at
  nu = 8 and the number of identities that pass.

It takes about 20 seconds on two cores. The file name does not match the
test pattern, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from rwpath.calibration import FAMILIES
from rwpath.experiments import SYSTEMS, make_kernel, make_spec
from rwpath.moments import sample_spec_moments, verify_order
from rwpath.propagation import (build_matrix, mc_density_ratio, partition_function, reference_z,
                                trotter_constant)

KERNELS = ("trotter", *FAMILIES)
CELLS = {"quartic": 60, "he-cage": 80, "harmonic": 60}
SAMPLED = ("trotter", "order4-discrete", "order4-continuous")


def sha1(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def fingerprints():
    """Yield (label, value) pairs in a fixed order."""
    pot, _, grid = SYSTEMS["he-cage"].resolve()
    yield f"deriv1/he-cage/points={grid.points.size}", sha1(pot.deriv1(grid.points))
    for name, cells in CELLS.items():
        pot, params, grid = SYSTEMS[name].resolve(cells=cells)
        for kind in KERNELS:
            kernel = make_kernel(kind, pot)
            for n in (0, 7):
                matrix = build_matrix(kernel, params, grid, n)
                yield (f"matrix/{name}/{kind}/n={n}",
                       f"{sha1(matrix.values)} {partition_function(matrix)!r}")
    for name, row in SYSTEMS.items():
        if not row.tops:
            continue
        pot, params, grid = row.resolve()
        n_ref = 8 * (2 * max(row.tops.values()) + 1)
        ref = reference_z(make_kernel("order4-discrete", pot), params, grid, n_ref)
        yield f"reference_z/{name}/n_ref={n_ref}", f"{ref.value!r} {ref.eigensolve_value!r}"
        top = 2 * row.constant_top + 1
        const = trotter_constant(params, grid, pot, [top], ref)
        yield f"c_th/{name}/n={top}", f"{const.c_th!r} {float(const.c_n[-1])!r}"
    for kind in SAMPLED:
        data = sample_spec_moments(make_spec(kind), 20_000, seed=5)
        yield f"sample_spec_moments/{kind}/B1", sha1(data["B1"])
        yield f"sample_spec_moments/{kind}/M", sha1(*(data["M"][k] for k in range(1, 7)))
    pot, params, _ = SYSTEMS["quartic"].resolve()
    est = mc_density_ratio(make_kernel("order4-discrete", pot), params, 0.3, -0.2, 3, 20_000, seed=5)
    yield "mc_density_ratio/quartic/order4-discrete/levels=3", f"{est[0]!r} {est[1]!r}"
    for family in FAMILIES:
        report = verify_order(make_spec(family), 8)
        passed = sum(e.passed for e in report.entries)
        yield (f"verify_order/{family}/nu=8",
               f"{sha1([e.rhs for e in report.entries])} {passed}/{len(report.entries)}")


if __name__ == "__main__":
    for label, value in fingerprints():
        print(label, value, flush=True)
