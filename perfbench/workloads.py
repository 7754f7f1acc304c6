"""The three benchmark workloads, driven through rwpath's public modules.

Every call goes through a module attribute looked up at call time
(``P.build_matrix``, not a name bound at import), so that a traced run sees
it. A workload has a set-up, a list of passes made of ops, and the golden
checks those ops must meet. The ladders are deterministic; the seed drives
only the Monte Carlo streams.
"""

from __future__ import annotations

import math
import time

import numpy as np

from tracing import matmuls_for_power, pair_nodes_per_pair


class Checks:
    """Counts ops and failures. Every comparison fails closed: a NaN on
    either side, or drift beyond the tolerance, is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}")
        return ok

    def close(self, name: str, got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
        drift = abs(got - want)
        tol = atol + rtol * abs(want)
        return self.op(name, drift <= tol, f"got {got!r}, want {want!r} (tol {tol:.3g})")

    def below(self, name: str, got: float, limit: float) -> bool:
        return self.op(name, got <= limit, f"{got!r} exceeds {limit!r}")


def _order4(api, checks: Checks):
    """Calibrated order-4 discrete system and rule, order-checked."""
    system, rule = api.C.calibrated_system("order4-discrete")
    spec = api.M.discrete_spec(api.PS.finite_kernel(system), rule)
    checks.op("verify_order(order4-discrete, 4)", api.M.verify_order(spec, 4).passed)
    return system, rule


def alpha_slope(ms, z, z_ref) -> float:
    """Least-squares slope in m of alpha_m = m^2 ln[1 + (R_{2m-1} - R_{2m+1})
    / (R_{2m+1} - 1)], as documented for ``propagation.order_diagnostic``."""
    r = np.asarray(z) / z_ref
    alphas = [m * m * math.log(1.0 + (r[i - 1] - r[i]) / (r[i] - 1.0)) for i, m in enumerate(ms) if i]
    return float(np.polyfit(ms[1:], alphas, 1)[0])


# ------------------------------------------------------------------ helium
class HeOrder4Ladder:
    name = "he-order4-ladder"
    setup_repeats = 2
    # consecutive m from the acceptance ladder's fit window; a rung costs the
    # same build at every m, so three rungs give two alphas and a slope
    m_window = (28, 29, 30)
    n_ref = 904
    nominal_pass_s = 26.0

    def inputs(self, api):
        params = api.K.PhysicalParams(
            beta=1.0 / 5.11, hbar=math.sqrt(api.K.units_constant()), mass=4.0
        )
        pot = api.PO.he_cage()
        return params, pot, api.P.SpatialGrid(0.0, pot.params["box"], 500)

    def setup(self, api, golden, checks):
        params, pot, grid = self.inputs(api)
        system, rule = _order4(api, checks)
        kernel = api.K.DiscreteReweightedKernel(system, pot, rule)
        ref = api.P.reference_z(kernel, params, grid, self.n_ref)
        checks.close("he Z_ref", ref.value, golden["z_ref"], golden["z_rel_tol"])
        return {"params": params, "grid": grid, "kernel": kernel, "ref": ref}

    def pass_ops(self):
        return [("rung", 2 * m + 1) for m in self.m_window] + [("slope", None)]

    def run_op(self, api, state, op, golden, checks, record):
        kind, n = op
        if kind == "rung":
            mat = api.P.build_matrix(state["kernel"], state["params"], state["grid"], n)
            z = api.P.partition_function(mat)
            record.setdefault("z", {})[n] = z
            checks.close(f"he Z_{n}", z, golden["z"][str(n)], golden["z_rel_tol"])
            return True
        zs = [record["z"][2 * m + 1] for m in self.m_window]
        slope = alpha_slope(np.array(self.m_window), zs, state["ref"].value)
        checks.close("he slope", slope, golden["slope"], golden["slope_rel_tol"])
        return False

    def computed_counts(self, state, passes):
        """Work of one set-up and ``passes``: each build evaluates the
        mirrored pairs at every node plus the two wall checks per pair and
        the 2N - 1 points of the mirror test; the eigensolve takes N - 2."""
        grid, kernel = state["grid"], state["kernel"]
        npts = grid.cells + 1
        pairs = mirrored_pairs(grid.cells)
        rungs = [n for p in passes for kind, n in p if kind == "rung"]
        builds = len(rungs) + 1
        return {
            "kernels.pairs": pairs * builds,
            "kernels.pair_nodes": pairs * pair_nodes_per_pair(kernel) * builds,
            "potentials.points": builds * (pairs * (pair_nodes_per_pair(kernel) + 2) + 2 * npts - 1)
            + npts - 2,
            "propagation.matmuls": sum(matmuls_for_power(n + 1) for n in rungs)
            + matmuls_for_power(self.n_ref + 1),
        }


# ------------------------------------------------------------------ quartic
class QuarticTrotterLadder:
    name = "quartic-trotter-ladder"
    setup_repeats = 3
    n_list = tuple(range(3, 242, 2))
    n_ref = 968
    nominal_pass_s = 2.3

    def inputs(self, api):
        return api.K.PhysicalParams(beta=10.0), api.PO.quartic(), api.P.SpatialGrid(-4.0, 4.0, 400)

    def setup(self, api, golden, checks):
        params, pot, grid = self.inputs(api)
        system, rule = _order4(api, checks)
        ref_kernel = api.K.DiscreteReweightedKernel(system, pot, rule)
        ref = api.P.reference_z(ref_kernel, params, grid, self.n_ref)
        checks.close("quartic Z_ref", ref.value, golden["z_ref"], golden["z_rel_tol"])
        return {
            "params": params,
            "grid": grid,
            "pot": pot,
            "ref": ref,
            "ref_kernel": ref_kernel,
            "trotter": api.K.TrotterKernel(pot),
        }

    def pass_ops(self):
        return [("rung", n) for n in self.n_list] + [("c_th", self.n_list[-1])]

    def run_op(self, api, state, op, golden, checks, record):
        kind, n = op
        if kind == "rung":
            mat = api.P.build_matrix(state["trotter"], state["params"], state["grid"], n)
            z = api.P.partition_function(mat)
            record.setdefault("z", {})[n] = z
            checks.close(f"quartic Z_{n}", z, golden["z"][str(n)], golden["z_rel_tol"])
            return True
        tc = api.P.trotter_constant(state["params"], state["grid"], state["pot"], [n], reference=state["ref"])
        checks.close("quartic c_th", tc.c_th, golden["c_th"], golden["c_th_rel_tol"])
        checks.close("quartic c_th vs paper", tc.c_th, golden["c_th_paper"], golden["c_th_paper_rel_tol"])
        checks.close(f"quartic c_{n}", float(tc.c_n[0]), golden["c_n_last"], golden["c_th_rel_tol"])
        return False

    def computed_counts(self, state, passes):
        """Work of one set-up (the order-4 reference) and ``passes``."""
        cells = state["grid"].cells
        npts = cells + 1
        pairs = mirrored_pairs(cells)
        # the c_th op builds and powers the last rung once more
        rungs = [n for p in passes for _, n in p]
        ref_nodes = pair_nodes_per_pair(state["ref_kernel"])
        return {
            "kernels.pairs": pairs * (len(rungs) + 1),
            "kernels.pair_nodes": pairs * (2 * len(rungs) + ref_nodes),
            "potentials.points": len(rungs) * (2 * pairs + 2 * npts - 1)
            + pairs * (ref_nodes + 2) + 2 * npts - 1 + npts - 2,
            "propagation.matmuls": sum(matmuls_for_power(n + 1) for n in rungs)
            + matmuls_for_power(self.n_ref + 1),
        }


# ------------------------------------------------------------------ Monte Carlo
class McCrosscheck:
    name = "mc-crosscheck"
    setup_repeats = 3
    mu_max = 4
    # exact-Brownian paths on 256 two-point panels (513 time nodes with t=1)
    eb_truncation = 256
    eb_samples = 100_000
    o4_samples = 400_000
    dr_levels = 3
    dr_samples = 200_000
    dr_n = 2**dr_levels - 1
    nominal_pass_s = 3.3

    def inputs(self, api, system, rule):
        specs = {
            "exact-brownian": api.M.continuous_spec(api.PS.exact_brownian()),
            "order-4": api.M.discrete_spec(api.PS.finite_kernel(system), rule),
        }
        indices = [idx for mu in range(1, self.mu_max + 1) for idx in api.M.enumerate_indices(mu)]
        params = api.K.PhysicalParams(beta=1.0)
        grid = api.P.SpatialGrid(-4.0, 4.0, 400)
        kernel = api.K.DiscreteReweightedKernel(system, api.PO.quartic(), rule)
        return specs, indices, params, grid, kernel

    def setup(self, api, golden, checks):
        system, rule = _order4(api, checks)
        specs, indices, params, grid, kernel = self.inputs(api, system, rule)
        exact = {}
        for label, spec in specs.items():
            exact[label] = []
            for idx in indices:
                value = api.M.moment(spec, idx)
                checks.close(
                    f"{label} moment {idx.label()}",
                    value,
                    golden["exact"][label][idx.label()],
                    golden["moment_rel_tol"],
                    golden["moment_abs_tol"],
                )
                exact[label].append(value)
        nmm = api.P.nmm_density_ratio(kernel, params, grid, self.dr_n, 0.0, 0.0)
        checks.close("nmm density ratio", nmm, golden["nmm"], golden["nmm_rel_tol"])
        return {
            "specs": specs,
            "indices": indices,
            "exact": exact,
            "params": params,
            "grid": grid,
            "kernel": kernel,
            "nmm": nmm,
        }

    def pass_ops(self):
        return [("round", None)]

    def run_op(self, api, state, op, golden, checks, record):
        rnd = record.setdefault("round", 0)
        record["round"] = rnd + 1
        seed = record["seed"]
        reference = golden.get("seed0") if seed == 0 and rnd == 0 else None
        estimates = record.setdefault("estimates", {})
        zmax = golden["z_max"]
        for k, (label, spec) in enumerate(state["specs"].items()):
            samples = self.eb_samples if label == "exact-brownian" else self.o4_samples
            trunc = self.eb_truncation if label == "exact-brownian" else None
            data = api.M.sample_spec_moments(
                spec, samples, truncation=trunc, seed=stream_seed(seed, rnd, k), max_power=6
            )
            for idx, det in zip(state["indices"], state["exact"][label]):
                vals = api.M.moment_product_from_samples(data, idx)
                est = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(vals.size))
                name = f"{label} {idx.label()}"
                if se == 0.0:  # a constant product, such as the trivial average j2
                    zscore = 0.0
                    checks.close(name, est, det, 0.0, golden["moment_abs_tol"])
                else:
                    zscore = abs(est - det) / se
                    checks.below(name + " |z|", zscore, zmax)
                estimates.setdefault(label, {})[idx.label()] = [est, zscore]
                if reference is not None:
                    checks.close(name + " seed-0 estimate", est, reference[label][idx.label()][0],
                                 golden["seed0_rel_tol"], golden["moment_abs_tol"])
        est, se = api.P.mc_density_ratio(
            state["kernel"], state["params"], 0.0, 0.0, self.dr_levels, self.dr_samples,
            seed=stream_seed(seed, rnd, 2),
        )
        estimates["density_ratio"] = [est, se, abs(est - state["nmm"]) / se]
        checks.below("density ratio |z|", estimates["density_ratio"][2], zmax)
        if reference is not None:
            checks.close("density ratio seed-0 estimate", est, reference["density_ratio"][0],
                         golden["seed0_rel_tol"])
        return True

    def computed_counts(self, state, passes):
        """Work of one set-up (the n = 7 propagation) and ``passes``."""
        rounds = len(passes)
        cells = state["grid"].cells
        pairs = mirrored_pairs(cells)
        nodes = pair_nodes_per_pair(state["kernel"])
        npts = cells + 1
        eb_nodes = 2 * self.eb_truncation + 1
        o4_nodes = state["specs"]["order-4"].rule.points.size
        return {
            "kernels.pairs": pairs,
            "kernels.pair_nodes": pairs * nodes,
            "potentials.points": pairs * (nodes + 2) + 2 * npts - 1
            + rounds * self.dr_samples * 2**self.dr_levels * o4_nodes,
            "propagation.matmuls": matmuls_for_power(self.dr_n + 1),
            "moments.samples": rounds * (self.eb_samples + self.o4_samples),
            "propagation.mc_density_ratio.samples": rounds * self.dr_samples,
            # path matrices sampled (computed): samples x time nodes x 8 bytes
            "moments.path_bytes": rounds * 8 * (self.eb_samples * eb_nodes + self.o4_samples * o4_nodes),
        }


def mirrored_pairs(cells: int) -> int:
    """Upper-triangle pairs (i <= j) with i + j <= cells: what build_matrix
    evaluates on a grid whose potential is mirror-symmetric."""
    return sum(cells - 2 * i + 1 for i in range(cells // 2 + 1))


def stream_seed(seed: int, rnd: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, stream]).generate_state(1)[0])


WORKLOADS = {w.name: w for w in (HeOrder4Ladder(), QuarticTrotterLadder(), McCrosscheck())}


def plan(workload, seconds: float):
    """Whole passes sized to fill about ``seconds``; at least one. The work
    is fixed by the seconds argument, not by how fast it runs."""
    return [workload.pass_ops()] * max(1, round(seconds / workload.nominal_pass_s))


def run_plan(api, workload, state, passes, golden, checks, record):
    """Runs every op; returns (wall seconds, per-op seconds for timed ops)."""
    op_times = []
    t0 = time.perf_counter()
    for p in passes:
        for op in p:
            t = time.perf_counter()
            try:
                timed = workload.run_op(api, state, op, golden, checks, record)
            except Exception as exc:  # an op that raises is a failed op
                checks.op(f"{workload.name} {op}", False, f"{type(exc).__name__}: {exc}")
                timed = True
            if timed:
                op_times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, op_times
