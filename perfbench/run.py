"""rwpath benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics untraced, per-layer metrics traced); the
line before it is a JSON record with the environment, sample counts,
computed work counts and every failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
# spelled out so that arguments parse before numpy loads: BLAS threads are
# fixed through the environment first
WORKLOAD_NAMES = ("he-order4-ladder", "quartic-trotter-ladder", "mc-crosscheck")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden", default=str(GOLDEN), help="golden-values file (tests corrupt a copy)")
    ap.add_argument("--blas-threads", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--ladder-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_rwpath():
    """Import rwpath from ``<checkout>/src`` only; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "rwpath" / "__init__.py").is_file():
        print(f"perfbench: no rwpath package under {src}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import rwpath

    if src.resolve() not in Path(rwpath.__file__).resolve().parents:
        print(f"perfbench: rwpath was imported from {rwpath.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return rwpath, SimpleNamespace(
        C=rwpath.calibration,
        K=rwpath.kernels,
        M=rwpath.moments,
        P=rwpath.propagation,
        PO=rwpath.potentials,
        PS=rwpath.processes,
    )


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "cpu": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def p90_if_resolved(samples):
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> int:
    t_import = time.perf_counter()
    rwpath, api = import_rwpath()
    import_s = time.perf_counter() - t_import

    import workloads as W
    from tracing import Tracer

    workload = W.WORKLOADS[args.workload]
    if args.ladder_only:
        return ladder_only(api, rwpath, workload)
    golden = json.loads(Path(args.golden).read_text())[args.workload]
    checks = W.Checks()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(rwpath)

    def region(name):
        return tracer.span("bench", name) if tracer else contextlib.nullcontext()

    setup_times = []
    for _ in range(1 if tracer else workload.setup_repeats):
        t = time.perf_counter()
        with region("setup"):
            state = workload.setup(api, golden, checks)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    passes = W.plan(workload, args.seconds)
    record = {"seed": args.seed}
    with region("run"):
        wall_s, op_times = W.run_plan(api, workload, state, passes, golden, checks, record)

    detail["samples"] = {"setup_s": len(setup_times), "op_s.p50": len(op_times), "wall_s": 1}
    detail["op_s.p90"] = p90_if_resolved(op_times)
    if tracer:
        metrics = traced_metrics(api, workload, state, passes, golden, checks, tracer, wall_s, record, detail)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s.p50": (statistics.median(op_times), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    detail["env"] = environment(args.blas_threads)
    detail["failures"] = checks.messages
    correct = checks.failed == 0
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def traced_metrics(api, workload, state, passes, golden, checks, tracer, wall_s, record, detail):
    """Per-layer metrics, the check of wrapped-call counts against the counts
    computed from the inputs, the tracing overhead (the same passes replayed
    untraced) and, on the quartic ladder, the single-BLAS-thread baseline."""
    import workloads as W
    from tracing import PER_LAYER_UNITS, layer_metrics

    traced_total = sum(s[4] - s[3] for s in tracer.spans if s[0] == "bench")
    out = layer_metrics(tracer)
    out["trace.attributed_frac"] = tracer.self_time(lambda s: s[0] != "bench") / traced_total
    computed = workload.computed_counts(state, passes)
    detail["computed_counts"] = computed
    out["moments.path_bytes"] = computed.get("moments.path_bytes", 0)
    for key, want in computed.items():
        if key != "moments.path_bytes":
            got = tracer.counts.get(key, 0.0)
            checks.op(f"traced count {key}", got == want, f"wrapped calls counted {got}, computed {want}")
    tracer.uninstall()
    untraced_wall, _ = W.run_plan(api, workload, state, passes, golden, checks, {"seed": record["seed"]})
    out["trace.overhead_s"] = wall_s - untraced_wall
    one, rel = 0.0, 0.0
    if workload.name == "quartic-trotter-ladder":
        one, rel = blas_baseline(record["z"], checks)
    out["propagation.gflop_per_s.1thread"] = one
    out["propagation.threads_z_rel_diff"] = rel
    return {k: (out[k], unit) for k, unit in PER_LAYER_UNITS.items()}


def blas_baseline(z_nproc: dict, checks) -> tuple[float, float]:
    """Runs the quartic Trotter ladder once more, traced, in a child process
    with one BLAS thread; returns its matrix-power GFLOP/s and the largest
    relative difference of its Z_n from this run's (measured, not gated)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "quartic-trotter-ladder", "--seed", "0",
           "--seconds", "0", "--trace", "1", "--blas-threads", "1", "--ladder-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if not checks.op("single-thread baseline", proc.returncode == 0, proc.stderr[-2000:]):
        return 0.0, 0.0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    rel = max(abs(res["z"][str(n)] - z) / abs(z) for n, z in z_nproc.items())
    return res["gflop_per_s"], rel


def ladder_only(api, rwpath, workload) -> int:
    """One traced Trotter ladder pass: the single-BLAS-thread baseline child."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install(rwpath)
    params, pot, grid = workload.inputs(api)
    kernel = api.K.TrotterKernel(pot)
    z = {n: api.P.partition_function(api.P.build_matrix(kernel, params, grid, n)) for n in workload.n_list}
    tracer.uninstall()
    print(json.dumps({"z": z, "gflop_per_s": layer_metrics(tracer)["propagation.gflop_per_s"]}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = args.blas_threads or nproc()
    args.blas_threads = threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
