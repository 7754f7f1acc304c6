"""The benchmark's own tests: every declared metric is reported, and a
corrupted or NaN golden value is counted as a failed op.

    python3 -m pytest perfbench

Each case runs the benchmark end to end with the smallest workload size
(one pass); the helium cases take about a minute each.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, golden=None, seed=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace):
    code, result = bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def corrupt(tmp_path, workload, edit):
    golden = json.loads((HERE / "golden.json").read_text())
    edit(golden[workload])
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    return path


@pytest.mark.parametrize(
    "workload, edit",
    [
        ("quartic-trotter-ladder", lambda g: g.update(z_ref=g["z_ref"] * (1 + 1e-9))),
        ("quartic-trotter-ladder", lambda g: g["z"].update({"121": g["z"]["121"] * (1 - 1e-9)})),
        ("quartic-trotter-ladder", lambda g: g.update(c_th=88.0)),
        ("mc-crosscheck", lambda g: g["exact"]["order-4"].update({"j4=1": 0.49})),
    ],
)
def test_corrupted_golden_fails(tmp_path, workload, edit):
    code, result = bench(workload, 0, corrupt(tmp_path, workload, edit))
    assert code != 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize(
    "workload, edit",
    [
        ("quartic-trotter-ladder", lambda g: g.update(z_ref=float("nan"))),
        ("quartic-trotter-ladder", lambda g: g.update(z_rel_tol=float("nan"))),
        ("mc-crosscheck", lambda g: g.update(nmm=float("nan"))),
        ("mc-crosscheck", lambda g: g.update(z_max=float("nan"))),
    ],
)
def test_nan_golden_fails(tmp_path, workload, edit):
    code, result = bench(workload, 0, corrupt(tmp_path, workload, edit))
    assert code != 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0
