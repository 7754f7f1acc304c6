"""Spans and work counts recorded around the public entry points of rwpath.

Tracing wraps, from outside the package, every public module-level function
of the layer modules (at every module attribute that refers to it, so calls
made between modules are seen too), a few kernel and path-system methods,
and the ``value`` of every potential a factory returns (the ``Potential`` is
rebuilt with a timed ``value``). Nothing inside ``src/`` is edited. Spans
stay in memory; ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("potentials", "kernels", "propagation", "moments", "calibration", "quadrature", "processes")

# methods wrapped on the classes that carry the kernel and path-system work
_METHODS = {
    "kernels": (
        ("ShortTimeKernel", "rho0"),
        ("_ReweightedKernel", "__init__"),
        ("_ReweightedKernel", "ratio"),
        ("TrotterKernel", "ratio"),
    ),
    "processes": (("LambdaSystem", "bridge_values"),),
}


def matmuls_for_power(power: int) -> int:
    """Matrix products of square-and-multiply for ``power``: one squaring per
    bit below the top one and one multiply per extra set bit."""
    return (power.bit_length() - 1) + (bin(power).count("1") - 1)


def pair_nodes_per_pair(kernel) -> int:
    """Potential points one (x, x') pair costs inside ``ratio``: Gauss-Hermite
    nodes times time nodes, or the two endpoints of the splitting kernel."""
    if hasattr(kernel, "gh_points"):
        return kernel.gh_points ** kernel.system.q * kernel.time_rule.points.size
    return 2


class Tracer:
    """Records spans (layer, name, parent, start, end) and work counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # potentials rebuilt while installed keep their wrapper; it records
        # nothing once the tracer is uninstalled
        self.active = False

    # ------------------------------------------------------------ spans
    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        self._open(layer, name)
        try:
            yield
        finally:
            self._close()

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([layer, name, parent, time.perf_counter(), 0.0])

    def _close(self):
        self.spans[self._stack.pop()][4] = time.perf_counter()

    def _wrap(self, layer, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
                if count is not None:
                    count(tracer.counts, args, kwargs)

        return wrapper

    # ------------------------------------------------------------ install
    def install(self, rwpath) -> None:
        """Wrap the public functions of every layer module at each module
        attribute that refers to them, the kernel/system methods, and the
        potential factories."""
        self.active = True
        mods = [m for name, m in sys.modules.items() if name == "rwpath" or name.startswith("rwpath.")]
        for layer in LAYERS:
            module = getattr(rwpath, layer)
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapped = self._wrap(layer, name, self._factory(fn) if layer == "potentials" else fn,
                                     _COUNTERS.get(name))
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
            for cls_name, meth in _METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(layer, meth, fn, _COUNTERS.get(meth)))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _factory(self, fn):
        """A potential factory whose potentials carry a timed ``value``."""
        tracer = self

        @functools.wraps(fn)
        def make(*args, **kwargs):
            pot = fn(*args, **kwargs)
            return dataclasses.replace(
                pot, value=tracer._wrap("potentials", "value", pot.value, _count_points)
            )

        return make

    # ------------------------------------------------------------ analysis
    def _children_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for layer, name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_time(self, pred) -> float:
        child = self._children_time()
        return sum(s[4] - s[3] - child[i] for i, s in enumerate(self.spans) if pred(s))

    def busy(self, pred) -> float:
        """Wall time covered by spans matching ``pred``: the durations of
        matching spans that have no matching ancestor."""
        total = 0.0
        for s in self.spans:
            if not pred(s):
                continue
            p = s[2]
            while p >= 0 and not pred(self.spans[p]):
                p = self.spans[p][2]
            if p < 0:
                total += s[4] - s[3]
        return total


def _count_points(counts, args, kwargs):
    counts["potentials.points"] += np.size(args[0])


def _count_ratio(counts, args, kwargs):
    kernel, _, x, xp = args[:4]
    pairs = np.broadcast(np.asarray(x), np.asarray(xp)).size
    counts["kernels.pairs"] += pairs
    counts["kernels.pair_nodes"] += pairs * pair_nodes_per_pair(kernel)


def _count_power(counts, args, kwargs):
    a, power = args[0], args[1] if len(args) > 1 else kwargs["power"]
    mm = matmuls_for_power(int(power))
    counts["propagation.matmuls"] += mm
    counts["propagation.flops"] += 2.0 * a.shape[0] ** 3 * mm


def _sample_counter(key, pos):
    def count(counts, args, kwargs):
        counts[key] += args[pos] if len(args) > pos else kwargs["samples"]

    return count


_COUNTERS = {
    "ratio": _count_ratio,
    "matrix_power": _count_power,
    "sample_spec_moments": _sample_counter("moments.samples", 1),
    "mc_density_ratio": _sample_counter("propagation.mc_density_ratio.samples", 5),
}


PER_LAYER_UNITS = {
    "potentials.points": "count",
    "potentials.busy_s": "s",
    "potentials.ns_per_point": "ns",
    "kernels.pair_nodes": "count",
    "kernels.self_s": "s",
    "kernels.ns_per_pair_node": "ns",
    "propagation.build_matrix.self_s": "s",
    "propagation.matmuls": "count",
    "propagation.matrix_power.busy_s": "s",
    "propagation.gflop_per_s": "GFLOP/s",
    "propagation.gflop_per_s.1thread": "GFLOP/s",
    "propagation.threads_z_rel_diff": "ratio",
    "propagation.reference_z.busy_s": "s",
    "propagation.dvr.busy_s": "s",
    "propagation.mc_density_ratio.samples_per_s": "1/s",
    "moments.samples_per_s": "1/s",
    "moments.path_bytes": "B",
    "moments.verify_order.busy_s": "s",
    "calibration.busy_s": "s",
    "quadrature.busy_s": "s",
    "processes.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "ratio",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans and counts."""
    t = tracer
    c = t.counts

    def by_name(*names):
        return lambda s: s[1] in names

    def by_layer(layer):
        return lambda s: s[0] == layer

    def rate(num, den):
        return num / den if den > 0 else 0.0

    pot_busy = t.busy(by_layer("potentials"))
    ratio_busy = t.busy(by_name("ratio"))
    power_busy = t.busy(by_name("matrix_power"))
    out = {
        "potentials.points": c["potentials.points"],
        "potentials.busy_s": pot_busy,
        "potentials.ns_per_point": 1e9 * rate(pot_busy, c["potentials.points"]),
        "kernels.pair_nodes": c["kernels.pair_nodes"],
        "kernels.self_s": t.self_time(by_layer("kernels")),
        "kernels.ns_per_pair_node": 1e9 * rate(ratio_busy, c["kernels.pair_nodes"]),
        "propagation.build_matrix.self_s": t.self_time(by_name("build_matrix")),
        "propagation.matmuls": c["propagation.matmuls"],
        "propagation.matrix_power.busy_s": power_busy,
        "propagation.gflop_per_s": 1e-9 * rate(c["propagation.flops"], power_busy),
        "propagation.reference_z.busy_s": t.busy(by_name("reference_z")),
        "propagation.dvr.busy_s": t.busy(by_name("dvr_partition_function", "dvr_eigenvalues")),
        "propagation.mc_density_ratio.samples_per_s": rate(
            c["propagation.mc_density_ratio.samples"], t.busy(by_name("mc_density_ratio"))
        ),
        "moments.samples_per_s": rate(c["moments.samples"], t.busy(by_name("sample_spec_moments"))),
        "moments.verify_order.busy_s": t.busy(by_name("verify_order")),
    }
    for layer in ("calibration", "quadrature", "processes"):
        out[f"{layer}.busy_s"] = t.busy(by_layer(layer))
    return out
