"""Measuring convergence orders by matrix propagation (desk-scale).

The partition function at inverse temperature beta is recovered as the
trace of the (n+1)-th power of the discretized kernel at beta/(n+1). The
log-ratio diagnostic alpha_m grows linearly in m with slope equal to the
convergence order, so fitting its tail reads the order straight off a run.

This is a reduced-scale version of the quartic-oscillator benchmark (the
acceptance suite runs the full ladders): expect slopes near 2 for the
endpoint splitting kernel and near 3 for the third-order system.
"""

import time

from rwpath import SYSTEMS, ladder

t0 = time.perf_counter()
run = ladder(
    *SYSTEMS["quartic"].resolve(cells=300), {"trotter": 25, "order3-discrete": 25}, n_ref=511
)
reference = run.reference
print(
    f"reference Z = {reference.value:.10e}"
    f" (eigensolve gap {reference.rel_gap:.1e}; all ladders {time.perf_counter() - t0:.0f}s)"
)

for label, family in [("endpoint splitting", "trotter"), ("third-order system", "order3-discrete")]:
    series = run.orders[family]
    print(f"\n{label}: fitted slope {series.slope:.3f} over m in {series.fit_window}")
    print("  m      Z_{2m+1}            alpha_m")
    shown = dict(zip(series.alpha_m_index.tolist(), series.alpha_m.tolist()))
    for i, m in enumerate(series.m.tolist()):
        if m % 5 == 0 and m in shown:
            print(f"  {m:<6d}{series.z[i]:<20.12e}{shown[m]:.4f}")
