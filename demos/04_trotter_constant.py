"""The convergence constant of the endpoint splitting kernel.

For the symmetrized kinetic/potential splitting the relative error of the
partition function obeys

    (n+1)^2 (Z_n - Z)/Z  ->  (hbar^2 beta^3 / 24 m) <V'(x)^2>_thermal,

a closed-form limit expressible entirely through the thermal average of the
squared force. The script computes both sides on the quartic oscillator at
reduced scale (the full run reproduces the reference value c_th ~ 88.35 to
a fraction of a percent). Both Z and the thermal average come from one
converged order-4 reference, eight times the largest n.
"""

import time

from rwpath import SYSTEMS, ladder

t0 = time.perf_counter()
series = ladder(*SYSTEMS["quartic"].resolve(cells=300), {}, constant_top=40, n_ref=648).constant
print(f"theoretical constant c_th = {series.c_th:.4f}   ({time.perf_counter() - t0:.0f}s)")
print(f"observed constants approach it from below:")
print("  n      c_n        c_n/c_th")
for n, c in zip(series.n.tolist(), series.c_n.tolist()):
    if n % 16 == 1 or n == series.n[-1]:
        print(f"  {n:<6d}{c:<11.4f}{c / series.c_th:.4f}")
print(f"\ngap at the largest n: {series.rel_err_last:.2%}")
