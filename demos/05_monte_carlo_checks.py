"""Monte Carlo cross-checks of the deterministic machinery.

Two independent estimators guard the deterministic code paths:

1. The moment engine (Isserlis pairing sums plus quadrature) is checked
   index by index against plain Monte Carlo over sampled paths.
2. The chained-kernel density matrix from matrix propagation is checked
   against direct sampling of the composed-path representation, where the
   dyadic skeleton carries tent coefficients and one compressed copy of the
   bridge system lives in each cell.
"""

from rwpath import (
    SYSTEMS,
    MomentIndex,
    continuous_spec,
    exact_brownian,
    make_kernel,
    make_spec,
    mc_density_ratio,
    mc_moment_oracle,
    moment,
    nmm_density_ratio,
)

print("1) moment engine vs sampling (400k samples each)")
eb = continuous_spec(exact_brownian())
o4 = make_spec("order4-discrete")
cases = [
    ("brownian", eb, MomentIndex.from_multiplicities(3, {6: 1})),
    ("brownian", eb, MomentIndex.from_multiplicities(4, {4: 2})),
    ("order-4 ", o4, MomentIndex.from_multiplicities(4, {5: 1, 3: 1})),
    ("order-4 ", o4, MomentIndex.from_multiplicities(3, {3: 2})),
]
for label, spec, idx in cases:
    det = moment(spec, idx)
    est, se = mc_moment_oracle(spec, idx, samples=400_000, seed=5)
    print(
        f"  {label} {idx.label():<12} engine {det:.6f}  mc {est:.6f} +/- {se:.1e}"
        f"  ({abs(est - det) / se:.2f} sigma)"
    )

print()
print("2) chained-path sampling vs matrix propagation (quartic, 7 links)")
pot, params, grid = SYSTEMS["quartic"].resolve(beta=1.0, cells=300)
kernel = make_kernel("order4-discrete", pot)
est, se = mc_density_ratio(kernel, params, 0.0, 0.0, levels=3, samples=500_000, seed=5)
want = nmm_density_ratio(kernel, params, grid, 7, 0.0, 0.0)
print(f"  sampled ratio {est:.6f} +/- {se:.1e}")
print(f"  matrix ratio  {want:.6f}   ({abs(est - want) / se:.2f} sigma)")
