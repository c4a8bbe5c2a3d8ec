"""Measured query-complexity exponents.

Sweeps the target accuracy over a log grid, runs a small seed batch at
each level, and fits log(median queries) against log(1/eps).  The two
zeroth-order methods separate cleanly: the recursive variant saves two
thirds of a power of 1/eps (exponent 7/3 instead of 3).
"""
import numpy as np

from qzopt import ExperimentConfig, primary_queries, run_experiment, scaling_sweep

EPS_GRID = (0.8, 0.4, 0.2, 0.1)
SEEDS = (0, 1, 2)

for algorithm in ("qgfm", "qgfm_plus"):
    config = ExperimentConfig(
        algorithm=algorithm,
        problem="abs-linear",
        d=2,
        eps_grid=EPS_GRID,
        seeds=SEEDS,
        delta=0.3,
        noise_scale=0.1,
    )
    rows = run_experiment(config)
    fit = scaling_sweep(config, rows=rows)

    print(f"{algorithm}: median U_f queries per accuracy level")
    for eps in EPS_GRID:
        qs = [primary_queries(r, config) for r in rows if r.eps == eps]
        print(f"  eps={eps:<4g} median queries = {int(np.median(qs)):>9d}")
    print(f"  fitted exponent: queries ~ (1/eps)^{fit.slope:.3f}"
          f"   (r^2 = {fit.r_squared:.5f})")
    print()

print("the plain method pays ~1/eps^3 at fixed d; the recursive variant")
print("reuses paired differences between refreshes and drops to ~1/eps^(7/3).")
