"""Statistical convergence guarantee across the algorithm/problem grid.

Each cell runs 20 seeds with derived parameters and checks the mean
squared residual estimate against (1.5 eps)^2, the documented
finite-sample slack over the in-expectation bound.  The variance-reduced
non-smooth method skips the constant problem: its documented L of 1e-9
puts any interesting eps outside the derivation's eps <= L domain (the
refresh probability (eps/L)^(2/3) would exceed 1, and the derivation
refuses, which test_algorithms covers).
"""
import numpy as np
import pytest

from qzopt import ExperimentConfig, run_experiment

pytestmark = pytest.mark.slow

CELLS = [
    ("qgfm", "constant", 3, 0.0),
    ("qgfm", "abs-linear", 4, 0.1),
    ("qgfm", "sawtooth", 4, 0.1),
    ("qgfm", "quadratic-smooth", 2, 0.0),
    ("qgfm_plus", "abs-linear", 4, 0.1),
    ("qgfm_plus", "sawtooth", 4, 0.1),
    ("qgfm_plus", "quadratic-smooth", 2, 0.0),
    ("qgm_plus", "quadratic-smooth", 2, 1.0),
]


@pytest.mark.parametrize("eps", [0.4, 0.2])
@pytest.mark.parametrize("alg,prob,d,noise", CELLS,
                         ids=[f"{a}-{p}-d{d}" for a, p, d, _ in CELLS])
def test_mean_squared_residual_within_bound(alg, prob, d, noise, eps):
    cfg = ExperimentConfig(algorithm=alg, problem=prob, d=d, noise_scale=noise,
                           delta=0.3, eps_grid=(eps,), seeds=tuple(range(20)))
    rows = run_experiment(cfg)
    mean_sq = float(np.mean([r.residual_est**2 for r in rows]))
    assert mean_sq <= (1.5 * eps) ** 2
