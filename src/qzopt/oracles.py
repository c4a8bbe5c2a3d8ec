"""Estimator oracles with quantum-versus-classical query accounting.

The optimizers never evaluate F directly; they go through the estimators
below, which do two independent jobs:

1. Realize an estimate classically at a requested accuracy: every
   estimator returns an unbiased value whose mean squared error is at
   most sigma_hat^2, produced by averaging enough independent draws
   (batch sizes follow the variance certificates on the ObjectiveSpec).

2. Charge a query ledger with what the same estimate would cost.  In
   quantum mode the charge follows the multivariate quantum mean
   estimation rate sqrt(d) * L_hat / sigma_hat (times the queries per
   sample: a single two-point sample costs 2 U_F queries, a shared-draw
   difference sample costs 4).  In classical mode the charge is the
   actual number of function evaluations performed.

Only the ledger distinguishes the modes: realized estimates are
identical draw-for-draw under the same random stream, so trajectories
can be compared across cost modes exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import (ObjectiveSpec, _check_int, _check_real, _col_sums, _finite_point,
                         _sample_xi_batch)
from .smoothing import SmoothingParams, _g_delta_mean

__all__ = [
    "CostModel",
    "GradEstimate",
    "QueryLedger",
    "estimate_grad",
    "estimate_grad_diff",
    "estimate_sgrad",
    "estimate_sgrad_diff",
    "quantum_mean_cost",
]

COST_MODES = ("quantum", "classical")


@dataclass
class CostModel:
    """How ledger charges are computed.

    c_q is the constant hidden in the quantum mean-estimation rate.
    log_k > 0 multiplies quantum charges by
    max(1, ceil(log2(1/sigma_hat)))**log_k for sensitivity studies;
    the default log_k = 0 treats polylog factors as 1.
    """

    mode: str = "quantum"
    c_q: float = 1.0
    log_k: int = 0

    def __post_init__(self) -> None:
        if self.mode not in COST_MODES:
            raise ValueError(f"unknown cost mode {self.mode!r}")
        self.c_q = _check_real("c_q", self.c_q)
        # a float log_k would turn every ledger counter into a float
        self.log_k = _check_int("log_k", self.log_k, 0)

    def log_multiplier(self, sigma_hat: float) -> int:
        if self.log_k == 0:
            return 1
        base = max(1, math.ceil(math.log2(1.0 / sigma_hat)))
        return base**self.log_k


@dataclass
class QueryLedger:
    """Monotone query counters.

    phase_tags holds per-phase subtotals as (uf, classical, grad) tuples.
    """

    uf_queries: int = 0
    classical_queries: int = 0
    grad_oracle_queries: int = 0
    phase_tags: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def charge(self, *, uf: int = 0, classical: int = 0, grad: int = 0, phase: str | None = None) -> None:
        if uf < 0 or classical < 0 or grad < 0:
            raise ValueError("charges must be non-negative")
        self.uf_queries += uf
        self.classical_queries += classical
        self.grad_oracle_queries += grad
        if phase is not None:
            prev = self.phase_tags.get(phase, (0, 0, 0))
            self.phase_tags[phase] = (prev[0] + uf, prev[1] + classical, prev[2] + grad)


@dataclass
class GradEstimate:
    value: np.ndarray
    queries_charged: int


# ---------------------------------------------------------------------------
# cost arithmetic


def _charge(
    ledger: QueryLedger,
    model: CostModel,
    phase: str | None,
    quantum: int,
    classical: int,
    grad: bool = False,
) -> int:
    """Charge the active cost mode's count and return it.

    quantum and classical are the two modes' charges, both computed by the
    caller.  Function-value estimators charge uf_queries or
    classical_queries by mode; gradient-oracle estimators (grad=True)
    charge grad_oracle_queries in both modes.
    """
    quantum_mode = model.mode == "quantum"
    charged = quantum if quantum_mode else classical
    if grad:
        ledger.charge(grad=charged, phase=phase)
    elif quantum_mode:
        ledger.charge(uf=charged, phase=phase)
    else:
        ledger.charge(classical=charged, phase=phase)
    return charged


def quantum_mean_cost(
    L_hat: float,
    d: int,
    sigma_hat: float,
    model: CostModel,
) -> int:
    """Oracle queries to estimate a d-dimensional mean to accuracy sigma_hat.

    L_hat bounds the per-sample deviation norm.  Quantum mode follows the
    mean-estimation rate sqrt(d) * L_hat / sigma_hat; classical mode is
    the batch size L_hat^2 / sigma_hat^2.
    """
    sigma_hat = _check_real("sigma_hat", sigma_hat)
    d = _check_int("d", d, 1)
    L_hat = _check_real("L_hat", L_hat, lo_open=False)
    if model.mode == "quantum":
        return _quantum_count(model, model.c_q * math.sqrt(d) * L_hat / sigma_hat, sigma_hat)
    return max(1, math.ceil(L_hat * L_hat / (sigma_hat * sigma_hat)))


def _quantum_count(model: CostModel, raw: float, sigma_hat: float) -> int:
    """The quantum charge for a rate of raw queries: at least one, rounded
    up, times the log factor."""
    return max(1, math.ceil(raw)) * model.log_multiplier(sigma_hat)


def _diff_step(
    spec: ObjectiveSpec, x: np.ndarray, y: np.ndarray, step: tuple[np.ndarray, float] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """The checked (x, y, x - y, ||x - y||) of a difference estimate, or None
    when x == y.

    step is an optimizer loop's (x - y, ||x - y||) for a step of positive
    length between two points it has checked; it is taken as given, so the
    point checks, the x == y test and the recomputation are skipped.
    """
    if step is not None:
        return x, y, *step
    x = _finite_point(spec, x)
    y = _finite_point(spec, y)
    if not np.count_nonzero(x != y):  # x == y
        return None
    v = x - y
    return x, y, v, math.sqrt(v.dot(v))


# ---------------------------------------------------------------------------
# accuracy-targeted estimators


def estimate_grad(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    sigma_hat: float,
    model: CostModel,
    rng: np.random.Generator,
    ledger: QueryLedger,
    phase: str | None = None,
) -> GradEstimate:
    """Unbiased estimate of grad f_delta(x) with MSE at most sigma_hat^2.

    Realized as the mean of n = ceil(est_var_coeff * d * L^2 / sigma_hat^2)
    independent two-point draws.  Quantum charge per call:
    2 * max(1, ceil(c_q * d * L / sigma_hat)); classical charge 2n.
    """
    sigma_hat = _check_real("sigma_hat", sigma_hat)
    x = _finite_point(spec, x)
    d, L = spec.d, spec.L
    n = max(1, math.ceil(spec.est_var_coeff * d * L * L / (sigma_hat * sigma_hat)))
    value = _g_delta_mean(spec, x, params.delta, n, rng)
    charged = _charge(ledger, model, phase,
                      2 * quantum_mean_cost(math.sqrt(d) * L, d, sigma_hat, model), 2 * n)
    return GradEstimate(value, charged)


def estimate_grad_diff(
    spec: ObjectiveSpec,
    x: np.ndarray,
    y: np.ndarray,
    params: SmoothingParams,
    sigma_hat: float,
    model: CostModel,
    rng: np.random.Generator,
    ledger: QueryLedger,
    phase: str | None = None,
    *,
    _step: tuple[np.ndarray, float] | None = None,
) -> GradEstimate:
    """Unbiased estimate of grad f_delta(x) - grad f_delta(y).

    Uses shared (w, xi) draws so the per-sample deviation scales with
    ||x - y||.  x == y is degenerate: the exact zero vector is returned
    and nothing is charged.  _step is private to the optimizer loops
    (see _diff_step).
    """
    step = _diff_step(spec, x, y, _step)
    if step is None:
        return GradEstimate(np.zeros(spec.d), 0)
    x, y, _, dist = step
    sigma_hat = _check_real("sigma_hat", sigma_hat)
    d, L, delta = spec.d, spec.L, params.delta
    n = max(
        1,
        math.ceil(
            spec.diff_var_coeff * d * d * L * L * dist * dist / (delta * delta * sigma_hat * sigma_hat)
        ),
    )
    value = _g_delta_mean(spec, x, delta, n, rng, y=y)
    raw = model.c_q * d ** 1.5 * L * dist / (sigma_hat * delta)
    charged = _charge(ledger, model, phase, 4 * _quantum_count(model, raw, sigma_hat), 4 * n)
    return GradEstimate(value, charged)


def estimate_sgrad(
    spec: ObjectiveSpec,
    x: np.ndarray,
    sigma_hat: float,
    model: CostModel,
    rng: np.random.Generator,
    ledger: QueryLedger,
    phase: str | None = None,
) -> GradEstimate:
    """Smooth track: estimate grad f(x) from the stochastic gradient oracle."""
    if spec.smooth_params is None:
        raise ValueError(f"{spec.name!r} exposes no smooth gradient oracle")
    sigma_hat = _check_real("sigma_hat", sigma_hat)
    x = _finite_point(spec, x)
    _, sigma = spec.smooth_params
    n = max(1, math.ceil(sigma * sigma / (sigma_hat * sigma_hat)))
    value = spec.lambdas * x
    if sigma > 0:
        payload = _sample_xi_batch(spec, n, rng)
        value = value + _col_sums(payload) / n
    raw = model.c_q * math.sqrt(spec.d) * sigma / sigma_hat
    charged = _charge(ledger, model, phase, _quantum_count(model, raw, sigma_hat), n, grad=True)
    return GradEstimate(value, charged)


def estimate_sgrad_diff(
    spec: ObjectiveSpec,
    x: np.ndarray,
    y: np.ndarray,
    sigma_hat: float,
    model: CostModel,
    rng: np.random.Generator,
    ledger: QueryLedger,
    phase: str | None = None,
    *,
    _step: tuple[np.ndarray, float] | None = None,
) -> GradEstimate:
    """Smooth track: estimate grad f(x) - grad f(y) with shared noise draws.

    For the catalog's quadratic the shared-draw difference is deterministic
    (the additive gradient noise cancels), so the realized value is exact;
    the ledger still charges the contract rate.  _step is private to the
    optimizer loops (see _diff_step).
    """
    if spec.smooth_params is None:
        raise ValueError(f"{spec.name!r} exposes no smooth gradient oracle")
    step = _diff_step(spec, x, y, _step)
    if step is None:
        return GradEstimate(np.zeros(spec.d), 0)
    _, _, v, dist = step
    sigma_hat = _check_real("sigma_hat", sigma_hat)
    l, _ = spec.smooth_params
    value = spec.lambdas * v
    raw = model.c_q * math.sqrt(spec.d) * l * dist / sigma_hat
    charged = _charge(ledger, model, phase, _quantum_count(model, raw, sigma_hat),
                      max(1, math.ceil(l * l * dist * dist / (sigma_hat * sigma_hat))), grad=True)
    return GradEstimate(value, charged)
