"""Optimizers for Goldstein stationarity with query accounting.

Three methods share one harness contract (derive parameters from problem
constants, run T steps, return a uniformly chosen iterate, its measured
residual, and the query ledger):

``qgfm``
    Plain stochastic method on the smoothed surrogate: every step moves
    against an accuracy-eps estimate of grad f_delta.  Per-step quantum
    cost scales like d*L/eps; T like sqrt(d)/eps^2, so total queries
    scale as eps^-3 at fixed d.

``qgfm_plus``
    Variance-reduced variant: a biased-coin recursion keeps a running
    gradient estimate, refreshing it fully with probability
    p = (eps/L)^(2/3) and otherwise adding a cheap shared-draw estimate
    of grad f_delta(x_{t+1}) - grad f_delta(x_t) whose accuracy target
    scales with the step length.  Total queries scale as eps^(-7/3).

``qgm_plus``
    The same recursion for smooth objectives with a stochastic gradient
    oracle (mean-square smoothness l, noise second moment sigma^2);
    residuals are measured on grad f itself.

``qgfm_plus`` and ``qgm_plus`` are thin wrappers that hand one private
driver, ``_recursion``, their fresh and difference estimators.  ``qgfm``
keeps its own loop: it has no initialization estimate, so a p = 1 run of
the driver differs from it in phase tags, trace charges and abort step.

All randomness is drawn from counter-based substreams of the run seed, so
runs are reproducible and cost-mode changes cannot perturb trajectories
(estimates are realized identically; only ledgers differ).  Runs that
exceed the query budget abort early and come back flagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import ObjectiveSpec, _check_dim, _finite_point
from .oracles import (
    CostModel,
    QueryLedger,
    estimate_grad,
    estimate_grad_diff,
    estimate_sgrad,
    estimate_sgrad_diff,
)
from .rng import substream
from .smoothing import SmoothingParams, _g_delta_mean, f_delta
from .stationarity import ResidualReport, goldstein_residual

__all__ = [
    "DEFAULT_BUDGET",
    "QgfmParams",
    "QgfmPlusParams",
    "RunResult",
    "TraceRecord",
    "derive_params_qgfm",
    "derive_params_qgfm_plus",
    "derive_params_qgm_plus",
    "qgfm",
    "qgfm_plus",
    "qgm_plus",
]

DEFAULT_BUDGET = 10**9

# The coin stream is drawn this many uniforms at a time; uniform(size=k)
# yields exactly the values of k scalar uniform() calls.
_COIN_BLOCK = 4096


@dataclass
class QgfmParams:
    eta: float
    T: int
    sigma1_sq: float


@dataclass
class QgfmPlusParams:
    """Schedule for the coin-flip recursion (non-smooth and smooth tracks).

    sigma_hat_2 at step t is sqrt(kappa) * ||x_{t+1} - x_t||.
    """

    eta: float
    T: int
    p: float
    sigma1_sq: float
    kappa: float


@dataclass
class TraceRecord:
    """Per-iteration accounting row.

    g_norm and phi refer to g_t, the estimate the step was taken with;
    theta is the coin governing how g_{t+1} was built (1 = full refresh,
    0 = difference update).  gradref_norm is the reference gradient norm
    at x_t (same reference used inside phi), kept so descent inequalities
    can be checked without replaying the trajectory.  Charge fields are
    ledger deltas over the iteration, so they sum to the run totals (the
    t=0 row absorbs the initialization estimate of the recursion methods).
    """

    t: int
    g_norm: float
    step_norm: float
    theta: int
    phi: float | None
    gradref_norm: float | None
    uf: int
    classical: int
    grad: int


@dataclass
class RunResult:
    algorithm: str
    seed: int
    x_out: np.ndarray
    residual: ResidualReport
    ledger: QueryLedger
    T: int
    p: float | None = None
    budget_exceeded: bool = False
    trace: list[TraceRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# parameter derivations


def _check_positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not v > 0 or not math.isfinite(v):
            raise ValueError(f"{name} must be positive and finite")


def _check_d_delta(d: int, Delta: float) -> None:
    _check_dim(d)
    if Delta < 0 or not math.isfinite(Delta):
        raise ValueError("Delta must be non-negative and finite")


def derive_params_qgfm(d: int, L: float, delta: float, eps: float, Delta: float) -> QgfmParams:
    """Step size, accuracy target and step count for the plain method."""
    _check_positive(L=L, delta=delta, eps=eps)
    _check_d_delta(d, Delta)
    rd = math.sqrt(d)
    eta = delta / (2.0 * rd * L)
    T = math.ceil(2.0 / (eps * eps) * (4.0 * rd * L * L + 2.0 * rd * L * Delta / delta))
    return QgfmParams(eta=eta, T=max(1, T), sigma1_sq=eps * eps / 2.0)


def derive_params_qgfm_plus(d: int, L: float, delta: float, eps: float, Delta: float) -> QgfmPlusParams:
    """Schedule for the variance-reduced non-smooth method (needs eps <= L)."""
    _check_positive(L=L, delta=delta, eps=eps)
    _check_d_delta(d, Delta)
    if eps > L:
        raise ValueError("eps must not exceed L (refresh probability would exceed 1)")
    rd = math.sqrt(d)
    eta = delta / (2.0 * rd * L)
    p = (eps / L) ** (2.0 / 3.0)
    kappa = eps ** (2.0 / 3.0) * L ** (4.0 / 3.0) * d / (delta * delta)
    L_delta = rd * L / delta
    T = math.ceil(8.0 * L_delta * (Delta + 2.0 * delta * L) / (eps * eps) + 4.0 / p)
    return QgfmPlusParams(eta=eta, T=max(1, T), p=p, sigma1_sq=eps * eps / 2.0, kappa=kappa)


def derive_params_qgm_plus(l: float, sigma: float, eps: float, Delta: float, d: int) -> QgfmPlusParams:
    """Schedule for the smooth track.

    sigma = 0 degenerates gracefully: the oracle is exact, the coin is
    pinned to heads and the recursion reduces to plain gradient descent.
    d is accepted for signature symmetry with the other derivations; the
    smooth rates carry no explicit dimension factor.
    """
    _check_positive(l=l, eps=eps)
    _check_d_delta(d, Delta)
    if sigma < 0 or not math.isfinite(sigma):
        raise ValueError("sigma must be non-negative and finite")
    if sigma == 0.0:
        p = 1.0
        kappa = 0.0
    else:
        if eps > sigma:
            raise ValueError("eps must not exceed sigma (refresh probability would exceed 1)")
        p = (eps / sigma) ** (2.0 / 3.0)
        kappa = l * l * eps ** (2.0 / 3.0) / sigma ** (2.0 / 3.0)
    eta = 1.0 / (2.0 * l)
    T = math.ceil(8.0 * l * Delta / (eps * eps) + 4.0 * sigma ** (2.0 / 3.0) / eps ** (4.0 / 3.0))
    return QgfmPlusParams(eta=eta, T=max(1, T), p=p, sigma1_sq=eps * eps / 2.0, kappa=kappa)


# ---------------------------------------------------------------------------
# shared run plumbing


def _primary_count(ledger: QueryLedger, model: CostModel, smooth: bool) -> int:
    """The costed counter of a ledger (or a harness row): gradient-oracle
    calls on the smooth track, else the cost mode's function-value counter."""
    if smooth:
        return ledger.grad_oracle_queries
    return ledger.uf_queries if model.mode == "quantum" else ledger.classical_queries


def _phi_diagnostic(
    spec: ObjectiveSpec,
    x: np.ndarray,
    g: np.ndarray,
    eta: float,
    p: float,
    smoothing: SmoothingParams | None,
    seed: int,
    t: int,
    ref_n: int,
) -> tuple[float, float]:
    """Potential f_delta(x_t) - f* + (eta / 2p) ||g_t - grad f_delta(x_t)||^2.

    Diagnostic only; reference quantities come from a dedicated stream so
    tracing never perturbs the trajectory or the ledger.  Also returns the
    reference gradient norm at x_t.
    """
    if smoothing is not None:
        fval = f_delta(spec, x, smoothing)
        # the mean of grad_f_delta_ref's (mean, se), to the bit and to the
        # stream's end, without the squares behind the unread se
        ref = _g_delta_mean(spec, x, smoothing.delta, max(2, ref_n), substream(seed, "trace", t))
    else:
        fval = float(0.5 * (x * x) @ spec.lambdas)
        ref = spec.lambdas * x
    err = g - ref
    phi = float(fval - spec.f_star + eta / (2.0 * p) * (err @ err))
    return phi, float(np.linalg.norm(ref))


def _trace_row(
    records: list[TraceRecord], ledger: QueryLedger, prev: tuple[int, int, int], t: int,
    g: np.ndarray, step_norm: float, theta: int, diagnostic: tuple[float, float],
) -> tuple[int, int, int]:
    """Append step t's TraceRecord and return the ledger counts it ends at.

    The row's charges are the ledger's growth since prev, the counts at
    the end of the previous row ((0, 0, 0) for the first).
    """
    cur = (ledger.uf_queries, ledger.classical_queries, ledger.grad_oracle_queries)
    phi, ref_norm = diagnostic
    records.append(TraceRecord(t, float(np.linalg.norm(g)), step_norm, theta, phi, ref_norm,
                               cur[0] - prev[0], cur[1] - prev[1], cur[2] - prev[2]))
    return cur


def _finish(
    algorithm: str,
    spec: ObjectiveSpec,
    candidates: list[np.ndarray],
    smoothing: SmoothingParams | None,
    seed: int,
    ledger: QueryLedger,
    T: int,
    p: float | None,
    exceeded: bool,
    trace: list[TraceRecord],
    residual_n: int,
    residual_confidence: float,
) -> RunResult:
    pick = substream(seed, "out")
    x_out = candidates[int(pick.integers(len(candidates)))]
    if smoothing is not None:
        residual = goldstein_residual(
            spec, x_out, smoothing, residual_n, residual_confidence, substream(seed, "residual")
        )
    else:
        # Smooth track: the gradient is available exactly, no sampling error.
        residual = ResidualReport(float(np.linalg.norm(spec.lambdas * x_out)), 0.0, 0, 1.0)
    return RunResult(
        algorithm=algorithm,
        seed=seed,
        x_out=x_out,
        residual=residual,
        ledger=ledger,
        T=T,
        p=p,
        budget_exceeded=exceeded,
        trace=trace,
    )


def _coins(rng: np.random.Generator):
    """The uniforms of a coin stream, one per next(), drawn in blocks."""
    while True:
        yield from rng.uniform(size=_COIN_BLOCK).tolist()


def _step_len(x_next: np.ndarray, x: np.ndarray) -> float:
    # np.linalg.norm of a 1-D float array is sqrt(v.dot(v))
    v = x_next - x
    return math.sqrt(v.dot(v))


def _recursion(
    algorithm: str, spec: ObjectiveSpec, x0: np.ndarray, params: QgfmPlusParams,
    smoothing: SmoothingParams | None, model: CostModel, seed: int, fresh, diff,
    trace: bool, budget: int, residual_n: int, residual_confidence: float, trace_ref_n: int,
) -> RunResult:
    """The biased-coin recursion behind ``qgfm_plus`` and ``qgm_plus``.

    fresh and diff are called like ``estimate_sgrad`` and
    ``estimate_sgrad_diff``.  smoothing is None on the smooth track, which
    selects the gradient-oracle budget counter and the exact residual and
    phi, leaving residual_n, residual_confidence and trace_ref_n unused.
    """
    x = _finite_point(spec, x0).copy()
    sigma1 = math.sqrt(params.sigma1_sq)
    est_rng = substream(seed, "est")
    ledger = QueryLedger()
    records: list[TraceRecord] = []
    candidates: list[np.ndarray] = []
    exceeded = False
    prev = (0, 0, 0)
    smooth = smoothing is None
    coins = _coins(substream(seed, "coin"))
    eta, T, p, sqrt_kappa = params.eta, params.T, params.p, math.sqrt(params.kappa)
    g = fresh(spec, x, sigma1, model, est_rng, ledger, phase="init").value
    for t in range(T):
        candidates.append(x)  # x is never modified in place
        g_step = g
        x_next = x - eta * g_step
        theta = 1
        if t + 1 < T:
            theta = 1 if next(coins) < p else 0
            if theta:
                g = fresh(spec, x_next, sigma1, model, est_rng, ledger, phase="refresh").value
            else:
                step_len = _step_len(x_next, x)
                if step_len > 0.0:
                    g = g + diff(spec, x_next, x, sqrt_kappa * step_len, model, est_rng, ledger,
                                 phase="diff").value
        if trace:
            diagnostic = _phi_diagnostic(spec, x, g_step, eta, p, smoothing, seed, t, trace_ref_n)
            prev = _trace_row(records, ledger, prev, t, g_step, _step_len(x_next, x), theta,
                              diagnostic)
        x = x_next
        if _primary_count(ledger, model, smooth) > budget:
            exceeded = True
            break
    return _finish(algorithm, spec, candidates, smoothing, seed, ledger, T, p,
                   exceeded, records, residual_n, residual_confidence)


# ---------------------------------------------------------------------------
# optimizers


def qgfm(
    spec: ObjectiveSpec,
    x0: np.ndarray,
    params: QgfmParams,
    smoothing: SmoothingParams,
    model: CostModel,
    seed: int,
    *,
    trace: bool = False,
    budget: int = DEFAULT_BUDGET,
    residual_n: int = 20000,
    residual_confidence: float = 0.95,
    trace_ref_n: int = 2000,
) -> RunResult:
    """Plain smoothed-surrogate descent; returns a uniform iterate."""
    x = _finite_point(spec, x0).copy()
    sigma1 = math.sqrt(params.sigma1_sq)
    est_rng = substream(seed, "est")
    ledger = QueryLedger()
    records: list[TraceRecord] = []
    candidates: list[np.ndarray] = []
    exceeded = False
    prev = (0, 0, 0)
    for t in range(params.T):
        candidates.append(x)  # x is never modified in place
        est = estimate_grad(spec, x, smoothing, sigma1, model, est_rng, ledger, phase="refresh")
        g = est.value
        step = params.eta * g
        if trace:
            diagnostic = _phi_diagnostic(spec, x, g, params.eta, 1.0, smoothing, seed, t,
                                         trace_ref_n)
            prev = _trace_row(records, ledger, prev, t, g, float(np.linalg.norm(step)), 1,
                              diagnostic)
        x = x - step
        if _primary_count(ledger, model, smooth=False) > budget:
            exceeded = True
            break
    return _finish("qgfm", spec, candidates, smoothing, seed, ledger, params.T, None,
                   exceeded, records, residual_n, residual_confidence)


def qgfm_plus(
    spec: ObjectiveSpec,
    x0: np.ndarray,
    params: QgfmPlusParams,
    smoothing: SmoothingParams,
    model: CostModel,
    seed: int,
    *,
    trace: bool = False,
    budget: int = DEFAULT_BUDGET,
    residual_n: int = 20000,
    residual_confidence: float = 0.95,
    trace_ref_n: int = 2000,
) -> RunResult:
    """Variance-reduced smoothed-surrogate descent.

    With p = 1 the coin always lands heads and the run is draw-for-draw
    identical to ``qgfm`` under the same seed (the coin stream is
    separate from the estimate stream).  The refresh that would only
    feed an unused g_T is skipped, keeping the p = 1 ledger equal to
    the plain method's.
    """

    def fresh(spec, x, sigma_hat, model, rng, ledger, phase):
        return estimate_grad(spec, x, smoothing, sigma_hat, model, rng, ledger, phase=phase)

    def diff(spec, x, y, sigma_hat, model, rng, ledger, phase):
        return estimate_grad_diff(spec, x, y, smoothing, sigma_hat, model, rng, ledger,
                                  phase=phase)

    return _recursion("qgfm_plus", spec, x0, params, smoothing, model, seed, fresh, diff,
                      trace, budget, residual_n, residual_confidence, trace_ref_n)


def qgm_plus(
    spec: ObjectiveSpec,
    x0: np.ndarray,
    params: QgfmPlusParams,
    model: CostModel,
    seed: int,
    *,
    trace: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> RunResult:
    """Variance-reduced descent on a smooth objective with gradient oracle."""
    if spec.smooth_params is None:
        raise ValueError(f"{spec.name!r} exposes no smooth gradient oracle")
    return _recursion("qgm_plus", spec, x0, params, None, model, seed, estimate_sgrad,
                      estimate_sgrad_diff, trace, budget, 0, 1.0, 0)
