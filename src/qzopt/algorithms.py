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

All three are one-call wrappers around one private driver, ``_optimize``.
``qgfm`` runs in it as the recursion with every step a full refresh, drawn
at the top of the step instead of the end of the one before: it has no
initialization estimate, each trace row carries the charge of the estimate
its own step used, and a budget stops it one step later.

All randomness is drawn from counter-based substreams of the run seed, so
runs are reproducible and cost-mode changes cannot perturb trajectories
(estimates are realized identically; only ledgers differ).  Runs that
exceed the query budget abort early and come back flagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import (ObjectiveSpec, _check_int, _check_real, _draws_unit_rows, _finite,
                         _finite_point, _RowStream, _square)
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
from .stationarity import ResidualReport, _residual_args, goldstein_residual

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

# The first iterate store holds at most this many elements (8 MiB).
_STORE_ELEMS = 1 << 20


@dataclass
class QgfmParams:
    """Schedule for the plain method.

    Checked when made, so a hand-built schedule fails before the first
    draw: T is an integer >= 1, eta and sigma1_sq are positive.
    """

    eta: float
    T: int
    sigma1_sq: float

    def __post_init__(self) -> None:
        self.eta, self.T = _check_real("eta", self.eta), _check_int("T", self.T, 1)
        self.sigma1_sq = _check_real("sigma1_sq", self.sigma1_sq)


@dataclass
class QgfmPlusParams:
    """Schedule for the coin-flip recursion (non-smooth and smooth tracks).

    sigma_hat_2 at step t is sqrt(kappa) * ||x_{t+1} - x_t||.  Checked
    like ``QgfmParams``, and also 0 < p <= 1 and kappa >= 0.
    """

    eta: float
    T: int
    p: float
    sigma1_sq: float
    kappa: float

    def __post_init__(self) -> None:
        self.eta, self.T = _check_real("eta", self.eta), _check_int("T", self.T, 1)
        self.sigma1_sq = _check_real("sigma1_sq", self.sigma1_sq)
        self.p = _check_real("p", self.p)
        if self.p > 1.0:
            raise ValueError("p must lie in (0, 1]")
        self.kappa = _check_real("kappa", self.kappa, lo_open=False)


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


def _nonsmooth_args(d, L, delta, eps, Delta) -> tuple[int, float, float, float, float]:
    """The checked (d, L, delta, eps, Delta) of a non-smooth schedule."""
    return (_check_int("d", d, 1), _check_real("L", L), _check_real("delta", delta),
            _check_real("eps", eps), _check_real("Delta", Delta, lo_open=False))


def derive_params_qgfm(d: int, L: float, delta: float, eps: float, Delta: float) -> QgfmParams:
    """Step size, accuracy target and step count for the plain method."""
    d, L, delta, eps, Delta = _nonsmooth_args(d, L, delta, eps, Delta)
    eps_sq = _square("eps", eps)
    rd = math.sqrt(d)
    eta = delta / (2.0 * rd * L)
    work = _finite("delta", "T", 4.0 * rd * L * L + 2.0 * rd * L * Delta / delta)
    T = math.ceil(_finite("eps", "T", 2.0 / eps_sq * work))
    return QgfmParams(eta=eta, T=max(1, T), sigma1_sq=eps_sq / 2.0)


def derive_params_qgfm_plus(d: int, L: float, delta: float, eps: float, Delta: float) -> QgfmPlusParams:
    """Schedule for the variance-reduced non-smooth method (needs eps <= L)."""
    d, L, delta, eps, Delta = _nonsmooth_args(d, L, delta, eps, Delta)
    if eps > L:
        raise ValueError("eps must not exceed L (refresh probability would exceed 1)")
    eps_sq, delta_sq = _square("eps", eps), _square("delta", delta)
    rd = math.sqrt(d)
    eta = delta / (2.0 * rd * L)
    p = (eps / L) ** (2.0 / 3.0)
    kappa = _finite("delta", "kappa", eps ** (2.0 / 3.0) * L ** (4.0 / 3.0) * d / delta_sq)
    L_delta = rd * L / delta
    T = math.ceil(_finite("eps", "T", 8.0 * L_delta * (Delta + 2.0 * delta * L) / eps_sq + 4.0 / p))
    return QgfmPlusParams(eta=eta, T=max(1, T), p=p, sigma1_sq=eps_sq / 2.0, kappa=kappa)


def derive_params_qgm_plus(l: float, sigma: float, eps: float, Delta: float, d: int) -> QgfmPlusParams:
    """Schedule for the smooth track.

    sigma = 0 degenerates gracefully: the oracle is exact, the coin is
    pinned to heads and the recursion reduces to plain gradient descent.
    d is accepted for signature symmetry with the other derivations; the
    smooth rates carry no explicit dimension factor.
    """
    l, eps = _check_real("l", l), _check_real("eps", eps)
    _check_int("d", d, 1)
    Delta = _check_real("Delta", Delta, lo_open=False)
    sigma = _check_real("sigma", sigma, lo_open=False)
    eps_sq = _square("eps", eps)
    if sigma == 0.0:
        p = 1.0
        kappa = 0.0
    else:
        if eps > sigma:
            raise ValueError("eps must not exceed sigma (refresh probability would exceed 1)")
        p = (eps / sigma) ** (2.0 / 3.0)
        kappa = l * l * eps ** (2.0 / 3.0) / sigma ** (2.0 / 3.0)
    eta = 1.0 / (2.0 * l)
    T = math.ceil(_finite("eps", "T", 8.0 * l * Delta / eps_sq
                          + 4.0 * sigma ** (2.0 / 3.0) / eps ** (4.0 / 3.0)))
    return QgfmPlusParams(eta=eta, T=max(1, T), p=p, sigma1_sq=eps_sq / 2.0, kappa=kappa)


# ---------------------------------------------------------------------------
# shared run plumbing


def _run_args(budget, residual_n, residual_confidence, trace_ref_n) -> tuple[int, int, float, int]:
    """The checked (budget, residual_n, residual_confidence, trace_ref_n) of a
    non-smooth run, taken before its first draw."""
    residual_n, residual_confidence = _residual_args(residual_n, residual_confidence,
                                                     prefix="residual_")
    return (_check_int("budget", budget, 1), residual_n, residual_confidence,
            _check_int("trace_ref_n", trace_ref_n, 1))


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


def _trajectory(spec: ObjectiveSpec, x0: np.ndarray, T: int) -> np.ndarray:
    """The iterate store of a T-step run, row 0 holding the checked x0.

    Row t + 1 is written once, when step t is taken.  The store starts
    with T + 1 rows, or with _STORE_ELEMS elements' worth of rows when
    that is fewer, and _grown doubles it when a run reaches its last row:
    a budget can stop a run long before T, and T + 1 rows may be more
    than the system will map.  np.empty touches no page before a row is
    written, so a run cut short pays only for the rows it reached.
    """
    store = np.empty((min(T, max(1, _STORE_ELEMS // spec.d)) + 1, spec.d))
    store[0] = _finite_point(spec, x0)
    return store


def _grown(store: np.ndarray, T: int) -> np.ndarray:
    """A copy of store with twice its rows, at most T + 1."""
    grown = np.empty((min(T + 1, 2 * len(store)), store.shape[1]))
    grown[:len(store)] = store
    return grown


def _coins(rng: np.random.Generator):
    """The uniforms of a coin stream, one per next(), drawn in blocks."""
    while True:
        yield from rng.uniform(size=_COIN_BLOCK).tolist()


def _step(x_next: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The step x_next - x and its norm, as the difference estimators take it."""
    # np.linalg.norm of a 1-D float array is sqrt(v.dot(v))
    v = x_next - x
    return v, math.sqrt(v.dot(v))


def _optimize(
    algorithm: str, spec: ObjectiveSpec, x0: np.ndarray, params: QgfmParams | QgfmPlusParams,
    smoothing: SmoothingParams | None, model: CostModel, seed: int, trace: bool, budget: int,
    residual_n: int, residual_confidence: float, trace_ref_n: int,
) -> RunResult:
    """The one loop behind all three optimizers.

    ``qgfm`` draws every g_t as a fresh ``refresh`` estimate at x_t, at
    the top of step t.  The recursion draws g_0 as an ``init`` estimate,
    and step t builds g_{t+1} with a biased coin, so its trace rows and
    budget test see each estimate one step earlier.  smoothing is None on
    the smooth track, which selects the gradient-oracle estimators, budget
    counter, exact residual and phi, leaving residual_n,
    residual_confidence and trace_ref_n unused.

    The estimate stream is a row stream (objectives._RowStream) when every
    draw from it is a unit row: on noise-free problems, and on the
    quadratic with additive offsets, whose payload is scaled sphere rows
    (which covers the smooth track).  Its rows and its end are those of the
    plain generator; uniform and integer payloads interleave with the
    directions' normals, so those runs draw from the generator itself.
    """
    plain = algorithm == "qgfm"
    eta, T = params.eta, params.T
    p, sqrt_kappa = (1.0, 0.0) if plain else (params.p, math.sqrt(params.kappa))
    smooth = smoothing is None
    store = _trajectory(spec, x0, T)
    sigma1 = math.sqrt(params.sigma1_sq)
    est_rng = substream(seed, "est")
    if _draws_unit_rows(spec):
        est_rng = _RowStream(est_rng, spec.d)
    ledger = QueryLedger()
    records: list[TraceRecord] = []
    steps, exceeded = T, False
    prev = (0, 0, 0)
    coins = None if plain else _coins(substream(seed, "coin"))
    for t in range(T):
        if t + 1 == len(store):
            store = _grown(store, T)
        x, x_next = store[t], store[t + 1]
        # estimators are named at each call: a pair picked once and called
        # with *args costs 0.3 us a call.  qgfm draws every g_t fresh at x_t,
        # the recursion only g_0
        if plain or t == 0:
            phase = "refresh" if plain else "init"
            if smooth:
                g = estimate_sgrad(spec, x, sigma1, model, est_rng, ledger, phase=phase).value
            else:
                g = estimate_grad(spec, x, smoothing, sigma1, model, est_rng, ledger,
                                  phase=phase).value
        g_step = g
        s = eta * g_step
        np.subtract(x, s, out=x_next)
        theta = 1
        step = None
        if not plain and t + 1 < T:
            theta = 1 if next(coins) < p else 0
            if theta and smooth:
                g = estimate_sgrad(spec, x_next, sigma1, model, est_rng, ledger,
                                   phase="refresh").value
            elif theta:
                g = estimate_grad(spec, x_next, smoothing, sigma1, model, est_rng, ledger,
                                  phase="refresh").value
            else:
                step = _step(x_next, x)
                sigma2 = sqrt_kappa * step[1]
                if step[1] > 0.0 and smooth:
                    g = g + estimate_sgrad_diff(spec, x_next, x, sigma2, model, est_rng, ledger,
                                                phase="diff", _step=step).value
                elif step[1] > 0.0:
                    g = g + estimate_grad_diff(spec, x_next, x, smoothing, sigma2, model, est_rng,
                                               ledger, phase="diff", _step=step).value
        if trace:
            if step is None:
                # qgfm traces ||eta g_t||, the recursion ||x_{t+1} - x_t||
                step = (s, math.sqrt(s.dot(s))) if plain else _step(x_next, x)
            phi, ref_norm = _phi_diagnostic(spec, x, g_step, eta, p, smoothing, seed, t,
                                            trace_ref_n)
            # the row's charges are the ledger's growth since the previous row
            cur = (ledger.uf_queries, ledger.classical_queries, ledger.grad_oracle_queries)
            records.append(TraceRecord(t, float(np.linalg.norm(g_step)), step[1], theta, phi,
                                       ref_norm, cur[0] - prev[0], cur[1] - prev[1],
                                       cur[2] - prev[2]))
            prev = cur
        if _primary_count(ledger, model, smooth) > budget:
            steps, exceeded = t + 1, True
            break
    # a copy, so the result does not keep the whole trajectory alive
    x_out = store[int(substream(seed, "out").integers(steps))].copy()
    if smooth:
        # Smooth track: the gradient is available exactly, no sampling error.
        residual = ResidualReport(float(np.linalg.norm(spec.lambdas * x_out)), 0.0, 0, 1.0)
    else:
        residual = goldstein_residual(spec, x_out, smoothing, residual_n, residual_confidence,
                                      substream(seed, "residual"))
    return RunResult(algorithm, seed, x_out, residual, ledger, T, None if plain else p, exceeded,
                     records)


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
    return _optimize("qgfm", spec, x0, params, smoothing, model, seed, trace,
                     *_run_args(budget, residual_n, residual_confidence, trace_ref_n))


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

    With p = 1 the coin always lands heads and every g_{t+1} is a fresh
    estimate, so the run is draw-for-draw identical to ``qgfm`` under the
    same seed (the coin stream is separate from the estimate stream).  The
    refresh that would only feed an unused g_T is skipped, keeping the
    p = 1 ledger equal to the plain method's; only the first estimate's
    phase tag, the trace row that carries each charge and the step at
    which a budget stops the run differ.
    """
    return _optimize("qgfm_plus", spec, x0, params, smoothing, model, seed, trace,
                     *_run_args(budget, residual_n, residual_confidence, trace_ref_n))


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
    return _optimize("qgm_plus", spec, x0, params, None, model, seed, trace,
                     _check_int("budget", budget, 1), 0, 1.0, 0)
