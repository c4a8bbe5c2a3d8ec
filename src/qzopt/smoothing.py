"""Randomized smoothing surrogate and the two-point gradient sampler.

For an L-Lipschitz objective f and radius delta > 0 the surrogate

    f_delta(x) = E[f(x + delta * u)],    u uniform on the unit ball,

is differentiable with gradient grad f_delta contained in the delta-
Goldstein subdifferential of f at x.  The library optimizes f_delta
through the two-point sphere sampler

    g_delta(x; w, xi) = (d / (2 delta)) * (F(x + delta w; xi)
                                           - F(x - delta w; xi)) * w,

with w uniform on the unit sphere: an unbiased estimate of
grad f_delta(x) whose second moment is bounded by a constant times
d * L^2 (see ObjectiveSpec's variance certificates).

Directions are plain unit ndarrays.  f_delta can be evaluated in
"closed" mode (exact for every catalog problem: analytic where possible,
deterministic quadrature against the ball's one-dimensional marginal for
the kinked problems) or in "mc" mode (ball-sampling mean with a standard
error).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .objectives import (
    ObjectiveSpec,
    XiSample,
    _f_rows,
    _F_rows,
    _finite_point,
    _payload_rows,
    _sample_xi_batch,
    _unit_rows,
)

__all__ = [
    "SmoothingParams",
    "f_delta",
    "g_delta",
    "grad_f_delta_ref",
    "sample_ball",
    "sample_sphere",
]

# Batched estimator evaluations are chunked to bound peak memory.
_CHUNK = 1 << 18


@dataclass
class SmoothingParams:
    delta: float

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")


def sample_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere in R^d."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    while True:
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
        if n > 0.0:
            return v / n


def sample_ball(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point in the closed unit ball in R^d."""
    w = sample_sphere(d, rng)
    return w * rng.uniform() ** (1.0 / d)


def _sphere_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    return _unit_rows(d, n, rng)


def g_delta(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    w: np.ndarray,
    xi: XiSample,
) -> np.ndarray:
    """One two-point estimate of grad f_delta(x) along direction w."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != (spec.d,) or w.shape != (spec.d,):
        raise ValueError("x and w must have shape (d,)")
    payload = _payload_rows(spec, xi)
    return _g_delta_rows(spec, x, params.delta, w[None, :], payload)[0]


def _g_delta_rows(
    spec: ObjectiveSpec, x: np.ndarray, delta: float, W: np.ndarray, payload
) -> np.ndarray:
    """Two-point estimates for each direction row in W (n, d) -> (n, d)."""
    dW = delta * W
    diff = _F_rows(spec, x + dW, payload)
    diff -= _F_rows(spec, x - dW, payload)
    diff *= spec.d / (2.0 * delta)
    return diff[:, None] * W


def _g_delta_mean(
    spec: ObjectiveSpec,
    x: np.ndarray,
    delta: float,
    n: int,
    rng: np.random.Generator,
    want_se: bool = False,
    y: np.ndarray | None = None,
):
    """Mean of n fresh two-point estimates, chunked; optional per-coord SE.
    With y, of the shared-draw differences g_delta(x; w, xi) - g_delta(y; w, xi)."""
    total = np.zeros(spec.d)
    total_sq = np.zeros(spec.d) if want_se else None
    left = n
    while left > 0:
        m = min(left, _CHUNK)
        W = _sphere_batch(spec.d, m, rng)
        payload = _sample_xi_batch(spec, m, rng)
        G = _g_delta_rows(spec, x, delta, W, payload)
        if y is not None:
            G -= _g_delta_rows(spec, y, delta, W, payload)
        total += np.add.reduce(G, axis=0)
        if want_se:
            G *= G
            total_sq += np.add.reduce(G, axis=0)
        left -= m
    mean = total / n
    if not want_se:
        return mean
    if n > 1:
        var = np.maximum(total_sq / n - mean * mean, 0.0) * (n / (n - 1.0))
        se = np.sqrt(var / n)
    else:
        se = np.full(spec.d, np.inf)
    return mean, se


# ---------------------------------------------------------------------------
# surrogate value


def _ball_marginal_norm(d: int) -> float:
    # integral of (1 - t^2)^((d-1)/2) over [-1, 1]
    return float(special.beta(0.5, (d + 1) / 2.0))


def _expect_ball_marginal(integrand, d: int, kinks: list[float]) -> float:
    """E[fun(t)] for t distributed as one coordinate of a uniform ball point.

    integrand(t) returns fun(t) * (1 - t*t) ** ((d - 1) / 2.0), the
    marginal's unnormalized density folded in; kinks lie inside (-1, 1).
    """
    val, _ = integrate.quad(integrand, -1.0, 1.0, points=kinks or None, limit=200)
    return val / _ball_marginal_norm(d)


def _sawtooth_coord_smoothed(xi: float, delta: float, d: int) -> float:
    # kinks of dist(. , Z) sit on the half-integer lattice
    lo = math.floor((xi - delta) * 2.0)
    hi = math.ceil((xi + delta) * 2.0)
    kinks = [t for t in ((k / 2.0 - xi) / delta for k in range(lo, hi + 1)) if -1.0 < t < 1.0]
    e = (d - 1) / 2.0

    def integrand(t: float) -> float:
        u = xi + delta * t
        return abs(u - round(u)) * (1.0 - t * t) ** e

    return _expect_ball_marginal(integrand, d, kinks)


def f_delta(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    mode: str = "closed",
    n: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Ball-smoothed surrogate value.

    mode "closed" returns the exact float (all catalog problems support
    it); mode "mc" averages n samples f(x + delta*u) over uniform ball
    points and returns (estimate, standard_error).
    """
    x = _finite_point(spec, x)
    delta = params.delta
    if mode == "closed":
        if not spec.has_closed_f_delta:
            raise ValueError(f"{spec.name!r} has no closed-form surrogate")
        if spec.name == "constant":
            return 0.0
        if spec.name == "quadratic-smooth":
            base = 0.5 * float((x * x) @ spec.lambdas)
            return base + delta * delta * float(spec.lambdas.sum()) / (2.0 * (spec.d + 2))
        if spec.name == "abs-linear":
            c = float(spec.direction @ x)
            if abs(c) >= delta:
                return abs(c)
            e = (spec.d - 1) / 2.0
            return _expect_ball_marginal(lambda t: abs(c + delta * t) * (1.0 - t * t) ** e,
                                         spec.d, [-c / delta])
        # sawtooth: expectation splits per coordinate; each coordinate of a
        # uniform ball point has the same one-dimensional marginal.
        total = sum(_sawtooth_coord_smoothed(float(v), delta, spec.d) for v in x)
        return total / math.sqrt(spec.d)
    if mode == "mc":
        if n is None or n < 1:
            raise ValueError("mc mode needs a positive sample count n")
        if rng is None:
            raise ValueError("mc mode needs an rng")
        U = _sphere_batch(spec.d, n, rng) * rng.uniform(size=n)[:, None] ** (1.0 / spec.d)
        vals = _f_rows(spec, x[None, :] + delta * U)
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        return est, se
    raise ValueError(f"unknown f_delta mode {mode!r}")


def grad_f_delta_ref(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo reference for grad f_delta(x).

    Returns (mean, per-coordinate standard error) over n independent
    two-point samples.  Reference only: draws are never charged to any
    query ledger.
    """
    x = _finite_point(spec, x)
    if n < 2:
        raise ValueError("reference gradient needs n >= 2")
    return _g_delta_mean(spec, x, params.delta, n, rng, want_se=True)
