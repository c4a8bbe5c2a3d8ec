"""Residual measurement and certification of approximate stationarity.

A point x is (delta, eps)-stationary when the origin lies within eps of
the delta-Goldstein subdifferential of f at x (the convex hull of Clarke
subgradients over the delta-ball).  Since grad f_delta(x) always belongs
to that hull, ||grad f_delta(x)|| <= eps is a sufficient certificate, and
it is the residual this module measures: a sample mean of two-point draws
together with a confidence half-width (per-coordinate normal intervals
with a union bound over coordinates, so the norm deviates by at most the
norm of the per-coordinate half-widths at the stated confidence).

For catalog problems with tractable subdifferential geometry the exact
Goldstein distance is also available as ground truth; the soundness
relation  estimate + half_width >= exact distance  holds at the stated
confidence because the measured norm upper-bounds the hull distance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .objectives import ObjectiveSpec, _finite_point
from .smoothing import SmoothingParams, _g_delta_mean

__all__ = [
    "ResidualReport",
    "exact_goldstein_distance",
    "goldstein_residual",
    "verify_stationary",
]

VERIFY_N_CAP = 10**7


@dataclass
class ResidualReport:
    point: np.ndarray
    delta: float
    estimate: float
    half_width: float
    n: int
    confidence: float
    exact: float | None = None


def goldstein_residual(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    n: int,
    confidence: float,
    rng: np.random.Generator,
) -> ResidualReport:
    """Estimate ||grad f_delta(x)|| from n two-point draws.

    Reference-side measurement: draws are not charged to any ledger.
    """
    x = _finite_point(spec, x)
    if n < 2:
        raise ValueError("residual estimation needs n >= 2")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    mean, se = _g_delta_mean(spec, x, params.delta, n, rng, want_se=True)
    z = float(special.ndtri(1.0 - (1.0 - confidence) / (2.0 * spec.d)))
    half = z * float(np.linalg.norm(se))
    return ResidualReport(
        point=x,
        delta=params.delta,
        estimate=float(np.linalg.norm(mean)),
        half_width=half,
        n=n,
        confidence=confidence,
        exact=exact_goldstein_distance(spec, x, params.delta),
    )


def verify_stationary(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    eps: float,
    confidence: float,
    rng: np.random.Generator,
    n0: int = 10**4,
) -> str:
    """Interval test of the residual against eps.

    Returns "accepted" when estimate + half_width <= eps, "rejected" when
    estimate - half_width > eps, and otherwise doubles the sample size up
    to a hard cap before giving up with "inconclusive".  A non-finite
    point raises ValueError before any draw.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = max(2, int(n0))
    while True:
        verdict = _interval_verdict(goldstein_residual(spec, x, params, n, confidence, rng), eps)
        if verdict != "inconclusive" or n >= VERIFY_N_CAP:
            return verdict
        n = min(2 * n, VERIFY_N_CAP)


def _interval_verdict(report: ResidualReport, eps: float) -> str:
    """The report's interval against eps: "accepted" when estimate +
    half_width <= eps, "rejected" when estimate - half_width > eps, else
    "inconclusive"."""
    if report.estimate + report.half_width <= eps:
        return "accepted"
    if report.estimate - report.half_width > eps:
        return "rejected"
    return "inconclusive"


def exact_goldstein_distance(spec: ObjectiveSpec, x: np.ndarray, delta: float) -> float | None:
    """Exact dist(0, delta-Goldstein subdifferential) where tractable.

    Supported: constant (0 everywhere), abs-linear, one-dimensional
    sawtooth, and quadratic-smooth.  Returns None for other geometries.
    A non-finite point raises ValueError.
    """
    x = _finite_point(spec, x)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spec.name == "constant":
        return 0.0
    if spec.name == "abs-linear":
        # Subgradients are +-a away from the kink; the hull contains 0 iff
        # the delta-ball crosses the kink hyperplane <a, y> = 0.
        return 0.0 if abs(float(spec.direction @ x)) <= delta else 1.0
    if spec.name == "sawtooth" and spec.d == 1:
        # Gradient is +-1 between kinks on the half-integer lattice; any
        # kink inside the delta interval puts 0 in the hull.
        t = float(x[0]) * 2.0
        return 0.0 if abs(t - round(t)) / 2.0 <= delta else 1.0
    if spec.name == "quadratic-smooth":
        # Smooth case: the hull is {diag(lam) y : ||y - x|| <= delta};
        # minimize ||diag(lam) (x + u)|| over ||u|| <= delta.
        if float(np.linalg.norm(x)) <= delta:
            return 0.0
        lam2 = spec.lambdas * spec.lambdas

        def radius(mu: float) -> float:
            u = -lam2 * x / (lam2 + mu)
            return float(np.linalg.norm(u))

        # radius(mu) decreases from ||x|| at mu=0; bracket the root of
        # radius(mu) = delta.
        hi = 1.0
        while radius(hi) > delta:
            hi *= 2.0
        mu = optimize.brentq(lambda m: radius(m) - delta, 0.0, hi, xtol=1e-14, rtol=1e-14)
        u = -lam2 * x / (lam2 + mu)
        return float(np.linalg.norm(spec.lambdas * (x + u)))
    return None
