"""Residual measurement and certification of approximate stationarity.

A point x is (delta, eps)-stationary when the origin lies within eps of
the delta-Goldstein subdifferential of f at x (the convex hull of Clarke
subgradients over the delta-ball).  Since grad f_delta(x) always belongs
to that hull, ||grad f_delta(x)|| <= eps is a sufficient certificate, and
it is the residual this module measures: a sample mean of two-point draws
together with a confidence half-width (per-coordinate normal intervals
with a union bound over coordinates, so the norm deviates by at most the
norm of the per-coordinate half-widths at the stated confidence).

For catalog problems with tractable subdifferential geometry,
exact_goldstein_distance gives the exact Goldstein distance as ground
truth.  The soundness relation pairs the two functions: the estimate plus
half_width of goldstein_residual is at least exact_goldstein_distance at
the stated confidence, because the measured norm upper-bounds the hull
distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveSpec, _check_int, _check_real, _finite_point
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
    """Residual norm estimate with its half-width at confidence, from n draws
    (n = 0 and half_width = 0 on the smooth track, whose gradient is exact)."""

    estimate: float
    half_width: float
    n: int
    confidence: float


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
    n, confidence = _residual_args(n, confidence)
    mean, se = _g_delta_mean(spec, x, params.delta, n, rng, want_se=True)
    z = _ndtri(float(1.0 - (1.0 - confidence) / (2.0 * spec.d)))
    half = z * float(np.linalg.norm(se))
    return ResidualReport(float(np.linalg.norm(mean)), half, n, confidence)


def _residual_args(n: int, confidence: float, prefix: str = "") -> tuple[int, float]:
    """goldstein_residual's checked (n, confidence): an integer n >= 2 and a
    confidence in (0, 1); prefix goes before the names in the messages."""
    n = _check_int(prefix + "n", n, 2)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"{prefix}confidence must lie in (0, 1)")
    return n, float(confidence)


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
    to the hard cap VERIFY_N_CAP before giving up with "inconclusive".
    Every round, the first included, draws at most VERIFY_N_CAP rows.  A
    non-finite point or eps, or an n0 above the cap, raises ValueError
    before any draw.
    """
    eps = _check_real("eps", eps)
    n = max(2, _check_int("n0", n0, 1))
    if n > VERIFY_N_CAP:
        raise ValueError(f"n0 must be at most VERIFY_N_CAP = {VERIFY_N_CAP}")
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
    delta = _check_real("delta", delta)
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
        from scipy import optimize  # imported here so that residuals never load scipy

        mu = optimize.brentq(lambda m: radius(m) - delta, 0.0, hi, xtol=1e-14, rtol=1e-14)
        u = -lam2 * x / (lam2 + mu)
        return float(np.linalg.norm(spec.lambdas * (x + u)))
    return None


# ---------------------------------------------------------------------------
# inverse of the standard normal CDF: the Cephes ndtri (S. L. Moshier), with
# its coefficients and operation order, so it returns the bytes of
# scipy.special.ndtri without importing scipy

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# central branch, |y - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails, x = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# far tails, x >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...], monic: bool = False) -> float:
    """Horner's rule; monic=True puts an implicit leading 1 before coef."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """x with Phi(x) = y0; -inf at 0, inf at 1, nan outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, upper = y0, y0 > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q, monic=True)
    return x if upper else -x
