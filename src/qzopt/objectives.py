"""Catalog of stochastic test objectives.

Each catalog entry exposes a stochastic component F(x; xi) that is
L-Lipschitz in x for every noise draw, together with the exact expectation
f(x) = E[F(x; xi)], its infimum, and a canonical start point.  The catalog
is deliberately small: every problem has enough analytic structure (exact
f, exact smooth gradients, or known kink geometry) that the estimator and
optimizer layers can be checked against closed answers.

Problems
--------
``constant``
    f(x) = 0.  Degenerate sanity case; every estimator must return exact
    zeros on it.
``abs-linear``
    f(x) = |<a, x>| with a unit vector ``a`` (default (1,...,1)/sqrt(d)).
    Convex with a single kink hyperplane; L = 1, f* = 0.
``sawtooth``
    f(x) = sum_i dist(x_i, Z) / sqrt(d).  Non-convex and piecewise linear
    with kinks on the half-integer lattice; L = 1, f* = 0.
``quadratic-smooth``
    f(x) = x' diag(lam) x / 2 with lam = linspace(1, 2, d).  The smooth
    problem: a stochastic gradient oracle is available, with mean-square
    smoothness l = max(lam) and gradient-noise second moment sigma^2 =
    noise_scale^2.

Noise mechanisms
----------------
``additive-offset``
    F(x; xi) = f(x) + r with r uniform on [-noise_scale, noise_scale].
    Mean zero and x-independent, so the per-draw Lipschitz constant is
    exactly L.  For ``quadratic-smooth`` the offset is the vector
    r = noise_scale * u (u uniform on the sphere) entering as <r, x>, so
    the same draw perturbs values and gradients consistently.
``component-subsample``
    ``sawtooth`` only: F(x; xi) = sqrt(d) * dist(x_xi, Z) with xi uniform
    over coordinates.  Unbiased for f, per-draw Lipschitz constant
    sqrt(d) (recorded in ``ObjectiveSpec.L``).
``none``
    F(x; xi) = f(x).

Variance certificates
---------------------
``est_var_coeff`` and ``diff_var_coeff`` record proven bounds on the
second moments of the two-point sphere estimator built on the problem:

* E||g_delta(x) - grad f_delta(x)||^2 <= est_var_coeff * d * L^2
* E||g_delta(x) - g_delta(y)||^2 <= diff_var_coeff * d^2 L^2 ||x-y||^2 / delta^2

The generic fallbacks (16*sqrt(2)*pi and 1.0) hold for any L-Lipschitz
objective.  Catalog entries carry tighter certified constants: for every
entry the coordinate-wise sign symmetry of the sphere measure cancels the
cross terms in the second moment, giving est_var_coeff = 1.  The batch
sizes of the classical estimator realizations scale with these constants,
so tight certificates matter for wall-clock time; the contracts they
guarantee are identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "CATALOG_NAMES",
    "GENERIC_EST_VAR_COEFF",
    "ObjectiveSpec",
    "XiSample",
    "catalog_make",
    "eval_F",
    "eval_f",
    "eval_grad_smooth",
    "sample_xi",
]

CATALOG_NAMES = ("constant", "abs-linear", "sawtooth", "quadratic-smooth")

# Worst-case variance constant for the two-point sphere estimator on an
# arbitrary L-Lipschitz objective: E||g - grad f_delta||^2 <= 16*sqrt(2)*pi*d*L^2.
GENERIC_EST_VAR_COEFF = 16.0 * math.sqrt(2.0) * math.pi

NOISE_KINDS = ("none", "additive-offset", "component-subsample")

# Quadratic catalog entries are only certified Lipschitz inside this radius;
# canonical starts have norm 1, so runs stay well inside it.  Kept small
# because the documented L (and with it every batch size) scales with it.
QUADRATIC_DOMAIN_RADIUS = 2.0


@dataclass
class XiSample:
    """One draw of the noise variable xi.

    payload is None (no noise), a float offset (additive-offset on the
    non-smooth problems), an int coordinate index (component-subsample),
    or a length-d vector (additive-offset on the smooth problem).
    """

    payload: Any


@dataclass
class ObjectiveSpec:
    name: str
    d: int
    L: float
    noise_kind: str
    noise_scale: float
    f_star: float
    delta_0: float  # f(x0) - f_star for the canonical start point
    has_closed_f_delta: bool
    x0: np.ndarray
    smooth_params: tuple[float, float] | None = None  # (l, sigma), smooth track only
    direction: np.ndarray | None = None  # abs-linear
    lambdas: np.ndarray | None = None  # quadratic-smooth
    domain_radius: float = math.inf
    est_var_coeff: float = GENERIC_EST_VAR_COEFF
    diff_var_coeff: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise_kind {self.noise_kind!r}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")


def catalog_make(
    name: str,
    d: int,
    noise_scale: float = 0.0,
    noise_kind: str | None = None,
    direction: np.ndarray | None = None,
) -> ObjectiveSpec:
    """Instantiate a catalog problem.

    noise_kind defaults to "additive-offset" when noise_scale > 0 and
    "none" otherwise.  ``direction`` overrides the kink normal of
    abs-linear (it is normalized; default (1,...,1)/sqrt(d)).
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError("d must be a positive integer")
    if noise_scale < 0:
        raise ValueError("noise_scale must be non-negative")
    if noise_kind is None:
        noise_kind = "additive-offset" if noise_scale > 0 else "none"
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise_kind {noise_kind!r}")
    if noise_kind == "component-subsample" and name != "sawtooth":
        raise ValueError("component-subsample noise is only defined for sawtooth")
    if noise_kind == "additive-offset" and noise_scale == 0.0:
        noise_kind = "none"

    if name == "constant":
        # Any positive L is a valid bound for the zero function; keep it tiny
        # so derived step counts collapse.
        return ObjectiveSpec(
            name=name,
            d=d,
            L=1e-9,
            noise_kind=noise_kind,
            noise_scale=noise_scale,
            f_star=0.0,
            delta_0=0.0,
            has_closed_f_delta=True,
            x0=np.zeros(d),
            est_var_coeff=1.0,
            diff_var_coeff=1.0 / d,
        )

    if name == "abs-linear":
        if direction is None:
            a = np.full(d, 1.0 / math.sqrt(d))
        else:
            a = np.asarray(direction, dtype=float)
            if a.shape != (d,):
                raise ValueError("direction must have shape (d,)")
            nrm = float(np.linalg.norm(a))
            if nrm == 0.0:
                raise ValueError("direction must be nonzero")
            a = a / nrm
        x0 = np.full(d, 1.0 / math.sqrt(d))
        return ObjectiveSpec(
            name=name,
            d=d,
            L=1.0,
            noise_kind=noise_kind,
            noise_scale=noise_scale,
            f_star=0.0,
            delta_0=float(abs(a @ x0)),
            has_closed_f_delta=True,
            x0=x0,
            direction=a,
            est_var_coeff=1.0,
            diff_var_coeff=1.0,
        )

    if name == "sawtooth":
        L = math.sqrt(d) if noise_kind == "component-subsample" else 1.0
        x0 = np.full(d, 0.5)
        return ObjectiveSpec(
            name=name,
            d=d,
            L=L,
            noise_kind=noise_kind,
            noise_scale=noise_scale,
            f_star=0.0,
            delta_0=0.5 * math.sqrt(d),
            has_closed_f_delta=True,
            x0=x0,
            est_var_coeff=1.0,
            diff_var_coeff=1.0 / d,
        )

    if name == "quadratic-smooth":
        lam = np.linspace(1.0, 2.0, d)
        lmax = float(lam.max())
        x0 = np.full(d, 1.0 / math.sqrt(d))
        # Lipschitz bound for values inside the certified domain radius.
        L = lmax * QUADRATIC_DOMAIN_RADIUS + noise_scale
        return ObjectiveSpec(
            name=name,
            d=d,
            L=L,
            noise_kind=noise_kind,
            noise_scale=noise_scale,
            f_star=0.0,
            delta_0=float(lam.mean() / 2.0),
            has_closed_f_delta=True,
            x0=x0,
            smooth_params=(lmax, noise_scale),
            lambdas=lam,
            domain_radius=QUADRATIC_DOMAIN_RADIUS,
            est_var_coeff=1.0,
            diff_var_coeff=1.0 / d,
        )

    raise ValueError(f"unknown catalog problem {name!r}")


# ---------------------------------------------------------------------------
# noise sampling


def sample_xi(spec: ObjectiveSpec, rng: np.random.Generator) -> XiSample:
    """Draw one noise sample for the problem."""
    return XiSample(_sample_xi_batch(spec, 1, rng)[0] if spec.noise_kind != "none" else None)


def _sample_xi_batch(spec: ObjectiveSpec, n: int, rng: np.random.Generator):
    """Vectorized noise payloads: None or an array with leading dimension n."""
    if spec.noise_kind == "none":
        return None
    if spec.noise_kind == "component-subsample":
        return rng.integers(0, spec.d, size=n)
    # additive-offset
    if spec.name == "quadratic-smooth":
        rows = _sphere_rows(spec.d, n, rng)
        rows *= spec.noise_scale
        return rows
    return rng.uniform(-spec.noise_scale, spec.noise_scale, size=n)


def _unit_rows(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform unit rows in R^d, normalized in place.

    The norm is the one np.linalg.norm(v, axis=1) computes for real
    input, sqrt of the row sums of v*v, so the rows are bit-identical to
    v / np.linalg.norm(v, axis=1)[:, None].  All-zero rows (probability
    zero) are redrawn.
    """
    v = rng.standard_normal((n, d))
    norms = np.sqrt(np.add.reduce(v * v, axis=1))
    while np.count_nonzero(norms) < n:
        bad = norms == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.sqrt(np.add.reduce(v * v, axis=1))
    v /= norms[:, None]
    return v


def _sphere_rows(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # the quadratic's noise directions; a function of its own, apart from
    # smoothing._sphere_batch, so that profiles tell the two samplers apart
    return _unit_rows(d, n, rng)


# ---------------------------------------------------------------------------
# evaluation


def _dist_to_int(v: np.ndarray) -> np.ndarray:
    r = np.rint(v)
    np.subtract(v, r, out=r)
    return np.abs(r, out=r)


def _f_rows(spec: ObjectiveSpec, X: np.ndarray) -> np.ndarray:
    """Exact f on rows of X, shape (n, d) -> (n,)."""
    if spec.name == "constant":
        return np.zeros(X.shape[0])
    if spec.name == "abs-linear":
        return np.abs(X @ spec.direction)
    if spec.name == "sawtooth":
        vals = np.add.reduce(_dist_to_int(X), axis=1)
        vals /= math.sqrt(spec.d)
        return vals
    # quadratic-smooth
    XX = X * X
    XX *= 0.5
    return XX @ spec.lambdas


def _F_rows(spec: ObjectiveSpec, X: np.ndarray, payload) -> np.ndarray:
    """Stochastic F on rows of X with a batch payload (see _sample_xi_batch)."""
    if spec.noise_kind == "component-subsample":
        vals = _dist_to_int(X[np.arange(X.shape[0]), payload])
        vals *= math.sqrt(spec.d)
        return vals
    vals = _f_rows(spec, X)
    if payload is None:
        return vals
    if spec.name == "quadratic-smooth":
        vals += np.add.reduce(X * payload, axis=1)
    else:
        vals += payload
    return vals


def _check_point(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.d,):
        raise ValueError(f"point must have shape ({spec.d},), got {x.shape}")
    return x


def _finite_point(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    x = _check_point(spec, x)
    if not np.isfinite(x).all():
        raise ValueError("point must be finite")
    return x


def eval_f(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Exact expectation f(x); a non-finite point raises ValueError."""
    x = _finite_point(spec, x)
    return float(_f_rows(spec, x[None, :])[0])


def eval_F(spec: ObjectiveSpec, x: np.ndarray, xi: XiSample) -> float:
    """One stochastic evaluation F(x; xi)."""
    x = _check_point(spec, x)
    payload = _payload_rows(spec, xi)
    return float(_F_rows(spec, x[None, :], payload)[0])


def _payload_rows(spec: ObjectiveSpec, xi: XiSample):
    if xi.payload is None:
        if spec.noise_kind != "none":
            raise ValueError("xi carries no payload but the problem is noisy")
        return None
    if spec.noise_kind == "component-subsample":
        return np.asarray([xi.payload], dtype=int)
    if spec.name == "quadratic-smooth":
        return np.asarray(xi.payload, dtype=float)[None, :]
    return np.asarray([xi.payload], dtype=float)


def eval_grad_smooth(spec: ObjectiveSpec, x: np.ndarray, xi: XiSample) -> np.ndarray:
    """Stochastic gradient of the smooth problem: diag(lam) x + r."""
    if spec.smooth_params is None:
        raise ValueError(f"{spec.name!r} exposes no smooth gradient oracle")
    x = _check_point(spec, x)
    g = spec.lambdas * x
    if xi.payload is not None:
        g = g + np.asarray(xi.payload, dtype=float)
    return g
