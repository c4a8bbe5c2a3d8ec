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
the sawtooth) or in "mc" mode (ball-sampling mean with a standard error).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objectives import (
    ObjectiveSpec,
    XiSample,
    _BLOCK,
    _block_rows,
    _check_int,
    _check_real,
    _col_sums,
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
    "sample_sphere",
]

# Rows drawn at once by _g_delta_mean (the draw chunk).  Where a chunk ends
# fixes the noisy streams, so it stays a row count; the estimates are formed
# over smaller compute blocks, and only the draws themselves are chunk-sized.
_CHUNK = 1 << 18

# _g_delta_rows stacks its point sets into one _F_rows call up to this many
# elements.  Bigger stacks stop paying: from 2^14 elements on some shapes ran
# slower than one call per set, and at 2^16 all ran 1.2-3.5x slower, as
# temporaries past glibc's 128 KiB mmap threshold are mapped and unmapped on
# every call.
_STACK = _BLOCK >> 3


@dataclass
class SmoothingParams:
    delta: float

    def __post_init__(self) -> None:
        self.delta = _check_real("delta", self.delta)


def sample_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere in R^d."""
    d = _check_int("d", d, 1)
    while True:
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
        if n > 0.0:
            return v / n


def _sphere_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    return _unit_rows(d, n, rng)


def g_delta(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    w: np.ndarray,
    xi: XiSample,
) -> np.ndarray:
    """One two-point estimate of grad f_delta(x) along direction w; a
    non-finite x or w raises ValueError."""
    x = _finite_point(spec, x)
    W = _finite_point(spec, w)[None, :]
    return _g_rows(W, _g_delta_rows(spec, x, params.delta, W, _payload_rows(spec, xi)))[0]


def _g_delta_rows(
    spec: ObjectiveSpec,
    x: np.ndarray,
    delta: float,
    W: np.ndarray,
    payload,
    y: np.ndarray | None = None,
) -> tuple[np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """The scaled F differences of the two-point estimates along the
    direction rows of W (n, d): a tuple of c * (F(x + dW) - F(x - dW)),
    c = d / (2 delta), shape (n,), and with y, of the same at y.  The
    estimates are the first times W's rows, and with y the shared-draw
    differences g_delta(x; w, xi) - g_delta(y; w, xi) are those minus the
    second times W's rows (_g_rows); a mean of fresh estimates sums the
    products without forming them (objectives._col_sums).

    The point sets x + dW, x - dW (and y + dW, y - dW), dW = delta * W, go to
    _F_rows as one stacked batch while it holds at most _STACK elements, and
    one call per set above that; _F_rows gives each stacked set the bytes of
    its own call.
    """
    m, d = W.shape
    dW = delta * W
    k = 2 if y is None else 4
    if k * m * d <= _STACK:
        X = np.empty((k * m, d))
        np.add(x, dW, out=X[:m])
        np.subtract(x, dW, out=X[m:2 * m])
        if y is not None:
            np.add(y, dW, out=X[2 * m:3 * m])
            np.subtract(y, dW, out=X[3 * m:])
        F = _F_rows(spec, X, payload, sets=k)
        diff = F[:m] - F[m:2 * m]
        if y is not None:
            diff_y = F[2 * m:3 * m] - F[3 * m:]
    else:
        diff = _F_rows(spec, x + dW, payload)
        diff -= _F_rows(spec, x - dW, payload)
        if y is not None:
            diff_y = _F_rows(spec, y + dW, payload)
            diff_y -= _F_rows(spec, y - dW, payload)
    c = spec.d / (2.0 * delta)
    diff *= c
    if y is None:
        return (diff,)
    diff_y *= c
    return diff, diff_y


def _g_rows(W: np.ndarray, diffs: tuple[np.ndarray, ...]) -> np.ndarray:
    """The estimate rows (n, d) of _g_delta_rows's differences over W."""
    G = diffs[0][:, None] * W
    if len(diffs) == 2:
        G -= diffs[1][:, None] * W
    return G


def _g_delta_mean(
    spec: ObjectiveSpec,
    x: np.ndarray,
    delta: float,
    n: int,
    rng: np.random.Generator,
    want_se: bool = False,
    y: np.ndarray | None = None,
):
    """Mean of n fresh two-point estimates; optional per-coordinate SE.
    With y, of the shared-draw differences g_delta(x; w, xi) - g_delta(y; w, xi).

    Draw chunk: each _CHUNK rows draw W and then the payload, and every
    sampler gives the same rows in pieces as whole (a sphere row is the
    stream's next row of non-zero norm: objectives._unit_rows), so how a
    chunk splits into blocks moves no draw.  A noisy chunk draws W whole,
    since its payload follows W in the stream, then its payload block by
    block, right before each block is evaluated; a noise-free chunk draws W
    block by block.  So a noisy chunk holds one chunk-sized array, its W.
    Compute block: a chunk longer than one block of objectives._BLOCK
    elements is evaluated over blocks of _block_rows(d) rows, a multiple of
    64, so that each block's point sets split into the same 4-row groups of
    the BLAS matvecs in _F_rows as the whole chunk's and every row has the
    bytes the whole-chunk call gives it; a one-row tail joins the block
    before it, since a one-row matvec takes another kernel.  Carry: the
    column sums (objectives._col_sums) add a block's rows one after another,
    the order of np.add.reduce over axis 0 for d > 1 (numpy >= 2.0's einsum
    and reduce loop orders, which the tests pin), so adding the sum of the
    earlier blocks into a block's first row before summing it gives the
    whole-chunk sum to the bit (squares are taken before their carry goes
    in).  At d = 1 the reduction is pairwise, so the chunk is one block.  A
    fresh estimate's block without carry or SE sums its products with W's
    rows in one pass and never builds its estimate rows.  The carry restarts
    with each chunk and the chunk sums add up in chunk order, so the result
    does not depend on the block size.
    """
    if not want_se and n <= _CHUNK and len(_block_bounds(n, spec.d)) == 1:
        # one chunk of one block: the loop's bytes without the loop
        W = _sphere_batch(spec.d, n, rng)
        diffs = _g_delta_rows(spec, x, delta, W, _sample_xi_batch(spec, n, rng), y)
        mean = _col_sums(W, diffs[0]) if y is None else _col_sums(_g_rows(W, diffs))
        mean /= n
        return mean
    total = np.zeros(spec.d)
    total_sq = np.zeros(spec.d) if want_se else None
    left = n
    while left > 0:
        m = min(left, _CHUNK)
        bounds = _block_bounds(m, spec.d)
        if spec.noise_kind == "none":
            W_blocks = (_sphere_batch(spec.d, b - a, rng) for a, b in bounds)
            payloads = itertools.repeat(None)
        else:
            W = _sphere_batch(spec.d, m, rng)
            W_blocks = (W[a:b] for a, b in bounds)
            payloads = (_sample_xi_batch(spec, b - a, rng) for a, b in bounds)
        acc = acc_sq = None
        for Wb, pb in zip(W_blocks, payloads):
            diffs = _g_delta_rows(spec, x, delta, Wb, pb, y)
            if y is None and not want_se:
                acc = _col_sums(Wb, diffs[0], acc)
            else:
                G = _g_rows(Wb, diffs)
                if want_se:
                    acc_sq = _col_sums(G * G, carry=acc_sq)
                acc = _col_sums(G, carry=acc)
        total += acc
        if want_se:
            total_sq += acc_sq
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


def _block_bounds(m: int, d: int) -> list[tuple[int, int]]:
    """Compute-block row ranges of an m-row chunk (see _g_delta_mean): one
    block for at most _BLOCK elements or at d = 1."""
    if m * d <= _BLOCK or d == 1:
        return [(0, m)]
    step = _block_rows(d)
    bounds = []
    start = 0
    while start < m:
        stop = m if m - start <= step + 1 else start + step
        bounds.append((start, stop))
        start = stop
    return bounds


# ---------------------------------------------------------------------------
# surrogate value


@functools.cache
def _ball_marginal_norm(d: int) -> float:
    # integral of (1 - t^2)^((d-1)/2) over [-1, 1]
    from scipy import special  # scipy loads only for closed-form f_delta

    return float(special.beta(0.5, (d + 1) / 2.0))


def _sawtooth_coord_smoothed(xi: float, delta: float, d: int) -> float:
    """E[dist(xi + delta t, Z)] for t distributed as one coordinate of a
    uniform ball point, by quadrature against that marginal's density.

    The integrand's distance is abs(math.remainder(u, 1.0)), one C call with
    the bytes of abs(u - round(u)): both subtract the nearest integer, ties
    to even, and that subtraction is exact.  Nothing is memoized: how often
    a run repeats a coordinate value depends on its path, so a memo would
    make a run's cost depend on its seed.
    """
    # kinks of dist(. , Z) sit on the half-integer lattice
    lo = math.floor((xi - delta) * 2.0)
    hi = math.ceil((xi + delta) * 2.0)
    kinks = [t for t in ((k / 2.0 - xi) / delta for k in range(lo, hi + 1)) if -1.0 < t < 1.0]
    e = (d - 1) / 2.0

    def integrand(t: float) -> float:
        return abs(math.remainder(xi + delta * t, 1.0)) * (1.0 - t * t) ** e

    from scipy import integrate

    val, _ = integrate.quad(integrand, -1.0, 1.0, points=kinks or None, limit=200)
    return val / _ball_marginal_norm(d)


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
        if spec.name == "constant":
            return 0.0
        if spec.name == "quadratic-smooth":
            base = 0.5 * float((x * x) @ spec.lambdas)
            return base + delta * delta * float(spec.lambdas.sum()) / (2.0 * (spec.d + 2))
        if spec.name == "abs-linear":
            c = float(spec.direction @ x)
            if abs(c) >= delta:
                return abs(c)
            # E|c + delta t| with t one coordinate of a uniform ball point:
            # t^2 is Beta(1/2, a)-distributed, a = (d + 1) / 2
            a = (spec.d + 1) / 2.0
            s = (c / delta) ** 2
            from scipy import special

            return (abs(c) * float(special.betainc(0.5, a, s))
                    + 2.0 * delta * (1.0 - s) ** a / ((spec.d + 1) * _ball_marginal_norm(spec.d)))
        # sawtooth: expectation splits per coordinate; each coordinate of a
        # uniform ball point has the same one-dimensional marginal.
        total = sum(_sawtooth_coord_smoothed(float(v), delta, spec.d) for v in x)
        return total / math.sqrt(spec.d)
    if mode == "mc":
        n = _check_int("n", n, 1)
        if rng is None:
            raise ValueError("mc mode needs an rng")
        # uniform ball points, scaled and shifted in place: x + delta * U
        X = _sphere_batch(spec.d, n, rng)
        X *= rng.uniform(size=n)[:, None] ** (1.0 / spec.d)
        X *= delta
        X += x
        vals = _f_rows(spec, X)
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
    return _g_delta_mean(spec, x, params.delta, _check_int("n", n, 2), rng, want_se=True)
