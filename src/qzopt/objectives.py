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
import operator
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
    x0: np.ndarray
    smooth_params: tuple[float, float] | None = None  # (l, sigma), smooth track only
    direction: np.ndarray | None = None  # abs-linear
    lambdas: np.ndarray | None = None  # quadratic-smooth
    domain_radius: float = math.inf
    est_var_coeff: float = GENERIC_EST_VAR_COEFF
    diff_var_coeff: float = 1.0

    def __post_init__(self) -> None:
        self.d = _check_int("d", self.d, 1)
        self.L = _check_real("L", self.L)
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise_kind {self.noise_kind!r}")
        self.noise_scale = _check_real("noise_scale", self.noise_scale, lo_open=False)


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
    abs-linear (it is normalized; default (1,...,1)/sqrt(d)); given to any
    other problem it raises ValueError.
    """
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog problem {name!r}")
    if direction is not None and name != "abs-linear":
        raise ValueError(f"direction is only defined for abs-linear, not {name}")
    d = _check_int("d", d, 1)
    noise_scale = _check_real("noise_scale", noise_scale, lo_open=False)
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
        own = dict(L=1e-9, delta_0=0.0, x0=np.zeros(d))
    elif name == "abs-linear":
        if direction is None:
            a = np.full(d, 1.0 / math.sqrt(d))
        else:
            a = np.asarray(direction, dtype=float)
            if a.shape != (d,):
                raise ValueError("direction must have shape (d,)")
            if not np.isfinite(a).all():
                raise ValueError("direction must be finite")
            nrm = float(np.linalg.norm(a))
            if nrm == 0.0:
                raise ValueError("direction must be nonzero")
            a = a / nrm
        x0 = np.full(d, 1.0 / math.sqrt(d))
        own = dict(L=1.0, delta_0=float(abs(a @ x0)), x0=x0, direction=a, diff_var_coeff=1.0)
    elif name == "sawtooth":
        own = dict(
            L=math.sqrt(d) if noise_kind == "component-subsample" else 1.0,
            delta_0=0.5 * math.sqrt(d),
            x0=np.full(d, 0.5),
        )
    else:  # quadratic-smooth
        lam = np.linspace(1.0, 2.0, d)
        lmax = float(lam.max())
        own = dict(
            # Lipschitz bound for values inside the certified domain radius.
            L=lmax * QUADRATIC_DOMAIN_RADIUS + noise_scale,
            delta_0=float(lam.mean() / 2.0),
            x0=np.full(d, 1.0 / math.sqrt(d)),
            smooth_params=(lmax, noise_scale),
            lambdas=lam,
            domain_radius=QUADRATIC_DOMAIN_RADIUS,
        )
    # the fields every entry shares, with the certified variance constants of
    # the module docstring; an entry's own fields override them
    shared = dict(
        name=name,
        d=d,
        noise_kind=noise_kind,
        noise_scale=noise_scale,
        f_star=0.0,
        est_var_coeff=1.0,
        diff_var_coeff=1.0 / d,
    )
    return ObjectiveSpec(**{**shared, **own})


# ---------------------------------------------------------------------------
# noise sampling


def sample_xi(spec: ObjectiveSpec, rng: np.random.Generator) -> XiSample:
    """Draw one noise sample for the problem."""
    return XiSample(_sample_xi_batch(spec, 1, rng)[0] if spec.noise_kind != "none" else None)


def _sample_xi_batch(spec: ObjectiveSpec, n: int, rng: np.random.Generator):
    """Vectorized noise payloads: None or an array with leading dimension n.

    A batch drawn in pieces is the batch drawn whole: numpy fills uniform
    offsets and coordinate indices in order, the bit generator keeps the
    spare half of a 64-bit word that an integer draw splits, and the
    quadratic's sphere rows follow _unit_rows's rule.
    """
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


# Row-wise work on an (n, d) batch runs over blocks of about this many
# elements (256 KiB of float64), so that its temporaries stay in L2.
_BLOCK = 1 << 15


def _block_rows(d: int) -> int:
    """Rows per compute block: a multiple of 64 near _BLOCK / d, at least 64."""
    return max(64, _BLOCK // d & -64)


def _row_sums(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.add.reduce(v, axis=-1) to the bit, for a C-ordered v.

    numpy (>= 2.0) sums each row onto +0.0: for 2 <= d < 8 it adds the d
    elements one after another, and at d = 8 it adds them pairwise,
    ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)).  Whole-column adds in the same
    order give the same bytes (signed zeros, subnormals and overflow
    included) in about d ufunc calls instead of one call that pays about
    20 ns per row.  They win from about 32 d rows on; smaller batches, d = 1
    and d > 8 (timed only at d = 8) take reduce.  The tests pin these bytes
    against reduce on both sides of the switch.
    """
    d = v.shape[-1]
    if not 2 <= d <= 8 or v.size < 32 * d * d:
        return np.add.reduce(v, axis=-1, out=out)
    if d < 8:
        s = np.add(v[..., 0], 0.0, out=out)
        for j in range(1, d):
            s += v[..., j]
        return s
    s = np.add(v[..., 0], v[..., 1], out=out)
    s += v[..., 2] + v[..., 3]
    t = v[..., 4] + v[..., 5]
    t += v[..., 6] + v[..., 7]
    s += t
    s += 0.0
    return s


def _col_sums(v: np.ndarray, coef: np.ndarray | None = None,
              carry: np.ndarray | None = None) -> np.ndarray:
    """np.add.reduce(G, axis=0) + 0.0 to the bit, for the C-ordered (m, d)
    G = v, or G = coef[:, None] * v with coef; with carry, of G with carry
    added into its first row (in place in v, when v is G).

    For d > 1 numpy (>= 2.0) reduces axis 0 by adding the rows one after
    another, and np.einsum adds them in the same order in one pass, onto
    +0.0 where reduce starts from the first row: so the two differ only in
    the sign of an all-zero column, which the + 0.0 settles.  With coef and
    no carry, einsum forms each product as it adds it and G is never built.
    At d = 1 reduce adds pairwise, so d = 1 takes reduce.  The tests pin
    these bytes against reduce.
    """
    if coef is not None and (carry is not None or v.shape[1] == 1):
        v = coef[:, None] * v
        coef = None
    if carry is not None:
        v[0] += carry
    if v.shape[1] == 1:
        s = np.add.reduce(v, axis=0)
        s += 0.0
        return s
    return np.einsum("ij->j", v) if coef is None else np.einsum("i,ij->j", coef, v)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """sqrt of the row sums of v*v, over row blocks when v is larger than one
    block; each row's bytes are those of the whole-array expression."""
    if v.size <= _BLOCK:
        return np.sqrt(_row_sums(v * v))
    n = v.shape[0]
    step = _block_rows(v.shape[1])
    norms = np.empty(n)
    for start in range(0, n, step):
        b = v[start:start + step]
        out = norms[start:start + step]
        _row_sums(b * b, out=out)
        np.sqrt(out, out=out)
    return norms


def _unit_rows(d: int, n: int, rng) -> np.ndarray:
    """n uniform unit rows in R^d: the generator's next n rows of standard
    normals of non-zero norm, each divided by its norm (as
    np.linalg.norm(v, axis=1) computes it).  A row of norm 0 (probability
    about 2^-52d) is skipped, as sample_sphere skips it, so a batch drawn in
    pieces is the batch drawn whole.  rng may be a _RowStream over a
    generator instead, with the same rows and the same generator end."""
    if isinstance(rng, _RowStream):
        return rng.take(n)
    return _normalized(rng.standard_normal((n, d)), rng)


def _normalized(v: np.ndarray, rng) -> np.ndarray:
    """v, rows rng just drew, as _unit_rows's rows, in place: each row is
    divided by its norm, and a row of norm 0 is dropped, the rows after it
    move up and rng's next rows fill the end."""
    norms = _row_norms(v)
    k = np.count_nonzero(norms)
    if k == len(v):
        v /= norms[:, None]
        return v
    live = norms != 0.0
    v[:k] = v[live] / norms[live, None]
    _normalized(rng.standard_normal(out=v[k:]), rng)
    return v


# A _RowStream draws this many elements' worth of rows at a time (32 KiB):
# enough to spread a refill over about a hundred small takes, and small
# enough that the block and its norm temporaries add little to a run's peak.
_STREAM_BLOCK = 1 << 12


class _RowStream:
    """The unit rows in R^d of a generator that draws nothing else, drawn
    and normalized a block of _STREAM_BLOCK elements (at least one row) at a
    time, which saves the per-call draw and norm overhead of small takes.

    take(n) returns the rows _unit_rows(d, n, rng) returns and leaves rng
    where that call leaves it: those are the stream's rows of non-zero norm
    in order, so drawing ahead moves no value.  A take that fits what is
    left of the block (the rows from _pos on) is a copy.  One that does not
    refills the block when it is at most half a block: the rows not yet
    taken move to the front and the next unit rows fill the rest.  A
    larger one is the block's remainder and a direct draw of the rest, since
    copying it out of a block would cost more than the overhead it saves.
    A stream whose draws interleave uniforms or integers with the normals
    cannot draw ahead, so this class has no such method: a payload drawn
    from it fails at once.
    """

    __slots__ = ("d", "_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, d: int) -> None:
        self.d, self._rng, self._buf = d, rng, np.empty((max(1, _STREAM_BLOCK // d), d))
        self._pos = len(self._buf)

    def take(self, n: int) -> np.ndarray:
        buf, a = self._buf, self._pos
        size = len(buf)
        if a + n <= size:
            self._pos = a + n
            return buf[a:a + n].copy()
        left = size - a
        if 2 * n <= size:
            buf[:left] = buf[a:]
            _normalized(self._rng.standard_normal(out=buf[left:]), self._rng)
            self._pos = n
            return buf[:n].copy()
        v = np.empty((n, self.d))
        v[:left] = buf[a:]
        _normalized(self._rng.standard_normal(out=v[left:]), self._rng)
        self._pos = size
        return v


def _draws_unit_rows(spec: ObjectiveSpec) -> bool:
    """Whether an estimate on spec draws only unit rows: directions, and a
    payload that is none or the quadratic's scaled sphere rows (see
    _sample_xi_batch), so that its stream may be a _RowStream."""
    return spec.noise_kind == "none" or (spec.noise_kind == "additive-offset"
                                         and spec.name == "quadratic-smooth")


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
    """Exact f on rows of X, shape (..., d) -> (...)."""
    if spec.name == "constant":
        return np.zeros(X.shape[:-1])
    if spec.name == "abs-linear":
        return np.abs(X @ spec.direction)
    if spec.name == "sawtooth":
        vals = _row_sums(_dist_to_int(X))
        vals /= math.sqrt(spec.d)
        return vals
    # quadratic-smooth
    XX = X * X
    XX *= 0.5
    return XX @ spec.lambdas


def _F_rows(spec: ObjectiveSpec, X: np.ndarray, payload, sets: int = 1) -> np.ndarray:
    """Stochastic F on rows of X with a batch payload (see _sample_xi_batch),
    shape (n, d) -> (n,).

    With sets = k, X stacks k point sets of n / k rows that share the
    payload's rows, and each row gets the bytes its set would get alone:
    the matvecs run as one (n / k, d) @ a per set, since one flat matvec
    groups rows across set boundaries and can move last bits.
    """
    if sets > 1:
        X = X.reshape(sets, -1, X.shape[1])
    if spec.noise_kind == "component-subsample":
        vals = _dist_to_int(X[..., np.arange(X.shape[-2]), payload])
        vals *= math.sqrt(spec.d)
    else:
        vals = _f_rows(spec, X)
        if payload is not None:
            if spec.name == "quadratic-smooth":
                vals += _row_sums(X * payload)
            else:
                vals += payload
    return vals if sets == 1 else vals.ravel()


# ---------------------------------------------------------------------------
# argument checks: every module checks its numeric arguments with the first
# two, and values computed from them with _square and _finite

_REALS = (float, int, np.floating, np.integer)


def _check_int(name: str, v, lo: int) -> int:
    """v as a Python int, for a Python or numpy integer v >= lo.  A bool
    (an int subclass: True would pass as 1) or a float, however integral,
    raises ValueError."""
    if type(v) is not int:  # a plain int skips the type test
        v = operator.index(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool) else None
    if v is None or v < lo:
        bound = {0: "a non-negative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
        raise ValueError(f"{name} must be {bound}")
    return v


def _check_real(name: str, v, lo_open: bool = True) -> float:
    """float(v), for a finite Python or numpy int or float v (not a bool)
    that is > 0, or >= 0 with lo_open=False; NaN and +-inf raise ValueError."""
    if type(v) is not float:  # a plain float skips the type test
        v = float(v) if isinstance(v, _REALS) and not isinstance(v, bool) else math.nan
    if 0.0 < v < math.inf or v == 0.0 and not lo_open:
        return v
    raise ValueError(f"{name} must be {'positive' if lo_open else 'non-negative'} and finite")


def _square(name: str, v: float) -> float:
    """v * v for a checked v > 0; a square that underflows to 0 raises
    ValueError, for callers that divide by it."""
    sq = v * v
    if sq == 0.0:
        raise ValueError(f"{name} is too small: its square underflows to 0")
    return sq


def _finite(name: str, what: str, v: float) -> float:
    """v, a value >= 0 computed from checked arguments, when it is finite;
    one that overflows raises ValueError naming the argument that is too
    small."""
    try:
        return _check_real(what, v, lo_open=False)
    except ValueError:
        raise ValueError(f"{name} is too small for the other arguments: {what} overflows") from None


def _finite_point(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """x as a float array, for a point of shape (d,) with finite entries;
    every module checks its points with this.  A finite sum of squares
    proves every entry finite in one cheap call; only when it is not (a
    non-finite entry, or finite entries whose squares overflow, which numpy
    warns of) are the entries tested one by one."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.d,):
        raise ValueError(f"point must have shape ({spec.d},), got {x.shape}")
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise ValueError("point must be finite")
    return x


def eval_f(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Exact expectation f(x); a non-finite point raises ValueError."""
    x = _finite_point(spec, x)
    return float(_f_rows(spec, x[None, :])[0])


def eval_F(spec: ObjectiveSpec, x: np.ndarray, xi: XiSample) -> float:
    """One stochastic evaluation F(x; xi); a non-finite point raises ValueError."""
    x = _finite_point(spec, x)
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
