"""Sampling-circuit emulation for the two-point estimator's (xi, w) draw.

Two interchangeable paths produce the estimator's randomness:

* an exact amplitude-vector simulator for tiny register layouts
  (``statevector_prepare`` / ``statevector_apply_h_and_norm`` /
  ``measure_sample_batch``, with ``measure_sample`` its one-draw view),
  which measures basis indices by Born probabilities and decodes each
  measured index, and
* a classical pipeline sampler (``pipeline_sample``) that draws the same
  bit sums directly and therefore has EXACTLY the measurement
  distribution of the state-vector path on any layout, including ones
  far beyond simulable size.

Both share one decode from bit sums onward: register one holds xi on m1
bits; register two holds d groups of m2 bits whose sums S_j standardize
to h_j = (2 S_j - m2) / sqrt(m2), and w is h / ||h||.  An all-zero h vector
cannot be normalized; such outcomes are flagged invalid and their exact
probability is exposed (``invalid_probability``) rather than hidden.
At large m2 the h_j approach independent standard Gaussians, so w
approaches the uniform sphere measure the estimator needs.

``emulate_U_g`` / ``emulate_V_g`` run the staged reversible-arithmetic
pipelines that evaluate g_delta(x; w, xi) (and its shared-draw
difference) in fixed-point registers, with black-box F evaluations
counted per stage: 2 for the single pipeline, 4 for the difference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import (
    ObjectiveSpec,
    XiSample,
    _block_rows,
    _check_int,
    _F_rows,
    _finite_point,
    _payload_rows,
    _row_norms,
)
from .smoothing import SmoothingParams

__all__ = [
    "RegisterLayout",
    "SampleOutcome",
    "StageTape",
    "StateVector",
    "STATEVECTOR_MAX_QUBITS",
    "emulate_U_g",
    "emulate_V_g",
    "fixed_point_quantize",
    "h_standardize",
    "invalid_probability",
    "measure_sample",
    "measure_sample_batch",
    "pipeline_sample",
    "pipeline_sample_batch",
    "statevector_apply_h_and_norm",
    "statevector_prepare",
]

STATEVECTOR_MAX_QUBITS = 22
_NORM_TOL = 1e-10


@dataclass
class RegisterLayout:
    """Register widths: m1 bits for xi, m2 bits per coordinate, d coordinates.

    frac_bits sets the fixed-point precision of the arithmetic pipelines.
    """

    m1: int
    m2: int
    d: int
    frac_bits: int = 32

    def __post_init__(self) -> None:
        for name in ("m1", "m2", "d", "frac_bits"):
            setattr(self, name, _check_int(name, getattr(self, name), 1))

    @property
    def total_qubits(self) -> int:
        return self.m1 + self.d * self.m2


@dataclass
class StateVector:
    """Amplitudes over the m1 + d*m2 qubit computational basis.

    Measurement decodes (xi, w) from each measured basis index.  _born
    holds (amplitudes, cumulative Born probabilities) as checked by
    statevector_apply_h_and_norm; measurement uses it only while
    amplitudes is still that array.
    """

    amplitudes: np.ndarray
    layout: RegisterLayout
    _born: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)


@dataclass
class SampleOutcome:
    """One decoded draw; w is None when the zero-vector outcome occurred."""

    xi: int
    w: np.ndarray | None
    valid: bool


@dataclass
class StageTape:
    """Records pipeline stages; uf_calls counts black-box F evaluations."""

    stages: list[str] = field(default_factory=list)
    uf_calls: int = 0

    def note(self, stage: str) -> None:
        self.stages.append(stage)
        if stage == "U_F":
            self.uf_calls += 1


# ---------------------------------------------------------------------------
# state preparation and decoding


def _born_probabilities(amps: np.ndarray) -> np.ndarray:
    """|amplitudes|^2, after checking that they sum to 1 within tolerance."""
    p = np.abs(amps) ** 2
    total = float(np.sum(p))
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {total} deviates from 1 beyond tolerance")
    return p


def statevector_prepare(layout: RegisterLayout) -> StateVector:
    """Uniform superposition over all register bits (Hadamard on every qubit)."""
    n = layout.total_qubits
    if n > STATEVECTOR_MAX_QUBITS:
        raise ValueError(f"layout needs {n} qubits, above the {STATEVECTOR_MAX_QUBITS} guard")
    size = 1 << n
    amps = np.full(size, 1.0 / math.sqrt(size), dtype=complex)
    return StateVector(amplitudes=amps, layout=layout)


def h_standardize(bits: np.ndarray) -> float:
    """Map one coordinate's m2 bits to its standardized sum.

    (2*sum - m2)/sqrt(m2) has mean 0 and variance 1 under uniform bits,
    so coordinates converge to standard Gaussians as m2 grows.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size < 1:
        raise ValueError("bits must be a non-empty vector")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be binary")
    m2 = bits.size
    s = float(np.sum(bits))
    return (2.0 * s - m2) / math.sqrt(m2)


def _decode_indices(layout: RegisterLayout, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split basis indices into (xi, per-coordinate bit sums).

    Register one occupies the high m1 bits; coordinate j the j-th group
    of m2 bits from the low end.  Only the sums matter downstream.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    body = np.uint64(layout.d * layout.m2)
    xi = (idx >> body).astype(np.int64)
    rest = idx & np.uint64((1 << int(body)) - 1)
    mask = np.uint64((1 << layout.m2) - 1)
    sums = np.empty((idx.size, layout.d), dtype=np.int64)
    for j in range(layout.d):
        grp = (rest >> np.uint64(j * layout.m2)) & mask
        sums[:, j] = np.bitwise_count(grp).astype(np.int64)
    return xi, sums


def _w_from_sums(sums: np.ndarray, m2: int) -> tuple[np.ndarray, np.ndarray]:
    """Standardize bit sums and normalize rows; exact-zero rows are invalid."""
    h = (2.0 * sums - m2) / math.sqrt(m2)
    norms = _row_norms(h)
    valid = norms > 0.0
    W = np.full_like(h, np.nan)
    np.divide(h, norms[:, None], out=W, where=valid[:, None])
    return W, valid


def statevector_apply_h_and_norm(state: StateVector) -> StateVector:
    """Run standardization and normalization on the ancilla registers.

    The arithmetic writes h-values and the norm into ancillas and divides
    the coordinate registers, a basis-relabeling that leaves every
    amplitude magnitude unchanged; the simulator therefore checks the
    norm, keeps a copy of the amplitude array and applies the relabeling
    at measurement, decoding only the measured indices.  Outcomes whose
    h vector is exactly zero are marked invalid there.  The copy is
    read-only, so the checked distribution stays valid for it.
    """
    cum = np.cumsum(_born_probabilities(state.amplitudes))
    amps = state.amplitudes.copy()
    amps.flags.writeable = False
    return StateVector(amplitudes=amps, layout=state.layout, _born=(amps, cum))


# ---------------------------------------------------------------------------
# sampling


def measure_sample(state: StateVector, rng: np.random.Generator) -> SampleOutcome:
    """Draw one basis state by Born probabilities and decode (xi, w).

    A one-row measure_sample_batch: uniform(size=1) draws the same double
    as uniform(), so the stream advances exactly as for a scalar draw.
    """
    xi, W, valid = measure_sample_batch(state, 1, rng)
    ok = bool(valid[0])
    return SampleOutcome(xi=int(xi[0]), w=W[0] if ok else None, valid=ok)


def measure_sample_batch(
    state: StateVector, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n basis states by Born probabilities: (xi, W, valid) arrays of length n.

    Invalid rows of W are NaN.  Any state but an unchanged one from
    statevector_apply_h_and_norm has its norm checked on every call.
    """
    n = _check_int("n", n, 0)
    if state._born is not None and state._born[0] is state.amplitudes:
        cum = state._born[1]
    else:
        cum = np.cumsum(_born_probabilities(state.amplitudes))
    idx = np.searchsorted(cum, rng.uniform(size=n) * cum[-1], side="right")
    idx = np.minimum(idx, cum.size - 1).astype(np.uint64)
    xi, sums = _decode_indices(state.layout, idx)
    W, valid = _w_from_sums(sums, state.layout.m2)
    return xi, W, valid


def pipeline_sample_batch(
    layout: RegisterLayout, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n (xi, w) samples classically; distribution-identical to measurement.

    xi is uniform on m1 bits and each coordinate's bit sum is
    Binomial(m2, 1/2), exactly the marginals the state-vector path
    measures; the decode from sums onward is shared code.  The rows are
    _pipeline_blocks' blocks, collected.
    """
    n = _check_int("n", n, 0)
    xi_blocks, w_blocks = _pipeline_blocks(layout, n, rng)
    xi = np.empty(n, dtype=np.int64 if layout.m1 <= 62 else object)
    for start, stop, xi_block in xi_blocks:
        xi[start:stop] = xi_block
    W = np.empty((n, layout.d))
    valid = np.empty(n, dtype=bool)
    for start, stop, W_block, valid_block in w_blocks:
        W[start:stop], valid[start:stop] = W_block, valid_block
    return xi, W, valid


def _pipeline_blocks(layout: RegisterLayout, n: int, rng: np.random.Generator):
    """pipeline_sample_batch's draws as two generators, of
    (start, stop, xi[start:stop]) and then of
    (start, stop, W[start:stop], valid[start:stop]).

    Each draws one block of rows at a time, right before it is used: xi in
    blocks of _block_rows(m1) rows, and the bit sums, decoded, in blocks of
    _block_rows(d) rows.  Both draws fill elements in order, and the bit
    generator keeps the spare half of a 64-bit word that a 32-bit integer
    draw splits, so the blocks hold the values of one whole draw.  Read the
    xi blocks to the end, then the w blocks, and both before the next draw
    from rng, to leave the stream where one pipeline_sample_batch call does.
    """
    return _xi_blocks(layout.m1, n, rng), _w_blocks(layout, n, rng)


def _xi_blocks(m1: int, n: int, rng: np.random.Generator):
    # int64 values while they fit in 62 bits; bits packed into Python ints above that
    step = _block_rows(m1)
    for start in range(0, n, step):
        stop = min(start + step, n)
        if m1 <= 62:
            yield start, stop, rng.integers(0, 1 << m1, size=stop - start, dtype=np.int64)
        else:
            yield start, stop, _xi_from_bits(rng.integers(0, 2, size=(stop - start, m1)))


def _w_blocks(layout: RegisterLayout, n: int, rng: np.random.Generator):
    step = _block_rows(layout.d)
    for start in range(0, n, step):
        stop = min(start + step, n)
        sums = rng.binomial(layout.m2, 0.5, size=(stop - start, layout.d))
        yield (start, stop, *_w_from_sums(sums, layout.m2))


def _xi_from_bits(bits: np.ndarray) -> np.ndarray:
    """The rows of a (k, m1) array of bits, m1 > 62, first bit most
    significant, as an object array of k ints.  Each bit is one draw
    whatever the block shape, so blocks of rows give the values and stream
    end of one whole draw.  The bits pack into 62-bit int64 words by a
    matvec over powers of two; the words join as Python ints."""
    m1 = bits.shape[1]
    # column slices of the words, most significant first, with their place values
    words = [(slice(max(0, stop - 62), stop), 1 << np.arange(min(stop, 62) - 1, -1, -1))
             for stop in range(m1, 0, -62)][::-1]
    vals = [0] * len(bits)
    for cols, place in words:
        vals = [(v << len(place)) | w for v, w in zip(vals, (bits[:, cols] @ place).tolist())]
    xi = np.empty(len(bits), dtype=object)
    xi[:] = vals
    return xi


def pipeline_sample(layout: RegisterLayout, rng: np.random.Generator) -> SampleOutcome:
    """One classical draw of (xi, w), a one-row pipeline_sample_batch.

    Invalid outcomes are reported, keeping the output distribution exactly
    equal to measure_sample's.
    """
    xi, W, valid = pipeline_sample_batch(layout, 1, rng)
    ok = bool(valid[0])
    return SampleOutcome(xi=int(xi[0]), w=W[0] if ok else None, valid=ok)


def invalid_probability(layout: RegisterLayout) -> float:
    """Exact probability of the zero-vector outcome.

    Each coordinate is zero iff its bit sum hits m2/2 (impossible for
    odd m2), so the probability is Binom(m2, 1/2){m2/2}^d.
    """
    if layout.m2 % 2 == 1:
        return 0.0
    # exact integer division: 2.0 ** m2 overflows a float from m2 = 1024
    per_coord = math.comb(layout.m2, layout.m2 // 2) / 2 ** layout.m2
    return per_coord ** layout.d


# ---------------------------------------------------------------------------
# fixed-point reversible-arithmetic emulation


def fixed_point_quantize(values: np.ndarray | float, frac_bits: int) -> np.ndarray | float:
    """Round to the nearest multiple of 2^-frac_bits.

    Register contents are represented as float64 holding exact grid
    values, valid while the scaled integers stay below 2^52 (guarded);
    sums and differences of grid values are then exact, mirroring
    reversible integer registers.  Rounding is exact and the same for
    Python floats and arrays: ties go to the even multiple, and a
    negative value that rounds to zero gives -0.0, as np.rint does.
    """
    return _quantize(values, *_grid(_check_int("frac_bits", frac_bits, 1)))


def _grid(frac_bits: int) -> tuple[float, float]:
    """The (scale, limit) of a checked width: 2^frac_bits and 2^(52 - frac_bits)."""
    return float(1 << frac_bits), 2.0 ** (52 - frac_bits)


def _quantize(values: np.ndarray | float, scale: float, limit: float) -> np.ndarray | float:
    """fixed_point_quantize on the grid _grid gives for its width."""
    if isinstance(values, float):
        # round() is exact half-to-even on |v * scale| < 2^52; copysign keeps -0.0
        if not abs(values) < limit:
            _out_of_range(limit)
        return math.copysign(round(values * scale) / scale, values)
    arr = np.asarray(values, dtype=float)
    if np.count_nonzero(np.abs(arr) < limit) != arr.size:
        _out_of_range(limit)
    snapped = np.rint(arr * scale)
    snapped /= scale
    if snapped.ndim == 0:
        return float(snapped)
    return snapped


def _out_of_range(limit: float):
    # limit is the power of two 2^(52 - frac_bits), so log2 is exact
    raise OverflowError(f"value outside fixed-point range (+-2^{math.log2(limit):g})")


# The stages one branch point runs, in tape order.
_BRANCH_STAGES = ("A+", "A-", "U_F", "U_F", "sub", "Fmul")


def emulate_U_g(
    spec: ObjectiveSpec,
    x: np.ndarray,
    params: SmoothingParams,
    xi: XiSample,
    w: np.ndarray,
    layout: RegisterLayout,
    tape: StageTape | None = None,
) -> np.ndarray:
    """g_delta(x; w, xi) through the staged fixed-point pipeline (2 F calls).

    Agrees with the float evaluation within
    2^(1-frac_bits) * (d / 2 delta) * (1 + ||x|| + L) per coordinate.

    The tape gets the stages once all of them have run.  A non-finite x
    or w raises ValueError before any stage runs.  A finite register that
    leaves the fixed-point range raises OverflowError (see
    fixed_point_quantize) and leaves the tape as it was.
    """
    return _emulate(spec, (x,), params, xi, w, layout, tape)


def emulate_V_g(
    spec: ObjectiveSpec,
    x: np.ndarray,
    y: np.ndarray,
    params: SmoothingParams,
    xi: XiSample,
    w: np.ndarray,
    layout: RegisterLayout,
    tape: StageTape | None = None,
) -> np.ndarray:
    """g_delta(x; w, xi) - g_delta(y; w, xi) with shared draws (4 F calls).

    x == y gives exactly zero: both branches run the identical
    computation on identical register contents.  The tape gets the x
    branch's stages, then the y branch's, then the final sub and mul,
    once all of them have run.  A non-finite x, y or w raises ValueError
    before any stage runs; an OverflowError (a finite register out of the
    fixed-point range) from either branch, or from the final stages,
    leaves the tape as it was.
    """
    return _emulate(spec, (x, y), params, xi, w, layout, tape)


def _emulate(spec: ObjectiveSpec, points: tuple, params: SmoothingParams, xi: XiSample,
             w: np.ndarray, layout: RegisterLayout, tape: StageTape | None) -> np.ndarray:
    """The staged pipeline over one point (U_g) or two (V_g).

    w is checked first (shape and finite entries), then xi's payload, then
    the points.  Each branch computes diff = F(x + delta w) - F(x - delta w),
    scaled by d/(2 delta), on the quantized w; two branches are subtracted;
    the result is multiplied by the quantized w.  Each register stage is
    quantized once for all branches: the points, then x + delta w and
    x - delta w for each point in turn.  Those rows go to F as one _F_rows
    call of one-row sets, each with the bytes of its own call, so every
    register holds what a branch run alone holds.  x is still quantized on
    every call, also when it repeats.  layout checked frac_bits, so the
    grid is worked out once and the checks are not repeated per stage.
    """
    grid = _grid(layout.frac_bits)
    q = lambda v: _quantize(v, *grid)  # noqa: E731
    wq = q(_finite_point(spec, w))
    payload = _payload_rows(spec, xi)
    rows = [_finite_point(spec, p) for p in points]
    k = len(rows)
    xq = q(rows[0][None, :] if k == 1 else np.stack(rows))
    dw = params.delta * wq
    shifted = np.empty((2 * k, spec.d))
    np.add(xq, dw, out=shifted[0::2])
    np.subtract(xq, dw, out=shifted[1::2])
    F = _F_rows(spec, q(shifted), payload, sets=2 * k).tolist()
    scale = spec.d / (2.0 * params.delta)
    v = [q(q(q(f_plus) - q(f_minus)) * scale) for f_plus, f_minus in zip(F[0::2], F[1::2])]
    g = q((v[0] if k == 1 else q(v[0] - v[1])) * wq)
    if tape is not None:
        for stage in _BRANCH_STAGES * k + ("sub", "mul")[2 - k:]:
            tape.note(stage)
    return g
