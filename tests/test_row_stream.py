"""The per-run row stream (objectives._RowStream): its takes must be the rows of
_unit_rows calls on the same generator, byte for byte and to the stream's end, and
an optimizer run must use it exactly when every estimate draw is a unit row."""
import random

import numpy as np
import pytest

from qzopt import (
    CostModel,
    SmoothingParams,
    catalog_make,
    derive_params_qgfm,
    qgfm,
    qgfm_plus,
    qgm_plus,
    substream,
)
from qzopt import algorithms, objectives, oracles, smoothing
from qzopt.algorithms import QgfmParams, QgfmPlusParams
from qzopt.objectives import CATALOG_NAMES, NOISE_KINDS, _RowStream, _unit_rows
from test_hotpath_exact import _ZeroRowStream, _hex, _run_summary


def _block(d):
    return max(1, objectives._STREAM_BLOCK // d)


def _sizes(d):
    b = _block(d)
    return [1, 4, 5, 50, 900, b - 1, b, b + 1, 3 * b]


def _assert_takes_match(d, takes, make_rng):
    """Each take from a stream over make_rng() equals a _unit_rows call on a twin;
    takes end with one of more than a block, which leaves the stream's generator
    where the twin's is."""
    rng, twin = make_rng(), make_rng()
    stream = _RowStream(rng, d)
    for n in takes:
        got = _unit_rows(d, n, stream)
        want = _unit_rows(d, n, twin)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), n
    return rng, twin


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_takes_match_unit_rows(d):
    sizes = _sizes(d)
    flush = [3 * _block(d)]
    mixed = sizes + sizes[::-1] + random.Random(d).choices(sizes, k=40)
    for takes in [[n] * 3 for n in sizes] + [mixed]:
        def make():
            return substream(31, "row-stream", d)

        rng, twin = _assert_takes_match(d, takes + flush, make)
        assert _hex(rng.standard_normal(5)) == _hex(twin.standard_normal(5))


def _zero_cases(d):
    b = _block(d)
    return [
        # a zero row inside a take, skipped by the refill that draws it
        ((12,), [4, 5, 50, 50]),
        # the last row of a refill's draw: the refill draws one row more
        ((b - 1,), [50] * (b // 50 + 2)),
        # the same row inside a take of a whole block, which draws directly
        ((b - 1,), [b, 5]),
        # two zero rows in one draw, and a run of them
        ((12, 59), [4, 5, 50, 50]),
        ((12, 13, 59, 60, 61), [4, 5, 50, 50]),
        # the first row of a refill, after a direct take that ends just before it
        ((b - 3,), [b - 3, 3, 7]),
        # inside a take of more than a block: in its direct draw, and in the block
        # whose remainder it starts with
        ((2 * b,), [100, 3 * b]),
        ((60,), [50, 3 * b]),
        # zero rows where the rows that fill the end would come from, over several rounds
        ((12, b), [4, 5, 50, 50]),
        ((12, b, b + 1, b + 2), [4, 5, 50, 50]),
        # zero rows in successive refills
        ((b - 1, b + 40, 2 * b + 3), [50] * (2 * b // 50 + 4)),
    ]


@pytest.mark.parametrize("fill", [0.0, 1e-200])
@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("case", range(11))
def test_zero_rows_are_skipped_as_unit_rows_skips_them(d, case, fill):
    # fill = 1e-200: rows whose norm underflows to 0 are skipped like zero rows
    zeros, takes = _zero_cases(d)[case]
    flush = [3 * _block(d)]
    rng, twin = _assert_takes_match(d, takes + flush,
                                    lambda: _ZeroRowStream(d, *zeros, fill=fill))
    assert rng.drawn == twin.drawn
    # every case skips at least one zero row
    assert twin.drawn > d * sum(takes + flush)


@pytest.mark.parametrize("fill", [0.0, 1e-200])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_samplers_skip_the_rows_sample_sphere_skips(d, fill):
    # the reference definition: n one-row draws, each redrawn until its norm is not 0.
    # The zero rows lie inside the stream's first block, at its end, across it into the
    # next row, and in a direct draw.  sample_sphere takes its 1-D norm as a dot product,
    # whose sum may round 1 ulp away from the row sums', and the division rounds again,
    # so at d <= 8 the rows agree to 2 ulp
    b = _block(d)
    takes = [1, 7, 50, b - 3, 2 * b]
    n = sum(takes)
    zeros = (20, b - 1, b, 2 * b + 7)
    stubs = [_ZeroRowStream(d, *zeros, fill=fill) for _ in range(3)]
    want = np.array([smoothing.sample_sphere(d, stubs[0]) for _ in range(n)])
    whole = _unit_rows(d, n, stubs[1])
    stream = _RowStream(stubs[2], d)
    pieces = np.concatenate([_unit_rows(d, k, stream) for k in takes])
    for got in (whole, pieces):
        np.testing.assert_array_max_ulp(got, want, maxulp=2)
    assert stubs[0].drawn == stubs[1].drawn == stubs[2].drawn == d * (n + len(zeros))


def test_small_takes_are_copies_of_the_block():
    # takes of at most half a block come straight from the block: the generator draws
    # only refills, each of more than half a block
    d = 8
    rng = _ZeroRowStream(d)
    stream = _RowStream(rng, d)
    total = 0
    half = _block(d) // 2
    for n in [1, 4, 5, 50, half - 3, 3, half, 7] * 20:
        _unit_rows(d, n, stream)
        total += n
    assert all(rows > half for rows, _ in rng.shapes)
    assert len(rng.shapes) <= 2 * total // _block(d) + 1


def test_run_with_takes_past_a_block_matches_the_plain_generator(monkeypatch):
    # noise-free sawtooth d=8 at eps = 0.05: each refresh draws n = 6,400 rows, more than
    # one compute block, so the estimate takes its directions a block at a time
    spec = catalog_make("sawtooth", 8)
    params = derive_params_qgfm(8, spec.L, 0.3, 0.05, spec.delta_0)
    start = substream(32, "more-run-x").uniform(-0.5, 0.5, 8)
    takes, real_take = [], _RowStream.take

    def take(self, n):
        takes.append(n)
        return real_take(self, n)

    def run():
        return _run_summary(qgfm(spec, start, params, SmoothingParams(0.3), CostModel(), 3,
                                 budget=1000, residual_n=100))

    monkeypatch.setattr(_RowStream, "take", take)
    streamed = run()
    assert takes == [4096, 2304] * 3
    monkeypatch.setattr(algorithms, "_draws_unit_rows", lambda spec: False)
    assert run() == streamed
    assert len(takes) == 6


class _Spy(_RowStream):
    built: list = []

    def __init__(self, rng, d):
        _Spy.built.append(d)
        super().__init__(rng, d)


def _catalog_cases():
    for name in CATALOG_NAMES:
        for kind in NOISE_KINDS:
            if kind != "component-subsample" or name == "sawtooth":
                yield name, kind


@pytest.mark.parametrize("name,kind", list(_catalog_cases()))
def test_row_stream_eligibility(monkeypatch, name, kind):
    # the stream wraps the estimate stream exactly when every draw from it is a unit row
    monkeypatch.setattr(algorithms, "_RowStream", _Spy)
    monkeypatch.setattr(_Spy, "built", [])
    spec = catalog_make(name, 2, 0.0 if kind == "none" else 0.1, kind)
    x0 = np.array([0.3, -0.2])
    eligible = kind == "none" or name == "quadratic-smooth"
    sm, model = SmoothingParams(0.3), CostModel()
    qgfm(spec, x0, QgfmParams(eta=0.05, T=3, sigma1_sq=0.5), sm, model, 0, residual_n=10)
    plus = QgfmPlusParams(eta=0.05, T=6, p=0.5, sigma1_sq=0.5, kappa=1.0)
    qgfm_plus(spec, x0, plus, sm, model, 0, residual_n=10)
    runs = 2
    if spec.smooth_params is not None:
        qgm_plus(spec, x0, plus, model, 0)
        runs = 3
    assert _Spy.built == ([2] * runs if eligible else [])


@pytest.mark.parametrize("algorithm,problem,noise", [
    ("qgfm_plus", "sawtooth", 0.0), ("qgfm_plus", "quadratic-smooth", 0.5),
    ("qgm_plus", "quadratic-smooth", 0.5)])
def test_eligible_runs_keep_the_sampler_boundaries(monkeypatch, algorithm, problem, noise):
    # an eligible run still calls smoothing._sphere_batch once per estimate with its row
    # count, and draws the quadratic's payload through objectives._sphere_rows, so the
    # profiles and row counters built on those two functions read as before
    spec = catalog_make(problem, 2, noise)
    est, batches, payloads = [], [], []

    def spy(calls, real):
        def wrapped(*args, **kwargs):
            assert not kwargs
            if isinstance(args[2], _RowStream):
                calls.append(args[:2])
            return real(*args, **kwargs)
        return wrapped

    real_mean = oracles._g_delta_mean

    def mean(spec, x, delta, n, rng, **kwargs):
        est.append((spec.d, n))
        return real_mean(spec, x, delta, n, rng, **kwargs)

    monkeypatch.setattr(oracles, "_g_delta_mean", mean)
    monkeypatch.setattr(smoothing, "_sphere_batch", spy(batches, smoothing._sphere_batch))
    monkeypatch.setattr(objectives, "_sphere_rows", spy(payloads, objectives._sphere_rows))
    real_xi = oracles._sample_xi_batch
    sgrad = []

    def xi_batch(spec, n, rng):
        sgrad.append((spec.d, n))
        return real_xi(spec, n, rng)

    monkeypatch.setattr(oracles, "_sample_xi_batch", xi_batch)
    x0 = np.array([0.3, 0.8])
    plus = QgfmPlusParams(eta=0.05, T=40, p=0.3, sigma1_sq=0.05, kappa=1.0)
    if algorithm == "qgm_plus":
        qgm_plus(spec, x0, plus, CostModel(), 4)
        assert payloads == sgrad and len(sgrad) > 1
        assert batches == []
        return
    qgfm_plus(spec, x0, plus, SmoothingParams(0.3), CostModel(), 4, residual_n=10)
    assert batches == est and len(est) > 10
    assert all(type(d) is int and type(n) is int for d, n in batches)
    assert payloads == (est if noise else [])


def test_row_stream_draws_only_normals():
    # a payload of uniforms or integers must not reach a stream: it fails at once
    assert not hasattr(_RowStream, "uniform") and not hasattr(_RowStream, "integers")
    for kind in ("additive-offset", "component-subsample"):
        spec = catalog_make("sawtooth", 2, 0.1, kind)
        assert not objectives._draws_unit_rows(spec)
        with pytest.raises(AttributeError):
            objectives._sample_xi_batch(spec, 5, _RowStream(substream(0, "est"), 2))
