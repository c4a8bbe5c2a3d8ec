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
    for n, more in takes:
        got = _unit_rows(d, n, stream, more)
        want = _unit_rows(d, n, twin, more)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (n, more)
    return rng, twin


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_takes_match_unit_rows(d):
    sizes = _sizes(d)
    flush = [(3 * _block(d), 0)]
    mixed = sizes + sizes[::-1] + random.Random(d).choices(sizes, k=40)
    for takes in [[n] * 3 for n in sizes] + [mixed]:
        def make():
            return substream(31, "row-stream", d)

        rng, twin = _assert_takes_match(d, [(n, 0) for n in takes] + flush, make)
        assert _hex(rng.standard_normal(5)) == _hex(twin.standard_normal(5))


def _zero_cases(d):
    b = _block(d)
    return [
        # a zero row inside a take, replaced by the row after the take
        ((12,), [(4, 0), (5, 0), (50, 0), (50, 0)]),
        # the last row of a block: moved to the front by a refill, then taken;
        # and a take that ends the block exactly
        ((b - 1,), [(50, 0)] * (b // 50 + 2)),
        ((b - 1,), [(b, 0), (5, 0)]),
        # zero rows among the replacement rows, over several rounds
        ((12, 59), [(4, 0), (5, 0), (50, 0), (50, 0)]),
        ((12, 13, 59, 60, 61), [(4, 0), (5, 0), (50, 0), (50, 0)]),
        # a replacement drawn past the end of a block
        ((b - 3,), [(b - 3, 0), (3, 0), (7, 0)]),
        # inside a take of more than a block: in its direct draw, and in the block's
        # remainder it starts with
        ((2 * b,), [(100, 0), (3 * b, 0)]),
        ((60,), [(50, 0), (3 * b, 0)]),
        # the whole-chunk rule: a piece with a zero row draws the rows still to come
        ((30,), [(50, 20), (9, 0)]),
        ((b + 2,), [(b - 1, 0), (40, 3 * b), (5, 0)]),
        ((55,), [(50, 20), (9, 0)]),  # no zero in the piece: only its rows
    ]


@pytest.mark.parametrize("fill", [0.0, 1e-200])
@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("case", range(11))
def test_zero_rows_are_replaced_as_unit_rows_replaces_them(d, case, fill):
    # fill = 1e-200: rows whose norm underflows to 0 are redrawn like zero rows
    zeros, takes = _zero_cases(d)[case]
    flush = [(3 * _block(d), 0)]
    rng, twin = _assert_takes_match(d, takes + flush,
                                    lambda: _ZeroRowStream(d, *zeros, fill=fill))
    assert rng.drawn == twin.drawn
    # every case replaces at least one zero row
    assert twin.drawn > d * sum(n for n, _ in takes + flush)


def test_small_takes_are_copies_of_the_block(monkeypatch):
    # zero-free takes of at most half a block come straight from the block: only a
    # refill draws, and each refill draws more than half a block
    d = 8
    calls = []
    rng = substream(33, "fast-takes")
    stream = _RowStream(rng, d)
    monkeypatch.setattr(_RowStream, "_rows", lambda self, k: calls.append(k))
    refills, real_refill = [], _RowStream._refill
    monkeypatch.setattr(_RowStream, "_refill",
                        lambda self: refills.append(1) or real_refill(self))
    total = 0
    half = _block(d) // 2
    for n in [1, 4, 5, 50, half - 3, 3, half, 7] * 20:
        _unit_rows(d, n, stream)
        total += n
    assert calls == []
    assert len(refills) <= 2 * total // _block(d) + 1


def test_run_with_a_more_take_matches_the_plain_generator(monkeypatch):
    # noise-free sawtooth d=8 at eps = 0.05: each refresh draws n = 6,400 rows, more than
    # one compute block, so smoothing._drawn_blocks takes its first block with more > 0
    spec = catalog_make("sawtooth", 8)
    params = derive_params_qgfm(8, spec.L, 0.3, 0.05, spec.delta_0)
    start = substream(32, "more-run-x").uniform(-0.5, 0.5, 8)
    takes, real_take = [], _RowStream.take

    def take(self, n, more=0):
        takes.append((n, more))
        return real_take(self, n, more)

    def run():
        return _run_summary(qgfm(spec, start, params, SmoothingParams(0.3), CostModel(), 3,
                                 budget=1000, residual_n=100))

    monkeypatch.setattr(_RowStream, "take", take)
    streamed = run()
    assert takes == [(4096, 2304), (2304, 0)] * 3
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
            assert not kwargs or set(kwargs) == {"more"}
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
