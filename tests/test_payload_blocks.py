"""A noisy draw chunk's payload drawn block by block (smoothing._g_delta_mean): its
estimates must have the bytes of the whole-chunk payload draw and leave the stream
where that draw does, and each chunk must still pass its row count once through each
sampler, so that span counts see the same totals."""
import numpy as np
import pytest

from qzopt import catalog_make, objectives, smoothing, substream
from qzopt.objectives import _RowStream, _sample_xi_batch
from test_hotpath_exact import _ZeroRowStream, _hex, _streamed_and_whole

# (problem, d, noise_kind): uniform offsets, coordinate indices (32-bit draws that
# leave a spare half at odd counts) and the quadratic's scaled sphere rows
NOISY = (("abs-linear", 8, None), ("sawtooth", 3, None),
         ("sawtooth", 3, "component-subsample"), ("sawtooth", 8, "component-subsample"),
         ("quadratic-smooth", 8, None), ("quadratic-smooth", 64, None))


def _spec(problem, d, kind):
    return catalog_make(problem, d, 0.5, kind)


def _stream_end(rng):
    """Where rng stands: its state (with any spare 32-bit half) and its next draws."""
    state = rng.bit_generator.state
    return state, _hex(rng.standard_normal(3)), rng.integers(0, 7, size=3).tolist()


@pytest.mark.parametrize("problem,d,kind", [
    ("abs-linear", 3, None), ("sawtooth", 5, None), ("sawtooth", 3, "component-subsample"),
    ("sawtooth", 5, "component-subsample"), ("quadratic-smooth", 3, None)])
def test_payload_pieces_equal_one_whole_draw(problem, d, kind):
    # odd splits, and pieces of one row, give the values and stream end of one draw
    spec = _spec(problem, d, kind)
    pieces = [1, 2, 3, 7, 1, 64, 129, 5, 1]
    n = sum(pieces)
    rng = substream(41, "pieces", d)
    whole = _sample_xi_batch(spec, n, rng)
    want = (whole.tobytes().hex(), _stream_end(rng))
    rng = substream(41, "pieces", d)
    got = [_sample_xi_batch(spec, k, rng) for k in pieces]
    assert (np.concatenate(got).tobytes().hex(), _stream_end(rng)) == want


# rows as (compute blocks, extra rows), or None for chunks smaller than the rows
SIZES = {"one block": (1, 0), "one block and a one-row tail": (1, 1), "two blocks": (2, 0),
         "many blocks, odd last": (5, 37), "two chunks": None}


@pytest.mark.parametrize("want_se", [False, True])
@pytest.mark.parametrize("with_y", [False, True])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("problem,d,kind", NOISY)
def test_payload_blocks_match_whole_chunk_draws(monkeypatch, problem, d, kind, size,
                                                with_y, want_se):
    spec = _spec(problem, d, kind)
    step = objectives._block_rows(d)
    if SIZES[size] is None:
        # full chunks of two blocks, the second with a one-row tail, and a last chunk of
        # one block and three rows
        chunk = 2 * step + 1
        monkeypatch.setattr(smoothing, "_CHUNK", chunk)
        n = 2 * chunk + step + 3
    else:
        blocks, extra = SIZES[size]
        n = blocks * step + extra
    pts = substream(42, "payload-x", d)
    x = pts.uniform(-0.3, 0.3, d)
    y = x + pts.uniform(-0.02, 0.02, d) if with_y else None

    def call():
        rng = substream(42, "payload", d)
        res = smoothing._g_delta_mean(spec, x, 0.3, n, rng, want_se=want_se, y=y)
        return _hex(np.concatenate(res) if want_se else res), _stream_end(rng)

    blocked, whole = _streamed_and_whole(monkeypatch, call)
    assert blocked == whole


def test_payload_blocks_past_the_real_chunk(monkeypatch):
    # n > _CHUNK with the real chunk size: two chunks of many blocks
    spec = _spec("sawtooth", 2, "component-subsample")
    n = smoothing._CHUNK + 1001
    x = np.array([0.31, -0.22])

    def call():
        rng = substream(43, "past-chunk")
        mean, se = smoothing._g_delta_mean(spec, x, 0.3, n, rng, want_se=True)
        return _hex(mean), _hex(se), _stream_end(rng)

    blocked, whole = _streamed_and_whole(monkeypatch, call)
    assert blocked == whole


@pytest.mark.parametrize("row_stream", [False, True])
@pytest.mark.parametrize("where", ["inside a block", "a block's last row",
                                   "two, the second where the whole draw replaces the first"])
def test_zero_payload_rows_are_skipped_as_in_the_whole_chunk(monkeypatch, where, row_stream):
    # the quadratic's payload rows follow the chunk's m direction rows in the stream; a
    # block with a zero payload row skips it and draws one row more right after its draw,
    # and the blocks after it take the rows after that, as the whole-chunk draw does
    d = 8
    step = objectives._block_rows(d)
    m = 3 * step + 40
    # the zero rows, and the blocks that skip one
    zeros, skips = {"inside a block": ((m + step + 5,), [1]),
                    "a block's last row": ((m + 2 * step - 1,), [1]),
                    "two, the second where the whole draw replaces the first":
                        ((m + 7, 2 * m), [0, 3])}[where]
    spec = _spec("quadratic-smooth", d, None)
    x = substream(44, "zero-payload-x").uniform(-0.3, 0.3, d)
    stubs = []

    def call():
        stubs.append(_ZeroRowStream(d, *zeros))
        rng = _RowStream(stubs[-1], d) if row_stream else stubs[-1]
        mean, se = smoothing._g_delta_mean(spec, x, 0.3, m, rng, want_se=True)
        return _hex(mean), _hex(se), _hex(objectives._unit_rows(d, 5, rng))

    blocked, whole = _streamed_and_whole(monkeypatch, call)
    assert blocked == whole
    if not row_stream:
        # whole: W, the payload and one row per zero; blocked: W, then each block and
        # one row after each block that skips a zero
        assert stubs[1].shapes == [(m, d), (m, d)] + [(1, d)] * len(zeros) + [(5, d)]
        blocks = [[(k, d)] + [(1, d)] * skips.count(i)
                  for i, k in enumerate([step, step, step, m - 3 * step])]
        assert stubs[0].shapes == [(m, d)] + sum(blocks, []) + [(5, d)]


@pytest.mark.parametrize("with_y", [False, True])
def test_row_stream_quadratic_estimate_over_blocks(with_y):
    # a _RowStream-backed noisy quadratic estimate spanning several blocks draws its
    # directions whole and its payload rows by block from the stream, with the bytes and
    # generator end of the plain generator
    d = 8
    spec = _spec("quadratic-smooth", d, None)
    n = 3 * objectives._block_rows(d) + 11
    x = substream(45, "stream-x").uniform(-0.3, 0.3, d)
    y = x + 0.01 if with_y else None
    out = []
    for wrap in (False, True):
        rng = substream(45, "stream")
        src = _RowStream(rng, d) if wrap else rng
        res = smoothing._g_delta_mean(spec, x, 0.3, n, src, want_se=True, y=y)
        out.append((_hex(np.concatenate(res)), _hex(objectives._unit_rows(d, 5, src))))
    assert out[0] == out[1]


@pytest.mark.parametrize("problem,d,kind", NOISY + (("abs-linear", 8, "none"),
                                                    ("quadratic-smooth", 64, "none")))
def test_each_chunk_passes_its_rows_once_through_each_sampler(monkeypatch, problem, d, kind):
    # perfbench counts the rows of _sample_xi_batch, _sphere_rows and _sphere_batch calls
    # and replays their normal draws: per chunk each must still total the chunk's rows
    spec = catalog_make(problem, d, 0.0 if kind == "none" else 0.5, kind)
    step = objectives._block_rows(d)
    chunk = 3 * step + 1
    monkeypatch.setattr(smoothing, "_CHUNK", chunk)
    n = 2 * chunk + 2 * step + 7
    calls = []

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            calls.append((label, args[1]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(smoothing, "_sphere_batch", spy("W", smoothing._sphere_batch))
    monkeypatch.setattr(smoothing, "_sample_xi_batch", spy("xi", smoothing._sample_xi_batch))
    monkeypatch.setattr(objectives, "_sphere_rows", spy("rows", objectives._sphere_rows))
    x = substream(46, "spy-x", d).uniform(-0.3, 0.3, d)
    smoothing._g_delta_mean(spec, x, 0.3, n, substream(46, "spy", d), want_se=True)
    sizes = [chunk, chunk, n - 2 * chunk]
    noisy = spec.noise_kind != "none"
    want = {"W": sizes, "xi": sizes if noisy else [0] * 3,
            "rows": sizes if noisy and problem == "quadratic-smooth" else [0] * 3}
    # a direction draw belongs to the chunk of its first row, a payload draw to the
    # chunk whose directions were drawn last
    ends = np.cumsum(sizes).tolist()
    got = {label: [0] * len(sizes) for label in want}
    w_rows = 0
    for label, k in calls:
        row = w_rows if label == "W" else w_rows - 1
        got[label][next(i for i, end in enumerate(ends) if row < end)] += k
        if label == "W":
            w_rows += k
    assert got == want
    if noisy:
        # one whole direction draw per chunk, then its payload a block at a time
        assert [k for label, k in calls if label == "W"] == sizes
        assert max(k for label, k in calls if label == "xi") <= step + 1
