"""The row kernels of the estimator, by bytes.

``objectives._row_sums`` must give the bytes of ``np.add.reduce(v, axis=-1)``
on both sides of its switch, ``objectives._col_sums`` those of
``np.add.reduce(G, axis=0) + 0.0`` (and a static scan keeps every other axis-0
reduce out of the package), and ``smoothing._g_delta_rows`` must give, with
its point sets stacked into one ``_F_rows`` call, the bytes of one call per
set.  The stacked path rests on a property of numpy's matmul checked here
too: a (k, m, d) @ a gives each set the bytes of its own (m, d) @ a.
"""
import ast
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qzopt import catalog_make, substream
from qzopt import objectives, smoothing
from qzopt.objectives import _F_rows, _col_sums, _row_sums, _sample_xi_batch
from qzopt.smoothing import _STACK, _g_delta_mean, _g_delta_rows, _g_rows, _sphere_batch

# (problem, noise_scale, noise_kind): every catalog problem with each noise it takes
SPECS = (
    ("constant", 0.0, None),
    ("constant", 0.3, None),
    ("abs-linear", 0.0, None),
    ("abs-linear", 0.3, None),
    ("sawtooth", 0.0, None),
    ("sawtooth", 0.3, None),
    ("sawtooth", 0.0, "component-subsample"),
    ("quadratic-smooth", 0.0, None),
    ("quadratic-smooth", 0.5, None),
)
DIMS = (1, 2, 8, 64)
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 3e300, -3e300, 1.0, -2.5])


def _bytes(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _row_sum_inputs(d, rows, rng):
    yield rng.standard_normal((rows, d))
    # signed zeros, subnormals and values whose sums overflow to +-inf; row 0
    # is all -0.0, which reduce sums to +0.0
    v = rng.choice(SPECIALS, size=(rows, d))
    v[0] = -0.0
    yield v
    yield rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-300, 300, size=(rows, d))


@pytest.mark.parametrize("d", range(1, 129))
def test_row_sums_match_reduce(d):
    rng = np.random.default_rng(d)
    switch = 32 * d  # rows from which 2 <= d <= 8 take the column adds
    rows_list = {1, 2, 63, 64, 65, switch - 1, switch, switch + 1, 3 * switch}
    if 8 <= d < 16:  # d = 8's pairwise adds and reduce above it, at the benchmarks' estimate sizes too
        rows_list |= {16 * d, 178, 712, 900}
    for rows in sorted(rows_list):
        for v in _row_sum_inputs(d, rows, rng):
            assert _bytes(_row_sums(v)) == _bytes(np.add.reduce(v, axis=-1)), (d, rows)
            # stacked point sets, as _F_rows passes them
            v3 = v.reshape(1, rows, d).repeat(3, axis=0)
            assert _bytes(_row_sums(v3)) == _bytes(np.add.reduce(v3, axis=-1)), (d, rows)


def _reduce0(G):
    return np.add.reduce(G, axis=0) + 0.0


@pytest.mark.parametrize("d", range(1, 129))
def test_col_sums_match_reduce(d):
    rng = np.random.default_rng(1000 + d)
    for whole in _row_sum_inputs(d, 16385, rng):
        coefs = (rng.standard_normal(16385), rng.choice(SPECIALS, size=16385))
        for rows in (1, 2, 63, 64, 65, 8191, 8192, 8193, 16385):
            v = whole[:rows]  # a C-ordered prefix
            coef = coefs[rows % 2][:rows]
            carry = rng.choice(SPECIALS, size=d)
            with np.errstate(all="ignore"):  # inf - inf and overflowing products
                G = coef[:, None] * v
                assert _bytes(_col_sums(v)) == _bytes(_reduce0(v)), (d, rows)
                assert _bytes(_col_sums(v, coef)) == _bytes(_reduce0(G)), (d, rows)
                want = G.copy()
                want[0] += carry
                want = _reduce0(want)
                assert _bytes(_col_sums(v, coef, carry)) == _bytes(want), (d, rows)
                assert _bytes(_col_sums(G, carry=carry)) == _bytes(want), (d, rows)


# ---------------------------------------------------------------------------
# column sums over axis 0 go through objectives._col_sums only

SRC = Path(__file__).resolve().parent.parent / "src" / "qzopt"


def axis0_reduces(source: str) -> list[str]:
    """The np.add.reduce(..., axis=0) calls in source, axis given by keyword
    or position, as "function: line" with the enclosing function's name."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "reduce" and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "add":
            axis = [k.value for k in node.keywords if k.arg == "axis"] + node.args[1:2]
            if axis and isinstance(axis[0], ast.Constant) and axis[0].value == 0:
                out.append(f"{func}: {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return out


def test_scan_finds_axis0_reduces():
    src = textwrap.dedent("""\
        import numpy as np

        def f(G, v):
            a = np.add.reduce(G, axis=0)
            b = np.add.reduce(G, 0) + np.add.reduce(v, axis=-1)
            return a, b, np.add.reduce(G, axis=1), np.add.reduce(G)

        s = np.add.reduce(np.ones((2, 2)), axis=0)
        """)
    assert axis0_reduces(src) == ["f: 4", "f: 5", "<module>: 8"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_axis0_reduces_are_in_col_sums_only(path):
    # sum columns with objectives._col_sums, which takes no per-row calls
    found = axis0_reduces(path.read_text())
    if path.name == "objectives.py":
        assert found and all(f.startswith("_col_sums: ") for f in found), found
    else:
        assert found == []


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 64, 100])
def test_stacked_matvec_matches_one_matvec_per_set(d):
    # the platform property the stacked _F_rows relies on: numpy runs
    # (k, m, d) @ a as one matvec per set, where a flat (k * m, d) @ a
    # groups rows across the set boundaries
    rng = np.random.default_rng(100 + d)
    a = rng.standard_normal(d)
    for k in (2, 4):
        for m in (1, 2, 3, 5, 7, 63, 64, 65, 130, 513):
            X = rng.standard_normal((k, m, d))
            stacked = X @ a
            for i in range(k):
                assert _bytes(stacked[i]) == _bytes(X[i].copy() @ a), (k, m, i)


def _per_set_g_delta_rows(spec, x, delta, W, payload, y=None):
    """The two-point estimates with one _F_rows call per point set."""
    dW = delta * W

    def g(p):
        diff = _F_rows(spec, p + dW, payload)
        diff -= _F_rows(spec, p - dW, payload)
        diff *= spec.d / (2.0 * delta)
        return diff[:, None] * W

    return g(x) if y is None else g(x) - g(y)


def _stack_sizes(d, k):
    bound = _STACK // (k * d)  # the largest m that is stacked
    return sorted({1, 2, 3, 5, 63, 64, 65, bound - 1, bound, bound + 1, 712, 900} - {0})


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("problem,noise,kind", SPECS)
def test_stacked_g_delta_rows_match_per_set_calls(problem, noise, kind, d):
    spec = catalog_make(problem, d, noise, kind)
    rng = substream(23, "stacked", d)
    x = spec.x0 + rng.uniform(-0.4, 0.4, d)
    y = x + rng.uniform(-0.02, 0.02, d)
    for with_y in (False, True):
        for m in _stack_sizes(d, 4 if with_y else 2):
            W = _sphere_batch(d, m, rng)
            payload = _sample_xi_batch(spec, m, rng)
            yy = y if with_y else None
            got = _g_rows(W, _g_delta_rows(spec, x, 0.3, W, payload, yy))
            want = _per_set_g_delta_rows(spec, x, 0.3, W, payload, yy)
            assert got.shape == (m, d)
            assert _bytes(got) == _bytes(want), (with_y, m)


@pytest.mark.parametrize("with_y", [False, True])
@pytest.mark.parametrize("problem,noise,kind", [("sawtooth", 0.0, None),
                                                ("quadratic-smooth", 0.5, None),
                                                ("abs-linear", 0.0, None)])
def test_F_rows_per_estimate_are_two_or_four_per_draw(monkeypatch, problem, noise, kind, with_y):
    d = 2 if problem == "sawtooth" else 8
    spec = catalog_make(problem, d, noise, kind)
    x = spec.x0 + 0.13
    y = x + 0.01 if with_y else None
    calls = []

    def counting(spec, X, payload, sets=1):
        calls.append((X.shape[0], sets))
        return _F_rows(spec, X, payload, sets)

    monkeypatch.setattr(smoothing, "_F_rows", counting)
    monkeypatch.setattr(smoothing, "_CHUNK", 20_000)
    per_draw = 4 if with_y else 2
    # a stacked block, a block of per-set calls, blocked chunks, two chunks
    for n in (5, 200, 4100, 20_017):
        calls.clear()
        _g_delta_mean(spec, x, 0.3, n, substream(24, "rows", n), y=y)
        assert sum(rows for rows, _ in calls) == per_draw * n, n
        if per_draw * n * d <= _STACK:
            assert calls == [(per_draw * n, per_draw)]


def test_single_block_mean_has_the_loop_signed_zeros():
    # every estimate of the constant problem is +-0.0, and the loop, which adds
    # each chunk's sum into zeros, returns +0.0 for a column of -0.0
    spec = catalog_make("constant", 3)
    x = np.zeros(3)
    for seed in range(8):
        mean = _g_delta_mean(spec, x, 0.3, 1, substream(25, "zeros", seed))
        assert _bytes(mean) == _bytes(np.zeros(3))


def test_ball_marginal_norm_is_computed_once_per_d(monkeypatch):
    from scipy import special

    beta = special.beta
    seen = []
    monkeypatch.setattr(special, "beta", lambda a, b: seen.append(b) or beta(a, b))
    smoothing._ball_marginal_norm.cache_clear()
    try:
        spec = catalog_make("sawtooth", 2)
        params = smoothing.SmoothingParams(0.3)
        first = smoothing.f_delta(spec, np.array([0.1, 0.4]), params)
        again = smoothing.f_delta(spec, np.array([0.1, 0.4]), params)
    finally:
        smoothing._ball_marginal_norm.cache_clear()
    assert first == again
    assert len(seen) == 1


def test_row_sums_do_not_change_row_norms_or_F():
    # the callers of _row_sums keep the bytes of their reduce expressions
    rng = np.random.default_rng(5)
    for d in (2, 3, 7):
        for rows in (4, 300, 20_000):
            v = rng.standard_normal((rows, d))
            assert _bytes(objectives._row_norms(v)) == _bytes(np.sqrt(np.add.reduce(v * v, axis=1)))
            saw = catalog_make("sawtooth", d)
            want = np.add.reduce(objectives._dist_to_int(v), axis=1) / np.sqrt(d)
            assert _bytes(objectives._f_rows(saw, v)) == _bytes(want)
            quad = catalog_make("quadratic-smooth", d, 0.5)
            payload = _sample_xi_batch(quad, rows, rng)
            want = objectives._f_rows(quad, v) + np.add.reduce(v * payload, axis=1)
            assert _bytes(_F_rows(quad, v, payload)) == _bytes(want)
