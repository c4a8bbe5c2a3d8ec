import math
import tracemalloc

import numpy as np
import pytest

from qzopt import (
    SmoothingParams,
    XiSample,
    catalog_make,
    eval_f,
    f_delta,
    g_delta,
    grad_f_delta_ref,
    sample_sphere,
    sample_xi,
    substream,
)
from qzopt import smoothing as sm_mod


def test_smoothing_params_validation():
    assert SmoothingParams(0.1).delta == 0.1
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            SmoothingParams(bad)


def test_sphere_is_unit_norm():
    rng = substream(0, "sph")
    for d in (1, 2, 7, 33):
        for _ in range(20):
            w = sample_sphere(d, rng)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            sample_sphere(bad, rng)


def test_sphere_d1_is_sign_flip():
    rng = substream(1, "sph1")
    draws = {float(sample_sphere(1, rng)[0]) for _ in range(64)}
    assert draws == {-1.0, 1.0}


def test_sphere_coordinate_symmetry():
    rng = substream(2, "sph3")
    n = 10**5
    W = np.array([sample_sphere(3, rng) for _ in range(n)])
    assert np.all(np.abs(W.mean(axis=0)) <= 4.0 / math.sqrt(n))


def test_g_delta_two_point_identity():
    # away from the kink the abs-linear numerator is exactly 2*delta*<a,w>
    spec = catalog_make("abs-linear", 3)
    params = SmoothingParams(0.1)
    rng = substream(4, "gid")
    x = np.array([2.0, 1.0, -0.5])
    for _ in range(10):
        w = sample_sphere(3, rng)
        g = g_delta(spec, x, params, w, XiSample(None))
        np.testing.assert_allclose(g, 3.0 * float(spec.direction @ w) * w, atol=1e-12)

    czero = g_delta(catalog_make("constant", 3), x, params, w, XiSample(None))
    np.testing.assert_array_equal(czero, np.zeros(3))
    with pytest.raises(ValueError):
        g_delta(spec, np.zeros(2), params, w, XiSample(None))


def test_f_delta_closed_values():
    saw1 = catalog_make("sawtooth", 1)
    assert f_delta(saw1, np.zeros(1), SmoothingParams(1.0)) == pytest.approx(0.25, abs=1e-10)
    ab1 = catalog_make("abs-linear", 1)
    assert f_delta(ab1, np.zeros(1), SmoothingParams(1.0)) == pytest.approx(0.5, abs=1e-12)
    # |<a,x>| >= delta wipes out the kink entirely
    ab3 = catalog_make("abs-linear", 3)
    x = np.array([1.0, 1.0, 1.0])
    assert f_delta(ab3, x, SmoothingParams(0.2)) == pytest.approx(math.sqrt(3), abs=1e-12)
    q2 = catalog_make("quadratic-smooth", 2)
    got = f_delta(q2, np.array([1.0, 1.0]), SmoothingParams(0.3))
    assert got == pytest.approx(1.5 + 0.09 * 3.0 / 8.0, abs=1e-12)
    assert f_delta(catalog_make("constant", 2), np.zeros(2), SmoothingParams(0.3)) == 0.0


def test_f_delta_closed_matches_mc():
    rng_probe = substream(5, "fdprobe")
    for name in ("abs-linear", "sawtooth", "quadratic-smooth"):
        spec = catalog_make(name, 3)
        x = rng_probe.normal(size=3) * 0.6
        params = SmoothingParams(0.4)
        closed = f_delta(spec, x, params)
        est, se = f_delta(spec, x, params, mode="mc", n=2 * 10**5,
                          rng=substream(5, f"fdmc-{name}"))
        assert abs(closed - est) <= 4.5 * max(se, 1e-12)


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_f_delta_abs_linear_matches_mpmath(d):
    # E|c + delta t| over the ball's one-dimensional marginal, integrated at 40
    # digits on either side of the kink; c just inside delta is the hard case
    mpmath = pytest.importorskip("mpmath")
    spec = catalog_make("abs-linear", d, direction=np.eye(d)[0])
    for delta in (0.1, 0.3, 0.7):
        for c in (0.0, 0.25 * delta, -0.6 * delta, np.nextafter(delta, 0.0), 1e-19):
            with mpmath.workdps(40):
                cm, dm, e = mpmath.mpf(float(c)), mpmath.mpf(delta), mpmath.mpf(d - 1) / 2
                mass = mpmath.quad(lambda t: abs(cm + dm * t) * (1 - t * t) ** e,
                                   [-1, -cm / dm, 1])
                want = mass / mpmath.beta(mpmath.mpf(1) / 2, e + 1)
            got = f_delta(spec, np.eye(d)[0] * c, SmoothingParams(delta))
            assert abs(got - float(want)) <= 2e-15 * float(want), (delta, c)


def test_f_delta_mode_errors():
    spec = catalog_make("sawtooth", 2)
    params = SmoothingParams(0.1)
    with pytest.raises(ValueError):
        f_delta(spec, np.zeros(2), params, mode="mc")
    with pytest.raises(ValueError):
        f_delta(spec, np.zeros(2), params, mode="mc", n=100)
    with pytest.raises(ValueError):
        f_delta(spec, np.zeros(2), params, mode="quadrature")


def test_smoothing_bias_bounded_by_delta_L():
    rng = substream(6, "bias")
    for name in ("abs-linear", "sawtooth"):
        spec = catalog_make(name, 2)
        for _ in range(20):
            x = rng.normal(size=2)
            delta = float(rng.uniform(0.05, 0.9))
            gap = abs(f_delta(spec, x, SmoothingParams(delta)) - eval_f(spec, x))
            assert gap <= delta * spec.L + 1e-9


def test_grad_ref_matches_analytic_far_from_kink():
    spec = catalog_make("abs-linear", 4)
    x = spec.x0 * 3.0  # <a,x> = 3, no kink inside the delta ball
    mean, se = grad_f_delta_ref(spec, x, SmoothingParams(0.2), 10**5, substream(7, "gref"))
    assert np.all(np.abs(mean - spec.direction) <= 4 * se)
    with pytest.raises(ValueError):
        grad_f_delta_ref(spec, x, SmoothingParams(0.2), 1, substream(7, "gref"))


def test_half_integer_sawtooth_start_is_reflection_fixed():
    # at the all-halves point the two-point numerator cancels to rounding
    # noise (~1e-16), which pins the canonical start of the non-convex
    # benchmark: steps of that size round back onto 0.5 exactly
    spec = catalog_make("sawtooth", 8)
    mean, se = grad_f_delta_ref(spec, np.full(8, 0.5), SmoothingParams(0.1), 5000,
                                substream(8, "frozen"))
    assert np.all(np.abs(mean) <= 1e-15)
    assert np.all(se <= 1e-15)
    assert np.float64(0.5) - 0.025 * float(np.abs(mean).max()) == 0.5


def test_g_delta_mean_chunking(monkeypatch):
    spec = catalog_make("abs-linear", 2)
    x = np.array([1.5, 0.2])
    monkeypatch.setattr(sm_mod, "_CHUNK", 17)
    mean, se = sm_mod._g_delta_mean(spec, x, 0.1, 400, substream(9, "chunk"), want_se=True)
    assert np.all(np.abs(mean - spec.direction) <= 4 * se)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_g_delta_mean_peak_memory():
    # the draws are the only chunk-sized array; the estimates are formed block by block
    spec = catalog_make("abs-linear", 64)
    n = 80_000
    x = 0.03 * spec.direction
    peak = _peak_bytes(
        lambda: sm_mod._g_delta_mean(spec, x, 0.3, n, substream(18, "peak"), want_se=True))
    assert peak < n * spec.d * 8 + 4 * 2**20


def test_noise_free_g_delta_mean_peak_memory():
    # a noise-free chunk draws its directions block by block, so no n x d array is built
    # (the whole-chunk draw alone is n * d * 8 = 156 MiB here)
    spec = catalog_make("abs-linear", 1024)
    n = 20_000
    x = 0.03 * spec.direction
    peak = _peak_bytes(
        lambda: sm_mod._g_delta_mean(spec, x, 0.3, n, substream(18, "streamed-peak"),
                                     want_se=True))
    assert peak < 4 * 2**20


def test_f_delta_mc_peak_memory():
    # the ball points are scaled and shifted in place, so the directions are the only n x d array
    spec = catalog_make("abs-linear", 64)
    n = 80_000
    x = 0.03 * spec.direction
    peak = _peak_bytes(lambda: f_delta(spec, x, SmoothingParams(0.3), mode="mc", n=n,
                                       rng=substream(18, "mc-peak")))
    assert peak < n * spec.d * 8 + 4 * 2**20


def test_f_delta_inherits_lipschitz_constant():
    rng = substream(10, "flip")
    for name in ("abs-linear", "sawtooth", "quadratic-smooth"):
        spec = catalog_make(name, 2)
        for _ in range(350):
            x = rng.normal(size=2)
            if np.isfinite(spec.domain_radius):
                x *= 1.4 / max(1.4, float(np.linalg.norm(x)))
            y = x + rng.normal(size=2) * rng.uniform(0.01, 0.5)
            if np.isfinite(spec.domain_radius):
                y *= 1.8 / max(1.8, float(np.linalg.norm(y)))
            delta = float(rng.uniform(0.05, 0.5))
            p = SmoothingParams(delta)
            gap = abs(f_delta(spec, x, p) - f_delta(spec, y, p))
            assert gap <= spec.L * np.linalg.norm(x - y) + 1e-9


def test_surrogate_gradient_is_L_delta_smooth():
    # the smoothed gradient's modulus sqrt(d) L / delta, probed by MC
    # references with a 5-sigma statistical allowance
    rng = substream(11, "gls")
    for name in ("abs-linear", "sawtooth"):
        spec = catalog_make(name, 2)
        for k in range(8):
            x = rng.normal(size=2)
            y = x + rng.normal(size=2) * 0.15
            delta = float(rng.uniform(0.1, 0.4))
            p = SmoothingParams(delta)
            gx, sx = grad_f_delta_ref(spec, x, p, 10**5, substream(11, f"glsa-{name}", k))
            gy, sy = grad_f_delta_ref(spec, y, p, 10**5, substream(11, f"glsb-{name}", k))
            l_delta = math.sqrt(2) * spec.L / delta
            slack = 5.0 * math.sqrt(float(sx @ sx + sy @ sy))
            assert np.linalg.norm(gx - gy) <= l_delta * np.linalg.norm(x - y) + slack


def test_grad_ref_agrees_with_central_differences():
    # f_delta is piecewise quadratic along coordinates for every catalog
    # problem, so central differences are exact away from the second
    # derivative's breakpoints and only MC noise remains
    h = 0.02
    n = 2 * 10**5
    cases = ([("abs-linear", 1)] * 5 + [("sawtooth", 1)] * 5
             + [("abs-linear", 2)] * 5 + [("quadratic-smooth", 2)] * 5)
    rng = substream(12, "cdprobes")
    for k, (name, d) in enumerate(cases):
        spec = catalog_make(name, d)
        x = rng.normal(size=d) * 0.4
        delta = float(rng.uniform(0.15, 0.4))
        p = SmoothingParams(delta)
        ref, ref_se = grad_f_delta_ref(spec, x, p, n, substream(12, "cdref", k))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fp, sp = f_delta(spec, x + e, p, mode="mc", n=n, rng=substream(12, "cdp", k, i))
            fm, sm = f_delta(spec, x - e, p, mode="mc", n=n, rng=substream(12, "cdm", k, i))
            cd = (fp - fm) / (2 * h)
            cd_se = math.sqrt(sp**2 + sm**2) / (2 * h)
            z = abs(cd - ref[i]) / math.sqrt(cd_se**2 + ref_se[i] ** 2)
            assert z < 5.0, (name, d, k, i, z)


def test_paired_draws_are_mean_square_smooth():
    # shared (w, xi) make the two-point difference d L ||x-y|| / delta
    # almost surely, hence also in mean square
    rng = substream(13, "mss")
    for name in ("abs-linear", "sawtooth", "quadratic-smooth"):
        spec = catalog_make(name, 2, noise_scale=0.1)
        for _ in range(340):
            x = rng.normal(size=2)
            if np.isfinite(spec.domain_radius):
                x *= 1.2 / max(1.2, float(np.linalg.norm(x)))
            y = x + rng.normal(size=2) * 0.1
            if np.isfinite(spec.domain_radius):
                y *= 1.8 / max(1.8, float(np.linalg.norm(y)))
            delta = float(rng.uniform(0.05, 0.5))
            p = SmoothingParams(delta)
            diffs = []
            for _ in range(8):
                w = sample_sphere(2, rng)
                xi = sample_xi(spec, rng)
                diffs.append(np.sum((g_delta(spec, x, p, w, xi)
                                     - g_delta(spec, y, p, w, xi)) ** 2))
            bound = (2 * spec.L / delta) ** 2 * float(np.sum((x - y) ** 2))
            assert np.mean(diffs) <= bound + 1e-9


@pytest.mark.parametrize("name", ["abs-linear", "sawtooth"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_f_delta_and_reference_reject_non_finite_point(name, bad):
    # abs-linear at (nan, 0.01) used to return nan, sawtooth closed mode a
    # cryptic ValueError or OverflowError, grad_f_delta_ref NaN vectors
    spec = catalog_make(name, 2)
    point = np.array([bad, 0.01])
    sm = SmoothingParams(0.1)
    with pytest.raises(ValueError, match="point must be finite"):
        f_delta(spec, point, sm)
    with pytest.raises(ValueError, match="point must be finite"):
        f_delta(spec, point, sm, mode="mc", n=10, rng=substream(0, "nf"))
    with pytest.raises(ValueError, match="point must be finite"):
        grad_f_delta_ref(spec, point, sm, 10, substream(0, "nf"))


def _dist_bits(u: float) -> tuple[str, str]:
    return abs(math.remainder(u, 1.0)).hex(), abs(u - round(u)).hex()


def test_sawtooth_integrand_distance_is_exact():
    # the quadrature's distance to Z, abs(math.remainder(u, 1.0)), has the
    # bytes of abs(u - round(u)): nearest integer, ties to even, exact subtraction
    big = 2.0 ** 52
    cases = [k + 0.5 for k in range(-6, 6)] + [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
    for edge in (big, -big):
        cases += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0 * edge),
                  edge - 0.5, 2.0 * edge, math.nextafter(2.0 * edge, 0.0)]
    rng = np.random.default_rng(0)
    cases += (rng.uniform(-1.0, 1.0, 10**5) * 2.0 ** rng.integers(-30, 60, 10**5)).tolist()
    for u in cases:
        got, want = _dist_bits(u)
        assert got == want, u


def test_sawtooth_f_delta_signed_zero_coordinates():
    # -0.0 and 0.0 coordinates give the same smoothed bytes
    coord = sm_mod._sawtooth_coord_smoothed
    for d in (1, 2, 4):
        spec = catalog_make("sawtooth", d)
        for delta in (0.1, 0.3):
            sm = SmoothingParams(delta)
            assert coord(-0.0, delta, d).hex() == coord(0.0, delta, d).hex()
            neg = np.resize(np.array([-0.0, 0.37]), d)
            assert f_delta(spec, np.abs(neg), sm).hex() == f_delta(spec, neg, sm).hex()
