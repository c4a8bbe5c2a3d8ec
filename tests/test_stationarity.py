import math
import types

import numpy as np
import pytest
from scipy import special, stats

from qzopt import (
    SmoothingParams,
    catalog_make,
    exact_goldstein_distance,
    goldstein_residual,
    substream,
    verify_stationary,
)
from qzopt import harness
from qzopt import stationarity as st_mod

SM = SmoothingParams(0.1)


def test_report_validation():
    spec = catalog_make("sawtooth", 2)
    rng = substream(0, "rv")
    with pytest.raises(ValueError):
        goldstein_residual(spec, np.zeros(2), SM, 1, 0.95, rng)
    with pytest.raises(ValueError):
        goldstein_residual(spec, np.zeros(2), SM, 100, 1.0, rng)
    with pytest.raises(ValueError):
        goldstein_residual(spec, np.zeros(3), SM, 100, 0.95, rng)
    rep = goldstein_residual(spec, np.zeros(2), SM, 500, 0.9, rng)
    assert rep.n == 500 and rep.confidence == 0.9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_raises(bad):
    spec = catalog_make("abs-linear", 2)
    point = np.array([bad, 0.1])
    with pytest.raises(ValueError, match="finite"):
        goldstein_residual(spec, point, SM, 100, 0.95, substream(0, "nf"))
    with pytest.raises(ValueError, match="finite"):
        verify_stationary(spec, point, SM, 0.1, 0.95, substream(0, "nf"))


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
def test_verify_rejects_bad_eps_before_any_draw(eps):
    # nan used to pass the eps <= 0 check and double n up to the 10^7-draw cap
    rng = substream(0, "eps")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        verify_stationary(catalog_make("abs-linear", 2), np.array([0.01, 0.02]), SM, eps,
                          0.95, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("problem,d", [("constant", 2), ("abs-linear", 2), ("sawtooth", 1),
                                       ("quadratic-smooth", 2)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_distance_rejects_non_finite_point(problem, d, bad):
    # abs-linear at (nan, 0.1) used to answer 1.0
    point = np.array([bad, 0.1][:d])
    with pytest.raises(ValueError, match="point must be finite"):
        exact_goldstein_distance(catalog_make(problem, d), point, 0.1)


def test_residual_far_from_kink():
    # gradient norm is exactly 1 out there; the estimate must cover it
    spec = catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    x = np.array([3.0, 0.0])
    rep = goldstein_residual(spec, x, SM, 10**5, 0.95, substream(5, "resA"))
    assert exact_goldstein_distance(spec, x, SM.delta) == 1.0
    assert abs(rep.estimate - 1.0) <= rep.half_width
    assert rep.half_width < 0.01


def test_residual_at_symmetric_kink_is_exact_zero():
    spec = catalog_make("sawtooth", 1)
    rep = goldstein_residual(spec, np.zeros(1), SmoothingParams(0.25), 10**5, 0.95,
                             substream(5, "resB"))
    assert rep.estimate == 0.0 and rep.half_width == 0.0
    assert exact_goldstein_distance(spec, np.zeros(1), 0.25) == 0.0


def test_exact_distance_abs_linear_and_sawtooth():
    spec = catalog_make("abs-linear", 3)
    a = spec.direction
    assert exact_goldstein_distance(spec, 0.05 * a, 0.1) == 0.0
    assert exact_goldstein_distance(spec, 3.0 * a, 0.1) == 1.0
    saw = catalog_make("sawtooth", 1)
    assert exact_goldstein_distance(saw, np.array([0.52]), 0.05) == 0.0
    assert exact_goldstein_distance(saw, np.array([0.25]), 0.3) == 0.0
    assert exact_goldstein_distance(saw, np.array([0.25]), 0.2) == 1.0
    # no closed form for the multi-d sawtooth hull
    assert exact_goldstein_distance(catalog_make("sawtooth", 2), np.zeros(2), 0.1) is None
    with pytest.raises(ValueError):
        exact_goldstein_distance(saw, np.array([0.25]), 0.0)


def test_exact_distance_quadratic_matches_boundary_search():
    spec = catalog_make("quadratic-smooth", 2)
    x = np.array([1.0, 1.0])
    delta = 0.3
    got = exact_goldstein_distance(spec, x, delta)
    # minimizer sits on the sphere ||u|| = delta when x is infeasible
    ang = np.linspace(0.0, 2.0 * math.pi, 2 * 10**6, endpoint=False)
    U = delta * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    brute = np.linalg.norm((x + U) * spec.lambdas, axis=1).min()
    assert got == pytest.approx(float(brute), abs=1e-6)
    assert exact_goldstein_distance(spec, np.array([0.05, 0.0]), 0.1) == 0.0
    # larger delta can only shrink the distance
    assert exact_goldstein_distance(spec, x, 0.5) <= got


def test_residual_soundness_probes():
    viol = 0
    prng = substream(6, "sound")
    for k in range(1000):
        name = ["abs-linear", "sawtooth", "quadratic-smooth"][int(prng.integers(3))]
        d = 1 if name == "sawtooth" else int(prng.choice([1, 2, 4]))
        spec = catalog_make(name, d)
        x = prng.normal(size=d)
        delta = float(prng.uniform(0.05, 0.5))
        r = goldstein_residual(spec, x, SmoothingParams(delta), 2000, 0.95,
                               substream(6, "soundr", k))
        exact = exact_goldstein_distance(spec, x, delta)
        if exact is not None and r.estimate + r.half_width < exact - 1e-9:
            viol += 1
    assert viol == 0


def test_half_width_shrinks_like_root_n():
    spec = catalog_make("sawtooth", 4)
    hws = [goldstein_residual(spec, np.array([0.2, 0.3, 0.1, 0.4]), SM, n, 0.95,
                              substream(7, "cons", n)).half_width
           for n in (10**3, 10**4, 10**5)]
    assert 2.7 <= hws[0] / hws[1] <= 3.6
    assert 2.7 <= hws[1] / hws[2] <= 3.6


def test_verify_stationary_verdicts():
    assert verify_stationary(catalog_make("constant", 3), np.zeros(3), SM, 0.5, 0.95,
                             substream(8, "v1")) == "accepted"
    speca = catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    assert verify_stationary(speca, np.array([3.0, 0.0]), SM, 0.5, 0.95,
                             substream(8, "v2")) == "rejected"
    assert verify_stationary(catalog_make("sawtooth", 1), np.zeros(1), SM, 0.2, 0.95,
                             substream(8, "v3")) == "accepted"
    with pytest.raises(ValueError):
        verify_stationary(speca, np.zeros(2), SM, 0.0, 0.95, substream(8, "v4"))


def test_verify_stationary_inconclusive_at_threshold(monkeypatch):
    # eps equal to the true residual: the interval straddles it forever,
    # so the verifier must give up once it hits the sample cap
    monkeypatch.setattr(st_mod, "VERIFY_N_CAP", 2 * 10**4)
    speca = catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    got = verify_stationary(speca, np.array([3.0, 0.0]), SM, 1.0, 0.95,
                            substream(8, "v5"))
    assert got == "inconclusive"


@pytest.mark.parametrize("estimate, half_width, eps, want", [
    (0.25, 0.125, 0.375, "accepted"),  # estimate + half_width == eps
    (0.5, 0.125, 0.375, "inconclusive"),  # estimate - half_width == eps
])
def test_interval_verdict_boundaries_agree(monkeypatch, estimate, half_width, eps, want):
    report = st_mod.ResidualReport(estimate=estimate, half_width=half_width, n=2,
                                   confidence=0.95)
    assert st_mod._interval_verdict(report, eps) == want
    run = types.SimpleNamespace(budget_exceeded=False, residual=report)
    assert harness._verdict(run, eps) == want
    monkeypatch.setattr(st_mod, "goldstein_residual", lambda *args: report)
    assert verify_stationary(catalog_make("sawtooth", 2), np.zeros(2), SM, eps, 0.95,
                             substream(8, "vb")) == want


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_ndtri_is_norm_ppf_bit_for_bit(confidence):
    # goldstein_residual's z has special.ndtri's bytes (port test below), which are norm.ppf's
    d = np.arange(1, 2049)
    q = 1.0 - (1.0 - confidence) / (2.0 * d)
    assert np.array_equal(special.ndtri(q), stats.norm.ppf(q))


def _ulps_around(v, k=8):
    """v and the k floats on each side of it."""
    out = [v]
    lo = hi = v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _tail_x(y):
    return math.sqrt(-2.0 * math.log(y))


def test_ndtri_port_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20240611)
    bulk = np.concatenate([
        rng.uniform(0.0, 1.0, 40_000),                  # mostly the central branch
        10.0 ** rng.uniform(-323.0, -0.87, 40_000),    # lower tails, both branches
        1.0 - 10.0 ** rng.uniform(-16.0, -0.87, 40_000),  # upper tails, both branches
    ])
    switch = 1.0 - st_mod._EXP_M2
    x8 = math.exp(-32.0)  # near the switch at sqrt(-2 log y) = 8; find the float where it falls
    while _tail_x(x8) < 8.0:
        x8 = math.nextafter(x8, 0.0)
    while _tail_x(x8) >= 8.0:
        x8 = math.nextafter(x8, 1.0)
    edges = (_ulps_around(switch) + _ulps_around(st_mod._EXP_M2) + _ulps_around(x8)
             + _ulps_around(1.0 - x8) + [5e-324, 1.0 - 2.0**-53, 0.5])
    conf = np.array([0.9, 0.95, 0.99, 0.999])[:, None]
    residual_z = (1.0 - (1.0 - conf) / (2.0 * np.arange(1, 5000))).ravel()
    special_values = [0.0, 1.0, math.nan, -0.25, 1.25, -math.inf, math.inf]
    y = np.concatenate([bulk, edges, residual_z, special_values])
    got = np.array([st_mod._ndtri(float(v)) for v in y])
    with np.errstate(invalid="ignore"):
        want = special.ndtri(y)
    nan = np.isnan(want)  # nan payloads and signs carry no meaning; all else compares by bytes
    assert np.array_equal(np.isnan(got), nan) and nan.sum() == 5
    assert got[~nan].tobytes() == want[~nan].tobytes()
    # the points around x8 reach both tail branches
    tail = [_tail_x(v) for v in _ulps_around(x8)]
    assert min(tail) < 8.0 <= max(tail)
    assert st_mod._ndtri(0.0) == -math.inf and st_mod._ndtri(1.0) == math.inf
    assert all(math.isnan(st_mod._ndtri(v)) for v in (math.nan, -0.25, 1.25))
