import math

import numpy as np
import pytest

from qzopt import (
    CATALOG_NAMES,
    CostModel,
    ObjectiveSpec,
    QueryLedger,
    XiSample,
    catalog_make,
    estimate_sgrad,
    eval_F,
    eval_f,
    sample_xi,
    substream,
)
from qzopt.objectives import _F_rows, _f_rows, _sample_xi_batch


def test_constant_is_zero_everywhere():
    spec = catalog_make("constant", 3)
    assert spec.f_star == 0.0
    rng = substream(0, "probe")
    for _ in range(5):
        x = rng.normal(size=3)
        assert eval_f(spec, x) == 0.0
        assert eval_F(spec, x, sample_xi(spec, rng)) == 0.0


def test_sawtooth_values():
    spec = catalog_make("sawtooth", 2)
    assert spec.L == 1.0
    assert eval_f(spec, np.array([0.5, 0.5])) == pytest.approx(1.0 / math.sqrt(2))
    assert eval_f(catalog_make("sawtooth", 1), np.array([0.5])) == 0.5
    # periodic with integer-lattice zeros
    assert eval_f(spec, np.array([2.0, -3.0])) == 0.0


def test_abs_linear_values():
    spec = catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    assert eval_f(spec, np.array([3.0, 7.0])) == 3.0
    assert eval_F(spec, np.array([2.0, 5.0]), XiSample(None)) == 2.0


def test_quadratic_values():
    spec = catalog_make("quadratic-smooth", 2)
    np.testing.assert_array_equal(spec.lambdas, [1.0, 2.0])
    assert eval_f(spec, np.array([1.0, 1.0])) == 1.5


def test_additive_offset_shifts_value():
    spec = catalog_make("sawtooth", 1, noise_scale=0.1)
    assert eval_F(spec, np.array([0.25]), XiSample(0.05)) == pytest.approx(0.30)


def test_catalog_rejects_bad_args():
    with pytest.raises(ValueError):
        catalog_make("himmelblau", 2)
    with pytest.raises(ValueError):
        catalog_make("sawtooth", 0)
    # True used to die in a numpy TypeError
    for name in CATALOG_NAMES:
        for bad in (True, 2.0, 2.5, "2"):
            with pytest.raises(ValueError, match="d must be a positive integer"):
                catalog_make(name, bad)
    with pytest.raises(ValueError):
        catalog_make("sawtooth", 2, noise_scale=-0.1)
    for name in CATALOG_NAMES:
        for bad in (math.nan, math.inf):
            # nan used to build a noise-free problem (L = nan on the quadratic)
            with pytest.raises(ValueError, match="noise_scale must be non-negative and finite"):
                catalog_make(name, 2, noise_scale=bad)
    with pytest.raises(ValueError, match="noise_scale"):
        ObjectiveSpec(name="sawtooth", d=2, L=1.0, noise_kind="none", noise_scale=math.nan,
                      f_star=0.0, delta_0=0.0, x0=np.zeros(2))
    with pytest.raises(ValueError):
        catalog_make("abs-linear", 2, direction=np.zeros(2))
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]):
        # [nan, 1] used to build an objective whose f is nan everywhere
        with pytest.raises(ValueError, match="direction must be finite"):
            catalog_make("abs-linear", 2, direction=np.array(bad))
    with pytest.raises(ValueError):
        catalog_make("abs-linear", 2, noise_scale=0.1, noise_kind="component-subsample")
    # an unknown name used to be reported as a noise-kind mismatch
    with pytest.raises(ValueError, match="unknown catalog problem 'nope'"):
        catalog_make("nope", 2, 0.5, "component-subsample")
    # a direction used to be dropped silently by every problem but abs-linear
    for name in CATALOG_NAMES:
        if name != "abs-linear":
            with pytest.raises(ValueError, match="direction is only defined for abs-linear"):
                catalog_make(name, 2, direction=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        eval_f(catalog_make("sawtooth", 2), np.zeros(3))


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eval_f_rejects_non_finite_point(name, bad):
    # abs-linear at (nan, 0.1) used to return nan
    with pytest.raises(ValueError, match="point must be finite"):
        eval_f(catalog_make(name, 2), np.array([bad, 0.1]))


def test_canonical_start_matches_documented_gap():
    for name in CATALOG_NAMES:
        spec = catalog_make(name, 4)
        assert eval_f(spec, spec.x0) - spec.f_star == pytest.approx(spec.delta_0)
    assert catalog_make("sawtooth", 4).delta_0 == 1.0
    assert catalog_make("abs-linear", 4).delta_0 == 1.0
    assert catalog_make("quadratic-smooth", 4).delta_0 == pytest.approx(0.75)


def test_xi_reproducible_and_bounded():
    spec = catalog_make("sawtooth", 3, noise_scale=0.1)
    a = sample_xi(spec, substream(3, "xi", 5))
    b = sample_xi(spec, substream(3, "xi", 5))
    assert a.payload == b.payload
    draws = np.array([sample_xi(spec, substream(3, "xi", k)).payload for k in range(2000)])
    assert np.all(np.abs(draws) <= 0.1)
    assert abs(draws.mean()) < 4 * draws.std() / math.sqrt(len(draws))

    none_spec = catalog_make("sawtooth", 3)
    assert sample_xi(none_spec, substream(0, "xi")).payload is None


def _pairs_in_domain(spec, n, rng):
    X = rng.normal(size=(n, spec.d))
    Y = rng.normal(size=(n, spec.d))
    if np.isfinite(spec.domain_radius):
        r = 0.9 * spec.domain_radius
        X *= r / np.maximum(r, np.linalg.norm(X, axis=1))[:, None]
        Y *= r / np.maximum(r, np.linalg.norm(Y, axis=1))[:, None]
    return X, Y


@pytest.mark.parametrize("name,noise_kind", [
    ("constant", None),
    ("abs-linear", None),
    ("sawtooth", None),
    ("sawtooth", "component-subsample"),
    ("quadratic-smooth", None),
])
def test_per_sample_lipschitz_bound(name, noise_kind):
    scale = 0.1 if noise_kind else 0.0
    spec = catalog_make(name, 4, noise_scale=scale, noise_kind=noise_kind)
    rng = substream(11, f"lip-{name}-{noise_kind}")
    X, Y = _pairs_in_domain(spec, 10**4, rng)
    payload = _sample_xi_batch(spec, 10**4, rng)
    gap = np.abs(_F_rows(spec, X, payload) - _F_rows(spec, Y, payload))
    assert np.all(gap <= spec.L * np.linalg.norm(X - Y, axis=1) + 1e-12)


@pytest.mark.parametrize("name,noise_kind", [
    ("abs-linear", "additive-offset"),
    ("sawtooth", "additive-offset"),
    ("sawtooth", "component-subsample"),
    ("quadratic-smooth", "additive-offset"),
])
def test_noise_is_mean_zero(name, noise_kind):
    spec = catalog_make(name, 3, noise_scale=0.5, noise_kind=noise_kind)
    rng = substream(12, f"mz-{name}-{noise_kind}")
    n = 10**5
    for k in range(20):
        x = rng.normal(size=3)
        if np.isfinite(spec.domain_radius):
            x *= 1.4 / max(1.4, float(np.linalg.norm(x)))
        vals = _F_rows(spec, np.broadcast_to(x, (n, 3)).copy(),
                       _sample_xi_batch(spec, n, rng))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - eval_f(spec, x)) <= 4 * max(se, 1e-15)


def test_f_star_is_a_true_lower_bound():
    rng = substream(13, "fstar")
    for name in CATALOG_NAMES:
        spec = catalog_make(name, 3)
        X, _ = _pairs_in_domain(spec, 10**5, rng)
        assert _f_rows(spec, X).min() >= spec.f_star - 1e-12


def _one_sgrad_draw(spec, x, rng):
    # sigma_hat = 1 is the noisy problem's sigma, so each estimate is one oracle draw
    est = estimate_sgrad(spec, x, 1.0, CostModel(mode="classical"), rng, QueryLedger())
    assert est.queries_charged == 1
    return est.value


def test_smooth_gradient_oracle():
    spec = catalog_make("quadratic-smooth", 2)
    rng = substream(14, "sgrad")
    np.testing.assert_allclose(_one_sgrad_draw(spec, np.array([1.0, 1.0]), rng), [1.0, 2.0])
    np.testing.assert_array_equal(_one_sgrad_draw(spec, np.zeros(2), rng), [0.0, 0.0])
    with pytest.raises(ValueError):
        _one_sgrad_draw(catalog_make("sawtooth", 2), np.zeros(2), rng)

    noisy = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
    assert noisy.smooth_params == (2.0, 1.0)
    x = np.array([0.3, -0.7])
    draws = np.array([_one_sgrad_draw(noisy, x, rng) for _ in range(10**4)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - noisy.lambdas * x) <= 3 * se)
    # bounded noise: per-draw deviation norm is exactly sigma
    dev = np.linalg.norm(draws - noisy.lambdas * x, axis=1)
    np.testing.assert_allclose(dev, 1.0, atol=1e-12)
