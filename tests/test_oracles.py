import copy
import math

import numpy as np
import pytest

from qzopt import (
    CostModel,
    QueryLedger,
    SmoothingParams,
    catalog_make,
    estimate_grad,
    estimate_grad_diff,
    estimate_sgrad,
    estimate_sgrad_diff,
    grad_f_delta_ref,
    quantum_mean_cost,
    substream,
)
from qzopt.objectives import _sample_xi_batch
from qzopt.smoothing import _g_delta_rows, _g_rows, _sphere_batch

SM = SmoothingParams(0.1)


def test_cost_model_validation():
    assert CostModel().mode == "quantum"
    with pytest.raises(ValueError):
        CostModel(mode="hybrid")
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_q must be positive and finite"):
            CostModel(c_q=bad)
    with pytest.raises(ValueError):
        CostModel(log_k=-1)
    # a float log_k turned ledger counters into floats; True counted as 1
    for bad in (1.5, 2.0, True, False, "1"):
        with pytest.raises(ValueError, match="log_k must be a non-negative integer"):
            CostModel(log_k=bad)
    assert CostModel().log_multiplier(0.01) == 1
    assert CostModel(log_k=1).log_multiplier(0.25) == 2
    assert CostModel(log_k=2).log_multiplier(0.25) == 4
    # sigma_hat >= 1 floors at a unit multiplier
    assert CostModel(log_k=3).log_multiplier(2.0) == 1


def test_ledger_charge_and_merge():
    a = QueryLedger()
    a.charge(uf=2, phase="init")
    a.charge(uf=4, classical=6, phase="refresh")
    assert (a.uf_queries, a.classical_queries, a.grad_oracle_queries) == (6, 6, 0)
    assert a.phase_tags == {"init": (2, 0, 0), "refresh": (4, 6, 0)}
    with pytest.raises(ValueError):
        a.charge(uf=-1)


def test_phase_tags_sum_to_totals():
    led = QueryLedger()
    rng = substream(0, "phases")
    spec = catalog_make("sawtooth", 3)
    estimate_grad(spec, np.zeros(3), SM, 0.5, CostModel(), rng, led, phase="init")
    estimate_grad(spec, np.ones(3), SM, 0.5, CostModel(), rng, led, phase="refresh")
    estimate_grad_diff(spec, np.ones(3), np.zeros(3), SM, 0.5, CostModel(), rng, led,
                       phase="diff")
    sums = np.sum(list(led.phase_tags.values()), axis=0)
    assert tuple(sums) == (led.uf_queries, led.classical_queries, led.grad_oracle_queries)


def test_delta_g_shares_the_draw():
    spec = catalog_make("sawtooth", 3, noise_scale=0.2)
    x, y = np.array([0.3, 0.1, 0.7]), np.array([0.2, 0.4, 0.6])
    # sigma_hat this large floors the batch at one draw
    got = estimate_grad_diff(spec, x, y, SM, 100.0, CostModel(), substream(3, "shared"),
                             QueryLedger())
    # replay the identical stream by hand: same (w, xi) must be reused
    rng = substream(3, "shared")
    W = _sphere_batch(3, 1, rng)
    payload = _sample_xi_batch(spec, 1, rng)
    want = (_g_rows(W, _g_delta_rows(spec, x, SM.delta, W, payload))
            - _g_rows(W, _g_delta_rows(spec, y, SM.delta, W, payload)))[0]
    np.testing.assert_array_equal(got.value, want)


def test_estimators_reject_wrong_shape_points():
    spec = catalog_make("sawtooth", 3, noise_scale=0.2)
    x = np.array([0.3, 0.1, 0.7])
    rng, led = substream(3, "shape"), QueryLedger()
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        estimate_grad(spec, np.array([0.5]), SM, 0.5, CostModel(), rng, led)
    with pytest.raises(ValueError):
        estimate_grad_diff(spec, x, 0.2, SM, 0.5, CostModel(), rng, led)
    with pytest.raises(ValueError):
        estimate_grad_diff(spec, np.ones((1, 3)), x, SM, 0.5, CostModel(), rng, led)
    assert rng.bit_generator.state == state
    assert led == QueryLedger()


def test_quantum_mean_cost_formula():
    assert quantum_mean_cost(2.0, 4, 0.5, CostModel()) == 8
    assert quantum_mean_cost(0.0, 4, 0.5, CostModel()) == 1
    c1 = quantum_mean_cost(3.7, 5, 0.2, CostModel())
    c2 = quantum_mean_cost(3.7, 5, 0.4, CostModel())
    assert c2 <= c1 and c1 <= 2 * c2 + 1
    assert quantum_mean_cost(2.0, 4, 1.0, CostModel(mode="classical")) == 4
    with pytest.raises(ValueError):
        quantum_mean_cost(2.0, 4, 0.0, CostModel())
    # d = 2.5 used to be charged as sqrt(2.5), True as d = 1
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            quantum_mean_cost(2.0, bad, 0.5, CostModel())


@pytest.mark.parametrize("call", [
    lambda: quantum_mean_cost(1.0, 8, 1e-310, CostModel()),
    lambda: quantum_mean_cost(1.0, 8, 1e-310, CostModel(mode="classical")),
    lambda: quantum_mean_cost(1.0, 8, 1e-170, CostModel(mode="classical")),
    lambda: CostModel(log_k=1).log_multiplier(1e-310),
])
def test_tiny_sigma_hat_raises_value_error(call):
    # these raised OverflowError or ZeroDivisionError: a count that overflows, or a
    # square that underflows to 0, now names the accuracy that is too small
    with pytest.raises(ValueError, match="^sigma_hat is too small"):
        call()


def _estimator_calls(spec):
    """Each estimator that spec supports, as call(sigma_hat, model, rng, ledger)."""
    x, y, params = np.array([0.1, 0.2]), np.array([0.1, 0.3]), SmoothingParams(0.1)
    calls = {
        "estimate_grad": lambda s, m, r, led: estimate_grad(spec, x, params, s, m, r, led),
        "estimate_grad_diff":
            lambda s, m, r, led: estimate_grad_diff(spec, x, y, params, s, m, r, led),
    }
    if spec.smooth_params is not None:
        calls["estimate_sgrad"] = lambda s, m, r, led: estimate_sgrad(spec, x, s, m, r, led)
        calls["estimate_sgrad_diff"] = (
            lambda s, m, r, led: estimate_sgrad_diff(spec, x, y, s, m, r, led))
    return calls


@pytest.mark.parametrize("mode", ["quantum", "classical"])
@pytest.mark.parametrize("sigma_hat", [1e-170, 1e-160])
@pytest.mark.parametrize("problem", ["sawtooth", "quadratic-smooth"])
def test_estimators_reject_tiny_sigma_hat_before_drawing(problem, sigma_hat, mode):
    # a draw count over sigma_hat^2 raised ZeroDivisionError (1e-170 squares to 0) or
    # OverflowError (1e-160 squares to a subnormal); now each estimator raises the
    # ValueError of quantum_mean_cost before it draws or charges anything
    spec = catalog_make(problem, 2, 0.5)
    calls = _estimator_calls(spec)
    assert len(calls) == (4 if problem == "quadratic-smooth" else 2)
    for i, (name, call) in enumerate(calls.items()):
        rng = substream(40, "tiny-sigma", i)
        state = rng.bit_generator.state
        ledger = QueryLedger()
        ledger.charge(uf=3, classical=5, grad=7, phase="earlier")
        before = copy.deepcopy(ledger)
        with pytest.raises(ValueError, match="^sigma_hat is too small"):
            call(sigma_hat, CostModel(mode=mode), rng, ledger)
        assert rng.bit_generator.state == state, name
        assert ledger == before, name


def test_log_multiplier_keeps_its_integers():
    model = CostModel(log_k=2)
    for s in (1e-300, 1e-9, 0.01, 0.25, 0.5, 0.51, 1.0, 3.0):
        assert model.log_multiplier(s) == max(1, math.ceil(math.log2(1.0 / s))) ** 2
    with pytest.raises(ValueError, match="sigma_hat must be positive"):
        model.log_multiplier(0.0)


def test_estimate_grad_charges_and_floor():
    spec = catalog_make("abs-linear", 4)
    led = QueryLedger()
    # certified batch coefficient for the catalog entry is 1.0, so
    # sigma_hat >= L*sqrt(d) floors the batch at a single draw
    est = estimate_grad(spec, spec.x0, SM, 2.0 * 2.0, CostModel(), substream(4, "floor"), led)
    rng = substream(4, "floor")
    W = _sphere_batch(4, 1, rng)
    single = _g_rows(W, _g_delta_rows(spec, spec.x0, SM.delta, W,
                                      _sample_xi_batch(spec, 1, rng)))[0]
    np.testing.assert_array_equal(est.value, single)
    assert led.uf_queries == 2

    czero = estimate_grad(catalog_make("constant", 3), np.zeros(3), SM, 1e-6,
                          CostModel(), substream(4, "c"), led)
    np.testing.assert_array_equal(czero.value, np.zeros(3))

    # quantum charge 2*ceil(c_q d L / sigma), classical 2n; deterministic
    q = QueryLedger()
    estimate_grad(spec, spec.x0, SM, 0.3, CostModel(c_q=2.0), substream(4, "q"), q)
    assert q.uf_queries == 2 * math.ceil(2.0 * 4 * 1.0 / 0.3)
    cl = QueryLedger()
    estimate_grad(spec, spec.x0, SM, 0.3, CostModel(mode="classical"), substream(4, "q"), cl)
    assert cl.classical_queries == 2 * math.ceil(4 * 1.0 / 0.09)
    with pytest.raises(ValueError):
        estimate_grad(spec, spec.x0, SM, 0.0, CostModel(), substream(4, "q"), q)


@pytest.mark.parametrize("mult", [1.0, 0.3, 0.1, 0.01])
def test_estimate_grad_mse_contract(mult):
    # target sd spans two orders of magnitude
    spec = catalog_make("abs-linear", 4)
    x = np.array([0.9, -0.3, 0.4, 0.2])
    sigma = mult * spec.L * math.sqrt(spec.d)
    reps = 2000 if mult >= 0.1 else 500
    ref, _ = grad_f_delta_ref(spec, x, SM, 10**6, substream(5, "mseref"))
    acc = 0.0
    led = QueryLedger()
    rng = substream(5, "mse", int(mult * 1000))
    for _ in range(reps):
        e = estimate_grad(spec, x, SM, sigma, CostModel(), rng, led)
        acc += float(np.sum((e.value - ref) ** 2))
    assert acc / reps <= sigma**2 * (1.0 + 5.0 / math.sqrt(reps))


def test_estimate_grad_diff_degenerate_and_charge():
    spec = catalog_make("abs-linear", 2)
    led = QueryLedger()
    z = estimate_grad_diff(spec, np.ones(2), np.ones(2), SM, 0.5, CostModel(),
                           substream(6, "dg"), led)
    np.testing.assert_array_equal(z.value, np.zeros(2))
    assert z.queries_charged == 0 and led.uf_queries == 0

    x = np.array([1.0, 0.0])
    y = np.array([1.0, 0.1])
    est = estimate_grad_diff(spec, x, y, SM, 1.0, CostModel(), substream(6, "dg"), led)
    assert est.queries_charged == 12 and led.uf_queries == 12  # 4*ceil(2^1.5*0.1/0.1)
    with pytest.raises(ValueError):
        estimate_grad_diff(spec, x, y, SM, 0.0, CostModel(), substream(6, "dg"), led)


def test_estimate_grad_diff_unbiased():
    spec = catalog_make("sawtooth", 2, noise_scale=0.1)
    x, y = np.array([0.42, 0.17]), np.array([0.35, 0.22])
    rng = substream(7, "dgu")
    led = QueryLedger()
    reps = 10**4
    draws = np.array([estimate_grad_diff(spec, x, y, SM, 1.0, CostModel(), rng, led).value
                      for _ in range(reps)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
    rx, sx = grad_f_delta_ref(spec, x, SM, 10**6, substream(7, "dgux"))
    ry, sy = grad_f_delta_ref(spec, y, SM, 10**6, substream(7, "dguy"))
    z = np.abs(draws.mean(axis=0) - (rx - ry)) / np.sqrt(se**2 + sx**2 + sy**2)
    assert np.all(z <= 4.0)


def test_estimate_sgrad():
    spec = catalog_make("quadratic-smooth", 4, noise_scale=1.0)
    led = QueryLedger()
    est = estimate_sgrad(spec, spec.x0, 0.5, CostModel(), substream(8, "sg"), led)
    assert est.queries_charged == 4 and led.grad_oracle_queries == 4
    cl = QueryLedger()
    estimate_sgrad(spec, spec.x0, 0.5, CostModel(mode="classical"), substream(8, "sg"), cl)
    assert cl.grad_oracle_queries == 4  # n = ceil(sigma^2/sigma_hat^2)

    exact = catalog_make("quadratic-smooth", 4)
    led2 = QueryLedger()
    e = estimate_sgrad(exact, exact.x0, 0.5, CostModel(), substream(8, "sg0"), led2)
    np.testing.assert_allclose(e.value, exact.lambdas * exact.x0, atol=1e-15)
    assert e.queries_charged == 1
    with pytest.raises(ValueError):
        estimate_sgrad(catalog_make("sawtooth", 2), np.zeros(2), 0.5, CostModel(),
                       substream(8, "sg"), led)


def test_estimate_sgrad_mean_and_contract():
    spec = catalog_make("quadratic-smooth", 3, noise_scale=1.0)
    x = np.array([0.2, -0.4, 0.6])
    rng = substream(9, "sgm")
    led = QueryLedger()
    reps = 10**4
    sigma_hat = 0.4
    draws = np.array([estimate_sgrad(spec, x, sigma_hat, CostModel(), rng, led).value
                      for _ in range(reps)])
    tgt = spec.lambdas * x
    se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(draws.mean(axis=0) - tgt) <= 4 * se)
    mse = float(np.mean(np.sum((draws - tgt) ** 2, axis=1)))
    assert mse <= sigma_hat**2 * (1.0 + 5.0 / math.sqrt(reps))


def test_estimate_sgrad_diff():
    spec = catalog_make("quadratic-smooth", 4, noise_scale=1.0)
    led = QueryLedger()
    z = estimate_sgrad_diff(spec, spec.x0, spec.x0, 0.1, CostModel(), substream(10, "sd"), led)
    assert z.queries_charged == 0
    np.testing.assert_array_equal(z.value, np.zeros(4))

    x = spec.x0
    y = spec.x0 + np.array([0.2, 0.0, 0.0, 0.0])
    est = estimate_sgrad_diff(spec, x, y, 0.1, CostModel(c_q=1.0), substream(10, "sd"), led)
    assert est.queries_charged == 8  # ceil(sqrt(4)*l*0.2/0.1) with l = 2
    # shared-noise difference on the quadratic is deterministic and exact
    np.testing.assert_allclose(est.value, spec.lambdas * (x - y), atol=1e-15)
    cl = QueryLedger()
    e2 = estimate_sgrad_diff(spec, x, y, 0.1, CostModel(mode="classical"),
                             substream(10, "sd"), cl)
    assert e2.queries_charged == math.ceil(2.0**2 * 0.04 / 0.01)

    # unit-curvature instance reproduces the textbook charge ceil(2*0.2/0.1)
    from qzopt import ObjectiveSpec
    unit = ObjectiveSpec(name="quadratic-smooth", d=4, L=1.0, noise_kind="none",
                         noise_scale=0.0, f_star=0.0, delta_0=0.0,
                         x0=np.zeros(4),
                         smooth_params=(1.0, 1.0), lambdas=np.ones(4))
    e3 = estimate_sgrad_diff(unit, x, y, 0.1, CostModel(), substream(10, "sd1"),
                             QueryLedger())
    assert e3.queries_charged == 4


def test_explicit_log_policy_scales_charges():
    spec = catalog_make("abs-linear", 2)
    base, logged = QueryLedger(), QueryLedger()
    estimate_grad(spec, spec.x0, SM, 0.25, CostModel(), substream(11, "lg"), base)
    estimate_grad(spec, spec.x0, SM, 0.25,
                  CostModel(log_k=1),
                  substream(11, "lg"), logged)
    assert logged.uf_queries == 2 * base.uf_queries  # ceil(log2(4)) = 2


@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_handed_step_gives_the_same_estimate(mode):
    # the optimizer loops hand the difference estimators the step they took
    # (x - y, ||x - y||); the value, the charges and the stream's end must be those
    # of the call that works them out itself, for every problem and noise kind
    from test_hotpath_exact import D, DELTA, SPECS, X, Y

    sm, model = SmoothingParams(DELTA), CostModel(mode=mode)
    v = X - Y
    step = (v, math.sqrt(v.dot(v)))
    for i, (problem, scale, kind) in enumerate(SPECS):
        spec = catalog_make(problem, D, scale, kind)
        calls = [lambda rng, led, **kw: estimate_grad_diff(spec, X, Y, sm, 0.05, model, rng,
                                                           led, phase="diff", **kw)]
        if spec.smooth_params is not None:
            calls.append(lambda rng, led, **kw: estimate_sgrad_diff(spec, X, Y, 0.05, model,
                                                                    rng, led, phase="diff",
                                                                    **kw))
        for j, call in enumerate(calls):
            got = []
            for kw in ({}, {"_step": step}):
                rng, led = substream(12, "step", i, j), QueryLedger()
                est = call(rng, led, **kw)
                got.append((est.value.tobytes(), est.queries_charged, led,
                            rng.standard_normal()))
            assert got[0] == got[1], (problem, scale, kind, j)
