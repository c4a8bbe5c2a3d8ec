import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qzopt import (
    CostModel,
    GradEstimate,
    QgfmParams,
    QgfmPlusParams,
    QueryLedger,
    SmoothingParams,
    catalog_make,
    derive_params_qgfm,
    derive_params_qgfm_plus,
    derive_params_qgm_plus,
    estimate_grad,
    estimate_grad_diff,
    grad_f_delta_ref,
    qgfm,
    qgfm_plus,
    qgm_plus,
    substream,
)
from qzopt import algorithms
from test_smoothing import _peak_bytes

SPEC = catalog_make("abs-linear", 2, noise_scale=0.1)
SM = SmoothingParams(0.3)
X0 = np.full(2, 1.0 / math.sqrt(2))


def test_param_derivations():
    p = derive_params_qgfm(4, 1.0, 0.1, 0.1, 1.0)
    assert p.eta == 0.025 and p.T == 9600
    assert p.sigma1_sq == pytest.approx(0.005)
    p = derive_params_qgfm(1, 1.0, 1.0, 1.0, 0.0)
    assert (p.eta, p.T) == (0.5, 8)
    pp = derive_params_qgfm_plus(4, 1.0, 0.1, 0.1, 1.0)
    assert pp.T == 19219
    assert pp.p == pytest.approx(0.1 ** (2 / 3), abs=1e-15)
    assert pp.kappa == pytest.approx(0.1 ** (2 / 3) * 4 / 0.01, abs=1e-9)
    g = derive_params_qgm_plus(1.0, 1.0, 0.1, 1.0, 2)
    assert (g.eta, g.T) == (0.5, 887)
    assert g.p == pytest.approx(0.1 ** (2 / 3), abs=1e-15)


def test_param_derivation_errors():
    with pytest.raises(ValueError):
        derive_params_qgfm(0, 1.0, 0.1, 0.1, 1.0)
    # d = 2.5 used to give a step count; True passed as d = 1
    for bad in (2.5, 4.0, True):
        for derive in (derive_params_qgfm, derive_params_qgfm_plus):
            with pytest.raises(ValueError, match="d must be a positive integer"):
                derive(bad, 1.0, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError, match="d must be a positive integer"):
            derive_params_qgm_plus(1.0, 1.0, 0.1, 1.0, bad)
    with pytest.raises(ValueError):
        derive_params_qgfm(4, 1.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        derive_params_qgfm_plus(4, 1.0, 0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        derive_params_qgm_plus(1.0, 0.5, 0.6, 1.0, 2)
    # sigma = 0 is legal and turns every step into a refresh
    g0 = derive_params_qgm_plus(1.0, 0.0, 0.1, 1.0, 2)
    assert g0.p == 1.0 and g0.kappa == 0.0


# positive finite arguments whose squares underflow to 0 used to divide by
# zero; a subnormal or barely normal square (1e-160, 1e-154) overflowed T or
# kappa to inf instead
@pytest.mark.parametrize("derive,kwargs,name", [
    (derive_params_qgfm, dict(eps=1e-170), "eps"),
    (derive_params_qgfm, dict(eps=1e-160), "eps"),
    (derive_params_qgfm, dict(eps=1e-154), "eps"),
    (derive_params_qgfm, dict(delta=1e-310), "delta"),
    (derive_params_qgfm_plus, dict(eps=1e-170), "eps"),
    (derive_params_qgfm_plus, dict(eps=1e-160), "eps"),
    (derive_params_qgfm_plus, dict(delta=1e-170), "delta"),
    (derive_params_qgfm_plus, dict(delta=1e-200), "delta"),
    (derive_params_qgfm_plus, dict(delta=1e-160), "delta"),
    (derive_params_qgm_plus, dict(eps=1e-170), "eps"),
    (derive_params_qgm_plus, dict(eps=1e-160), "eps"),
], ids=lambda v: getattr(v, "__name__", None))
def test_underflowing_squares_raise(derive, kwargs, name):
    args = (dict(l=2.0, sigma=1.0, eps=0.5, Delta=0.7, d=4) if derive is derive_params_qgm_plus
            else dict(d=4, L=1.0, delta=0.3, eps=0.5, Delta=0.7))
    with pytest.raises(ValueError, match=f"^{name} is too small"):
        derive(**{**args, **kwargs})


def test_p_one_matches_plain_variant_bitwise():
    # with p=1 the variant refreshes every step, so the trajectories and
    # charges must coincide exactly, not just statistically
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    qpp = QgfmPlusParams(eta=qp.eta, T=qp.T, p=1.0, sigma1_sq=qp.sigma1_sq, kappa=5.0)
    assert qp.T == 189
    for seed in (0, 1, 2):
        ra = qgfm(SPEC, X0, qp, SM, CostModel(), seed)
        rb = qgfm_plus(SPEC, X0, qpp, SM, CostModel(), seed)
        assert np.array_equal(ra.x_out, rb.x_out)
        assert ra.ledger.uf_queries == rb.ledger.uf_queries == 3024
        assert ra.ledger.classical_queries == rb.ledger.classical_queries
        assert ra.residual.estimate == rb.residual.estimate


def test_recursion_tracks_smoothed_gradient():
    # teacher-forced trajectory crossing the kink: the g recursion stays an
    # unbiased estimate of grad f_delta at the current iterate
    traj = [np.array([0.8, 0.1]), np.array([0.6, 0.05]),
            np.array([0.4, 0.0]), np.array([0.15, -0.05])]
    pp = derive_params_qgfm_plus(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    s1 = math.sqrt(pp.sigma1_sq)
    model = CostModel()
    N = 10_000
    acc = np.zeros((N, 2))
    for r in range(N):
        rng = substream(9, "tf", r)
        led = QueryLedger()
        g = estimate_grad(SPEC, traj[0], SM, s1, model, rng, led).value
        for t in range(3):
            if rng.uniform() < pp.p:
                g = estimate_grad(SPEC, traj[t + 1], SM, s1, model, rng, led).value
            else:
                s2 = math.sqrt(pp.kappa) * float(np.linalg.norm(traj[t + 1] - traj[t]))
                g = g + estimate_grad_diff(SPEC, traj[t + 1], traj[t], SM, s2,
                                           model, rng, led).value
        acc[r] = g
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / math.sqrt(N)
    ref, ref_se = grad_f_delta_ref(SPEC, traj[3], SM, 4_000_000, substream(9, "tfref"))
    z = np.abs(mean - ref) / np.sqrt(se**2 + ref_se**2)
    assert np.all(z < 4.0)
    assert_allclose(mean, [0.21096845, 0.2132286], atol=1e-7)


def _phi_stat(results, eta, eps):
    per_seed = []
    for res in results:
        dphi = np.diff([r.phi for r in res.trace])
        gref = np.array([r.gradref_norm for r in res.trace][:-1])
        per_seed.append(float(np.mean(dphi + 0.5 * eta * gref**2 - 0.5 * eta * eps**2)))
    a = np.array(per_seed)
    return a.mean(), a.std(ddof=1) / math.sqrt(len(a))


def test_phi_descent_qgfm():
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    runs = [qgfm(SPEC, X0, qp, SM, CostModel(), s, trace=True, trace_ref_n=4000)
            for s in range(20)]
    m, s = _phi_stat(runs, qp.eta, 0.4)
    assert m <= 3 * s
    assert -0.0112 < m < -0.0104


def test_phi_descent_qgfm_plus():
    pp = derive_params_qgfm_plus(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    assert pp.T == 385
    runs = [qgfm_plus(SPEC, X0, pp, SM, CostModel(), s, trace=True, trace_ref_n=4000)
            for s in range(20)]
    m, s = _phi_stat(runs, pp.eta, 0.4)
    assert m <= 3 * s
    assert -0.0100 < m < -0.0092


def test_phi_descent_qgm_plus():
    qspec = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
    gp = derive_params_qgm_plus(qspec.smooth_params[0], qspec.smooth_params[1], 0.4,
                                qspec.delta_0, 2)
    assert gp.T == 89
    runs = [qgm_plus(qspec, X0, gp, CostModel(), s, trace=True) for s in range(20)]
    m, s = _phi_stat(runs, gp.eta, 0.4)
    assert m <= 3 * s
    assert -0.0205 < m < -0.0165


def test_cost_mode_changes_charges_not_iterates():
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    rq = qgfm(SPEC, X0, qp, SM, CostModel(mode="quantum"), 5)
    rc = qgfm(SPEC, X0, qp, SM, CostModel(mode="classical"), 5)
    assert np.array_equal(rq.x_out, rc.x_out)
    assert rq.residual.estimate == rc.residual.estimate
    s1 = math.sqrt(qp.sigma1_sq)
    assert rq.ledger.uf_queries == qp.T * 2 * max(1, math.ceil(2 * SPEC.L / s1)) == 3024
    n1 = max(1, math.ceil(SPEC.est_var_coeff * 2 * SPEC.L**2 / qp.sigma1_sq))
    assert rc.ledger.classical_queries == qp.T * 2 * n1 == 9450
    assert rq.ledger.classical_queries == 0 and rc.ledger.uf_queries == 0


def test_noiseless_smooth_descent_is_monotone():
    q0 = catalog_make("quadratic-smooth", 2, noise_scale=0.0)
    gp = derive_params_qgm_plus(q0.smooth_params[0], 0.0, 0.1, q0.delta_0, 2)
    assert gp.p == 1.0 and gp.kappa == 0.0 and gp.T == 1200
    res = qgm_plus(q0, X0, gp, CostModel(), 0, trace=True)
    phis = np.array([r.phi for r in res.trace])
    assert phis[0] == pytest.approx(0.75)
    assert phis[-1] < 1e-100
    assert np.all(np.diff(phis) <= 1e-12)
    assert res.residual.estimate <= 0.1
    assert res.residual.half_width == 0.0


def test_constant_objective_degeneracies():
    cspec = catalog_make("constant", 3, noise_scale=0.0)
    cp = derive_params_qgfm(3, cspec.L, 0.3, 0.4, cspec.delta_0)
    assert cp.T == 1
    res = qgfm(cspec, np.zeros(3), cp, SM, CostModel(), 0)
    assert np.array_equal(res.x_out, np.zeros(3))
    assert res.residual.estimate == 0.0
    cpp = derive_params_qgfm_plus(3, cspec.L, 0.3, 0.25 * cspec.L, cspec.delta_0)
    rp = qgfm_plus(cspec, np.zeros(3), cpp, SM, CostModel(), 0, trace=True)
    # every tail step has zero displacement, so no difference charges accrue
    assert sum(1 for r in rp.trace if r.theta == 0) == 264
    assert rp.ledger.phase_tags.get("diff", (0, 0, 0)) == (0, 0, 0)
    assert rp.residual.estimate == 0.0


def test_budget_abort():
    sspec = catalog_make("sawtooth", 4, noise_scale=0.1)
    bp = derive_params_qgfm(4, sspec.L, 0.1, 0.1, sspec.delta_0)
    assert bp.T == 9600
    res = qgfm(sspec, np.full(4, 0.5), bp, SmoothingParams(0.1),
               CostModel(mode="classical"), 0, budget=5000)
    assert res.budget_exceeded
    assert res.ledger.classical_queries == 6400
    # (1/2, ..., 1/2) is reflection-fixed, so the run above never moves; from a moving
    # start a p = 1 qgfm_plus run, whose eager init refresh hits the same budget one
    # step earlier, must end elsewhere
    x0 = np.array([0.3, 0.1, -0.2, 0.4])
    res = qgfm(sspec, x0, bp, SmoothingParams(0.1), CostModel(mode="classical"), 0,
               budget=5000)
    assert res.budget_exceeded
    assert res.ledger == QueryLedger(classical_queries=6400,
                                     phase_tags={"refresh": (0, 6400, 0)})
    assert not np.array_equal(res.x_out, x0)
    pp = QgfmPlusParams(eta=bp.eta, T=bp.T, p=1.0, sigma1_sq=bp.sigma1_sq, kappa=5.0)
    early = qgfm_plus(sspec, x0, pp, SmoothingParams(0.1), CostModel(mode="classical"), 0,
                      budget=5000)
    assert early.budget_exceeded
    assert early.ledger.phase_tags == {"init": (0, 1600, 0), "refresh": (0, 4800, 0)}
    assert not np.array_equal(early.x_out, res.x_out)


def test_x0_shape_and_missing_smooth_oracle():
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    with pytest.raises(ValueError):
        qgfm(SPEC, np.zeros(3), qp, SM, CostModel(), 0)
    gp = derive_params_qgm_plus(1.0, 0.0, 0.1, 1.0, 2)
    with pytest.raises(ValueError):
        qgm_plus(catalog_make("sawtooth", 2), np.zeros(2), gp, CostModel(), 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_x0_raises(bad):
    x0 = np.array([0.5, bad])
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    with pytest.raises(ValueError, match="finite"):
        qgfm(SPEC, x0, qp, SM, CostModel(), 0)
    pp = derive_params_qgfm_plus(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    with pytest.raises(ValueError, match="finite"):
        qgfm_plus(SPEC, x0, pp, SM, CostModel(), 0)
    qspec = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
    gp = derive_params_qgm_plus(qspec.smooth_params[0], 1.0, 0.4, qspec.delta_0, 2)
    with pytest.raises(ValueError, match="finite"):
        qgm_plus(qspec, x0, gp, CostModel(), 0)


def test_trace_charges_sum_to_ledger():
    # one row per step, whose per-iteration deltas (init absorbed into t=0)
    # reconstruct the ledger totals exactly
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    pp = derive_params_qgfm_plus(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    qspec = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
    gp = derive_params_qgm_plus(qspec.smooth_params[0], qspec.smooth_params[1], 0.4,
                                qspec.delta_0, 2)
    runs = [qgfm(SPEC, X0, qp, SM, CostModel(), 0, trace=True)]
    runs += [qgfm_plus(SPEC, X0, pp, SM, CostModel(), seed, trace=True) for seed in (0, 4)]
    runs += [qgm_plus(qspec, X0, gp, CostModel(), 3, trace=True)]
    for res in runs:
        assert [r.t for r in res.trace] == list(range(res.T))
        assert sum(r.uf for r in res.trace) == res.ledger.uf_queries
        assert sum(r.classical for r in res.trace) == res.ledger.classical_queries
        assert sum(r.grad for r in res.trace) == res.ledger.grad_oracle_queries


STUB_CHARGE = 10


def _stub_run(monkeypatch, optimizer, T, budget):
    """A traced run of optimizer with the four estimators stubbed out.

    Each stub records (phase, x) and charges STUB_CHARGE to every counter;
    a fresh stub returns x and a difference stub x - y.  Returns the run,
    the recorded calls, the iterate store and the bound of the uniform pick.
    """
    calls, stores, picks = [], [], []
    trajectory, substream_ = algorithms._trajectory, algorithms.substream

    def charged(x, value, ledger, phase):
        calls.append((phase, x.copy()))
        ledger.charge(uf=STUB_CHARGE, classical=STUB_CHARGE, grad=STUB_CHARGE, phase=phase)
        return GradEstimate(value, STUB_CHARGE)

    def fresh(spec, x, *args, phase):
        return charged(x, x.copy(), args[-1], phase)

    def diff(spec, x, y, *args, phase, _step):
        return charged(x, x - y, args[-1], phase)

    class Pick:
        def integers(self, n):
            picks.append(n)
            return n - 1

    for name, stub in (("estimate_grad", fresh), ("estimate_sgrad", fresh),
                       ("estimate_grad_diff", diff), ("estimate_sgrad_diff", diff)):
        monkeypatch.setattr(algorithms, name, stub)
    monkeypatch.setattr(algorithms, "_trajectory",
                        lambda *a: stores.append(trajectory(*a)) or stores[-1])
    monkeypatch.setattr(algorithms, "substream",
                        lambda seed, name, *i: Pick() if name == "out" else substream_(seed, name, *i))
    plus = QgfmPlusParams(eta=0.25, T=T, p=0.5, sigma1_sq=0.08, kappa=4.0)
    if optimizer is qgm_plus:
        qspec = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
        res = qgm_plus(qspec, X0, plus, CostModel(), 1, trace=True, budget=budget)
    else:
        params = QgfmParams(eta=0.25, T=T, sigma1_sq=0.08) if optimizer is qgfm else plus
        res = optimizer(SPEC, X0, params, SM, CostModel(), 1, trace=True, budget=budget,
                        residual_n=50, trace_ref_n=20)
    return res, calls, stores[0], picks[0]


@pytest.mark.parametrize("optimizer", [qgfm, qgfm_plus, qgm_plus], ids=lambda f: f.__name__)
@pytest.mark.parametrize("budget", [10**6, 25])
def test_loop_order_with_stub_estimators(monkeypatch, optimizer, budget):
    # qgfm draws g_t fresh at x_t at the top of step t, so row t carries its charge
    # and a budget crossed in step t keeps t + 1 candidates; the recursion draws
    # g_0 as init and g_{t+1} in step t, so the same budget stops it a step earlier
    T, C = 6, STUB_CHARGE
    res, calls, store, pick = _stub_run(monkeypatch, optimizer, T, budget)
    steps = len(res.trace)
    assert pick == steps and res.budget_exceeded == (budget < 10**6)
    assert np.array_equal(res.x_out, store[steps - 1])
    charges = [r.uf for r in res.trace]
    assert [r.grad for r in res.trace] == charges == [r.classical for r in res.trace]
    if optimizer is qgfm:
        assert steps == (T if budget > T * C else budget // C + 1)
        assert [phase for phase, _ in calls] == ["refresh"] * steps
        for t, (_, x) in enumerate(calls):
            assert np.array_equal(x, store[t])
        assert charges == [C] * steps
        assert res.p is None
        return
    assert steps == (T if budget > T * C else budget // C)
    assert calls[0][0] == "init" and np.array_equal(calls[0][1], store[0])
    # seed 1's coins build both kinds of g_{t+1} before either budget stops the run
    assert {phase for phase, _ in calls[1:]} == {"refresh", "diff"}
    for t, (_, x) in enumerate(calls[1:]):
        assert np.array_equal(x, store[t + 1])
    assert len(calls) == min(steps + 1, T)
    assert charges == ([2 * C] + [C] * (T - 2) + [0] if steps == T else [2 * C] + [C] * (steps - 1))
    assert res.p == 0.5


def test_run_peak_memory():
    # the recursion workload's qgm cell: T + 1 rows of d doubles hold the trajectory,
    # where a list of T separate (d,) arrays held about 185 bytes of allocations per step
    spec = catalog_make("quadratic-smooth", 8, noise_scale=0.1)
    l, sigma = spec.smooth_params
    gp = derive_params_qgm_plus(l, sigma, 0.02, spec.delta_0, 8)
    assert gp.T == 30159
    x0 = np.full(8, 1.0 / math.sqrt(8))
    qgm_plus(spec, x0, derive_params_qgm_plus(l, sigma, 0.1, spec.delta_0, 8), CostModel(), 0)
    peak = _peak_bytes(lambda: qgm_plus(spec, x0, gp, CostModel(), 0))
    assert peak < 8 * 8 * (gp.T + 1) + 2**20


def test_x_out_owns_its_data(monkeypatch):
    stores, real = [], algorithms._trajectory

    def trajectory(spec, x0, T):
        stores.append(real(spec, x0, T))
        return stores[-1]

    monkeypatch.setattr(algorithms, "_trajectory", trajectory)
    qspec = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
    gp = derive_params_qgm_plus(qspec.smooth_params[0], 1.0, 0.4, qspec.delta_0, 2)
    results = [
        qgfm(SPEC, X0, derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0), SM, CostModel(), 0),
        qgfm_plus(SPEC, X0, derive_params_qgfm_plus(2, SPEC.L, 0.3, 0.4, SPEC.delta_0), SM,
                  CostModel(), 0),
        qgm_plus(qspec, X0, gp, CostModel(), 0),
    ]
    assert len(stores) == 3
    for res, store in zip(results, stores):
        assert res.x_out.flags.owndata
        assert not np.shares_memory(res.x_out, store)
        # the pick is one of the stored iterates
        assert (store[:-1] == res.x_out).all(axis=1).any()


def test_store_growth_keeps_every_byte(monkeypatch):
    # runs whose store starts at three rows and doubles many times, against the
    # default one-allocation store: same pick, ledger, trace and abort step
    qp = derive_params_qgfm(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    pp = derive_params_qgfm_plus(2, SPEC.L, 0.3, 0.4, SPEC.delta_0)
    qspec = catalog_make("quadratic-smooth", 2, noise_scale=1.0)
    gp = derive_params_qgm_plus(qspec.smooth_params[0], 1.0, 0.4, qspec.delta_0, 2)
    runs = [
        lambda: qgfm(SPEC, X0, qp, SM, CostModel(), 1, trace=True, trace_ref_n=20),
        lambda: qgfm(SPEC, X0, qp, SM, CostModel(), 1, budget=1000),
        lambda: qgfm_plus(SPEC, X0, pp, SM, CostModel(), 2, trace=True, trace_ref_n=20),
        lambda: qgfm_plus(SPEC, X0, pp, SM, CostModel(), 2, budget=1000),
        lambda: qgm_plus(qspec, X0, gp, CostModel(), 3, trace=True),
    ]
    want = [run() for run in runs]
    monkeypatch.setattr(algorithms, "_STORE_ELEMS", 6)
    for run, a in zip(runs, want):
        b = run()
        assert a.x_out.tobytes() == b.x_out.tobytes()
        assert (a.ledger, a.trace, a.budget_exceeded) == (b.ledger, b.trace, b.budget_exceeded)
        assert a.residual == b.residual


def test_budget_stops_a_run_too_long_to_store():
    # T + 1 rows of this run would take terabytes; the budget stops it after about
    # 1000 one-query steps, and only the rows it reached are stored
    spec = catalog_make("quadratic-smooth", 8)
    gp = derive_params_qgm_plus(spec.smooth_params[0], 0.0, 1e-6, spec.delta_0, 8)
    assert (gp.T + 1) * 8 * 8 > 2**40
    res = qgm_plus(spec, np.full(8, 0.3), gp, CostModel(), 0, budget=1000)
    assert res.budget_exceeded and res.ledger.grad_oracle_queries == 1001
