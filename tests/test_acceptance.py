"""End-to-end acceptance checks, one test per criterion.

Each test name is the pass/fail line for its criterion under
``pytest -v``.  Tolerances and random streams are pinned; the frozen
reference numbers in the asserts were produced by independent oracle
scripts before these tests were written.
"""
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

import qzopt as qz
from qzopt import (
    CostModel,
    ExperimentConfig,
    QueryLedger,
    SmoothingParams,
    build_spec,
    catalog_make,
    estimate_grad,
    estimate_grad_diff,
    fit_loglog,
    run_experiment,
    run_one,
    scaling_sweep,
    substream,
)
from qzopt.circuit import _decode_indices, _w_from_sums
from qzopt.cli import main as cli_main
from qzopt.objectives import GENERIC_EST_VAR_COEFF, _sample_xi_batch, sample_xi
from qzopt.smoothing import (
    _g_delta_mean,
    _g_delta_rows,
    _g_rows,
    _sphere_batch,
    g_delta,
    grad_f_delta_ref,
    sample_sphere,
)

pytestmark = pytest.mark.slow

SM = SmoothingParams(0.1)


def _cfg(**kw):
    base = dict(algorithm="qgfm", problem="sawtooth", d=8, eps_grid=(0.3,),
                seeds=tuple(range(20)), delta=0.1, noise_scale=0.1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_01_two_point_estimator_unbiased():
    """Mean of 1e5 two-point draws matches the smoothed gradient at 40 probes."""
    worst = 0.0
    for name in ("abs-linear", "sawtooth"):
        for d in (2, 8):
            prng = substream(0, f"c1-probes-{name}", d)
            spec = catalog_make(name, d)
            for k in range(10):
                x = prng.normal(size=d)
                m1, se1 = _g_delta_mean(spec, x, 0.1, 10**5,
                                        substream(0, f"c1-est-{name}", d, k),
                                        want_se=True)
                m2, se2 = grad_f_delta_ref(spec, x, SM, 4 * 10**5,
                                           substream(0, f"c1-ref-{name}", d, k))
                z = np.abs(m1 - m2) / np.sqrt(se1**2 + se2**2)
                worst = max(worst, float(z.max()))
    assert worst == pytest.approx(3.344454037159817, rel=1e-9)
    assert worst < 4.0


def test_criterion_02_estimator_variance_bound():
    """E||g - grad f_delta||^2 <= 16 sqrt(2 pi) d L^2 on the whole catalog."""
    worst_gen, worst_cert = 0.0, 0.0
    for name in ("constant", "abs-linear", "sawtooth", "quadratic-smooth"):
        for d in (2, 8, 32):
            spec = catalog_make(name, d)
            rng = substream(1, f"c2-{name}", d)
            x = rng.normal(size=d) * 0.7
            if name == "quadratic-smooth":
                # variance coefficient only certified inside the documented radius
                x *= 1.4 / max(1.4, float(np.linalg.norm(x)))
            W = _sphere_batch(d, 10**5, rng)
            G = _g_rows(W, _g_delta_rows(spec, x, 0.1, W, _sample_xi_batch(spec, 10**5, rng)))
            ref, _ = grad_f_delta_ref(spec, x, SM, 2 * 10**5,
                                      substream(1, f"c2r-{name}", d))
            mse = float(np.mean(np.sum((G - ref) ** 2, axis=1)))
            worst_gen = max(worst_gen, mse / (GENERIC_EST_VAR_COEFF * d * spec.L**2))
            worst_cert = max(worst_cert, mse / (spec.est_var_coeff * d * spec.L**2))
    assert worst_gen == pytest.approx(0.013616731558825954, rel=1e-9)
    assert worst_gen <= 1.0
    # the per-problem certified coefficients are tight but valid
    assert worst_cert == pytest.approx(0.9679607090590465, rel=1e-9)
    assert worst_cert < 1.0


def test_criterion_03_mean_estimation_contract():
    """estimate_grad MSE <= 1.05 sigma^2 with the exact documented charge."""
    d = 4
    spec = catalog_make("abs-linear", d)
    x = np.array([0.9, -0.3, 0.4, 0.2])
    ref, _ = grad_f_delta_ref(spec, x, SM, 10**6, substream(2, "c3ref"))
    model = CostModel()
    for c in (1.0, 0.3, 0.1):
        sig = c * spec.L * math.sqrt(d)
        rng = substream(2, "c3", int(c * 1000))
        led = QueryLedger()
        errs = []
        for _ in range(10**4):
            est = estimate_grad(spec, x, SM, sig, model, rng, led)
            errs.append(float(np.sum((est.value - ref) ** 2)))
        assert np.mean(errs) <= sig**2 * 1.05
        formula = 2 * max(1, math.ceil(model.c_q * d * spec.L / sig))
        assert est.queries_charged == formula

    spec2 = catalog_make("sawtooth", 4)
    prng = substream(3, "c3pairs")
    for k in range(5):
        x = prng.normal(size=4)
        y = x + prng.normal(size=4) * 0.05
        rx, _ = grad_f_delta_ref(spec2, x, SM, 10**6, substream(3, "c3dx", k))
        ry, _ = grad_f_delta_ref(spec2, y, SM, 10**6, substream(3, "c3dy", k))
        refd = rx - ry
        dist = float(np.linalg.norm(x - y))
        sig = 0.5 * dist * 4 / 0.1
        rng = substream(3, "c3d", k)
        errs = []
        for _ in range(10**4):
            e = estimate_grad_diff(spec2, x, y, SM, sig, model, rng, QueryLedger())
            errs.append(float(np.sum((e.value - refd) ** 2)))
        assert np.mean(errs) <= sig**2 * 1.05
        formula = 4 * max(1, math.ceil(4**1.5 * spec2.L * dist / (sig * 0.1)))
        assert e.queries_charged == formula


def test_criterion_04_qgfm_convergence():
    """sawtooth d=8: median residual <= 2 eps, mean squared <= (1.5 eps)^2."""
    rows = run_experiment(_cfg())
    res = np.array([r.residual_est for r in rows])
    assert float(np.median(res)) <= 2 * 0.3
    assert float(np.mean(res**2)) <= (1.5 * 0.3) ** 2
    # the plain method's schedule is seed-independent on this instance
    assert {r.uf_queries for r in rows} == {154280}


def test_criterion_05_qgfm_plus_convergence_and_query_separation():
    """Variance-reduced method: same residual bounds, strictly fewer queries."""
    rows = run_experiment(_cfg(algorithm="qgfm_plus"))
    res = np.array([r.residual_est for r in rows])
    assert float(np.median(res)) <= 2 * 0.3
    assert float(np.mean(res**2)) <= (1.5 * 0.3) ** 2
    assert max(r.uf_queries for r in rows) < 154280

    ca = _cfg(eps_grid=(0.1,), seeds=(0, 1, 2))
    cb = _cfg(algorithm="qgfm_plus", eps_grid=(0.1,), seeds=(0, 1, 2))
    sa, sb = build_spec(ca), build_spec(cb)
    plus_uf = []
    for seed in (0, 1, 2):
        ra = run_one(ca, sa, 0.1, seed)
        rb = run_one(cb, sb, 0.1, seed)
        assert ra.uf_queries == 4163964
        assert rb.uf_queries < ra.uf_queries
        plus_uf.append(rb.uf_queries)
    assert plus_uf == [1756284, 1764948, 1816932]


def test_criterion_06_eps_scaling_exponents():
    """Fitted query exponents: ~3 plain, ~7/3 variance-reduced, r^2 >= 0.98."""
    fit_a = scaling_sweep(_cfg(eps_grid=(0.4, 0.2, 0.1, 0.05), delta=0.3, seeds=(0,)))
    assert fit_a.slope == pytest.approx(2.9903, abs=2e-3)
    assert 2.6 <= fit_a.slope <= 3.4
    assert fit_a.r_squared >= 0.98
    fit_b = scaling_sweep(_cfg(algorithm="qgfm_plus", eps_grid=(0.4, 0.2, 0.1, 0.05),
                               delta=0.3, seeds=(0, 1)))
    assert fit_b.slope == pytest.approx(2.2955, abs=2e-3)
    assert 7 / 3 - 0.4 <= fit_b.slope <= 7 / 3 + 0.4
    assert fit_b.r_squared >= 0.98


def test_criterion_07_smooth_track_convergence_and_scaling():
    """quadratic d=8 sigma=1: gradient norms within 2 eps, slope ~7/3."""
    cfg = _cfg(algorithm="qgm_plus", problem="quadratic-smooth", d=8,
               noise_scale=1.0, delta=0.0, eps_grid=(0.2, 0.1))
    rows = run_experiment(cfg)
    for eps in (0.2, 0.1):
        sub = [r.residual_est for r in rows if r.eps == eps]
        assert float(np.median(sub)) <= 2 * eps
    pts = [(math.log(1 / eps),
            math.log(float(np.mean([r.grad_oracle_queries for r in rows
                                    if r.eps == eps]))))
           for eps in (0.2, 0.1)]
    slope = fit_loglog(pts).slope
    assert slope == pytest.approx(2.4105, abs=2e-3)
    assert 7 / 3 - 0.4 <= slope <= 7 / 3 + 0.4


def test_criterion_08_dimension_scaling():
    """Quantum queries grow as d^(3/2) at fixed eps."""
    ufs = []
    for d in (2, 8, 32):
        cfg = _cfg(problem="abs-linear", d=d, eps_grid=(0.2,), delta=0.1, seeds=(0,))
        ufs.append((d, run_experiment(cfg)[0].uf_queries))
    assert [q for _, q in ufs] == [50940, 387030, 3082206]
    slope = fit_loglog([(math.log(d), math.log(q)) for d, q in ufs]).slope
    assert slope == pytest.approx(1.4798, abs=2e-3)
    assert 1.3 <= slope <= 1.7


def test_criterion_09_circuit_sampling_correctness():
    """Classical pipeline == state-vector measurement; uniform marginals."""
    layout = qz.RegisterLayout(m1=1, m2=2, d=2)
    st = qz.statevector_apply_h_and_norm(qz.statevector_prepare(layout))
    n_basis = st.amplitudes.size
    xi, sums = _decode_indices(layout, np.arange(n_basis, dtype=np.uint64))
    W, valid = _w_from_sums(sums, layout.m2)
    meas = {}
    for i in range(n_basis):
        key = (int(xi[i]), tuple(np.round(W[i], 12)) if valid[i] else "invalid")
        meas[key] = meas.get(key, Fraction(0)) + Fraction(1, n_basis)
    pipe = {}
    for x_ in range(2):
        for s1 in range(3):
            for s2 in range(3):
                pr = Fraction(1, 2) * Fraction(comb(2, s1), 4) * Fraction(comb(2, s2), 4)
                Wp, vp = _w_from_sums(np.array([[s1, s2]]), 2)
                key = (x_, tuple(np.round(Wp[0], 12)) if vp[0] else "invalid")
                pipe[key] = pipe.get(key, Fraction(0)) + pr
    assert meas == pipe

    n = 10**5
    xp, Wp, vp = qz.pipeline_sample_batch(layout, n, substream(0, "pipe"))
    xm, Wm, vm = qz.measure_sample_batch(st, n, substream(0, "meas"))

    def counts(x, W, v):
        ks = {}
        for i in range(n):
            k = (int(x[i]), tuple(np.round(W[i], 12)) if v[i] else "inv")
            ks[k] = ks.get(k, 0) + 1
        return ks

    ka, kb = counts(xp, Wp, vp), counts(xm, Wm, vm)
    tv = 0.5 * sum(abs(ka.get(k, 0) - kb.get(k, 0)) for k in set(ka) | set(kb)) / n
    assert tv == pytest.approx(0.00692, abs=5e-5)
    assert tv <= 0.01

    lay3 = qz.RegisterLayout(m1=1, m2=256, d=3)
    _, W3, v3 = qz.pipeline_sample_batch(lay3, 1200, substream(3, "ks"))
    ks = stats.kstest(W3[v3][:1000, 2], stats.uniform(loc=-1, scale=2).cdf)
    assert ks.pvalue == pytest.approx(0.7616, abs=1e-3)
    assert ks.pvalue > 0.01

    lay2 = qz.RegisterLayout(m1=2, m2=4, d=1)
    xi2, _, _ = qz.pipeline_sample_batch(lay2, 10**5, substream(1, "chi"))
    chi = stats.chisquare(np.bincount(np.asarray(xi2, dtype=int), minlength=4))
    assert chi.pvalue == pytest.approx(0.3167, abs=1e-3)
    assert chi.pvalue > 0.01


def test_criterion_10_reversible_pipeline_equivalence():
    """Fixed-point emulation tracks the float estimator; 2 and 4 oracle calls."""
    rng = substream(7, "fp", 32)
    worst = 0.0
    for _ in range(1000):
        name = ["abs-linear", "sawtooth", "quadratic-smooth", "constant"][rng.integers(4)]
        d = int(rng.choice([2, 3, 4, 8]))
        noise = float(rng.choice([0.0, 0.1]))
        sp = catalog_make(name, d, noise_scale=noise)
        delta = float(rng.uniform(0.05, 0.5))
        x = rng.normal(size=d) * rng.uniform(0.1, 2.0)
        w = sample_sphere(d, rng)
        xi = sample_xi(sp, rng)
        lay = qz.RegisterLayout(m1=1, m2=2, d=d, frac_bits=32)
        em = qz.emulate_U_g(sp, x, SmoothingParams(delta), xi, w, lay)
        gd = g_delta(sp, x, SmoothingParams(delta), w, xi)
        bound = 2.0 ** (1 - 32) * (d / (2 * delta)) * (1 + np.linalg.norm(x) + sp.L)
        worst = max(worst, float(np.max(np.abs(em - gd))) / bound)
    assert worst == pytest.approx(0.44491150888224984, rel=1e-9)
    assert worst <= 1.0

    spec = catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    lay = qz.RegisterLayout(m1=1, m2=2, d=2, frac_bits=32)
    tape_u = qz.StageTape()
    qz.emulate_U_g(spec, np.array([5.0, 0.0]), SmoothingParams(0.5), qz.XiSample(None),
                   np.array([1.0, 0.0]), lay, tape_u)
    assert tape_u.uf_calls == 2
    tape_v = qz.StageTape()
    qz.emulate_V_g(spec, np.array([5.0, 0.0]), np.array([4.0, 0.5]), SmoothingParams(0.5),
                   qz.XiSample(None), np.array([1.0, 0.0]), lay, tape_v)
    assert tape_v.uf_calls == 4


def test_criterion_11_csv_determinism(tmp_path):
    """Identical configs produce byte-identical CSV bodies."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""\
algorithm = qgfm_plus
problem = abs-linear
d = 2
noise_scale = 0.1
delta = 0.3
eps_grid = 0.4, 0.2
seeds = 0,1,2
""")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    body_a, body_b = a.read_bytes(), b.read_bytes()
    assert body_a == body_b
    assert body_a.startswith(b"algorithm,problem,")
    assert len(body_a.split(b"\n")) == 8
