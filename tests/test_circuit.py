from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_array_equal
from scipy import stats

import qzopt as qz
from qzopt import substream
from qzopt.circuit import _decode_indices, _w_from_sums
from qzopt.objectives import sample_xi
from qzopt.smoothing import sample_sphere


def test_layout_validation_and_widths():
    lay = qz.RegisterLayout(m1=1, m2=2, d=2)
    assert lay.total_qubits == 5
    assert qz.RegisterLayout(m1=2, m2=256, d=3).total_qubits == 770
    with pytest.raises(ValueError):
        qz.RegisterLayout(m1=0, m2=2, d=1)
    with pytest.raises(ValueError):
        qz.RegisterLayout(m1=1, m2=2, d=1, frac_bits=0)


def test_statevector_guard():
    with pytest.raises(ValueError):
        qz.statevector_prepare(qz.RegisterLayout(m1=1, m2=2048, d=1))


def test_enumeration_matches_analytic_distribution():
    # exact rational bookkeeping on the 5-qubit instance: the measured
    # joint law of (xi, w) equals the classical pipeline's law outcome
    # by outcome
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
    assert len(meas) == 18


def test_invalid_probability_exact():
    assert qz.invalid_probability(qz.RegisterLayout(m1=1, m2=2, d=2)) == 0.25
    assert qz.invalid_probability(qz.RegisterLayout(m1=1, m2=4, d=1)) == 0.375
    assert qz.invalid_probability(qz.RegisterLayout(m1=1, m2=3, d=2)) == 0.0
    # 2.0 ** m2 overflows a float from m2 = 1024; the exact binomial ratio does not
    got = qz.invalid_probability(qz.RegisterLayout(m1=1, m2=2048, d=1))
    assert got == float(Fraction(comb(2048, 1024), 2**2048))
    assert got == pytest.approx(0.0176288, rel=1e-5)


def test_pipeline_and_measurement_agree_in_distribution():
    layout = qz.RegisterLayout(m1=1, m2=2, d=2)
    st = qz.statevector_apply_h_and_norm(qz.statevector_prepare(layout))
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
    assert tv < 0.012


def test_w_marginal_is_nearly_uniform_at_wide_registers():
    lay = qz.RegisterLayout(m1=1, m2=256, d=3)
    rng = substream(3, "ks")
    _, W, v = qz.pipeline_sample_batch(lay, 1200, rng)
    w3 = W[v][:1000, 2]
    assert len(w3) == 1000
    ks = stats.kstest(w3, stats.uniform(loc=-1, scale=2).cdf)
    assert ks.statistic == pytest.approx(0.0210, abs=5e-4)
    assert ks.pvalue > 0.05


def test_xi_register_uniform_chi2():
    lay = qz.RegisterLayout(m1=2, m2=4, d=1)
    xi, _, _ = qz.pipeline_sample_batch(lay, 10**5, substream(1, "chi"))
    c = stats.chisquare(np.bincount(np.asarray(xi, dtype=int), minlength=4))
    assert c.pvalue > 0.01


def test_h_standardize_values_and_errors():
    assert qz.h_standardize(np.array([1, 1, 1, 1])) == 2.0
    assert qz.h_standardize(np.array([0, 1])) == 0.0
    assert qz.h_standardize(np.array([1])) == 1.0
    with pytest.raises(ValueError):
        qz.h_standardize(np.array([]))
    with pytest.raises(ValueError):
        qz.h_standardize(np.array([0, 2]))
    with pytest.raises(ValueError):
        qz.h_standardize(np.zeros((2, 2)))


def test_pipeline_sample_modes():
    lay = qz.RegisterLayout(m1=1, m2=2, d=2)
    rng = substream(0, "ps")
    outs = [qz.pipeline_sample(lay, rng) for _ in range(2000)]
    frac_invalid = np.mean([not o.valid for o in outs])
    assert 0.2 < frac_invalid < 0.3
    assert all(o.w is None for o in outs if not o.valid)


def test_measure_sample_norm_guard():
    st = qz.statevector_apply_h_and_norm(
        qz.statevector_prepare(qz.RegisterLayout(m1=1, m2=2, d=1)))
    out = qz.measure_sample(st, substream(2, "ms"))
    assert out.valid == (out.w is not None)
    bad = qz.StateVector(amplitudes=2.0 * st.amplitudes, layout=st.layout)
    with pytest.raises(ValueError):
        qz.measure_sample(bad, substream(2, "ms2"))


def test_measure_sample_reuses_checked_distribution_only_for_its_amplitudes():
    st = qz.statevector_apply_h_and_norm(
        qz.statevector_prepare(qz.RegisterLayout(m1=2, m2=3, d=2)))
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0
    # a rebuilt state with the same amplitudes recomputes the distribution: same draws
    plain = qz.StateVector(amplitudes=st.amplitudes, layout=st.layout)
    a = qz.measure_sample_batch(st, 200, substream(2, "reuse"))
    b = qz.measure_sample_batch(plain, 200, substream(2, "reuse"))
    assert all(np.array_equal(u, v, equal_nan=True) for u, v in zip(a, b))
    st.amplitudes = 2.0 * st.amplitudes
    with pytest.raises(ValueError):
        qz.measure_sample(st, substream(2, "reuse"))


@settings(max_examples=60, deadline=None)
@given(hst.floats(-4000.0, 4000.0, allow_nan=False), hst.integers(1, 40))
def test_fixed_point_quantize_grid(v, fb):
    # 2^(52-40) = 4096 keeps every draw inside the representable range
    q = qz.fixed_point_quantize(v, fb)
    assert q == qz.fixed_point_quantize(q, fb)
    assert abs(q - v) <= 2.0 ** (-fb - 1) + 1e-18
    assert float(q * (1 << fb)) == round(q * (1 << fb))


def test_fixed_point_quantize_guards():
    with pytest.raises(ValueError):
        qz.fixed_point_quantize(1.0, 0)
    with pytest.raises(OverflowError):
        qz.fixed_point_quantize(2.0**30, 32)
    with pytest.raises(OverflowError):
        qz.fixed_point_quantize(np.array([0.0, np.inf]), 8)
    arr = qz.fixed_point_quantize(np.array([0.1, 0.2]), 4)
    assert_array_equal(arr, [0.125, 0.1875])
    assert isinstance(qz.fixed_point_quantize(0.3, 4), float)


def test_U_g_example_and_stage_tape():
    spec = qz.catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    lay = qz.RegisterLayout(m1=1, m2=2, d=2, frac_bits=32)
    tape = qz.StageTape()
    out = qz.emulate_U_g(spec, np.array([5.0, 0.0]), qz.SmoothingParams(0.5),
                         qz.XiSample(None), np.array([1.0, 0.0]), lay, tape)
    assert_array_equal(out, [2.0, 0.0])
    assert tape.uf_calls == 2
    assert tape.stages == ["A+", "A-", "U_F", "U_F", "sub", "Fmul", "mul"]


def test_V_g_stage_count_and_exact_zero():
    spec = qz.catalog_make("abs-linear", 2, direction=np.array([1.0, 0.0]))
    lay = qz.RegisterLayout(m1=1, m2=2, d=2, frac_bits=32)
    tape = qz.StageTape()
    qz.emulate_V_g(spec, np.array([5.0, 0.0]), np.array([4.0, 0.5]),
                   qz.SmoothingParams(0.5), qz.XiSample(None),
                   np.array([1.0, 0.0]), lay, tape)
    assert tape.uf_calls == 4
    saw = qz.catalog_make("sawtooth", 3, noise_scale=0.1)
    rng = substream(4, "vz")
    x = rng.normal(size=3)
    w = sample_sphere(3, rng)
    xi = sample_xi(saw, rng)
    lay3 = qz.RegisterLayout(m1=1, m2=2, d=3, frac_bits=32)
    out = qz.emulate_V_g(saw, x, x, qz.SmoothingParams(0.2), xi, w, lay3)
    assert_array_equal(out, np.zeros(3))


def test_emulated_estimator_error_stays_under_bound():
    # replicates the certification sweep at frac_bits=32; the worst
    # observed error is well under half the documented bound
    from qzopt.smoothing import g_delta

    rng = substream(7, "fp", 32)
    worst = 0.0
    for _ in range(1000):
        name = ["abs-linear", "sawtooth", "quadratic-smooth", "constant"][rng.integers(4)]
        d = int(rng.choice([2, 3, 4, 8]))
        noise = float(rng.choice([0.0, 0.1]))
        sp = qz.catalog_make(name, d, noise_scale=noise)
        delta = float(rng.uniform(0.05, 0.5))
        x = rng.normal(size=d) * rng.uniform(0.1, 2.0)
        w = sample_sphere(d, rng)
        xi = sample_xi(sp, rng)
        lay = qz.RegisterLayout(m1=1, m2=2, d=d, frac_bits=32)
        em = qz.emulate_U_g(sp, x, qz.SmoothingParams(delta), xi, w, lay)
        gd = g_delta(sp, x, qz.SmoothingParams(delta), w, xi)
        bound = 2.0 ** (1 - 32) * (d / (2 * delta)) * (1 + np.linalg.norm(x) + sp.L)
        worst = max(worst, float(np.max(np.abs(em - gd))) / bound)
    assert worst == pytest.approx(0.44491150888224984, rel=1e-9)
    assert worst < 1.0


def test_difference_emulator_matches_composition():
    rng = substream(3, "comp")
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 4, 8]))
        sp = qz.catalog_make("sawtooth", d)
        delta = float(rng.uniform(0.05, 0.5))
        x = rng.normal(size=d)
        y = x + rng.normal(size=d) * 0.1
        w = sample_sphere(d, rng)
        xi = sample_xi(sp, rng)
        lay = qz.RegisterLayout(1, 2, d, frac_bits=32)
        vg = qz.emulate_V_g(sp, x, y, qz.SmoothingParams(delta), xi, w, lay)
        ug = (qz.emulate_U_g(sp, x, qz.SmoothingParams(delta), xi, w, lay)
              - qz.emulate_U_g(sp, y, qz.SmoothingParams(delta), xi, w, lay))
        tol = 2 * 2.0 ** (1 - 32) * (d / (2 * delta)) * (
            1 + max(np.linalg.norm(x), np.linalg.norm(y)) + sp.L)
        worst = max(worst, float(np.max(np.abs(vg - ug))) / tol)
    assert worst == pytest.approx(0.04731888604546755, rel=1e-9)
    assert worst < 1.0


def test_statevector_norm_preserved():
    for m2 in (2, 4):
        st = qz.statevector_prepare(qz.RegisterLayout(m1=2, m2=m2, d=2))
        assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) <= 1e-10
        st2 = qz.statevector_apply_h_and_norm(st)
        assert abs(np.sum(np.abs(st2.amplitudes) ** 2) - 1.0) <= 1e-10


def test_h_values_approach_gaussian_at_wide_registers():
    # standardized bit sums at m2=256: third and fourth moments are
    # within the documented normality bands
    rng = substream(1, "mom")
    sums = rng.binomial(256, 0.5, size=10**5)
    h = (2.0 * sums - 256) / 16.0
    spot = qz.h_standardize((np.arange(256) < sums[0]).astype(int))
    assert spot == h[0]
    assert abs(stats.skew(h)) <= 0.05
    assert abs(stats.kurtosis(h)) <= 0.1


def test_layout_rejects_bool_widths():
    for i in range(4):
        widths = [1, 2, 2, 32]
        widths[i] = True
        with pytest.raises(ValueError, match="positive integer"):
            qz.RegisterLayout(*widths)


@pytest.mark.parametrize("problem, bad", [
    ("abs-linear", np.array([2.0 ** 20 - 0.25, 0.0])),  # x + delta w leaves the range
    ("quadratic-smooth", np.array([2.0 ** 19, 0.0])),  # F(x +- delta w) leaves it
])
def test_emulation_overflow_keeps_error_and_tape(problem, bad):
    # frac_bits = 32 holds values below 2^20
    spec = qz.catalog_make(problem, 2)
    lay = qz.RegisterLayout(m1=1, m2=2, d=2, frac_bits=32)
    sm = qz.SmoothingParams(0.5)
    w = np.array([1.0, 0.0])
    xi = sample_xi(spec, substream(0, "ovf"))
    ok = np.array([0.3, -0.1])
    tape = qz.StageTape()
    qz.emulate_U_g(spec, ok, sm, xi, w, lay, tape)
    before = (list(tape.stages), tape.uf_calls)
    calls = [lambda: qz.emulate_U_g(spec, bad, sm, xi, w, lay, tape),
             lambda: qz.emulate_V_g(spec, bad, ok, sm, xi, w, lay, tape),
             lambda: qz.emulate_V_g(spec, ok, bad, sm, xi, w, lay, tape)]
    for call in calls:
        with pytest.raises(OverflowError) as err:
            call()
        assert type(err.value) is OverflowError
        assert str(err.value) == "value outside fixed-point range (+-2^20)"
        # an error leaves the tape as it was
        assert (tape.stages, tape.uf_calls) == before


def test_emulation_checks_w_then_payload_then_points():
    spec = qz.catalog_make("abs-linear", 2, noise_scale=0.1)
    lay = qz.RegisterLayout(m1=1, m2=2, d=2, frac_bits=32)
    sm = qz.SmoothingParams(0.5)
    w, ok, xi = np.array([1.0, 0.0]), np.array([0.3, -0.1]), sample_xi(spec, substream(0, "ord"))
    bad_w, bad_x, bad_y = np.zeros(3), np.zeros(4), np.zeros(5)
    no_payload = qz.XiSample(None)
    # (emulate, points, size of the first bad point)
    for emulate, points, size in ((qz.emulate_U_g, (bad_x,), 4),
                                  (qz.emulate_V_g, (bad_x, bad_y), 4),
                                  (qz.emulate_V_g, (ok, bad_y), 5)):
        tape = qz.StageTape()
        with pytest.raises(ValueError, match=r"got \(3,\)"):
            emulate(spec, *points, sm, no_payload, bad_w, lay, tape)
        with pytest.raises(ValueError, match="no payload"):
            emulate(spec, *points, sm, no_payload, w, lay, tape)
        with pytest.raises(ValueError, match=rf"got \({size},\)"):
            emulate(spec, *points, sm, xi, w, lay, tape)
        assert tape.stages == []


def test_empty_sample_batches():
    lay = qz.RegisterLayout(m1=2, m2=2, d=3)
    state = qz.statevector_apply_h_and_norm(qz.statevector_prepare(lay))
    for xi, W, valid in (qz.measure_sample_batch(state, 0, substream(0, "empty")),
                         qz.pipeline_sample_batch(lay, 0, substream(0, "empty"))):
        assert (xi.shape, W.shape, valid.shape) == ((0,), (0, 3), (0,))
