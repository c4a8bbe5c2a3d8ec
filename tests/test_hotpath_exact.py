"""Bit-exactness of the estimator hot path, the recursion loop, the
reference-side arithmetic (fixed-point emulation, closed-form f_delta)
and the sampling circuit's measured and pipeline draws.

The expected strings below are the exact float64 bytes (hex) of outputs
recorded from the reference implementation.  Any change to how the
estimators, samplers or optimizer loops compute must reproduce them to
the bit: the same draws in the same order, the same values, the same
ledger integers.  The two optimizer runs take more than 8192 steps so
that any blocked consumption of the coin stream crosses block boundaries.

To re-record after an intended output change, run this file as a script
(``PYTHONPATH=src python tests/test_hotpath_exact.py``) and paste the
printed mapping over EXPECTED.
"""
import hashlib

import numpy as np
import pytest

from qzopt import (
    CostModel,
    QueryLedger,
    RegisterLayout,
    SmoothingParams,
    StageTape,
    catalog_make,
    derive_params_qgfm,
    derive_params_qgfm_plus,
    derive_params_qgm_plus,
    estimate_grad,
    estimate_grad_diff,
    estimate_sgrad,
    estimate_sgrad_diff,
    emulate_U_g,
    emulate_V_g,
    f_delta,
    fixed_point_quantize,
    grad_f_delta_ref,
    measure_sample,
    measure_sample_batch,
    o_delta_g,
    o_g_delta,
    pipeline_sample,
    pipeline_sample_batch,
    qgfm,
    qgfm_plus,
    qgm_plus,
    sample_sphere,
    sample_xi,
    statevector_apply_h_and_norm,
    statevector_prepare,
    substream,
)
from qzopt import objectives, smoothing

D = 3
DELTA = 0.2
X = np.array([0.31, -0.72, 0.18])
Y = X + np.array([0.013, -0.021, 0.008])
# (problem, noise_scale, noise_kind)
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
SIZES = (10, 1600)
MODES = ("quantum", "classical")


def _hex(a) -> str:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes().hex()


def _label(problem, scale, kind):
    return f"{problem}/{kind or ('additive-offset' if scale else 'none')}"


def _estimate_cases():
    """Yield (key, thunk) where thunk returns a GradEstimate from a fresh stream."""
    for problem, scale, kind in SPECS:
        spec = catalog_make(problem, D, scale, kind)
        sm = SmoothingParams(DELTA)
        dist = float(np.linalg.norm(X - Y))
        for n in SIZES:
            s_grad = float(np.sqrt(spec.est_var_coeff * D * spec.L**2 / n)) * 1.0001
            s_diff = float(np.sqrt(spec.diff_var_coeff * D * D * spec.L**2 * dist**2
                                   / (DELTA * DELTA * n))) * 1.0001
            for mode in MODES:
                model = CostModel(mode=mode)
                base = f"{_label(problem, scale, kind)}/n{n}/{mode}"
                yield (f"grad/{base}", lambda spec=spec, s=s_grad, model=model, sm=sm:
                       lambda rng, led: estimate_grad(spec, X, sm, s, model, rng, led, phase="a"))
                yield (f"grad_diff/{base}", lambda spec=spec, s=s_diff, model=model, sm=sm:
                       lambda rng, led: estimate_grad_diff(spec, X, Y, sm, s, model, rng, led,
                                                           phase="b"))
                if spec.smooth_params is None:
                    continue
                s_sg = scale / np.sqrt(n) * 1.0001 if scale else 0.1
                yield (f"sgrad/{base}", lambda spec=spec, s=s_sg, model=model:
                       lambda rng, led: estimate_sgrad(spec, X, s, model, rng, led, phase="c"))
                yield (f"sgrad_diff/{base}", lambda spec=spec, s=s_sg, model=model:
                       lambda rng, led: estimate_sgrad_diff(spec, X, Y, s, model, rng, led,
                                                            phase="d"))


def _estimate_outputs() -> dict[str, str]:
    out = {}
    for i, (key, make) in enumerate(_estimate_cases()):
        rng = substream(11, "hotpath", i)
        led = QueryLedger()
        est = make()(rng, led)
        # the next draw shows the stream was consumed exactly as before
        out[key] = (f"{_hex(est.value)}|{est.queries_charged}|{led.uf_queries},"
                    f"{led.classical_queries},{led.grad_oracle_queries}|"
                    f"{_hex(rng.standard_normal())}")
    return out


def _reference_outputs() -> dict[str, str]:
    out = {}
    for problem, scale, kind in SPECS:
        spec = catalog_make(problem, D, scale, kind)
        sm = SmoothingParams(DELTA)
        label = _label(problem, scale, kind)
        rng = substream(12, label)
        mean, se = grad_f_delta_ref(spec, X, sm, 1000, rng)
        out[f"ref/{label}"] = f"{_hex(mean)}|{_hex(se)}"
        led = QueryLedger()
        g1 = o_g_delta(spec, X, sm, rng, led)
        g2 = o_delta_g(spec, X, Y, sm, rng, led)
        out[f"single/{label}"] = f"{_hex(g1)}|{_hex(g2)}|{led.uf_queries}"
        est, se_mc = smoothing.f_delta(spec, X, sm, mode="mc", n=500, rng=rng)
        out[f"f_delta_mc/{label}"] = f"{_hex(est)}|{_hex(se_mc)}|{_hex(rng.standard_normal())}"
    return out


def _tags(ledger) -> str:
    return ";".join(f"{k}={v[0]},{v[1]},{v[2]}" for k, v in sorted(ledger.phase_tags.items()))


def _run_summary(res) -> str:
    led = res.ledger
    return (f"{_hex(res.x_out)}|{led.uf_queries},{led.classical_queries},"
            f"{led.grad_oracle_queries}|{_tags(led)}|{res.T}|"
            f"{_hex([res.residual.estimate, res.residual.half_width])}")


def _trace_digest(res) -> str:
    h = hashlib.sha256()
    for r in res.trace:
        h.update(repr((r.t, r.g_norm.hex(), r.step_norm.hex(), r.theta, r.phi.hex(),
                       r.gradref_norm.hex(), r.uf, r.classical, r.grad)).encode())
    return h.hexdigest()


def _run_outputs() -> dict[str, str]:
    out = {}
    sm = SmoothingParams(0.3)
    saw = catalog_make("sawtooth", 2)
    p = derive_params_qgfm_plus(2, saw.L, 0.3, 0.07, saw.delta_0)
    assert p.T > 8192
    res = qgfm_plus(saw, np.array([0.1, 0.8]), p, sm, CostModel(), 5, residual_n=2000)
    out["run/qgfm_plus"] = _run_summary(res)
    quad = catalog_make("quadratic-smooth", 8, 0.1)
    l, sigma = quad.smooth_params
    p = derive_params_qgm_plus(l, sigma, 0.03, quad.delta_0, 8)
    assert p.T > 8192
    res = qgm_plus(quad, np.full(8, 0.35), p, CostModel(), 5)
    out["run/qgm_plus"] = _run_summary(res)
    p = derive_params_qgfm_plus(2, saw.L, 0.3, 0.4, saw.delta_0)
    res = qgfm_plus(saw, np.array([0.2, 0.7]), p, sm, CostModel(mode="classical"), 6,
                    trace=True, residual_n=500, trace_ref_n=40)
    out["run/qgfm_plus_traced"] = f"{_run_summary(res)}|{_trace_digest(res)}"
    p = derive_params_qgfm(2, saw.L, 0.3, 0.4, saw.delta_0)
    res = qgfm(saw, np.array([0.2, 0.7]), p, sm, CostModel(), 6, trace=True, residual_n=500,
               trace_ref_n=40)
    out["run/qgfm_traced"] = f"{_run_summary(res)}|{_trace_digest(res)}"
    absl = catalog_make("abs-linear", 3, 0.2)
    p = derive_params_qgfm(3, absl.L, 0.3, 0.3, absl.delta_0)
    res = qgfm(absl, np.array([0.9, -0.4, 0.3]), p, sm, CostModel(mode="classical"), 7,
               residual_n=2000)
    out["run/qgfm_classical"] = _run_summary(res)
    return out


def _budget_outputs() -> dict[str, str]:
    """Runs cut short by the query budget: the abort step fixes the candidates."""
    out = {}
    noisy = catalog_make("sawtooth", 4, noise_scale=0.1)
    p = derive_params_qgfm(4, noisy.L, 0.1, 0.1, noisy.delta_0)
    # (1/2, ..., 1/2) is reflection-fixed on the sawtooth; start off it so the iterates move
    start = np.array([0.3, 0.1, -0.2, 0.4])
    for seed in range(6):
        res = qgfm(noisy, start, p, SmoothingParams(0.1), CostModel(mode="classical"), seed,
                   budget=5000, residual_n=2000)
        out[f"budget/qgfm/{seed}"] = f"{_run_summary(res)}|{res.budget_exceeded}"
    saw = catalog_make("sawtooth", 2)
    p = derive_params_qgfm_plus(2, saw.L, 0.3, 0.07, saw.delta_0)
    for seed in range(3):
        res = qgfm_plus(saw, np.array([0.1, 0.8]), p, SmoothingParams(0.3), CostModel(), seed,
                        budget=100_000, residual_n=2000)
        out[f"budget/qgfm_plus/{seed}"] = f"{_run_summary(res)}|{res.budget_exceeded}"
    quad = catalog_make("quadratic-smooth", 8, 0.1)
    l, sigma = quad.smooth_params
    p = derive_params_qgm_plus(l, sigma, 0.03, quad.delta_0, 8)
    for seed in range(3):
        res = qgm_plus(quad, np.full(8, 0.35), p, CostModel(), seed, budget=40_000)
        out[f"budget/qgm_plus/{seed}"] = f"{_run_summary(res)}|{res.budget_exceeded}"
    return out


# c_q != 1 and an explicit log factor exercise every term of the charge rules
CHARGE_MODELS = {
    "quantum": CostModel(c_q=1.7, log_factor_policy="explicit", log_k=2),
    "classical": CostModel(mode="classical", c_q=1.7, log_factor_policy="explicit", log_k=2),
}
CHARGE_SIGMAS = (0.0123, 0.07, 0.3, 2.5)
FAR = X + np.array([0.41, 0.27, -0.33])


def _charge_outputs() -> dict[str, str]:
    """Charges of all six estimator sites under a non-default cost model."""
    out = {}
    sm = SmoothingParams(DELTA)
    specs = (("abs-linear", 0.3, None), ("sawtooth", 0.0, "component-subsample"),
             ("quadratic-smooth", 0.5, None))
    for i, (problem, scale, kind) in enumerate(specs):
        spec = catalog_make(problem, D, scale, kind)
        label = _label(problem, scale, kind)
        for mode, model in CHARGE_MODELS.items():
            rng = substream(13, f"charge-{mode}", i)
            led = QueryLedger()
            o_g_delta(spec, X, sm, rng, led, model, phase="single")
            o_delta_g(spec, X, Y, sm, rng, led, model, phase="single")
            charges = []
            for s in CHARGE_SIGMAS:
                charges.append(estimate_grad_diff(spec, X, Y, sm, 0.3 * s, model, rng, led,
                                                  phase="diff").queries_charged)
                if s >= 0.07:  # batch sizes grow as 1/s^2
                    charges.append(estimate_grad_diff(spec, X, FAR, sm, s, model, rng, led,
                                                      phase="diff").queries_charged)
                    charges.append(estimate_grad(spec, X, sm, s, model, rng, led,
                                                 phase="grad").queries_charged)
                if spec.smooth_params is not None:
                    charges.append(estimate_sgrad(spec, X, s, model, rng, led,
                                                  phase="sgrad").queries_charged)
                    for y in (Y, FAR):
                        charges.append(estimate_sgrad_diff(spec, X, y, s * 0.01, model, rng, led,
                                                           phase="sgrad_diff").queries_charged)
            out[f"charge/{label}/{mode}"] = (f"{','.join(map(str, charges))}|{_tags(led)}|"
                                             f"{_hex(rng.standard_normal())}")
    return out


def _quantize_case(values, fb) -> str:
    try:
        q = fixed_point_quantize(values, fb)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return f"{type(q).__name__}:{np.shape(q)}:{_hex(q)}"


def _quantize_outputs() -> dict[str, str]:
    """fixed_point_quantize on ties, signed zeros, the range edges and bad input."""
    out = {}
    for fb in (1, 8, 32, 51):
        ulp = 2.0 ** -fb
        limit = 2.0 ** (52 - fb)
        edge = np.nextafter(limit, 0.0)
        scalars = ([(k + 0.5) * ulp for k in range(-4, 4)]
                   + [-0.3 * ulp, -0.5 * ulp, -0.7 * ulp, 0.3 * ulp, -0.0, 0.0, 5e-324, -5e-324,
                      -1e-300, edge, -edge, np.pi, -np.e, 1.0 / 3.0, 123.456])
        out[f"quantize/fb{fb}/scalar"] = ";".join(_quantize_case(v, fb) for v in scalars)
        bad = (limit, -limit, 2.0 * limit, np.inf, -np.inf, np.nan)
        out[f"quantize/fb{fb}/bad"] = ";".join(_quantize_case(v, fb) for v in bad)
        arr = np.array(scalars)
        others = (np.float64(-0.3 * ulp), np.float64(2.5 * ulp), 3, -2, np.array(-0.25 * ulp),
                  np.array([]), arr[:20].reshape(4, 5)[:, ::2], arr[::-1],
                  np.array([0.5, np.nan]), np.array([[edge], [limit]]), np.array([-np.inf, 0.0]))
        out[f"quantize/fb{fb}/array"] = (f"{_quantize_case(arr, fb)};"
                                          + ";".join(_quantize_case(v, fb) for v in others))
    out["quantize/frac_bits"] = ";".join(_quantize_case(0.5, fb) for fb in (0, -1))
    return out


EMU_X = np.array([0.31, -0.0012, 0.18])
EMU_Y = EMU_X + np.array([0.013, -0.021, 0.008])


def _emulate_outputs() -> dict[str, str]:
    """Fixed-point registers and stage tapes of emulate_U_g / emulate_V_g."""
    out = {}
    sm = SmoothingParams(DELTA)
    for i, (problem, scale, kind) in enumerate(SPECS):
        spec = catalog_make(problem, D, scale, kind)
        for fb in (8, 32):
            layout = RegisterLayout(m1=4, m2=16, d=D, frac_bits=fb)
            rng = substream(14, "emulate", i)
            regs = []
            tape_u, tape_v = StageTape(), StageTape()
            for _ in range(6):
                w = sample_sphere(D, rng)
                xi = sample_xi(spec, rng)
                regs.append(emulate_U_g(spec, EMU_X, sm, xi, w, layout, tape_u))
                regs.append(emulate_V_g(spec, EMU_X, EMU_Y, sm, xi, w, layout, tape_v))
                regs.append(emulate_V_g(spec, EMU_Y, EMU_Y, sm, xi, w, layout))
            tapes = "|".join(f"{','.join(t.stages)}|{t.uf_calls}" for t in (tape_u, tape_v))
            out[f"emulate/{_label(problem, scale, kind)}/fb{fb}"] = f"{_hex(regs)}|{tapes}"
    return out


def _f_delta_closed_outputs() -> dict[str, str]:
    """Closed-form f_delta on the kinked problems, where it runs a quadrature."""
    out = {}
    one_minus = np.nextafter(1.0, 0.0)
    coords = (0.0, 1.0, -2.0, 0.5, -1.5, one_minus, -one_minus, 1e-19, -1e-19, 0.37, -0.81,
              2.3, -3.7, 12.49)
    for d in (1, 2, 4, 8):
        saw = catalog_make("sawtooth", d)
        absl = catalog_make("abs-linear", d)
        for delta in (0.1, 0.3, 0.7):
            sm = SmoothingParams(delta)
            vals = [f_delta(saw, np.full(d, v), sm) for v in coords]
            mixed = np.resize(np.array(coords), d)
            vals.append(f_delta(saw, mixed, sm))
            out[f"f_delta_closed/sawtooth/d{d}/delta{delta}"] = _hex(vals)
            # c = <a, x> = s: inside the kink band |c| < delta, on its edge and outside it
            scales = (0.0, 0.25 * delta, -0.6 * delta, np.nextafter(delta, 0.0), delta, -delta,
                      1.5 * delta, -3.0, 1e-19)
            vals = [f_delta(absl, s * absl.direction, sm) for s in scales]
            out[f"f_delta_closed/abs-linear/d{d}/delta{delta}"] = _hex(vals)
    return out


def _draws_digest(draws) -> str:
    """sha256 over each draw's xi, valid flag, w bytes (hex) and rejection count."""
    h = hashlib.sha256()
    for o in draws:
        w = "-" if o.w is None else _hex(o.w)
        h.update(f"{o.xi}:{o.valid}:{w}:{o.rejections};".encode())
    return h.hexdigest()


def _batch_digest(xi, W, valid) -> str:
    """sha256 over a batch's xi values, W bytes (hex, NaN rows included) and valid flags."""
    h = hashlib.sha256()
    h.update(",".join(map(str, xi)).encode())
    h.update(_hex(W).encode())
    h.update(np.asarray(valid, dtype=bool).tobytes())
    return h.hexdigest()


# (m1, m2, d): 5, 14 and 8 qubits with invalid outcomes, 7 with none (odd m2), and
# 17 qubits, a state vector of more than 2^16 basis states
CIRCUIT_LAYOUTS = ((1, 2, 2), (2, 4, 3), (3, 1, 5), (2, 3, 2), (1, 4, 4))


def _circuit_outputs() -> dict[str, str]:
    """Measured and pipeline (xi, w) draws, and the draw that follows them."""
    out = {}
    for i, (m1, m2, d) in enumerate(CIRCUIT_LAYOUTS):
        layout = RegisterLayout(m1=m1, m2=m2, d=d)
        label = f"m1_{m1}_m2_{m2}_d{d}"
        state = statevector_apply_h_and_norm(statevector_prepare(layout))
        rng = substream(15, "measure", i)
        draws = [measure_sample(state, rng) for _ in range(300)]
        out[f"circuit/measure_sample/{label}"] = (
            f"{sum(o.valid for o in draws)}|{_draws_digest(draws)}|{_hex(rng.standard_normal())}")
        rng = substream(15, "measure_batch", i)
        batch = measure_sample_batch(state, 500, rng)
        out[f"circuit/measure_sample_batch/{label}"] = (
            f"{int(batch[2].sum())}|{_batch_digest(*batch)}|{_hex(rng.standard_normal())}")
        for resample in (False, True):
            rng = substream(15, f"pipeline-{resample}", i)
            draws = [pipeline_sample(layout, rng, resample=resample) for _ in range(300)]
            out[f"circuit/pipeline_sample/{label}/resample{resample}"] = (
                f"{sum(o.valid for o in draws)},{sum(o.rejections for o in draws)}|"
                f"{_draws_digest(draws)}|{_hex(rng.standard_normal())}")
    for i, (m1, m2, d) in enumerate(((2, 4, 3), (8, 256, 8), (62, 2, 3), (63, 3, 2), (64, 2, 2))):
        rng = substream(15, "pipeline_batch", i)
        batch = pipeline_sample_batch(RegisterLayout(m1=m1, m2=m2, d=d), 400, rng)
        out[f"circuit/pipeline_sample_batch/m1_{m1}_m2_{m2}_d{d}"] = (
            f"{batch[0].dtype}|{int(batch[2].sum())}|{_batch_digest(*batch)}|"
            f"{_hex(rng.standard_normal())}")
    return out


EXPECTED: dict[str, str] = {
    'grad/constant/none/n10/quantum': '000000000000000000000000000000000000000000000000|12|12,0,0|6ba613717d5af63f',
    'grad_diff/constant/none/n10/quantum': '000000000000000000000000000000000000000000000000|40|40,0,0|972e83f3a113d33f',
    'grad/constant/none/n10/classical': '000000000000000000000000000000000000000000000000|20|0,20,0|66631dd93700d0bf',
    'grad_diff/constant/none/n10/classical': '000000000000000000000000000000000000000000000000|40|0,40,0|adc900701511fb3f',
    'grad/constant/none/n1600/quantum': '000000000000000000000000000000000000000000000000|140|140,0,0|539aad9aa970ddbf',
    'grad_diff/constant/none/n1600/quantum': '000000000000000000000000000000000000000000000000|480|480,0,0|a7a6fbc2765edb3f',
    'grad/constant/none/n1600/classical': '000000000000000000000000000000000000000000000000|3200|0,3200,0|ead24e46c3e7c23f',
    'grad_diff/constant/none/n1600/classical': '000000000000000000000000000000000000000000000000|6400|0,6400,0|d44f19b2c852ee3f',
    'grad/constant/additive-offset/n10/quantum': '000000000000000000000000000000000000000000000000|12|12,0,0|b12b336c51a6d23f',
    'grad_diff/constant/additive-offset/n10/quantum': '000000000000000000000000000000000000000000000000|40|40,0,0|4978cd09a40afa3f',
    'grad/constant/additive-offset/n10/classical': '000000000000000000000000000000000000000000000000|20|0,20,0|603c58b4267cdfbf',
    'grad_diff/constant/additive-offset/n10/classical': '000000000000000000000000000000000000000000000000|40|0,40,0|8022d693e49de33f',
    'grad/constant/additive-offset/n1600/quantum': '000000000000000000000000000000000000000000000000|140|140,0,0|b39741e6fcefd33f',
    'grad_diff/constant/additive-offset/n1600/quantum': '000000000000000000000000000000000000000000000000|480|480,0,0|64e3b134beaff63f',
    'grad/constant/additive-offset/n1600/classical': '000000000000000000000000000000000000000000000000|3200|0,3200,0|531a31656fccdabf',
    'grad_diff/constant/additive-offset/n1600/classical': '000000000000000000000000000000000000000000000000|6400|0,6400,0|0a96e8d9543bd0bf',
    'grad/abs-linear/none/n10/quantum': 'ab26850063afe0bffdafa25f9f02e9bf2b810d6bd66bdfbf|12|12,0,0|050b7dcdcee7c03f',
    'grad_diff/abs-linear/none/n10/quantum': '9a999999999949bc33333333333363bc0000000000007c3c|24|24,0,0|91eb5adb1a2bf93f',
    'grad/abs-linear/none/n10/classical': 'efc138609bf5e1bf3a026b8b60b4bcbfbb4e2e252db7e6bf|20|0,20,0|312772a8f1a9e33f',
    'grad_diff/abs-linear/none/n10/classical': '3333333333d3ac3c9a9999999999693ccdcccccccccc48bc|40|0,40,0|6b2916d09bcbc83f',
    'grad/abs-linear/none/n1600/quantum': 'd77bff3a90b5ddbff17967cdefc5dfbf76ed67c403c8ddbf|140|140,0,0|746a49f9b085f9bf',
    'grad_diff/abs-linear/none/n1600/quantum': '333333333379403c0ad7a3703dc5563cae47e17a1412473c|280|280,0,0|8a75f06d666cf13f',
    'grad/abs-linear/none/n1600/classical': 'cfa2327d6c9fdfbf5c131505076fddbf7cfe819bae34dfbf|3200|0,3200,0|e55adf00f066f0bf',
    'grad_diff/abs-linear/none/n1600/classical': 'ec51b81e85c31abcb81e85eb515b5dbc1f85eb51385061bc|6400|0,6400,0|dd814e7283efdabf',
    'grad/abs-linear/additive-offset/n10/quantum': '6030ef2f9ed8e7bf2ac179f72c33e2bfdc3833712e6ce2bf|12|12,0,0|a02cd25cb025a93f',
    'grad_diff/abs-linear/additive-offset/n10/quantum': '9a9999999999353c333333333333533c33333333333387bc|24|24,0,0|ccdec55ebd35b2bf',
    'grad/abs-linear/additive-offset/n10/classical': 'bac10906a9dfe5bf2f012978aa2bd7bf0a8389ff7defe0bf|20|0,20,0|671a26699937e7bf',
    'grad_diff/abs-linear/additive-offset/n10/classical': '666666666666a43c00000000000082bc3333333333537fbc|40|0,40,0|b3e8483d1924d2bf',
    'grad/abs-linear/additive-offset/n1600/quantum': 'ec16a1df8c97e0bf649982a8f334e0bf176974dcf379dfbf|140|140,0,0|21e83f2517c5d83f',
    'grad_diff/abs-linear/additive-offset/n1600/quantum': '3d0ad7a37074513c713d0ad7a31050bc295c8fc2f528babb|280|280,0,0|16665262bc7502c0',
    'grad/abs-linear/additive-offset/n1600/classical': 'c4aac2eb050fe0bf65fc0aba37b8debfe02399373199debf|3200|0,3200,0|a273b3d7958fe8bf',
    'grad_diff/abs-linear/additive-offset/n1600/classical': '666666666629633c52b81e852bac3c3c00000000008854bc|6400|0,6400,0|96a311d9676cee3f',
    'grad/sawtooth/none/n10/quantum': 'f0377fac81f4da3f231a47e9e9b8bebf030310ca6aabdc3f|12|12,0,0|babdd2c83af7f83f',
    'grad_diff/sawtooth/none/n10/quantum': '63ac7f8bef45753f4a67054c62166d3f01e0bd7c666278bf|40|40,0,0|e4dd4efa05ddf5bf',
    'grad/sawtooth/none/n10/classical': 'cbe21a3e3667ea3f32ef8f30a381e03f0b6dc4988035ee3f|20|0,20,0|94e117a4f5e9f2bf',
    'grad_diff/sawtooth/none/n10/classical': '9a79c7e60df03a3f9a4920efdaeb2b3f00383423f955e33e|40|0,40,0|82a22e2c6992e33f',
    'grad/sawtooth/none/n1600/quantum': 'f890d4f1021ae33f0d74f8b22626e23ffe087a53fbbee23f|140|140,0,0|ed9e0c281e5df23f',
    'grad_diff/sawtooth/none/n1600/quantum': 'd57261f7b6d8823f84e3ac5bc24d35bf9a60749d12ca75bf|480|480,0,0|727494cbf209e03f',
    'grad/sawtooth/none/n1600/classical': '2eb1a2dbfaebe33f5607223aaae2e13f21b270038212e13f|3200|0,3200,0|232398df736202c0',
    'grad_diff/sawtooth/none/n1600/classical': '41c7d5e57395813fb6fcbaf8007d093f4409382f23437abf|6400|0,6400,0|b83b6b56b203e2bf',
    'grad/sawtooth/additive-offset/n10/quantum': 'aa2ca99b9135e33f0bd4a4283e4fd93f91cd4ccf7821e43f|12|12,0,0|63030d93bf5bd0bf',
    'grad_diff/sawtooth/additive-offset/n10/quantum': '9a0b85af0bc14b3fcdc84181ad553cbf3332b3b71ef4f33e|40|40,0,0|cc2941fc7789e03f',
    'grad/sawtooth/additive-offset/n10/classical': 'cabdb49eb533e93ffb0e09bb983dd53f90d0842b855ae23f|20|0,20,0|44f9d1e339a8f5bf',
    'grad_diff/sawtooth/additive-offset/n10/classical': 'dad7509ce927843f3364c97c9e194d3fed2b8fd000d264bf|40|0,40,0|42374ed2ea70be3f',
    'grad/sawtooth/additive-offset/n1600/quantum': '312257544fdae13fbcbe5b96dff9e23f804f5481b98ce13f|140|140,0,0|df7de7220044c03f',
    'grad_diff/sawtooth/additive-offset/n1600/quantum': 'cd9a74b4dc0c863faf5bf48ca20a2a3fe0bd211617df75bf|480|480,0,0|6897894c6a83fabf',
    'grad/sawtooth/additive-offset/n1600/classical': '846f7360628fe13fdb12878dfd25e23fa34da47380d4e13f|3200|0,3200,0|7474afa40ceadc3f',
    'grad_diff/sawtooth/additive-offset/n1600/classical': 'acb05415068b813f31e95fa5f13135bfc3ca81e3413573bf|6400|0,6400,0|2b9b066f26add2bf',
    'grad/sawtooth/component-subsample/n10/quantum': '490086fec1cff33fcd2aab593a24ed3fc696537584afe33f|12|12,0,0|e8507c352461ee3f',
    'grad_diff/sawtooth/component-subsample/n10/quantum': '9a9999999999693ccdcccccccccca43c9a999999999981bc|40|40,0,0|b38301fd3632ef3f',
    'grad/sawtooth/component-subsample/n10/classical': '9219e5b59f6efa3fbaffa2cfcf4ae43f3cb2d35d19f8e23f|20|0,20,0|2d195bd868fdfbbf',
    'grad_diff/sawtooth/component-subsample/n10/classical': '9a9999999999993c9a999999999969bc9a9999999999593c|40|0,40,0|0037f56df595bfbf',
    'grad/sawtooth/component-subsample/n1600/quantum': '2b729afd3d87e23fb756d44fd429e33ff6c32969252fe23f|140|140,0,0|fb42258b5263c7bf',
    'grad_diff/sawtooth/component-subsample/n1600/quantum': '34e960b8471a823faabfb750c7cd203fea7582c729d673bf|480|480,0,0|af9daadbb311eb3f',
    'grad/sawtooth/component-subsample/n1600/classical': 'b028a93443cfe13ff7209ec7f263e43f80c8b5c23f9de13f|3200|0,3200,0|6d1f69138072dd3f',
    'grad_diff/sawtooth/component-subsample/n1600/classical': '0cfba09bc408813f64e89a239a89f43ee47d7313281c76bf|6400|0,6400,0|3085a8b8db65d43f',
    'grad/quadratic-smooth/none/n10/quantum': '7896202c89dbd33fa93b86630e1af5bf8d8b3ca7be8ed73f|12|12,0,0|8e41c24232c7f4bf',
    'grad_diff/quadratic-smooth/none/n10/quantum': '9adb1dcf629a6ebf004c07448716a63fb8e80067546397bf|40|40,0,0|b05db3f46b6cebbf',
    'sgrad/quadratic-smooth/none/n10/quantum': 'd7a3703d0ad7d33f48e17a14ae47f1bf0ad7a3703d0ad73f|1|0,0,1|fae71ab7dd82d63f',
    'sgrad_diff/quadratic-smooth/none/n10/quantum': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|1|0,0,1|ed06c639bab2ddbf',
    'grad/quadratic-smooth/none/n10/classical': '78e882e027d8e63faafa817f78eaf4bf36a3cbd86fffd03f|20|0,20,0|809dbb3c5cc6e03f',
    'grad_diff/quadratic-smooth/none/n10/classical': 'd6ac7088f61653bf7601daceaafba13fd3a63838572d92bf|40|0,40,0|4c626b15cf65ec3f',
    'sgrad/quadratic-smooth/none/n10/classical': 'd7a3703d0ad7d33f48e17a14ae47f1bf0ad7a3703d0ad73f|1|0,0,1|fcefe327bd01b33f',
    'sgrad_diff/quadratic-smooth/none/n10/classical': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|1|0,0,1|746a770ba31cf1bf',
    'grad/quadratic-smooth/none/n1600/quantum': 'd1c246bb8ffdd13f6fe641873578f1bf611a6ce50bccd93f|140|140,0,0|456274bc1722e93f',
    'grad_diff/quadratic-smooth/none/n1600/quantum': 'd476eba883cd8abf6ee632499138a03fc839d134ce9d8fbf|480|480,0,0|1ad1aaf49141d0bf',
    'sgrad/quadratic-smooth/none/n1600/quantum': 'd7a3703d0ad7d33f48e17a14ae47f1bf0ad7a3703d0ad73f|1|0,0,1|16a8493c2688f63f',
    'sgrad_diff/quadratic-smooth/none/n1600/quantum': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|1|0,0,1|f3d5823f14dbfd3f',
    'grad/quadratic-smooth/none/n1600/classical': 'c3bec6631352d43f3124f8f32d4af1bf1b4f9707ca07d63f|3200|0,3200,0|7777a05c3b82dd3f',
    'grad_diff/quadratic-smooth/none/n1600/classical': 'e37c1d3d0df08abf2b1f680ead99a03f2f08c64d1c618fbf|6400|0,6400,0|1d19518217819cbf',
    'sgrad/quadratic-smooth/none/n1600/classical': 'd7a3703d0ad7d33f48e17a14ae47f1bf0ad7a3703d0ad73f|1|0,0,1|057f5b4e8bdbddbf',
    'sgrad_diff/quadratic-smooth/none/n1600/classical': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|1|0,0,1|dd992d200aaefc3f',
    'grad/quadratic-smooth/additive-offset/n10/quantum': 'f4bb30fd49add03fc620312ad0e2f4bf462669a6d7afb03f|12|12,0,0|77b122a95fb4ebbf',
    'grad_diff/quadratic-smooth/additive-offset/n10/quantum': '1090b4e8a69399bf9d46bcd27b93a13f8134a0bae32a95bf|40|40,0,0|bbe8a43ae0c6e0bf',
    'sgrad/quadratic-smooth/additive-offset/n10/quantum': '8c9933626c5ade3fd7f33e5b02ebf2bf5f21ba451a45d43f|6|0,0,6|9a4bc7d772f7e6bf',
    'sgrad_diff/quadratic-smooth/additive-offset/n10/quantum': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|1|0,0,1|a654956b718acfbf',
    'grad/quadratic-smooth/additive-offset/n10/classical': '786cd66238bcc93f266693e48c98fcbfc08bcaec4a1cdf3f|20|0,20,0|5a476617dfc504c0',
    'grad_diff/quadratic-smooth/additive-offset/n10/classical': '000fb88fdc786bbf750b58707cc6a33f80dd02b5091e84bf|40|0,40,0|400e260e7a26ee3f',
    'sgrad/quadratic-smooth/additive-offset/n10/classical': '731fccd410cad53fa003bebfa002f1bfab97b0df3dd4d63f|10|0,0,10|eff14ba74dbb7c3f',
    'sgrad_diff/quadratic-smooth/additive-offset/n10/classical': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|1|0,0,1|7389cf8e326cfa3f',
    'grad/quadratic-smooth/additive-offset/n1600/quantum': '9d7ccf29c99fd43f9eded1811c90f1bf96094c592170d93f|140|140,0,0|b0e5585fa69aadbf',
    'grad_diff/quadratic-smooth/additive-offset/n1600/quantum': '58fcca0323e98abfd7b50fc3ea6ca03f66017c34a6e78dbf|480|480,0,0|6da6ed74fcc9fc3f',
    'sgrad/quadratic-smooth/additive-offset/n1600/quantum': '9da86acb1452d43fcc1ba5d06e18f1bf85e92db6fc17d73f|70|0,0,70|0f82a7655f90d3bf',
    'sgrad_diff/quadratic-smooth/additive-offset/n1600/quantum': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|8|0,0,8|8fbafe623c9e943f',
    'grad/quadratic-smooth/additive-offset/n1600/classical': 'fd8b474f31ecd43f8d36e319ed1ff1bf514d7b4f24e1d73f|3200|0,3200,0|e2533c116d16ec3f',
    'grad_diff/quadratic-smooth/additive-offset/n1600/classical': 'c1697e5c1d8b8ebf94a5209b9d33a03fd66bfa46796e91bf|6400|0,6400,0|9440f8c23233d7bf',
    'sgrad/quadratic-smooth/additive-offset/n1600/classical': 'e9eadc57df18d43f3da1e9dc350ff1bf2ec05f5b2f6ad63f|1600|0,0,1600|1eb933142a3dfbbf',
    'sgrad_diff/quadratic-smooth/additive-offset/n1600/classical': '40b4c876be9f8abf58e3a59bc420a03f00aaf1d24d6290bf|18|0,0,18|a60959077888613f',
    'ref/constant/none': '000000000000000000000000000000000000000000000000|000000000000000000000000000000000000000000000000',
    'single/constant/none': '000000000000000000000000000000000000000000000080|000000000000000000000000000000000000000000000000|6',
    'f_delta_mc/constant/none': '0000000000000000|0000000000000000|728ba9462fabd83f',
    'ref/constant/additive-offset': '000000000000000000000000000000000000000000000000|000000000000000000000000000000000000000000000000',
    'single/constant/additive-offset': '000000000000000000000000000000800000000000000080|000000000000000000000000000000000000000000000000|6',
    'f_delta_mc/constant/additive-offset': '0000000000000000|0000000000000000|4fb09b95ce06d63f',
    'ref/abs-linear/none': '86d29771d458dfbf1fe4bc9d14bbdfbf9ff978b82bfbe0bf|0575d46b8609973f3d642d1b2744973fc88cde2988c8963f',
    'single/abs-linear/none': '3c481411045ad1bf6f9b5b6063deda3fe95f2fee07bdf5bf|000000000000000000000000000000000000000000000000|6',
    'f_delta_mc/abs-linear/none': '9ea434a8f4c0c13f|6da16e3a48346f3f|827b3b5bd95adebf',
    'ref/abs-linear/additive-offset': 'f33c3a6c65f8ddbf4546a09fd231e0bf9686e5d52387e0bf|437b535b05ce963f5194af880a11973f89bce25bb248973f',
    'single/abs-linear/additive-offset': 'de68a0617b64d5bf99a355ec8ab0c33f93d979f921cbb83f|0000000000000000000000000000903c0000000000000000|6',
    'f_delta_mc/abs-linear/additive-offset': 'fc65f8dc95f9c03f|8ff47e22f96b6f3f|6a2c10573604e3bf',
    'ref/sawtooth/none': '8bef5142c5cce23fdb7dd9ce27fbe13f00e1543918d7e33f|7fe0ce01e3d89a3f5e8b39bef0589a3f2c7d665d7d2f9a3f',
    'single/sawtooth/none': 'a7de3d1e4c4dd63f40bd8275a130b73fe684306ecba5fe3f|000000000000b83c000000000000d83c000000000000c03c|6',
    'f_delta_mc/sawtooth/none': 'f22ba30d70a7dc3f|4cf9358dd52d703f|bd0caaf7691dedbf',
    'ref/sawtooth/additive-offset': '137e03af8df9e23f43cfbf011f41e33f83150635c4dbe13f|cb91029bb2b59a3fda0a0d4b9d7f9a3fb7a108b990039a3f',
    'single/sawtooth/additive-offset': 'c94b56052f2e70bffb88ff53298b803fbec0bb3327ad70bf|000000000000000000000000000000000000000000000000|6',
    'f_delta_mc/sawtooth/additive-offset': '1a70ffa32443dc3f|aac02be9c4a5703f|d217b9b216f8bbbf',
    'ref/sawtooth/component-subsample': '77ea068d011fe03f05eb456d2540e33f9369f1c3bf5de23f|c9d333e66b89aa3f988c027c15d7aa3f61647214eeafaa3f',
    'single/sawtooth/component-subsample': '3b8235300337ee3f2db00fe8b0e2c73f83785d09f39fca3f|000000000000000000000000000000000000000000000000|6',
    'f_delta_mc/sawtooth/component-subsample': '81aef02319f7dc3f|54449ca21a80703f|49f72a504ac8aabf',
    'ref/quadratic-smooth/none': 'e39f926909f0d43f50215e397633f2bfb0fd89cc8324d73f|547bca8cd4649e3fbedc63293431a13f0e236e1f30bb9d3f',
    'single/quadratic-smooth/none': '07dcf07d76b0ea3f66e32fd25e5ebc3fc455c7d9b0d8e13f|2029ff27ae13aabfa0b65aca4d11b33fe041f845b4d8afbf|6',
    'f_delta_mc/quadratic-smooth/none': 'e1bd4078c049df3f|6056bb1d6da6723f|af8cb6007374dc3f',
    'ref/quadratic-smooth/additive-offset': '5c7fbcfb0edad63f7b3d795e5cbaf1bfc714f0b139ecd83f|87b4fa979e71a03f860a3ffcc7faa23fa1c5f07ca25ca13f',
    'single/quadratic-smooth/additive-offset': 'dbbfda84b49593bf1a0b8b025b03d53f9e5445e393c2e03f|c04dc9ae559e79bfc0d22d10b135a03f80872f7c29529d3f|6',
    'f_delta_mc/quadratic-smooth/additive-offset': '58d6d17d105bdf3f|a89c0ffdd92d733f|1f407233800906c0',
    'run/qgfm_plus': '36673feb0c05363cffffffffffffef3f|306212,0,0|diff=167960,0,0;init=82,0,0;refresh=138170,0,0|10084|606a3e2b4c6db73c16164a3ef258793c',
    'run/qgm_plus': 'eef0985c644d763f464aa21ccb9a6d3f5b8d0d95258b66bfe4f27acc5aa9343fab81934618fa49bfd2b26fd9aea476bf375d3847f98f71bf1ad7b8529df4613f|0,0,120347|diff=0,0,37565;init=0,0,14;refresh=0,0,82768|13426|a450c161fb498f3f0000000000000000',
    'run/qgfm_plus_traced': 'b09f29b5dfd197bde9beffffffffef3f|0,10046,0|diff=0,1096,0;init=0,50,0;refresh=0,8900,0|316|9b58a85737cab23dd616b8222dda813d|aac173bc1323f1b2dc887c71701c4f86c6cf5c7da97bae105d3f0d0516affa30',
    'run/qgfm_traced': '108da182d443b53e48e9cb54feffef3f|2480,0,0|refresh=2480,0,0|155|9d76c59cc730d43eabb0fc838438a23e|baf04dc2c39080aaaefc6beb0619011a364088aba841999fc8e679321f91a0b8',
    'run/qgfm_classical': 'f315b64cd416e43f3b0f86a08d06e5bf0029ff792af79d3f|0,55074,0|refresh=0,55074,0|411|ea906097ccfd453c66cd9a6d4b91683c',
    'budget/qgfm/0': '2b65ead9edabd03f455a24cf2a56b03ff1666bb78aabc4bf022c58db5716d73f|0,6400,0|refresh=0,6400,0|9600|0b4c40cfdabbee3f49685a79fcfcb73f|True',
    'budget/qgfm/1': '7d02991e388ed13f4dca62b2fa47b33fb641b3d81252c6bf58ef98f3a006d83f|0,6400,0|refresh=0,6400,0|9600|9e45163cb117ef3ff21b1c1ed550b83f|True',
    'budget/qgfm/2': '89c9fcd7cb72d13fa72be712d631b33f61805151f42cc6bfda7b4bd627f1d73f|0,6400,0|refresh=0,6400,0|9600|f85ad8ef8202ef3ff338497c2348b83f|True',
    'budget/qgfm/3': '56b760bc9a7ed13f6039043e8a94b33f55f8a4cbf36cc6bf4c7e1494300bd83f|0,6400,0|refresh=0,6400,0|9600|04aa2a49d51cf03f804943cc65aeb83f|True',
    'budget/qgfm/4': '333333333333d33f9a9999999999b93f9a9999999999c9bf9a9999999999d93f|0,6400,0|refresh=0,6400,0|9600|081e4f3d4910f03f4ee070fa05ccb83f|True',
    'budget/qgfm/5': '15a3db70ade5d03f92bb2d4c606bb03f245ce3aeb2a4c4bffb7a508f6e27d73f|0,6400,0|refresh=0,6400,0|9600|9bcb45485e66f03ffb67fcf3b893b83f|True',
    'budget/qgfm_plus/0': '46eaad8b94c6673cffffffffffffef3f|100014,0,0|diff=53520,0,0;init=82,0,0;refresh=46412,0,0|10084|2860b47d4935b83c8b4c389e4302793c|True',
    'budget/qgfm_plus/1': '70c2f9ed16b7f33b010000000000f03f|100016,0,0|diff=53440,0,0;init=82,0,0;refresh=46494,0,0|10084|08697d736eddc73c8d6af2f995cd873c|True',
    'budget/qgfm_plus/2': 'c7e7856939c46a3c010000000000f03f|100016,0,0|diff=57540,0,0;init=82,0,0;refresh=42394,0,0|10084|5f9ead71edebc73c14c035d6edcf873c|True',
    'budget/qgm_plus/0': '0c35c393f1d327bfd2cf50e09d066cbfe5993c058621753fc05c95eeb34c67bf49994f2c6e1d673fa4ac4dd93bf7653f4a1bd6330411613fbd8f1eb19fde53bf|0,0,40005|diff=0,0,12075;init=0,0,14;refresh=0,0,27916|13426|dcd36dda1003883f0000000000000000|True',
    'budget/qgm_plus/1': '8de45a707bfa65bfe69c10e7d456663fc876dc8de72a283f3814f711c18c79bf678cd82a44145bbf3d65f297000b783f99988eccb60f60bfb4b9ab4401f85fbf|0,0,40005|diff=0,0,11935;init=0,0,14;refresh=0,0,28056|13426|cd5153158f408f3f0000000000000000|True',
    'budget/qgm_plus/2': '77dc0afdec1c6abf98267127aae8743fc2919752933e53bf263132b50c1a603feee80f701e56233f99b1a06b664e663f1e1a70fd3d9b5f3f15f10c87a6a8513f|0,0,40004|diff=0,0,12130;init=0,0,14;refresh=0,0,27860|13426|f6dc5200a7d2833f0000000000000000|True',
    'charge/abs-linear/additive-offset/quantum': '100764,7920,23936,2336,832,1408,136,8,44,6|diff=134912,0,0;grad=2478,0,0;single=6,0,0|c6b5cb256d130140',
    'charge/abs-linear/additive-offset/classical': '44552,1376,64268,1226,76,3500,68,4,52,2|diff=0,113828,0;grad=0,1296,0;single=0,6,0|fb023a31932cebbf',
    'charge/sawtooth/component-subsample/quantum': '174636,13680,41408,4064,1472,2416,240,12,76,8|diff=233700,0,0;grad=4312,0,0;single=6,0,0|eb73f2ef8bb6f0bf',
    'charge/sawtooth/component-subsample/classical': '44552,1376,64268,3674,76,3500,200,4,52,4|diff=0,113828,0;grad=0,3878,0;single=0,6,0|0f1a3c119e35c1bf',
    'charge/quadratic-smooth/additive-offset/quantum': '453276,5880,210067,4786249,35424,107520,10496,352,26499,602217,3712,6272,616,20,4131,94122,28,192,20,1,252,5040|diff=606424,0,0;grad=11132,0,0;sgrad=0,0,6253;sgrad_diff=0,0,5728577;single=6,0,0|a4f0cdbd35b4e8bf',
    'charge/quadratic-smooth/additive-offset/classical': '300716,1653,178201,92511072,9288,433808,24796,52,5503,2856327,508,23620,1350,3,300,155512,8,344,20,1,5,2240|diff=0,768292,0;grad=0,26166,0;sgrad=0,0,1709;sgrad_diff=0,0,95709160;single=0,6,0|6817fd746174e33f',
    'quantize/fb1/scalar': 'float:():00000000000000c0;float:():000000000000f0bf;float:():000000000000f0bf;float:():0000000000000080;float:():0000000000000000;float:():000000000000f03f;float:():000000000000f03f;float:():0000000000000040;float:():0000000000000080;float:():0000000000000080;float:():000000000000e0bf;float:():0000000000000000;float:():0000000000000080;float:():0000000000000000;float:():0000000000000000;float:():0000000000000080;float:():0000000000000080;float:():0000000000002043;float:():00000000000020c3;float:():0000000000000840;float:():00000000000004c0;float:():000000000000e03f;float:():0000000000e05e40',
    'quantize/fb1/bad': 'OverflowError;OverflowError;OverflowError;OverflowError;OverflowError;OverflowError',
    'quantize/fb1/array': 'ndarray:(23,):00000000000000c0000000000000f0bf000000000000f0bf00000000000000800000000000000000000000000000f03f000000000000f03f000000000000004000000000000000800000000000000080000000000000e0bf000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000080000000000000204300000000000020c3000000000000084000000000000004c0000000000000e03f0000000000e05e40;float:():0000000000000080;float:():000000000000f03f;float:():0000000000000840;float:():00000000000000c0;float:():0000000000000080;ndarray:(0,):;ndarray:(4, 3):00000000000000c0000000000000f0bf0000000000000000000000000000f03f00000000000000400000000000000080000000000000e0bf00000000000000800000000000000000000000000000008000000000000020430000000000000840;ndarray:(23,):0000000000e05e40000000000000e03f00000000000004c0000000000000084000000000000020c30000000000002043000000000000008000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000e0bf000000000000008000000000000000800000000000000040000000000000f03f000000000000f03f00000000000000000000000000000080000000000000f0bf000000000000f0bf00000000000000c0;OverflowError;OverflowError;OverflowError',
    'quantize/fb8/scalar': 'float:():00000000000090bf;float:():00000000000080bf;float:():00000000000080bf;float:():0000000000000080;float:():0000000000000000;float:():000000000000803f;float:():000000000000803f;float:():000000000000903f;float:():0000000000000080;float:():0000000000000080;float:():00000000000070bf;float:():0000000000000000;float:():0000000000000080;float:():0000000000000000;float:():0000000000000000;float:():0000000000000080;float:():0000000000000080;float:():000000000000b042;float:():000000000000b0c2;float:():0000000000200940;float:():0000000000c005c0;float:():000000000040d53f;float:():0000000040dd5e40',
    'quantize/fb8/bad': 'OverflowError;OverflowError;OverflowError;OverflowError;OverflowError;OverflowError',
    'quantize/fb8/array': 'ndarray:(23,):00000000000090bf00000000000080bf00000000000080bf00000000000000800000000000000000000000000000803f000000000000803f000000000000903f0000000000000080000000000000008000000000000070bf000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000080000000000000b042000000000000b0c200000000002009400000000000c005c0000000000040d53f0000000040dd5e40;float:():0000000000000080;float:():000000000000803f;float:():0000000000000840;float:():00000000000000c0;float:():0000000000000080;ndarray:(0,):;ndarray:(4, 3):00000000000090bf00000000000080bf0000000000000000000000000000803f000000000000903f000000000000008000000000000070bf000000000000008000000000000000000000000000000080000000000000b0420000000000200940;ndarray:(23,):0000000040dd5e40000000000040d53f0000000000c005c00000000000200940000000000000b0c2000000000000b04200000000000000800000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000070bf00000000000000800000000000000080000000000000903f000000000000803f000000000000803f0000000000000000000000000000008000000000000080bf00000000000080bf00000000000090bf;OverflowError;OverflowError;OverflowError',
    'quantize/fb32/scalar': 'float:():00000000000010be;float:():00000000000000be;float:():00000000000000be;float:():0000000000000080;float:():0000000000000000;float:():000000000000003e;float:():000000000000003e;float:():000000000000103e;float:():0000000000000080;float:():0000000000000080;float:():000000000000f0bd;float:():0000000000000000;float:():0000000000000080;float:():0000000000000000;float:():0000000000000000;float:():0000000000000080;float:():0000000000000080;float:():0000000000003041;float:():00000000000030c1;float:():00004854fb210940;float:():0000188b0abf05c0;float:():000040555555d53f;float:():00c09f1a2fdd5e40',
    'quantize/fb32/bad': 'OverflowError;OverflowError;OverflowError;OverflowError;OverflowError;OverflowError',
    'quantize/fb32/array': 'ndarray:(23,):00000000000010be00000000000000be00000000000000be00000000000000800000000000000000000000000000003e000000000000003e000000000000103e00000000000000800000000000000080000000000000f0bd000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000080000000000000304100000000000030c100004854fb2109400000188b0abf05c0000040555555d53f00c09f1a2fdd5e40;float:():0000000000000080;float:():000000000000003e;float:():0000000000000840;float:():00000000000000c0;float:():0000000000000080;ndarray:(0,):;ndarray:(4, 3):00000000000010be00000000000000be0000000000000000000000000000003e000000000000103e0000000000000080000000000000f0bd000000000000008000000000000000000000000000000080000000000000304100004854fb210940;ndarray:(23,):00c09f1a2fdd5e40000040555555d53f0000188b0abf05c000004854fb21094000000000000030c10000000000003041000000000000008000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000f0bd00000000000000800000000000000080000000000000103e000000000000003e000000000000003e0000000000000000000000000000008000000000000000be00000000000000be00000000000010be;OverflowError;OverflowError;OverflowError',
    'quantize/fb51/scalar': 'float:():000000000000e0bc;float:():000000000000d0bc;float:():000000000000d0bc;float:():0000000000000080;float:():0000000000000000;float:():000000000000d03c;float:():000000000000d03c;float:():000000000000e03c;float:():0000000000000080;float:():0000000000000080;float:():000000000000c0bc;float:():0000000000000000;float:():0000000000000080;float:():0000000000000000;float:():0000000000000000;float:():0000000000000080;float:():0000000000000080;float:():0000000000000040;float:():00000000000000c0;OverflowError;OverflowError;float:():585555555555d53f;OverflowError',
    'quantize/fb51/bad': 'OverflowError;OverflowError;OverflowError;OverflowError;OverflowError;OverflowError',
    'quantize/fb51/array': 'OverflowError;float:():0000000000000080;float:():000000000000d03c;OverflowError;OverflowError;float:():0000000000000080;ndarray:(0,):;OverflowError;OverflowError;OverflowError;OverflowError;OverflowError',
    'quantize/frac_bits': 'ValueError;ValueError',
    'emulate/constant/none/fb8': '000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000000000000000000008000000000000000000000000000000000000000000000008000000000000000000000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/constant/none/fb32': '000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000000000000000000008000000000000000000000000000000000000000000000008000000000000000000000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/constant/additive-offset/fb8': '000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/constant/additive-offset/fb32': '000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/abs-linear/none/fb8': '0000000000a0f23f000000000000a43f0000000000d00040000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000a4bf000000000000ff3f0000000000c0d23f0000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000d00240000000000020f13f000000000000e53f000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020fd3f000000000060e33f000000000000d1bf0000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000c0dc3f000000000040ddbf0000000000c0d23f000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000000000080d1bf0000000000009c3f000000000040d83f000000000000000000000000000000800000000000000080000000000000000000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/abs-linear/none/fb32': '0000a0ef5d5cf23f00000066c68aa13f0000305a34a8004000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000036bfafa1bf00002044cba8fe3f0000400fa552d23f0000000000000000000000000000008000000000000000800000000000000000000000000000008000000000000000800000c0bc0cb10240000010b84b1bf13f0000201556cee43f0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000b0f6821bfd3f00000096df71e33f0000400bc7d4d0bf0000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000400405c5dc3f000000ce1140ddbf0000408cbfe1d23f000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000080ed6174d2bf000000488e7d9e3f0000c0a38189d93f000000000000000000000000000000800000000000000080000000000000000000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/abs-linear/additive-offset/fb8': '000000000000ef3f0000000000b00140000000000080d03f0000000000000080000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000e0fd3f0000000000e0ff3f000000000060f13f000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000030f43f000000000000e2bf000000000040ec3f000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000080c8bf000000000000b7bf000000000080d83f000000000000000000000000000000000000000000000080000000000000000000000000000000000000000000000080000000000000a63f000000000000b8bf000000000000ae3f0000000000000000000000000000008000000000000000000000000000000000000000000000008000000000000000000000000000d0f83f000000000000d1bf000000000000c63f000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/abs-linear/additive-offset/fb32': '0000804f2360ef3f000018d1ddda014000004023816cd03f000000000000083e000000000000183e000000000000f03d0000000000000080000000000000008000000000000000800000b06245a5fd3f0000c0b4f79cff3f0000d057943bf13f0000000000000080000000000000008000000000000000800000000000000080000000000000008000000000000000800000407be49ff43f0000a0796e53e2bf000040a15bcfec3f000000000000183e00000000000008be000000000000103e000000000000008000000000000000000000000000000080000080a85ec4c6bf000000fb1c51b5bf0000c003c2d8d63f000000000000083e000000000000f03d00000000000018be000000000000000000000000000000000000000000000080000000ae83abaa3f00000050d5acbbbf0000002c5d21b13f000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000000090d04802f93f0000803fb13dd1bf00008034afa2c63f000000000000000000000000000000800000000000000000000000000000000000000000000000800000000000000000|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/sawtooth/none/fb8': '000000000000bd3f000000000000d3bf000000000000a8bf000000000000b3bf000000000080c83f000000000000a03f000000000000008000000000000000000000000000000000000000000080c23f000000000000b2bf000000000000bfbf000000000000c3bf000000000000b33f000000000000c03f0000000000000000000000000000008000000000000000800000000000a0e83f0000000000a0e43f000000000040fe3f000000000000b33f000000000000b03f000000000080c73f000000000000008000000000000000800000000000000080000000000080f33f000000000000b23f000000000040d3bf000000000000cd3f000000000000883f000000000000acbf000000000000000000000000000000000000000000000080000000000080e63f0000000000c0d93f0000000000b0ff3f000000000000ae3f000000000000a23f000000000080c53f000000000000000000000000000000000000000000000000000000000000f63f000000000000e5bf000000000000a2bf000000000080c4bf000000000000b33f000000000000703f000000000000000000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/sawtooth/none/fb32': '000000033842c03f0000c0a95825d5bf0000000ef132acbf000000e70782b0bf000080fb5678c53f000000fc9da19c3f000000000000008000000000000000000000000000000000000080089ecfc13f000000c49c92b1bf0000003b384bbebf0000807c9099c0bf00000030b560b03f000000d3dd3bbc3f0000000000000000000000000000008000000000000000800000409f45b0e83f0000801fb195e43f0000d0485d4afe3f00000044a8c2b03f0000002ee5f2ab3f0000000d3990c43f00000000000000800000000000000080000000000000008000006007c5f7f23f00000005e41cb13f0000806367a2d2bf000080125370c83f000000c8790c863f0000002a5602a8bf0000000000000000000000000000000000000000000000800000006a7260e63f000000e3053ad93f0000a0b12864ff3f0000005c633fa73f000000a85b359a3f000080c5744ec03f000000000000000000000000000000000000000000000000000070766b16f63f0000a0671d17e5bf000000105158a3bf000000a3fe91c1bf0000006ae7c6b03f000000a0f7c66e3f000000000000000000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/sawtooth/additive-offset/fb8': '000000000080c53f000000000000b93f000000000000c1bf000000000000c03f000000000000b23f000000000000babf000000000000000000000000000000000000000000000080000000000000d83f0000000000a0edbf000000000000cb3f000000000000b3bf000000000000c83f000000000000a6bf0000000000000000000000000000008000000000000000000000000000a0f43f0000000000c0f0bf000000000000d73f000000000000c4bf000000000080c03f000000000000a6bf000000000000008000000000000000000000000000000080000000000080d0bf0000000000c0dcbf000000000060e43f000000000000b03f000000000000bc3f000000000000c4bf000000000000000000000000000000000000000000000080000000000040d3bf000000000000883f0000000000b0f03f000000000000803f00000000000000800000000000009cbf0000000000000080000000000000000000000000000000000000000000c0f33f0000000000e0e93f0000000000c0fa3f000000000000bd3f000000000000b33f000000000080c33f000000000000008000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/sawtooth/additive-offset/fb32': '0000804b923cc53f000000f4cc77b83f00008014e809c1bf0000803cda8fc03f00000020fd14b33f000000707e93babf0000000000000000000000000000000000000000000000800000c041508cd73f000080f2e71eedbf0000006cf781ca3f0000000d6213b1bf00008077dd1dc53f000000fac938a3bf000000000000000000000000000000800000000000000000000080eb8b6af43f0000608820acf0bf0000c076fb90d63f000080f096a1c1bf00000050d1cbbc3f000000a4f07ca3bf00000000000000800000000000000000000000000000008000008089104ed0bf00004056c33fdcbf0000e014e50be43f000000f6fd5fad3f000000a95e72b93f00000028cf0ec2bf000000000000000000000000000000000000000000000080000000737ffcd2bf000000f01ac1873f00004047f564f03f0000001c5953913f0000000030ad45bf00000064b2ebadbf0000000000000080000000000000000000000000000000000000a0914de7f33f000020fcbe05ea3f000080db37fafa3f0000004ca5c4b93f0000008752d8b03f0000005a9376c13f000000000000008000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/sawtooth/component-subsample/fb8': '000000000040fe3f0000000000e0febf000000000050fa3f000000000000943f00000000000094bf000000000000903f0000000000000080000000000000000000000000000000800000000000c0e43f00000000006003400000000000880a40000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000b73f0000000000c0e33f0000000000c0d4bf0000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000000000000000000080000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000c0ef3f000000000020f13f0000000000c0db3f000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000008000000000000000000000000000000080000000000020e1bf000000000080d33f00000000000094bf000000000000008000000000000000000000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/sawtooth/component-subsample/fb32': '000030e132d0fd3f000070814346febf0000303478f2f93f0000000000000080000000000000000000000000000000800000000000000080000000000000000000000000000000800000209aa19de43f0000c07ff75103400000489ecc740a40000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000fe7343b63f0000a08c3edde23f0000c0edc6e9d3bf000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000000000000000004c602c3f00000078bd16853f00000004be57a03f00000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000008000008018f0f9ee3f00005059bfbcf03f00004054bb40db3f0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000cc0aa9b3f000000f836cc8fbf000000009eac4f3f0000c008c242debf0000c00aae63d13f00000064665291bf000000000000008000000000000000000000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/quadratic-smooth/none/fb8': '000000000080cdbf000000000000c4bf0000000000a0e23f000000000000943f000000000000903f000000000000acbf000000000000008000000000000000800000000000000000000000000000b73f000000000000c73f000000000000a2bf000000000000a43f000000000000b43f00000000000090bf000000000000008000000000000000800000000000000000000000000080eb3f000000000080e33f0000000000a0e23f000000000000008000000000000000800000000000000080000000000000008000000000000000800000000000000080000000000000a6bf000000000000c4bf000000000000b13f000000000000983f000000000000b43f000000000000a2bf000000000000008000000000000000800000000000000000000000000080e33f000000000040dd3f000000000000943f000000000000983f000000000000903f00000000000000000000000000000000000000000000000000000000000000000000000000e0e03f00000000000080bf000000000000c6bf000000000000a0bf0000000000000000000000000000803f000000000000000000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/quadratic-smooth/none/fb32': '00000019b05bcdbf000080a9b820c4bf000020473da4e23f000000602e18933f00000020a12e8a3f00000064b33fa8bf000000000000008000000000000000800000000000000000000000d13951b73f00000002e5e3c73f000000822d9ba2bf00000036639ba03f000000fbd803b13f00000078d6808abf000000000000008000000000000000800000000000000000000080cebb05eb3f00002072bc2fe33f000000d7e358e23f000000402abb62bf0000000056995abf000000407c6f59bf000000000000008000000000000000800000000000000080000000044849a8bf00000049081fc5bf000000b65477b23f000000a4f218983f0000006ffff4b43f000000929452a2bf00000000000000800000000000000080000000000000000000000027ddace33f000000a0b864dd3f000000ccaff2923f0000002010cd933f00000008d3948d3f00000000b211433f0000000000000000000000000000000000000000000000000000e08374ace03f000000683e0181bf0000805975cfc5bf000000e4e0f196bf000000008f66373f000000e078037e3f000000000000000000000000000000800000000000000080|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/quadratic-smooth/additive-offset/fb8': '0000000000a0e73f0000000000c0d03f000000000000b8bf000000000000008000000000000000800000000000000000000000000000008000000000000000800000000000000000000000000000b0bf000000000000ce3f000000000060f13f000000000000000000000000000070bf0000000000009cbf000000000000000000000000000000800000000000000080000000000040ed3f0000000000d0f2bf000000000000a8bf000000000000b2bf000000000000b83f000000000000703f000000000000000000000000000000800000000000000080000000000040d2bf000000000000d53f000000000000c63f000000000000a2bf000000000000a63f000000000000983f0000000000000080000000000000000000000000000000000000000000c0fc3f00000000000094bf000000000040d03f000000000000aebf000000000000000000000000000080bf0000000000000000000000000000008000000000000000000000000000c0d8bf000000000080d7bf0000000000c0d33f000000000000a23f000000000000a03f0000000000009cbf000000000000008000000000000000800000000000000000|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'emulate/quadratic-smooth/additive-offset/fb32': '0000e0bed0f2e73f0000802a8305d13f000000e267b8b7bf00000000c0323e3f00000000ac76253f0000000018e90dbf0000000000000080000000000000008000000000000000000000007c9faeafbf000080f07f85ce3f000060bbafbbf13f000000c06538563f00000080026875bf000000f8d4df98bf0000000000000000000000000000008000000000000000800000007dc5d7ed3f0000a020f020f3bf000000640bf6a7bf000000c4cc85aebf000000977c90b33f00000000c681683f0000000000000000000000000000008000000000000000800000802a47d1d1bf0000c0999791d43f000080673b5bc53f000000ae38b2a6bf0000000e6333aa3f0000001c3d349b3f000000000000008000000000000000000000000000000000000010e9b6a4fc3f00000040368592bf0000c06bbb57d03f000000906e7ba7bf00000000c95d3e3f000000e0bacb7abf0000000000000000000000000000008000000000000000000000809ef977d8bf0000000d9c3dd7bf0000c0d5896ed33f0000001a50f7a13f000000967d10a13f000000b017899cbf000000000000008000000000000000800000000000000000|A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul,A+,A-,U_F,U_F,sub,Fmul,mul|12|A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul,A+,A-,U_F,U_F,sub,Fmul,A+,A-,U_F,U_F,sub,Fmul,sub,mul|24',
    'f_delta_closed/sawtooth/d1/delta0.1': '9c9999999999a93f9b9999999999a93f9b9999999999a93fcdccccccccccdc3fccccccccccccdc3f9b9999999999a93f9b9999999999a93f9c9999999999a93f9c9999999999a93faf47e17a14aed73f51b81e85eb51c83f313333333333d33f313333333333d33ff753e3a59bc4dc3f9c9999999999a93f',
    'f_delta_closed/abs-linear/d1/delta0.1': '9c9999999999a93f353333333333ab3f9cc420b07268b13f9a9999999999b93f9a9999999999b93f9a9999999999b93f343333333333c33f00000000000008409c9999999999a93f',
    'f_delta_closed/sawtooth/d1/delta0.3': '343333333333c33f353333333333c33f333333333333c33f676666666666d63f686666666666d63f343333333333c33f343333333333c33f343333333333c33f343333333333c33f347a5bd6ea98d43f1a7605c8bde6ca3f212222222222d23f212222222222d23fcee86d59ab63d63f343333333333c33f',
    'f_delta_closed/abs-linear/d1/delta0.3': '343333333333c33f676666666666c43feb263108ac1cca3f333333333333d33f333333333333d33f333333333333d33fccccccccccccdc3f0000000000000840343333333333c33f',
    'f_delta_closed/sawtooth/d1/delta0.7': 'e32bbee22bbed23fe32bbee22bbed23fe32bbee22bbed23f3ba8833aa883ca3f3ba8833aa883ca3fe42bbee22bbed23fe42bbee22bbed23fe32bbee22bbed23fe32bbee22bbed23fd5bbfab5360fcc3f2042dac2b217d13fc1e22bbee22bce3fbfe22bbee22bce3fe713346aff85ca3fe32bbee22bbed23f',
    'f_delta_closed/abs-linear/d1/delta0.7': '676666666666d63fcdccccccccccd73f135839b4c876de3f676666666666e63f666666666666e63f666666666666e63fccccccccccccf03f0000000000000840676666666666d63f',
    'f_delta_closed/sawtooth/d2/delta0.1': '9728dc8115bbae3f9328dc8115bbae3f9328dc8115bbae3f4779610eedb4e43f4779610eedb4e43f9b28dc8115bbae3f9b28dc8115bbae3f9728dc8115bbae3f9728dc8115bbae3fd56e3fb289bee03feb6a7fe76332d13f9114ff7a2427db3f9114ff7a2427db3f0c06f0878eade43f9628dc8115bbae3f',
    'f_delta_closed/abs-linear/d2/delta0.1': '5b5ef952debaa53f78dd4b63a7c1a73fa8846f588b8cb03f2b081b12a899b93fc51290999999b93fc51290999999b93f333333333333c33fffffffffffff07405b5ef952debaa53f',
    'f_delta_closed/sawtooth/d2/delta0.3': '7a1e6521500cc73f771e6521500cc73f751e6521500cc73f31f4255e8adde03f31f4255e8adde03f771e6521500cc73f771e6521500cc73f7a1e6521500cc73f7a1e6521500cc73fcf1c51746189de3ff6b7a8932637d23f3f922d98dc58da3f3f922d98dc58da3f3d0a300f15dbe03f781e6521500cc73f',
    'f_delta_closed/abs-linear/d2/delta0.3': 'ca063bbe264cc03f1ae6788a3dd1c13ffc46a704d1d2c83f2046940d3e33d33faa472d333333d33faa472d333333d33fcaccccccccccdc3fffffffffffff0740ca063bbe264cc03f',
    'f_delta_closed/sawtooth/d2/delta0.7': 'b4dc7eeb4851d83fb4dc7eeb4851d83fb4dc7eeb4851d83fed9a7fe1f3efd43fed9a7fe1f3efd43fb5dc7eeb4851d83fb4dc7eeb4851d83fb4dc7eeb4851d83fb4dc7eeb4851d83f184921710e79d53fe45136d7613bd73ffb62e20bea1fd63ffc62e20bea1fd63f7c214a76cbf0d43fb4dc7eeb4851d83f',
    'f_delta_closed/abs-linear/d2/delta0.7': '91329a888203d33fc961e27672c9d43f2228c3daf3f5dc3f25a7d70f7366e63f3a7e5f666666e63f3a7e5f666666e63fcbccccccccccf03fffffffffffff074091329a888203d33f',
    'f_delta_closed/sawtooth/d4/delta0.1': 'e1c283754b62b13fe1c283754b62b13fdec283754b62b13f2c004c91b6d3ed3f2c004c91b6d3ed3fe3c283754b62b13fe3c283754b62b13fe1c283754b62b13fe1c283754b62b13f63eddf7a14aee73f3dcc1b85eb51d83f876630333333e33f876630333333e33f801f3339d7c5ed3fa0b4ae6e492cd23f',
    'f_delta_closed/abs-linear/d4/delta0.1': 'e1c283754b62a13fd6ac344cdb0ea43ff444b83e85acaf3f09428e999999b93f9a9999999999b93f9a9999999999b93f343333333333c33f0000000000000840e1c283754b62a13f',
    'f_delta_closed/sawtooth/d4/delta0.3': '720e5a307113ca3f730e5a307113ca3f720e5a307113ca3f4cf4e5b3237be93f4df4e5b3237be93f730e5a307113ca3f730e5a307113ca3f720e5a307113ca3f720e5a307113ca3fabf54507c78fe63f9151aef114dbd83f304cb4275101e33f304cb4275101e33ff2a17d498176e93f91bf144cdc84d63f',
    'f_delta_closed/abs-linear/d4/delta0.3': '720e5a307113ba3fb34c65f24816be3fd67915ef63c1c73fcbe631333333d33f333333333333d33f333333333333d33fccccccccccccdc3f0000000000000840720e5a307113ba3f',
    'f_delta_closed/sawtooth/d4/delta0.7': '416b4bb8a956dd3f416b4bb8a956dd3f3f6b4bb8a956dd3ff6bcd723ab54e13ff6bcd723ab54e13f416b4bb8a956dd3f416b4bb8a956dd3f416b4bb8a956dd3f416b4bb8a956dd3f574137b546eee03f833cf4fd3ffbde3f640b88e3ae6de03f640b88e3ae6de03fbe935d3f0b54e13feb6e24dc54abde3f',
    'f_delta_closed/abs-linear/d4/delta0.7': '2f66be0d046cce3f0891bfe2ff8cd13f7963ee96f4b6db3f99e264666666e63f666666666666e63f666666666666e63fccccccccccccf03f00000000000008402f66be0d046cce3f',
    'f_delta_closed/sawtooth/d8/delta0.1': '5d9bf1cd2cbbb23f609bf1cd2cbbb23f5c9bf1cd2cbbb23f83eba099eb74f53f84eba099eb74f53f5c9bf1cd2cbbb23f5c9bf1cd2cbbb23f5d9bf1cd2cbbb23f5d9bf1cd2cbbb23fdd0340b289bef03ff70380e76332e13f4106007b2427eb3f4106007b2427eb3fd329081d8367f53fa5383e0004f8d83f',
    'f_delta_closed/abs-linear/d8/delta0.1': 'bb4890cb667d9a3f985efcc5a2d6a03fc2498f624eeeae3f7b7d9a999999b93f7f7d9a999999b93f7f7d9a999999b93f333333333333c33fffffffffffff0740bb4890cb667d9a3f',
    'f_delta_closed/sawtooth/d8/delta0.3': '0c69ea34c318cc3f0e69ea34c318cc3f0e69ea34c318cc3f18b8e2ff851df33f18b8e2ff851df33f0c69ea34c318cc3f0c69ea34c318cc3f0c69ea34c318cc3f0c69ea34c318cc3fb2ab8cb59471f03fef5f7663f444e13f23823bc1a51beb3f23823bc1a51beb3f0a582ee70719f33f7e9fba33cfa6dd3f',
    'f_delta_closed/abs-linear/d8/delta0.3': '8c36ac180ddeb33fe18dfa28f441b93fc292e2c9ba32c73f1bde33333333d33f1bde33333333d33f74ed42333333d33fcaccccccccccdc3fffffffffffff07408c36ac180ddeb33f',
    'f_delta_closed/sawtooth/d8/delta0.7': '578f795e4c4be03f578f795e4c4be03f578f795e4c4be03fa7e9846ef0f5ec3fa7e9846ef0f5ec3f588f795e4c4be03f588f795e4c4be03f578f795e4c4be03f578f795e4c4be03f0b900bb698f4ea3fe6ce87db824de43fdc5bc3ba1894e83fdd5bc3ba1894e83fd4314e84b8f2ec3feb657c62f575e33f',
    'f_delta_closed/abs-linear/d8/delta0.7': 'a43f1ef2b92dc73f89a579da9c77cd3f8b0033968410db3fcc2d67666666e63f666666666666e63f666666666666e63fcbccccccccccf03fffffffffffff0740a43f1ef2b92dc73f',
    'circuit/measure_sample/m1_1_m2_2_d2': '212|9deacf1ff3e021e83245266d739b5734364a7d588e9af37b47cdc20d299d040e|e8c0ae418d18c4bf',
    'circuit/measure_sample_batch/m1_1_m2_2_d2': '372|6a962d5b0626c1d21ab3cb55dceac21bf6bce7024203976329107630df227f50|87dece6e49bef2bf',
    'circuit/pipeline_sample/m1_1_m2_2_d2/resampleFalse': '237,0|cc50b2d0e1d4111d1c67c9b760763c62abdc87ff1f6911327dfc2b96d5209fce|1725110528fce1bf',
    'circuit/pipeline_sample/m1_1_m2_2_d2/resampleTrue': '300,84|cb57822a834f9d0657d5f2f83300a4e608abb98fdf14b7a1daaf5a197e1f0356|bf28d88d9bdec53f',
    'circuit/measure_sample/m1_2_m2_4_d3': '288|2e607309465900a365b1f1609ffdb4ede4fe99a2fe19fbedc96f76a459b18be9|ee92ff27aa1abd3f',
    'circuit/measure_sample_batch/m1_2_m2_4_d3': '473|55184ee8e879e67495f0e26f92fa6668346748c5a85b56a8206e17ddf1449cbb|1a8b328666699bbf',
    'circuit/pipeline_sample/m1_2_m2_4_d3/resampleFalse': '287,0|5c458138db7f2610dec43aead39968d7a22c8f1ddf991ab9dbbfaa4fc217c5ce|6bdd9aa9537eeabf',
    'circuit/pipeline_sample/m1_2_m2_4_d3/resampleTrue': '300,11|72feade3835012cbdc60cb23c827e136c5a1a64fc27209753260703c4e9c51e4|afddfea4383df53f',
    'circuit/measure_sample/m1_3_m2_1_d5': '300|6027f3d9771f3fc6f3939854f952d4104bf4b289b8fa44b52065c97c29c39121|887227fdbc16f23f',
    'circuit/measure_sample_batch/m1_3_m2_1_d5': '500|3482c5ea2095bf77506b2977382bda4e01bcbcee150dde526381f4edb7a31139|4d0b5d09676cefbf',
    'circuit/pipeline_sample/m1_3_m2_1_d5/resampleFalse': '300,0|0ee21e134e95fdb8daaa4f4fbb8a43867e02b959879be1617b4d930b9eb47875|698f100fafa3e33f',
    'circuit/pipeline_sample/m1_3_m2_1_d5/resampleTrue': '300,0|9bcf790090ef5910cfeeddc703394b2b1bd4f3d1a9396cadc42946bc6b096b97|3b8e54dc5789d4bf',
    'circuit/measure_sample/m1_2_m2_3_d2': '300|cae47cbfecf3e59f29bd965beaea8271367ddaff3a3aeabea9dcad71f0a0cec9|5d27b0398045eb3f',
    'circuit/measure_sample_batch/m1_2_m2_3_d2': '500|262040b5868902a2183243ac9dba0edddc29f8dee62b1eccb1cfee76245edd66|78a6ed1f4f31d0bf',
    'circuit/pipeline_sample/m1_2_m2_3_d2/resampleFalse': '300,0|12f67c13a74df873a0a0f903d1d99a9459340d5b323a3908048123c3347847d5|d68bba831b2fcfbf',
    'circuit/pipeline_sample/m1_2_m2_3_d2/resampleTrue': '300,0|7546178986f32018f9332b5d6f0c63576ccccae07b5f542f982785b56ae5bdda|c00c2fd89a6fe1bf',
    'circuit/measure_sample/m1_1_m2_4_d4': '296|35f87c2acb7bdbfa9554d729ecfacb30479ee75adfe3f5548276bcdb0c5d562f|57044e1f399cdb3f',
    'circuit/measure_sample_batch/m1_1_m2_4_d4': '488|438b4c9944668e0127768973a17cada3de9a0c95cd968f65f6ca53a8b9ad4e27|2023670d100bec3f',
    'circuit/pipeline_sample/m1_1_m2_4_d4/resampleFalse': '295,0|6a2e8d71bb27e868ad864f11b1f3b430e45824d357aafeaf755d9c9f8b2c97fa|d3a7d38ec07efb3f',
    'circuit/pipeline_sample/m1_1_m2_4_d4/resampleTrue': '300,3|a04d64b19bb6b300770da3db97cec53ee70336f09a68afe090835e390e4cefdf|224720515370c4bf',
    'circuit/pipeline_sample_batch/m1_2_m2_4_d3': 'int64|384|b3f15df74482a91be34e7bce7408836b2dd823495c2e3c991370c18df76d4df4|7971c6238d07e4bf',
    'circuit/pipeline_sample_batch/m1_8_m2_256_d8': 'int64|400|256826ef7599440b043b9b3b5039b58efd29cc76296e94cfe94d746cdcbeca77|1ba8af4933b5f43f',
    'circuit/pipeline_sample_batch/m1_62_m2_2_d3': 'int64|353|8624073a69c0787c370aa7d8b8524388fdacabad161ce2fb73c2279b387e4365|19ed9f6bd53ec93f',
    'circuit/pipeline_sample_batch/m1_63_m2_3_d2': 'object|400|24912fea63cda324802799db9fd99074128720ff01cd26bf62127cde85b942c0|5fd996d43729f6bf',
    'circuit/pipeline_sample_batch/m1_64_m2_2_d2': 'object|308|e552e63ce5be9319b52ad2899532e7d298a53055bca1782c3053e97c6b30576d|e07c2044524de8bf',
}


def test_estimators_bit_exact():
    got = _estimate_outputs()
    want = {k: v for k, v in EXPECTED.items()
            if not k.startswith(("ref/", "single/", "f_delta_mc/", "run/", "budget/", "charge/",
                                 "quantize/", "emulate/", "f_delta_closed/",
                                 "circuit/"))}
    assert len(got) == len(want) == 88
    assert {k for k in got if got[k] != want.get(k)} == set()


def test_reference_samplers_bit_exact():
    got = _reference_outputs()
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


def test_optimizer_runs_bit_exact():
    got = _run_outputs()
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


def test_budget_aborts_bit_exact():
    got = _budget_outputs()
    assert all(v.endswith("|True") for v in got.values())
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


def test_charge_sites_bit_exact():
    got = _charge_outputs()
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


def test_fixed_point_quantize_bit_exact():
    got = _quantize_outputs()
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


def test_emulation_bit_exact():
    got = _emulate_outputs()
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


# a kink within an ulp of the ball's edge makes quad warn; the value is still pinned
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_f_delta_closed_bit_exact():
    got = _f_delta_closed_outputs()
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


def test_circuit_sampling_bit_exact():
    got = _circuit_outputs()
    resampled = [v for k, v in got.items() if k.startswith("circuit/pipeline_sample/")
                 and k.endswith("resampleTrue")]
    assert any(int(v.split("|")[0].split(",")[1]) > 0 for v in resampled)
    assert {k for k in got if got[k] != EXPECTED.get(k)} == set()


class _ZeroFirstRow:
    """Generator stub: the first batch has an all-zero row 0, later batches are ones."""

    def __init__(self):
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        if len(self.shapes) == 1:
            v = np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape)
            v[0] = 0.0
            return v
        return np.ones(shape)


@pytest.mark.parametrize("sampler", [smoothing._sphere_batch, objectives._sphere_rows])
def test_sphere_samplers_redraw_zero_rows(sampler):
    stub = _ZeroFirstRow()
    W = sampler(3, 4, stub)
    assert stub.shapes == [(4, 3), (1, 3)]
    assert np.array_equal(W[0], np.full(3, 1.0 / np.sqrt(3.0)))
    first = np.arange(1.0, 13.0).reshape(4, 3)
    assert np.array_equal(W[1:], first[1:] / np.linalg.norm(first[1:], axis=1)[:, None])


if __name__ == "__main__":
    rows = {**_estimate_outputs(), **_reference_outputs(), **_run_outputs(),
            **_budget_outputs(), **_charge_outputs(), **_quantize_outputs(),
            **_emulate_outputs(), **_f_delta_closed_outputs(), **_circuit_outputs()}
    print("EXPECTED: dict[str, str] = {")
    for k, v in rows.items():
        print(f"    {k!r}: {v!r},")
    print("}")
