"""Bit-exactness of the estimator hot path and the recursion loop.

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
    SmoothingParams,
    catalog_make,
    derive_params_qgfm,
    derive_params_qgfm_plus,
    derive_params_qgm_plus,
    estimate_grad,
    estimate_grad_diff,
    estimate_sgrad,
    estimate_sgrad_diff,
    grad_f_delta_ref,
    o_delta_g,
    o_g_delta,
    qgfm,
    qgfm_plus,
    qgm_plus,
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
}


def test_estimators_bit_exact():
    got = _estimate_outputs()
    want = {k: v for k, v in EXPECTED.items()
            if not k.startswith(("ref/", "single/", "f_delta_mc/", "run/", "budget/", "charge/"))}
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
            **_budget_outputs(), **_charge_outputs()}
    print("EXPECTED: dict[str, str] = {")
    for k, v in rows.items():
        print(f"    {k!r}: {v!r},")
    print("}")
