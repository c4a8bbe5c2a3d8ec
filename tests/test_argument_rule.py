"""One rule for numeric arguments, at every public entry point.

An integer argument is a Python or numpy integer, never a bool or a float;
a real argument is a finite Python or numpy int or float, never a bool.
NaN, +-inf, True, a value out of range and 2.5 where an integer is asked
for raise ValueError (ConfigError for an experiment config), and a numpy
scalar gives the result its Python twin gives, to the type of each stored
number.  A static scan keeps the rule in one place.
"""
import ast
import dataclasses
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qzopt import (
    CostModel,
    ObjectiveSpec,
    QgfmParams,
    QgfmPlusParams,
    QueryLedger,
    RegisterLayout,
    SmoothingParams,
    catalog_make,
    derive_params_qgfm,
    derive_params_qgfm_plus,
    derive_params_qgm_plus,
    estimate_grad,
    estimate_grad_diff,
    estimate_sgrad,
    estimate_sgrad_diff,
    exact_goldstein_distance,
    f_delta,
    fixed_point_quantize,
    goldstein_residual,
    grad_f_delta_ref,
    measure_sample_batch,
    pipeline_sample_batch,
    qgfm,
    qgfm_plus,
    qgm_plus,
    quantum_mean_cost,
    sample_sphere,
    statevector_apply_h_and_norm,
    statevector_prepare,
    substream,
    verify_stationary,
)
from qzopt import algorithms
from qzopt.harness import ConfigError, ExperimentConfig

SPEC = catalog_make("abs-linear", 2)
QUAD = catalog_make("quadratic-smooth", 2, noise_scale=0.5)
SM = SmoothingParams(0.1)
X = np.array([0.1, 0.1])
Y = np.array([0.2, -0.1])
LAYOUT = RegisterLayout(1, 2, 2)
STATE = statevector_apply_h_and_norm(statevector_prepare(LAYOUT))


def _spec(**kw):
    args = dict(name="sawtooth", d=2, L=1.0, noise_kind="none", noise_scale=0.0, f_star=0.0,
                delta_0=0.0, x0=np.zeros(2))
    return ObjectiveSpec(**{**args, **kw})


def _config(**kw):
    args = dict(algorithm="qgfm", problem="abs-linear", d=2, eps_grid=(0.4,), seeds=(0,),
                delta=0.3)
    return ExperimentConfig(**{**args, **kw})


def _rng():
    return substream(0, "argument-rule")


# (id, kind, call with the argument, a valid value); kind is "int<lo>" for an
# integer >= lo, "pos" for a real > 0, "nonneg" for a real >= 0, "unit" for a
# real in (0, 1) and "prob" for a real in (0, 1]
CASES = [
    ("catalog_make.d", "int1", lambda v: catalog_make("sawtooth", v), 3),
    ("catalog_make.noise_scale", "nonneg",
     lambda v: catalog_make("quadratic-smooth", 2, noise_scale=v), 0.5),
    ("ObjectiveSpec.d", "int1", lambda v: _spec(d=v), 2),
    ("ObjectiveSpec.L", "pos", lambda v: _spec(L=v), 1.5),
    ("ObjectiveSpec.noise_scale", "nonneg", lambda v: _spec(noise_scale=v), 0.25),
    ("sample_sphere.d", "int1", lambda v: sample_sphere(v, _rng()), 3),
    ("RegisterLayout.m1", "int1", lambda v: RegisterLayout(v, 2, 2), 3),
    ("RegisterLayout.m2", "int1", lambda v: RegisterLayout(1, v, 2), 3),
    ("RegisterLayout.d", "int1", lambda v: RegisterLayout(1, 2, v), 3),
    ("RegisterLayout.frac_bits", "int1", lambda v: RegisterLayout(1, 2, 2, v), 16),
    ("fixed_point_quantize.frac_bits", "int1", lambda v: fixed_point_quantize(0.3, v), 8),
    ("measure_sample_batch.n", "int0", lambda v: measure_sample_batch(STATE, v, _rng()), 3),
    ("pipeline_sample_batch.n", "int0", lambda v: pipeline_sample_batch(LAYOUT, v, _rng()), 3),
    ("CostModel.c_q", "pos", lambda v: CostModel(c_q=v), 2.5),
    ("CostModel.log_k", "int0", lambda v: CostModel(log_k=v), 2),
    ("quantum_mean_cost.L_hat", "nonneg", lambda v: quantum_mean_cost(v, 4, 0.5, CostModel()), 2.0),
    ("quantum_mean_cost.d", "int1", lambda v: quantum_mean_cost(2.0, v, 0.5, CostModel()), 4),
    ("quantum_mean_cost.sigma_hat", "pos",
     lambda v: quantum_mean_cost(2.0, 4, v, CostModel(log_k=1)), 0.3),
    ("estimate_grad.sigma_hat", "pos",
     lambda v: estimate_grad(SPEC, X, SM, v, CostModel(), _rng(), QueryLedger()), 0.5),
    ("estimate_grad_diff.sigma_hat", "pos",
     lambda v: estimate_grad_diff(SPEC, X, Y, SM, v, CostModel(), _rng(), QueryLedger()), 0.5),
    ("estimate_sgrad.sigma_hat", "pos",
     lambda v: estimate_sgrad(QUAD, X, v, CostModel(), _rng(), QueryLedger()), 0.5),
    ("estimate_sgrad_diff.sigma_hat", "pos",
     lambda v: estimate_sgrad_diff(QUAD, X, Y, v, CostModel(), _rng(), QueryLedger()), 0.5),
    ("SmoothingParams.delta", "pos", lambda v: SmoothingParams(v), 0.3),
    ("f_delta.n", "int1", lambda v: f_delta(SPEC, X, SM, mode="mc", n=v, rng=_rng()), 10),
    ("grad_f_delta_ref.n", "int2", lambda v: grad_f_delta_ref(SPEC, X, SM, v, _rng()), 10),
    ("goldstein_residual.n", "int2", lambda v: goldstein_residual(SPEC, X, SM, v, 0.95, _rng()), 50),
    ("goldstein_residual.confidence", "unit",
     lambda v: goldstein_residual(SPEC, X, SM, 50, v, _rng()), 0.9),
    ("verify_stationary.eps", "pos", lambda v: verify_stationary(SPEC, X, SM, v, 0.95, _rng(), n0=50),
     3.0),
    ("verify_stationary.n0", "int1", lambda v: verify_stationary(SPEC, X, SM, 3.0, 0.95, _rng(), n0=v),
     50),
    ("exact_goldstein_distance.delta", "pos", lambda v: exact_goldstein_distance(SPEC, X, v), 0.2),
    ("substream.seed", "int0", lambda v: substream(v, "x"), 3),
    ("substream.index", "int0", lambda v: substream(0, "x", v), 3),
]
# the schedule derivations, one case per argument
QGFM_ARGS = dict(d=4, L=1.0, delta=0.3, eps=0.5, Delta=0.7)
QGM_ARGS = dict(l=2.0, sigma=1.0, eps=0.5, Delta=0.7, d=4)
KINDS = {"d": "int1", "L": "pos", "l": "pos", "delta": "pos", "eps": "pos", "Delta": "nonneg",
         "sigma": "nonneg", "eta": "pos", "T": "int1", "p": "prob", "sigma1_sq": "pos",
         "kappa": "nonneg"}


def _keyword_case(make, args, name):
    return (f"{make.__name__}.{name}", KINDS[name], lambda v: make(**{**args, name: v}),
            args[name])


CASES += [_keyword_case(derive, QGFM_ARGS, name)
          for derive in (derive_params_qgfm, derive_params_qgfm_plus) for name in QGFM_ARGS]
CASES += [_keyword_case(derive_params_qgm_plus, QGM_ARGS, name) for name in QGM_ARGS]
# hand-built schedules, one case per field
QGFM_SCHEDULE = dict(eta=0.1, T=3, sigma1_sq=0.08)
PLUS_SCHEDULE = dict(eta=0.1, T=3, p=0.5, sigma1_sq=0.08, kappa=12.0)
CASES += [_keyword_case(QgfmParams, QGFM_SCHEDULE, name) for name in QGFM_SCHEDULE]
CASES += [_keyword_case(QgfmPlusParams, PLUS_SCHEDULE, name) for name in PLUS_SCHEDULE]
# the optimizers' run arguments, on three-step schedules
RUN_ARGS = dict(budget=10**6, residual_n=50, residual_confidence=0.9, trace_ref_n=20)
RUN_KINDS = {"budget": "int1", "residual_n": "int2", "residual_confidence": "unit",
             "trace_ref_n": "int1"}
QGFM_PARAMS = QgfmParams(**QGFM_SCHEDULE)
PLUS_PARAMS = QgfmPlusParams(**PLUS_SCHEDULE)


def _run(optimizer, **kw):
    if optimizer is qgm_plus:
        return qgm_plus(QUAD, X, PLUS_PARAMS, CostModel(), 0, trace=True, **kw)
    params = QGFM_PARAMS if optimizer is qgfm else PLUS_PARAMS
    return optimizer(SPEC, X, params, SM, CostModel(), 0, trace=True, **kw)


def _run_case(optimizer, name):
    args = RUN_ARGS if optimizer is not qgm_plus else {"budget": RUN_ARGS["budget"]}
    return (f"{optimizer.__name__}.{name}", RUN_KINDS[name],
            lambda v: _run(optimizer, **{**args, name: v}), RUN_ARGS[name])


CASES += [_run_case(optimizer, name) for optimizer in (qgfm, qgfm_plus) for name in RUN_ARGS]
CASES += [_run_case(qgm_plus, "budget")]
CONFIG_CASES = [
    ("ExperimentConfig.d", "int1", lambda v: _config(d=v), 3),
    ("ExperimentConfig.eps_grid", "pos", lambda v: _config(eps_grid=(0.4, v)), 0.2),
    ("ExperimentConfig.seeds", "int0", lambda v: _config(seeds=(0, v)), 3),
    ("ExperimentConfig.noise_scale", "nonneg", lambda v: _config(noise_scale=v), 0.1),
    ("ExperimentConfig.delta", "pos", lambda v: _config(delta=v), 0.3),
    ("ExperimentConfig.budget", "int1", lambda v: _config(budget=v), 5000),
    ("ExperimentConfig.residual_n", "int2", lambda v: _config(residual_n=v), 300),
    ("ExperimentConfig.residual_confidence", "unit", lambda v: _config(residual_confidence=v),
     0.9),
]
ALL_CASES = [case + (ValueError,) for case in CASES] + [case + (ConfigError,) for case in CONFIG_CASES]
IDS = [case[0] for case in ALL_CASES]

NON_FINITE = [math.nan, math.inf, -math.inf, True]


def _bad_values(kind):
    if kind.startswith("int"):
        return NON_FINITE + [2.5, int(kind[3:]) - 1]
    return NON_FINITE + {"pos": [0.0, -1.0], "nonneg": [-1.0], "unit": [0.0, 1.0],
                         "prob": [0.0, 1.5]}[kind]


@pytest.mark.parametrize("case", ALL_CASES, ids=IDS)
def test_bad_values_raise(case):
    _, kind, call, good, exc = case
    call(good)
    for bad in _bad_values(kind):
        try:
            call(bad)
        except exc:
            continue
        pytest.fail(f"{bad!r} was accepted")


RUN_BAD = [("budget", math.nan), ("budget", 1.5), ("residual_n", 1),
           ("residual_confidence", math.nan), ("trace_ref_n", 2.5), ("trace_ref_n", True)]


# a bad run argument raises before the first estimate, not after the last step
@pytest.mark.parametrize("optimizer,name,bad",
                         [(opt, name, bad) for opt in (qgfm, qgfm_plus) for name, bad in RUN_BAD]
                         + [(qgm_plus, name, bad) for name, bad in RUN_BAD if name == "budget"],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_run_arguments_raise_before_the_first_estimate(monkeypatch, optimizer, name, bad):
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate was drawn")

    for estimator in ("estimate_grad", "estimate_grad_diff", "estimate_sgrad",
                      "estimate_sgrad_diff"):
        monkeypatch.setattr(algorithms, estimator, no_estimate)
    with pytest.raises(ValueError, match=name):
        _run(optimizer, **{name: bad})


def _canon(r):
    """r with every number tagged by its type and every array and stream by
    its bytes, so that two results compare equal only if they are the same."""
    if isinstance(r, np.random.Generator):
        return r.uniform(size=4).tobytes()
    if isinstance(r, np.ndarray):
        return r.dtype.str, r.tobytes()
    if isinstance(r, (tuple, list)):
        return tuple(_canon(v) for v in r)
    if dataclasses.is_dataclass(r):
        return type(r).__name__, tuple(_canon(getattr(r, f.name)) for f in dataclasses.fields(r))
    return type(r).__name__, r


@pytest.mark.parametrize("case", ALL_CASES, ids=IDS)
def test_numpy_scalars_give_the_python_result(case):
    _, kind, call, good, _ = case
    twin = np.int64(good) if kind.startswith("int") else np.float64(good)
    assert _canon(call(twin)) == _canon(call(good))


# ---------------------------------------------------------------------------
# the rule lives in objectives._check_int and objectives._check_real only

SRC = Path(__file__).resolve().parent.parent / "src" / "qzopt"


def argument_idioms(source: str) -> list[str]:
    """Hand-written argument checks: isinstance(..., bool) with bool alone or
    in a tuple, and math.isfinite (np.isfinite, on arrays, is not one)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                out.append((node.lineno, node.col_offset, "isinstance(..., bool)"))
        elif (isinstance(func, ast.Attribute) and func.attr == "isfinite"
              and isinstance(func.value, ast.Name) and func.value.id == "math") or (
                isinstance(func, ast.Name) and func.id == "isfinite"):
            out.append((node.lineno, node.col_offset, "isfinite"))
    return [f"line {line}: {what}" for line, _, what in sorted(out)]


def test_scan_finds_argument_idioms():
    src = textwrap.dedent("""\
        import math
        from math import isfinite
        import numpy as np

        def f(v, x):
            if isinstance(v, bool) or not math.isfinite(v):
                raise ValueError
            if isinstance(v, (int, bool)) or not isfinite(v):
                raise ValueError
            return isinstance(v, int) and np.isfinite(x).all()
        """)
    assert argument_idioms(src) == ["line 6: isinstance(..., bool)", "line 6: isfinite",
                                    "line 8: isinstance(..., bool)", "line 8: isfinite"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "objectives.py"),
                         ids=lambda p: p.name)
def test_no_hand_written_argument_checks(path):
    # check numbers with objectives._check_int / _check_real instead
    assert argument_idioms(path.read_text()) == []
