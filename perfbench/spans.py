"""Span tracer for the traced pass.

The tracer wraps qzopt functions at module boundaries by rebinding the
function object wherever a ``qzopt.*`` module namespace holds it, so calls
made through ``from .x import f`` names are caught too.  Each wrapped call
opens a span; a span's self time is its duration minus the time covered by
its child spans.  Spans also carry counters (rows passed to F, directions
drawn, ...) that are added into every enclosing span when they close, so a
ratio such as "F rows under estimator spans" is measured where the work
happens.

Wrappers are installed only for the traced pass and removed afterwards.
A boundary that no longer exists is recorded as missing instead of
raising.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

ESTIMATORS = ("oracles.estimate_grad", "oracles.estimate_grad_diff")
SGRAD = "oracles.estimate_sgrad"
OPTIMIZERS = ("algorithms.qgfm", "algorithms.qgfm_plus", "algorithms.qgm_plus")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _f_rows_name(args, kwargs):
    return "objectives.F_rows." + args[0].name


def _f_rows_info(args, kwargs, result):
    return {"f_rows": int(args[1].shape[0])}


def _sphere_info(args, kwargs, result):
    d, n = int(args[0]), int(args[1])
    return {"sphere_rows": n, f"normals:{n}x{d}": 1}


def _sphere_rows_info(args, kwargs, result):
    d, n = int(args[0]), int(args[1])
    return {f"normals:{n}x{d}": 1}


def _xi_info(args, kwargs, result):
    return {"xi_rows": int(args[1])}


def _g_rows_info(args, kwargs, result):
    return {"g_rows": int(args[3].shape[0])}


def _f_delta_name(args, kwargs):
    mode = _arg(args, kwargs, 3, "mode") or "closed"
    return "smoothing.f_delta_" + mode


def _phase_info(args, kwargs, result):
    phase = kwargs.get("phase")
    return {f"phase:{phase}": 1} if phase else {}


def _residual_info(args, kwargs, result):
    return {"residual_calls": 1, "residual_draws": int(_arg(args, kwargs, 3, "n"))}


def _pipeline_batch_name(args, kwargs):
    # single draws made for pipeline_sample get their own span name, so the
    # per-sample batch cost is measured on real batches only
    n = int(_arg(args, kwargs, 1, "n"))
    return "circuit.pipeline_batch" if n > 1 else "circuit.pipeline_batch_single"


def _pipeline_batch_info(args, kwargs, result):
    return {"pipe_samples": int(_arg(args, kwargs, 1, "n")), "pipe_valid": int(result[2].sum())}


# (span name or name function, module, attribute, counter function)
TARGETS = (
    ("rng.substream", "rng", "substream", None),
    (_f_rows_name, "objectives", "_F_rows", _f_rows_info),
    ("objectives.xi_batch", "objectives", "_sample_xi_batch", _xi_info),
    ("objectives.sphere_rows", "objectives", "_sphere_rows", _sphere_rows_info),
    ("smoothing.sphere", "smoothing", "_sphere_batch", _sphere_info),
    ("smoothing.g_delta_rows", "smoothing", "_g_delta_rows", _g_rows_info),
    ("smoothing.g_delta_mean", "smoothing", "_g_delta_mean", None),
    (_f_delta_name, "smoothing", "f_delta", None),
    ("oracles.estimate_grad", "oracles", "estimate_grad", _phase_info),
    ("oracles.estimate_grad_diff", "oracles", "estimate_grad_diff", _phase_info),
    ("oracles.estimate_sgrad", "oracles", "estimate_sgrad", _phase_info),
    ("oracles.estimate_sgrad_diff", "oracles", "estimate_sgrad_diff", _phase_info),
    ("algorithms.qgfm", "algorithms", "qgfm", None),
    ("algorithms.qgfm_plus", "algorithms", "qgfm_plus", None),
    ("algorithms.qgm_plus", "algorithms", "qgm_plus", None),
    ("algorithms.phi", "algorithms", "_phi_diagnostic", None),
    ("stationarity.residual", "stationarity", "goldstein_residual", _residual_info),
    ("stationarity.verify", "stationarity", "verify_stationary", None),
    ("harness.parse_config", "harness", "parse_config", None),
    ("harness.config_from_mapping", "harness", "config_from_mapping", None),
    ("harness.apply_overrides", "harness", "apply_overrides", None),
    ("harness.run_experiment", "harness", "run_experiment", None),
    ("harness.run_one", "harness", "run_one", None),
    ("harness.scaling_sweep", "harness", "scaling_sweep", None),
    ("harness.rows_to_csv", "harness", "rows_to_csv", None),
    ("cli.main", "cli", "main", None),
    (_pipeline_batch_name, "circuit", "pipeline_sample_batch", _pipeline_batch_info),
    ("circuit.pipeline_sample", "circuit", "pipeline_sample", None),
    ("circuit.measure_sample", "circuit", "measure_sample", None),
    ("circuit.emulate", "circuit", "emulate_U_g", None),
    ("circuit.emulate", "circuit", "emulate_V_g", None),
    ("circuit.statevector", "circuit", "statevector_prepare", None),
    ("circuit.statevector", "circuit", "statevector_apply_h_and_norm", None),
)


class _Frame:
    __slots__ = ("child_ns", "counters", "last_child_ns")

    def __init__(self):
        self.child_ns = 0
        self.counters = defaultdict(int)
        self.last_child_ns = 0


class SpanStats:
    """Everything recorded for one span name."""

    def __init__(self):
        self.durations = []  # ns per call
        self.selfs = []  # ns per call
        self.counters = defaultdict(int)  # summed over calls, including descendants
        self.last_child_ns = 0  # summed over calls: duration of each call's last child


class Tracer:
    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.missing = []  # "module.attr" boundaries that no longer exist
        self.calls = []  # (span name, args, kwargs, result, counters) of optimizer calls
        self._stack = [_Frame()]
        self._patched = []  # (namespace dict, key, original)

    @property
    def root(self):
        return self._stack[0]

    def _wrap(self, name, fn, info):
        stack = self._stack
        stats = self.stats
        calls = self.calls
        clock = time.perf_counter_ns
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if fixed else name(args, kwargs)
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
            counters = frame.counters
            if info is not None:
                for k, v in info(args, kwargs, result).items():
                    counters[k] += v
            if span in ESTIMATORS:
                counters["est_f_rows"] += counters.get("f_rows", 0)
            elif span == SGRAD:
                counters["sgrad_xi_rows"] += counters.get("xi_rows", 0)
            st = stats[span]
            st.durations.append(dur)
            st.selfs.append(dur - frame.child_ns)
            st.last_child_ns += frame.last_child_ns
            for k, v in counters.items():
                st.counters[k] += v
            parent = stack[-1]
            parent.child_ns += dur
            parent.last_child_ns = dur
            pc = parent.counters
            for k, v in counters.items():
                pc[k] += v
            if span in OPTIMIZERS:
                calls.append((span, args, kwargs, result, dict(counters)))
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "qzopt" or k.startswith("qzopt.")]
        for name, mod_name, attr, info in TARGETS:
            try:
                module = importlib.import_module("qzopt." + mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, orig, info)
            for mod in modules:
                ns = vars(mod)
                for key, value in list(ns.items()):
                    if value is orig:
                        self._patched.append((ns, key, orig))
                        ns[key] = wrapper

    def uninstall(self):
        for ns, key, orig in reversed(self._patched):
            ns[key] = orig
        self._patched.clear()

    def total(self, counter):
        return self.root.counters.get(counter, 0)
