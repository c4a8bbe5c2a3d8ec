"""Per-layer metrics from one traced pass.

METRICS is the single table of per-layer names, units and directions.
BENCHMARK.json's ``per_layer`` list must match it entry for entry, in
order; run.py exits with code 2 before measuring when it does not.  A metric whose boundary
no longer exists in qzopt is reported as -1 and named in ``missing``.
Metrics of a span the workload never enters read 0.
"""
from __future__ import annotations

import numpy as np

N_SMALL, N_LARGE = 10, 1600  # estimator kernel rows: difference-step and refresh sizes
PROBLEMS = ("abs-linear", "sawtooth", "quadratic-smooth")

_KERNELS = (
    ["sphere"] + [f"F_rows.{p}" for p in PROBLEMS] + ["g_delta_rows"]
    + [f"{e}.n{n}" for e in ("estimate_grad", "estimate_grad_diff") for n in (N_SMALL, N_LARGE)]
)

METRICS: dict[str, tuple[str, str]] = {
    "setup.import_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "rng.substream.calls": ("count", "lower"),
    "rng.substream.us_p50": ("us", "lower"),
    "rng.normal_floor.ns_per_value": ("ns", "lower"),
    **{f"objectives.F_rows.{p}.rows": ("count", "lower") for p in PROBLEMS},
    **{f"objectives.F_rows.{p}.ns_per_row": ("ns", "lower") for p in PROBLEMS},
    "objectives.xi_batch.ns_per_row": ("ns", "lower"),
    "smoothing.sphere.rows": ("count", "lower"),
    "smoothing.sphere.ns_per_row": ("ns", "lower"),
    "smoothing.sphere.floor_frac": ("ratio", "higher"),
    "smoothing.g_delta_rows.calls": ("count", "lower"),
    "smoothing.g_delta_rows.ns_per_row": ("ns", "lower"),
    "smoothing.g_delta_mean.self_s": ("s", "lower"),
    "smoothing.f_delta_closed.calls": ("count", "lower"),
    "smoothing.f_delta_closed.us_p50": ("us", "lower"),
    "oracles.estimate_grad.calls": ("count", "lower"),
    "oracles.estimate_grad.us_p50": ("us", "lower"),
    "oracles.estimate_grad.us_p99": ("us", "lower"),
    "oracles.estimate_grad.ns_per_draw": ("ns", "lower"),
    "oracles.estimate_grad.floor_frac": ("ratio", "higher"),
    "oracles.estimate_grad_diff.calls": ("count", "lower"),
    "oracles.estimate_grad_diff.us_p50": ("us", "lower"),
    "oracles.estimate_grad_diff.us_p99": ("us", "lower"),
    "oracles.estimate_grad_diff.self_us_p50": ("us", "lower"),
    "oracles.estimate_sgrad.calls": ("count", "lower"),
    "oracles.estimate_sgrad.us_p50": ("us", "lower"),
    "oracles.estimate_sgrad_diff.calls": ("count", "lower"),
    "oracles.estimate_sgrad_diff.us_p50": ("us", "lower"),
    "algorithms.steps": ("count", "lower"),
    "algorithms.self_us_per_step": ("us", "lower"),
    "algorithms.diff_skipped": ("count", "lower"),
    "algorithms.diff_live_frac": ("ratio", "higher"),
    "algorithms.phi.calls": ("count", "lower"),
    "algorithms.phi.us_p50": ("us", "lower"),
    "stationarity.residual.ms_p50": ("ms", "lower"),
    "stationarity.verify.rounds": ("count", "lower"),
    "stationarity.verify.draws": ("count", "lower"),
    "stationarity.verify.ns_per_draw": ("ns", "lower"),
    "stationarity.verify.last_round_frac": ("ratio", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.cells": ("count", "lower"),
    "harness.cell_s_max": ("s", "lower"),
    "harness.cell_s_sum": ("s", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "circuit.pipeline_batch.ns_per_sample": ("ns", "lower"),
    "circuit.valid_frac": ("ratio", "higher"),
    "circuit.emulate.us_p50": ("us", "lower"),
    "circuit.measure_sample.us_p50": ("us", "lower"),
    "circuit.pipeline_sample.us_p50": ("us", "lower"),
    "circuit.statevector.ms": ("ms", "lower"),
    **{
        f"kernel.{k}.{u}": (unit, "lower")
        for k in _KERNELS
        for u, unit in ([("ns_per_draw", "ns")] if k.startswith("estimate") else [("ns_per_row", "ns")])
    },
    "kernel.f_delta_closed.us_per_call": ("us", "lower"),
    **{f"kernel.{k}.floor_frac": ("ratio", "higher") for k in _KERNELS + ["f_delta_closed"]},
    "evals": ("count", "lower"),
    "trace_overhead": ("ratio", "lower"),
}

# metric-name prefix -> qzopt boundaries ("module.attr") the metric is measured at
_SOURCES = {
    "rng.substream": ["rng.substream"],
    "rng.normal_floor": ["smoothing._sphere_batch"],
    "objectives.F_rows": ["objectives._F_rows"],
    "objectives.xi_batch": ["objectives._sample_xi_batch"],
    "smoothing.sphere": ["smoothing._sphere_batch"],
    "smoothing.g_delta_rows": ["smoothing._g_delta_rows"],
    "smoothing.g_delta_mean": ["smoothing._g_delta_mean"],
    "smoothing.f_delta_closed": ["smoothing.f_delta"],
    "oracles.estimate_grad.": ["oracles.estimate_grad"],
    "oracles.estimate_grad.floor_frac": ["oracles.estimate_grad", "smoothing._sphere_batch"],
    "oracles.estimate_grad_diff": ["oracles.estimate_grad_diff"],
    "oracles.estimate_sgrad.": ["oracles.estimate_sgrad"],
    "oracles.estimate_sgrad_diff": ["oracles.estimate_sgrad_diff"],
    "algorithms.steps": ["algorithms.qgfm_plus"],
    "algorithms.self_us_per_step": ["algorithms.qgfm_plus"],
    "algorithms.diff": ["algorithms.qgfm_plus", "oracles.estimate_grad_diff"],
    "algorithms.phi": ["algorithms._phi_diagnostic"],
    "stationarity.residual": ["stationarity.goldstein_residual"],
    "stationarity.verify": ["stationarity.verify_stationary", "stationarity.goldstein_residual"],
    "harness.": ["harness.run_one", "harness.run_experiment"],
    "cli.": ["cli.main"],
    "circuit.pipeline_batch": ["circuit.pipeline_sample_batch"],
    "circuit.valid_frac": ["circuit.pipeline_sample_batch"],
    "circuit.emulate": ["circuit.emulate_U_g", "circuit.emulate_V_g"],
    "circuit.measure_sample": ["circuit.measure_sample"],
    "circuit.pipeline_sample": ["circuit.pipeline_sample"],
    "circuit.statevector": ["circuit.statevector_prepare"],
    "evals": ["objectives._F_rows"],
}


def _sources(metric):
    best = ""
    for prefix in _SOURCES:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return _SOURCES.get(best, [])


def _pct(values, q, scale):
    return float(np.percentile(np.asarray(values, dtype=float), q)) / scale if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def traced_metrics(tracer, floor) -> dict[str, float]:
    """Metrics measured from the spans of one traced pass (kernel and setup rows excluded)."""
    st = tracer.stats

    def s(name):
        return st[name] if name in st else None

    def calls(name):
        x = s(name)
        return len(x.durations) if x else 0

    def total_ns(name):
        x = s(name)
        return float(sum(x.durations)) if x else 0.0

    def self_ns(name):
        x = s(name)
        return float(sum(x.selfs)) if x else 0.0

    def counter(name, key):
        x = s(name)
        return x.counters.get(key, 0) if x else 0

    def p(name, q, scale):
        x = s(name)
        return _pct(x.durations, q, scale) if x else 0.0

    m: dict[str, float] = {}
    m["rng.substream.calls"] = calls("rng.substream")
    m["rng.substream.us_p50"] = p("rng.substream", 50, 1e3)
    floor_all, values_all = floor.shapes_ns(tracer.root.counters)
    m["rng.normal_floor.ns_per_value"] = _ratio(floor_all, values_all)

    for prob in PROBLEMS:
        name = f"objectives.F_rows.{prob}"
        rows = counter(name, "f_rows")
        m[f"{name}.rows"] = rows
        m[f"{name}.ns_per_row"] = _ratio(total_ns(name), rows)
    m["objectives.xi_batch.ns_per_row"] = _ratio(total_ns("objectives.xi_batch"),
                                                 counter("objectives.xi_batch", "xi_rows"))

    rows = counter("smoothing.sphere", "sphere_rows")
    m["smoothing.sphere.rows"] = rows
    m["smoothing.sphere.ns_per_row"] = _ratio(total_ns("smoothing.sphere"), rows)
    sphere_floor, _ = floor.shapes_ns(s("smoothing.sphere").counters if s("smoothing.sphere") else {})
    m["smoothing.sphere.floor_frac"] = _ratio(sphere_floor, total_ns("smoothing.sphere"))
    m["smoothing.g_delta_rows.calls"] = calls("smoothing.g_delta_rows")
    m["smoothing.g_delta_rows.ns_per_row"] = _ratio(total_ns("smoothing.g_delta_rows"),
                                                    counter("smoothing.g_delta_rows", "g_rows"))
    m["smoothing.g_delta_mean.self_s"] = self_ns("smoothing.g_delta_mean") / 1e9
    m["smoothing.f_delta_closed.calls"] = calls("smoothing.f_delta_closed")
    m["smoothing.f_delta_closed.us_p50"] = p("smoothing.f_delta_closed", 50, 1e3)

    eg = "oracles.estimate_grad"
    m[f"{eg}.calls"] = calls(eg)
    m[f"{eg}.us_p50"] = p(eg, 50, 1e3)
    m[f"{eg}.us_p99"] = p(eg, 99, 1e3)
    m[f"{eg}.ns_per_draw"] = _ratio(total_ns(eg), counter(eg, "sphere_rows"))
    eg_floor, _ = floor.shapes_ns(s(eg).counters if s(eg) else {})
    m[f"{eg}.floor_frac"] = _ratio(eg_floor, total_ns(eg))
    ed = "oracles.estimate_grad_diff"
    m[f"{ed}.calls"] = calls(ed)
    m[f"{ed}.us_p50"] = p(ed, 50, 1e3)
    m[f"{ed}.us_p99"] = p(ed, 99, 1e3)
    m[f"{ed}.self_us_p50"] = _pct(s(ed).selfs, 50, 1e3) if s(ed) else 0.0
    for name in ("oracles.estimate_sgrad", "oracles.estimate_sgrad_diff"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_p50"] = p(name, 50, 1e3)

    steps = opt_self = skipped = live = diff_slots = 0
    for span, _args, _kwargs, result, counters in tracer.calls:
        steps += result.T
        if span != "algorithms.qgfm":
            diffs = counters.get("phase:diff", 0)
            slots = result.T - 1 - counters.get("phase:refresh", 0)
            skipped += slots - diffs
            live += diffs
            diff_slots += slots
    for span in ("algorithms.qgfm", "algorithms.qgfm_plus", "algorithms.qgm_plus"):
        opt_self += self_ns(span)
    m["algorithms.steps"] = steps
    m["algorithms.self_us_per_step"] = _ratio(opt_self / 1e3, steps)
    m["algorithms.diff_skipped"] = skipped
    m["algorithms.diff_live_frac"] = _ratio(live, diff_slots)
    m["algorithms.phi.calls"] = calls("algorithms.phi")
    m["algorithms.phi.us_p50"] = p("algorithms.phi", 50, 1e3)

    m["stationarity.residual.ms_p50"] = p("stationarity.residual", 50, 1e6)
    v = "stationarity.verify"
    draws = counter(v, "residual_draws")
    m[f"{v}.rounds"] = counter(v, "residual_calls")
    m[f"{v}.draws"] = draws
    m[f"{v}.ns_per_draw"] = _ratio(total_ns(v), draws)
    m[f"{v}.last_round_frac"] = _ratio(s(v).last_child_ns if s(v) else 0, total_ns(v))

    m["harness.self_s"] = sum(self_ns(n) for n in st if n.startswith("harness.")) / 1e9
    cells = s("harness.run_one").durations if s("harness.run_one") else []
    m["harness.cells"] = len(cells)
    m["harness.cell_s_max"] = max(cells) / 1e9 if cells else 0.0
    m["harness.cell_s_sum"] = sum(cells) / 1e9
    m["cli.self_ms"] = self_ns("cli.main") / 1e6

    pb = "circuit.pipeline_batch"
    samples = counter(pb, "pipe_samples")
    m[f"{pb}.ns_per_sample"] = _ratio(total_ns(pb), samples)
    m["circuit.valid_frac"] = _ratio(counter(pb, "pipe_valid"), samples)
    m["circuit.emulate.us_p50"] = p("circuit.emulate", 50, 1e3)
    m["circuit.measure_sample.us_p50"] = p("circuit.measure_sample", 50, 1e3)
    m["circuit.pipeline_sample.us_p50"] = p("circuit.pipeline_sample", 50, 1e3)
    m["circuit.statevector.ms"] = total_ns("circuit.statevector") / 1e6

    m["evals"] = evals(tracer)
    return m


def evals(tracer) -> int:
    """Rows passed to F anywhere, plus noise rows drawn for the gradient oracle."""
    return int(tracer.total("f_rows") + tracer.total("sgrad_xi_rows"))


def finalize(measured: dict[str, float], missing_boundaries: list[str]) -> tuple[dict, list]:
    """Every METRICS entry, -1 where its boundary is gone; returns (metrics, missing names)."""
    out, missing = {}, []
    gone = set(missing_boundaries)
    for name, (unit, _better) in METRICS.items():
        srcs = _sources(name)
        if any(src in gone for src in srcs) or name not in measured:
            out[name] = {"value": -1, "unit": unit}
            missing.append(name)
        else:
            out[name] = {"value": measured[name], "unit": unit}
    return out, missing
