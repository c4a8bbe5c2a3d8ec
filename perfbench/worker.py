"""The measured process: warm-up, timed passes, checks and the traced pass.

Runs single-threaded (the parent pins the BLAS thread count to 1).  All
load comes from this one process.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import qzopt
from qzopt import algorithms

import kernels
import layers
import workloads
from probe import PROBE_REF_S, clock, cpu_probe
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
MIN_PASSES = 3
PASS_CAP_S = 110.0  # stop starting passes after this long, whatever --seconds says
MAX_LISTED_FAILURES = 20


def load_pins(workload: str, seed: int) -> tuple[dict, dict | None]:
    """(outputs every seed must give, full pins for this seed or None)."""
    with open(PINS_PATH) as fh:
        pins = json.load(fh)["workloads"].get(workload, {})
    return pins.get("any_seed", {}), pins.get("seeds", {}).get(str(seed))


class Checks:
    """Counts output checks; failed / attempted is the run's check_fail_frac."""

    def __init__(self, any_seed: dict, seed_pins: dict | None):
        self.expected = seed_pins["outputs"] if seed_pins else any_seed
        self.pinned = seed_pins is not None
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(name)

    def outputs(self, label: str, outputs: dict, invariants) -> None:
        for key, want in self.expected.items():
            self.check(f"{label}:{key}", outputs.get(key) == want)
        if self.first is None:
            self.first = outputs
        elif not self.pinned:
            # an unpinned seed has no reference but its own first pass
            for key, want in self.first.items():
                self.check(f"{label}:{key}=first", outputs.get(key) == want)
            self.check(f"{label}:same_keys", set(outputs) == set(self.first))
        for name, ok in invariants:
            self.check(f"{label}:{name}", ok)


def traced_outputs(tracer: Tracer) -> dict[str, str]:
    """Ledgers of every optimizer call seen in the traced pass, in call order."""
    out = {}
    for k, (span, _args, _kwargs, res, _counters) in enumerate(tracer.calls):
        led = res.ledger
        out[f"call{k}.{span}.ledger"] = (
            f"{led.uf_queries},{led.classical_queries},{led.grad_oracle_queries}")
        out[f"call{k}.{span}.phase_tags"] = workloads._tags(led)
    return out


def traced_pass(wl) -> tuple[Tracer, dict, float]:
    tracer = Tracer()
    tracer.install()
    try:
        t0 = clock()
        outputs = wl.run_pass()
        elapsed = clock() - t0
    finally:
        tracer.uninstall()
    return tracer, outputs, elapsed


def classical_replay(tracer: Tracer, checks: Checks) -> int:
    """Re-run each optimizer call in classical mode and compare with the traced counts.

    Cost mode changes charges, not iterates: the classical ledger must equal
    the F rows realized under estimator spans (noise rows under estimate_sgrad
    for the smooth track), and the output point must be identical.
    """
    cells = 0
    for k, (span, args, kwargs, res, counters) in enumerate(tracer.calls):
        fn = getattr(algorithms, span.split(".", 1)[1])
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.arguments["model"] = dataclasses.replace(bound.arguments["model"], mode="classical")
        replay = fn(*bound.args, **bound.kwargs)
        label = f"xcheck.call{k}.{span}"
        checks.check(f"{label}.x_out", np.array_equal(replay.x_out, res.x_out))
        if span == "algorithms.qgm_plus":
            tags = replay.ledger.phase_tags
            charged = sum(tags.get(ph, (0, 0, 0))[2] for ph in ("init", "refresh"))
            checks.check(f"{label}.sgrad_rows", charged == counters.get("sgrad_xi_rows", 0))
        else:
            checks.check(f"{label}.F_rows",
                         replay.ledger.classical_queries == counters.get("est_f_rows", 0))
        cells += 1
    return cells


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qzopt": qzopt.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "processes": 1,
    }


def setup(workload: str, seed: int, workdir: str, import_s: float):
    """Build inputs and warm up; announces readiness to the parent on stdout.

    ``import_s`` is the CPU time from interpreter start to the end of the
    imports; ``warmup_s`` the CPU time of building the inputs and warming up.
    """
    t0 = clock()
    wl = workloads.make(workload, seed, workdir)
    wl.warmup()
    warmup_s = clock() - t0
    print("READY " + json.dumps({"import_s": import_s, "warmup_s": warmup_s}), flush=True)
    # the host's speed right after set-up; the parent probed it right before the spawn
    print(f"PROBE {cpu_probe()!r}", flush=True)
    return wl


def run(wl, seconds: float, trace: bool) -> dict:
    any_seed, seed_pins = load_pins(wl.name, wl.seed)
    checks = Checks(any_seed, seed_pins)
    times: list[float] = []
    segments: list[dict[str, float]] = []
    probes: list[dict[str, float]] = []
    wl.probe = True
    begin = time.perf_counter()
    while True:
        wl.segment_s, wl.segment_probe_s = {}, {}
        t0 = time.perf_counter()
        outputs = wl.run_pass()
        times.append(time.perf_counter() - t0)
        segments.append(wl.segment_s)
        probes.append(wl.segment_probe_s)
        checks.outputs(f"pass{len(times)}", outputs, wl.invariants)
        elapsed = time.perf_counter() - begin
        if len(times) >= MIN_PASSES and (elapsed >= seconds or elapsed >= PASS_CAP_S):
            break
    wl.probe = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = PROBE_REF_S
    seg_ref = {k: [seg[k] * ref / pr[k] for seg, pr in zip(segments, probes)] for k in segments[0]}
    ref_times = [sum(col[i] for col in seg_ref.values()) for i in range(len(times))]
    # each call's median over the passes, summed: a call whose probes straddle a
    # change of host speed then moves only its own term, not a whole pass
    pass_cpu_s = sum(statistics.median(col) for col in seg_ref.values())
    result = {
        "pass_wall_s": times,
        "pass_cpu_s": pass_cpu_s,
        "pass_ref_s": ref_times,
        "segment_ref_s": seg_ref,
        "host_slowdown": statistics.median(p / ref for pr in probes for p in pr.values()),
        "peak_rss_mb": peak_rss_mb,
        "pinned": seed_pins is not None,
        "env": environment(),
    }
    if trace:
        floor = kernels.NormalFloor()
        metrics = kernels.kernel_rows(wl, floor)
        checks.check("kernel_sizes", kernels.check_kernel_sizes(wl))
    if trace or seed_pins is None:
        before = cpu_probe()
        tracer, outputs, traced_s = traced_pass(wl)
        traced_ref_s = traced_s * ref / (0.5 * (before + cpu_probe()))
        checks.outputs("traced", outputs, wl.invariants)
        evals = layers.evals(tracer)
        if seed_pins is not None:
            checks.check("traced:evals", evals == seed_pins["evals"])
            seen = traced_outputs(tracer)
            for key, want in seed_pins["traced"].items():
                checks.check(f"traced:{key}", seen.get(key) == want)
        result["missing_boundaries"] = tracer.missing
    else:
        evals = seed_pins["evals"]
    result["evals"] = evals

    if trace:
        result["xcheck_cells"] = classical_replay(tracer, checks)
        metrics.update(layers.traced_metrics(tracer, floor))
        metrics["trace_overhead"] = traced_ref_s / pass_cpu_s
        result["traced_s"] = traced_s
        result["per_layer"] = metrics

    result["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures}
    return result


def main(argv: list[str], import_s: float) -> int:
    role, workload, seed, seconds, trace, workdir = argv
    wl = setup(workload, int(seed), workdir, import_s)
    try:
        if role == "worker":
            result = run(wl, float(seconds), trace == "1")
            print("RESULT " + json.dumps(result), flush=True)
    finally:
        wl.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit("run perfbench/run.py instead")
