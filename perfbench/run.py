"""qzopt benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from anywhere inside a qzopt checkout; qzopt is imported from the
checkout's ``src`` directory and nowhere else.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics (pass_cpu_s, evals_per_s,
setup_s, peak_rss_mb); with ``--trace 1`` it reports the per-layer
metrics of a traced pass.  The line before it holds the details: pass
and call times, pass median and quartiles, setup samples, environment,
check failures.

The parent process only orchestrates.  It spawns several fresh
interpreters that report their CPU time to the end of warm-up (setup_s),
then one worker process that runs the timed passes single-threaded.  See
README.md here.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("sweep", "recursion", "certify")
SETUP_PROBES = 4  # fresh interpreters timed besides the worker
DEADLINE_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# name -> (unit, better), in BENCHMARK.json order; per-layer metrics are in layers.METRICS
END_TO_END = {
    "pass_cpu_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _child_env():
    env = dict(os.environ)
    for key in THREAD_ENV:
        env[key] = "1"
    env["PYTHONPATH"] = SRC
    return env


def _spawn(role, args, deadline):
    """Start a worker or probe and wait until it has set up.

    Returns the process, its watchdog and its set-up sample: wall seconds
    from spawn to READY, the child's CPU seconds to the end of its imports
    and of its warm-up, and the mean of the
    cpu_probe times taken here right before the spawn and by the child
    right after its warm-up.
    """
    from probe import cpu_probe

    before = cpu_probe()
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        probe = proc.stdout.readline()
        if not line.startswith("READY ") or not probe.startswith("PROBE "):
            raise RuntimeError(f"{role} did not become ready: {line.strip()!r}")
        info = json.loads(line[len("READY "):])
        return proc, watchdog, (ready_s, info["import_s"], info["warmup_s"],
                                0.5 * (before + float(probe[len("PROBE "):])))
    except BaseException:
        watchdog.cancel()
        _stop(proc)
        raise


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def orchestrate(args) -> int:
    import layers  # numpy and stdlib only, like probe; the children import qzopt
    from probe import PROBE_REF_S

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORKDIR, exist_ok=True)
    samples = []  # see _spawn
    for _ in range(SETUP_PROBES):
        proc, watchdog, sample = _spawn("probe", args, deadline)
        watchdog.cancel()
        proc.wait()
        _stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        samples.append(sample)

    proc, watchdog, sample = _spawn("worker", args, deadline)
    samples.append(sample)
    try:
        result = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        _stop(proc)
    if proc.returncode != 0 or result is None:
        raise RuntimeError(f"worker exited with {proc.returncode} and no result")

    # CPU times are rescaled to the reference host speed (see probe.py):
    # other tenants slow this host by up to 1.7x in spells of seconds to
    # minutes, which moved raw pass medians by 15-20% between runs.
    ref = PROBE_REF_S
    setup = [(s[1] + s[2]) * ref / s[3] for s in samples]
    times = result["pass_ref_s"]
    pass_cpu = result["pass_cpu_s"]
    checks = result["checks"]
    fail_frac = checks["failed"] / checks["attempted"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(times),
        "pass_ref_s": times,
        "segment_ref_s": result["segment_ref_s"],
        "pass_wall_s": result["pass_wall_s"],
        "host_slowdown": result["host_slowdown"],
        "pass_cpu_s": {"value": pass_cpu, "pass_median": statistics.median(times),
                       "pass_q1": _quartiles(times)[0], "pass_q3": _quartiles(times)[1],
                       "wall_median": statistics.median(result["pass_wall_s"])},
        "setup_s": {"median": statistics.median(setup), "samples": setup,
                    "wall_samples": [s[0] for s in samples]},
        "evals": result["evals"],
        "pinned_seed": result["pinned"],
        "check_fail_frac": fail_frac,
        "checks": checks,
        "env": result["env"],
    }

    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(times)}"
             f"  ({'pinned' if result['pinned'] else 'unpinned'} seed)"]
    if args.trace:
        from_layers = dict(result["per_layer"])
        from_layers["setup.import_s"] = statistics.median(s[1] * ref / s[3] for s in samples)
        from_layers["setup.warmup_s"] = statistics.median(s[2] * ref / s[3] for s in samples)
        metrics, missing = layers.finalize(from_layers, result.get("missing_boundaries", []))
        detail["missing"] = missing
        detail["traced_s"] = result["traced_s"]
        detail["xcheck_cells"] = result["xcheck_cells"]
        for name, m in metrics.items():
            lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "pass_cpu_s": pass_cpu,
            "evals_per_s": result["evals"] / pass_cpu,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better) in END_TO_END.items()}
        q1, q3 = _quartiles(times)
        s1, s3 = _quartiles(setup)
        notes = {
            "pass_cpu_s": f"call medians over {len(times)} passes, summed; pass q1 {q1:.4g}, "
                          f"q3 {q3:.4g}; wall median "
                          f"{statistics.median(result['pass_wall_s']):.4g} s at host "
                          f"slowdown {result['host_slowdown']:.3g}",
            "evals_per_s": f"{result['evals']} evaluations per pass",
            "setup_s": f"median of {len(setup)} interpreters, q1 {s1:.4g}, q3 {s3:.4g}",
            "peak_rss_mb": "worker process",
        }
        for name, m in metrics.items():
            lines.append(f"  {name:15s} {m['value']:.6g} {m['unit']}  ({notes[name]})")
    lines.append(f"  {'check_fail_frac':15s} {fail_frac:.6g} ratio"
                 f"  ({checks['failed']} of {checks['attempted']} checks failed)")
    print("\n".join(lines))
    print(json.dumps(detail))
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


def declared_mismatch() -> str:
    """Why BENCHMARK.json's metric lists differ from END_TO_END and layers.METRICS, or ''."""
    import layers

    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"cannot read {path}: {exc}"
    for key, table in (("end_to_end", END_TO_END), ("per_layer", layers.METRICS)):
        listed = [(m.get("name"), m.get("unit"), m.get("better")) for m in declared.get(key, [])]
        if listed != [(name, unit, better) for name, (unit, better) in table.items()]:
            return f"BENCHMARK.json {key} does not list the metrics this benchmark reports"
    return ""


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "probe"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "qzopt", "__init__.py")):
        print(f"error: no qzopt sources under {SRC}; run from a qzopt checkout", file=sys.stderr)
        return 2
    if args.role != "main":
        sys.path[:0] = [SRC, HERE]
        import worker  # imports numpy, scipy and qzopt

        import_s = time.process_time()  # CPU seconds since the interpreter started
        return worker.main([args.role, args.workload, str(args.seed), str(args.seconds),
                            str(args.trace), WORKDIR], import_s)
    mismatch = declared_mismatch()
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 2
    try:
        return orchestrate(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
