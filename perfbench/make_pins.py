"""Regenerate pins.json, the reference outputs the benchmark checks against.

    python3 perfbench/make_pins.py

Runs every workload once untraced and once traced for each of the pinned
seeds 0..19, one worker process per CPU, and records its outputs, the
optimizer ledgers seen by the tracer and the realized evaluation count.
Outputs listed in a workload's ``any_seed_keys`` must agree across all
seeds; they are the checks an unpinned seed gets.  Pins record what the
program computes at the commit they were made from: regenerate them only
when a change is meant to alter outputs, and say so.  The file is rewritten
whole, so all pins always come from one commit.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

PINNED_SEEDS = range(20)


def pin_one(task):
    import layers
    import worker
    import workloads

    name, seed, workdir = task
    wl = workloads.make(name, seed, workdir)
    try:
        outputs = wl.run_pass()
        tracer, traced, _ = worker.traced_pass(wl)
    finally:
        wl.cleanup()
    if traced != outputs:
        raise RuntimeError(f"{name} seed {seed}: traced outputs differ from untraced ones")
    if not all(ok for _, ok in wl.invariants):
        raise RuntimeError(f"{name} seed {seed}: invariant failed: {wl.invariants}")
    return name, seed, {"outputs": outputs, "traced": worker.traced_outputs(tracer),
                        "evals": layers.evals(tracer)}, list(wl.any_seed_keys)


def main() -> int:
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    tasks = [(w, s, workdir) for w in workloads.WORKLOADS for s in PINNED_SEEDS]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count() or 1) as pool:
        results = pool.map(pin_one, tasks, chunksize=1)

    pins = {"format": 1,
            "workloads": {w: {"any_seed": None, "seeds": {}} for w in workloads.WORKLOADS}}
    for name, seed, entry, keys in results:
        wl_pins = pins["workloads"][name]
        wl_pins["seeds"][str(seed)] = entry
        common = {k: entry["outputs"][k] for k in keys}
        if wl_pins["any_seed"] is None:
            wl_pins["any_seed"] = common
        elif wl_pins["any_seed"] != common:
            raise RuntimeError(f"{name}: any_seed outputs differ at seed {seed}")
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(results)} (workload, seed) pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
