"""Kernel rows and the RNG floor.

Each kernel is timed alone at the workload's own shapes.  Its
``floor_frac`` is the time ``standard_normal`` alone takes for the n x d
direction values of one n-row batch, divided by the kernel's time for
that batch: the share of the kernel that no rewrite keeping the streams
exact can remove.  Kernels that draw nothing themselves (F rows,
``_g_delta_rows``, closed-form ``f_delta``) are compared with the draws
that feed one batch of them.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import qzopt
from qzopt import objectives, oracles, smoothing

from layers import N_LARGE, N_SMALL

DELTA = 0.3


def per_call_ns(fn, budget_ns: float = 15e6, repeats: int = 3) -> float:
    """Median over repeats of the mean time per call, in ns."""
    clock = time.perf_counter_ns
    t0 = clock()
    fn()
    one = max(clock() - t0, 1)
    k = max(1, int(budget_ns / one))
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(k):
            fn()
        samples.append((clock() - t0) / k)
    return statistics.median(samples)


class NormalFloor:
    """standard_normal time per call for a given (n, d) shape, measured once per shape."""

    def __init__(self):
        self._rng = np.random.default_rng(12345)
        self._cache: dict[tuple[int, int], float] = {}

    def call_ns(self, n: int, d: int) -> float:
        key = (n, d)
        if key not in self._cache:
            rng = self._rng
            self._cache[key] = per_call_ns(lambda: rng.standard_normal((n, d)), budget_ns=5e6)
        return self._cache[key]

    def shapes_ns(self, counters: dict) -> tuple[float, int]:
        """Floor time and value count for the ``normals:<n>x<d>`` counters of a span."""
        total_ns, values = 0.0, 0
        for key, calls in counters.items():
            if isinstance(key, str) and key.startswith("normals:"):
                n, d = (int(v) for v in key[len("normals:"):].split("x"))
                total_ns += calls * self.call_ns(n, d)
                values += calls * n * d
        return total_ns, values


def _sigma_for_grad(spec, n):
    # estimate_grad draws n = ceil(c d L^2 / sigma^2); aim half a row below n
    return (spec.est_var_coeff * spec.d * spec.L ** 2 / (n - 0.5)) ** 0.5


def _sigma_for_diff(spec, dist, delta, n):
    c = spec.diff_var_coeff * spec.d ** 2 * spec.L ** 2 * dist ** 2 / delta ** 2
    return (c / (n - 0.5)) ** 0.5


def _kernel_inputs(workload):
    """(spec, x, y, ||x - y||) of the workload's main estimator shape."""
    spec = qzopt.catalog_make(*workload.kernel_main)
    if spec.name == "abs-linear":
        x = 0.1 * spec.direction  # inside the kink slab, so f_delta integrates
    else:
        x = spec.x0 + 0.13
    y = x + 0.01
    return spec, x, y, float(np.linalg.norm(x - y))


def kernel_rows(workload, floor: NormalFloor) -> dict[str, float]:
    """Time every kernel at the workload's shapes.

    A kernel whose qzopt function no longer exists is left out, and the
    caller reports it as missing.
    """
    metrics: dict[str, float] = {}
    rng = np.random.default_rng(7)
    spec, x, y, dist = _kernel_inputs(workload)
    d = spec.d
    params = qzopt.SmoothingParams(DELTA)

    def row(name, unit, per, n, dd, fn):
        t = per_call_ns(fn)
        metrics[f"kernel.{name}.{unit}"] = t / per
        metrics[f"kernel.{name}.floor_frac"] = floor.call_ns(n, dd) / t

    sphere = getattr(smoothing, "_sphere_batch", None)
    if sphere is not None:
        row("sphere", "ns_per_row", N_LARGE, N_LARGE, d, lambda: sphere(d, N_LARGE, rng))

    F_rows = getattr(objectives, "_F_rows", None)
    xi_batch = getattr(objectives, "_sample_xi_batch", None)
    if F_rows is not None and xi_batch is not None:
        for name, (dp, noise_p) in workload.kernel_F.items():
            sp = qzopt.catalog_make(name, dp, noise_p)
            X = rng.standard_normal((N_LARGE, dp))
            payload = xi_batch(sp, N_LARGE, rng)
            row(f"F_rows.{name}", "ns_per_row", N_LARGE, N_LARGE, dp,
                lambda sp=sp, X=X, payload=payload: F_rows(sp, X, payload))

    g_rows = getattr(smoothing, "_g_delta_rows", None)
    if g_rows is not None and xi_batch is not None:
        W = rng.standard_normal((N_LARGE, d))
        W /= np.linalg.norm(W, axis=1)[:, None]
        payload = xi_batch(spec, N_LARGE, rng)
        row("g_delta_rows", "ns_per_row", N_LARGE, N_LARGE, d,
            lambda: g_rows(spec, x, DELTA, W, payload))

    model = qzopt.CostModel()
    for n in (N_SMALL, N_LARGE):
        ledger = qzopt.QueryLedger()
        sg = _sigma_for_grad(spec, n)
        row(f"estimate_grad.n{n}", "ns_per_draw", n, n, d,
            lambda sg=sg: oracles.estimate_grad(spec, x, params, sg, model, rng, ledger))
        sd = _sigma_for_diff(spec, dist, DELTA, n)
        row(f"estimate_grad_diff.n{n}", "ns_per_draw", n, n, d,
            lambda sd=sd: oracles.estimate_grad_diff(spec, x, y, params, sd, model, rng, ledger))

    row("f_delta_closed", "us_per_call", 1000.0, 1, d,
        lambda: smoothing.f_delta(spec, x, params, mode="closed"))
    return metrics


def check_kernel_sizes(workload) -> bool:
    """The sigma targets above must realize exactly N_SMALL and N_LARGE draws."""
    spec, x, y, dist = _kernel_inputs(workload)
    params = qzopt.SmoothingParams(DELTA)
    classical = qzopt.CostModel(mode="classical")
    rng = np.random.default_rng(0)
    ok = True
    for n in (N_SMALL, N_LARGE):
        led = qzopt.QueryLedger()
        oracles.estimate_grad(spec, x, params, _sigma_for_grad(spec, n), classical, rng, led)
        ok &= led.classical_queries == 2 * n
        led = qzopt.QueryLedger()
        oracles.estimate_grad_diff(spec, x, y, params, _sigma_for_diff(spec, dist, DELTA, n),
                                   classical, rng, led)
        ok &= led.classical_queries == 4 * n
    return ok
