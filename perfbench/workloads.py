"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, drives qzopt only
through public entry points (the CLI in-process, the optimizers,
``verify_stationary`` and the circuit functions), and returns its outputs
from every pass as a flat ``{name: str}`` dict that the checks compare
against the pins.  Entry points are looked up on their module at call
time, so the traced pass sees the calls through its wrappers.

Sizes are chosen so that one pass takes 1.5-3.5 s on a 2-core box and so
that the work done does not depend much on the seed.  Each entry-point call
of a pass is timed in CPU seconds as a segment (see ``Workload.timed``).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

import qzopt
from qzopt import algorithms, circuit, cli, stationarity

from probe import clock, cpu_probe


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _verdict(res, eps: float) -> str:
    if res.budget_exceeded:
        return "budget_exceeded"
    r = res.residual
    if r.estimate + r.half_width <= eps:
        return "accepted"
    if r.estimate - r.half_width > eps:
        return "rejected"
    return "inconclusive"


def _tags(ledger) -> str:
    return ";".join(f"{k}={v[0]},{v[1]},{v[2]}" for k, v in sorted(ledger.phase_tags.items()))


def _result_outputs(prefix: str, res, eps: float) -> dict[str, str]:
    led = res.ledger
    return {
        f"{prefix}.T": str(res.T),
        f"{prefix}.p": repr(res.p),
        f"{prefix}.ledger": f"{led.uf_queries},{led.classical_queries},{led.grad_oracle_queries}",
        f"{prefix}.phase_tags": _tags(led),
        f"{prefix}.x_out": sha(np.ascontiguousarray(res.x_out, dtype=float).tobytes()),
        f"{prefix}.residual": f"{res.residual.estimate!r},{res.residual.half_width!r}",
        f"{prefix}.verdict": _verdict(res, eps),
    }


def _ledger_invariants(prefix: str, res) -> list[tuple[str, bool]]:
    led = res.ledger
    sums = [sum(v[i] for v in led.phase_tags.values()) for i in range(3)]
    totals = [led.uf_queries, led.classical_queries, led.grad_oracle_queries]
    return [
        (f"{prefix}.phase_tags_sum_to_ledger", sums == totals),
        (f"{prefix}.within_budget", not res.budget_exceeded),
    ]


class Workload:
    name = ""
    any_seed_keys: tuple[str, ...] = ()  # output keys whose values do not depend on the seed
    # kernel rows: (problem, d, noise_scale) of the main estimator shape, and the d/noise
    # at which each problem's F rows are timed
    kernel_main: tuple[str, int, float] = ("abs-linear", 8, 0.0)
    kernel_F: dict[str, tuple[int, float]] = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.invariants: list[tuple[str, bool]] = []
        self.segment_s: dict[str, float] = {}  # CPU time of each call of the last pass
        self.segment_probe_s: dict[str, float] = {}  # cpu_probe time around each call
        self.probe = False

    def timed(self, segment: str, fn, *args, **kwargs):
        """Call one entry point as a timed segment of the pass, in CPU seconds,
        bracketed by cpu_probe() while ``probe`` is set (the untraced timed passes)."""
        before = cpu_probe() if self.probe else 0.0
        t0 = clock()
        result = fn(*args, **kwargs)
        self.segment_s[segment] = clock() - t0
        if self.probe:
            self.segment_probe_s[segment] = 0.5 * (before + cpu_probe())
        return result

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict[str, str]:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove any files the workload wrote."""


class Sweep(Workload):
    """``qzopt sweep`` in-process: qgfm on abs-linear, d=8, three eps, three seeds.

    The nine cells run as three sweeps of one seed each (``--seed``), so a
    pass has three timed calls of about 0.7 s rather than one of 2 s.
    """

    name = "sweep"
    EPS = "0.6, 0.3, 0.15"
    kernel_main = ("abs-linear", 8, 0.1)
    kernel_F = {"abs-linear": (8, 0.1), "sawtooth": (8, 0.0), "quadratic-smooth": (8, 0.1)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [3 * seed + j for j in range(3)]
        self.config = self._write("sweep", self.EPS)
        self.warm_config = self._write("sweep-warmup", "1.2, 0.6, 0.3")
        eps = [float(e) for e in self.EPS.split(",")]
        self.any_seed_keys = tuple(
            f"s{j}.{k}" for j in range(3) for k in ("rc", "slope", "fit_points", "rows")
        ) + tuple(
            f"s{j}.e{e}.{k}" for j in range(3) for e in eps for k in ("T", "p", "ledger")
        )

    def _write(self, stem, eps):
        path = os.path.join(self.workdir, f"{stem}-{os.getpid()}.cfg")
        with open(path, "w") as fh:
            fh.write(
                "algorithm = qgfm\nproblem = abs-linear\nd = 8\nnoise_scale = 0.1\n"
                f"delta = 0.3\neps_grid = {eps}\nseeds = 0\n"
            )
        return path

    def warmup(self):
        _run_cli(["sweep", "--config", self.warm_config, "--seed", str(self.seeds[0])])

    def cleanup(self):
        for path in (self.config, self.warm_config):
            if os.path.exists(path):
                os.remove(path)

    def run_pass(self):
        outputs, self.invariants = {}, []
        for j, seed in enumerate(self.seeds):
            code, out = self.timed(f"sweep{j}", _run_cli,
                                   ["sweep", "--config", self.config, "--seed", str(seed)])
            lines = out.splitlines()
            csv_end = next((i for i, ln in enumerate(lines) if ln.startswith("slope ")),
                           len(lines))
            csv_lines = lines[:csv_end]
            outputs.update({
                f"s{j}.rc": str(code),
                f"s{j}.csv": sha("\n".join(csv_lines) + "\n"),
                f"s{j}.slope": lines[csv_end] if csv_end < len(lines) else "",
                f"s{j}.fit_points": sha("\n".join(lines[csv_end + 1:])),
                f"s{j}.rows": str(len(csv_lines) - 1),
            })
            header = csv_lines[0].split(",") if csv_lines else []
            for line in csv_lines[1:]:
                row = dict(zip(header, line.split(",")))
                key = f"s{j}.e{float(row['eps'])}"
                outputs[f"{key}.T"] = row["T"]
                outputs[f"{key}.p"] = row["p"]
                outputs[f"{key}.ledger"] = ",".join(
                    (row["uf_queries"], row["classical_queries"], row["grad_oracle_queries"]))
                outputs[f"{key}.seed"] = row["seed"]
                outputs[f"{key}.verdict"] = row["verdict"]
            self.invariants += [
                (f"s{j}.rc_zero", code == 0),
                (f"s{j}.three_cells", len(csv_lines) - 1 == 3),
                (f"s{j}.seed_override", all(outputs.get(f"s{j}.e{float(e)}.seed") == str(seed)
                                            for e in self.EPS.split(","))),
            ]
        return outputs


class Recursion(Workload):
    """Direct QGFM+ / QGM+ calls where small paired differences dominate."""

    name = "recursion"
    DELTA = 0.3
    SAW_EPS = 0.1
    QUAD_EPS = 0.6
    QGM_EPS = 0.02
    # Sawtooth starts near fixed lattice points, so every seed has the same
    # mix of trajectories.  A start attracted to (1, 1) lands on it exactly in
    # float64 within a few hundred steps and freezes (its difference charges
    # are skipped); near (0, 1), (1, 0) and (0, -1) one coordinate snaps to
    # +-1 and the other keeps shrinking towards 0, so the difference branch
    # stays live for the whole run.  Near (0, 0) both coordinates underflow
    # to 0 after a seed-dependent number of steps, which would make the work
    # per pass depend on the seed, so that basin is not used.
    CORNERS = ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (1.0, 1.0))
    CELLS = ("saw0", "saw1", "saw2", "saw3", "quad", "qgm")
    any_seed_keys = tuple(f"{c}.{k}" for c in CELLS for k in ("T", "p"))
    kernel_main = ("sawtooth", 2, 0.0)
    kernel_F = {"abs-linear": (2, 0.0), "sawtooth": (2, 0.0), "quadratic-smooth": (8, 0.5)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(seed, 1)
        self.saw = qzopt.catalog_make("sawtooth", 2)
        self.saw_params = qzopt.derive_params_qgfm_plus(2, self.saw.L, self.DELTA, self.SAW_EPS,
                                                        self.saw.delta_0)
        self.saw_x0 = [np.array(c) + rng.uniform(-0.35, 0.35, 2) for c in self.CORNERS]
        self.quad = qzopt.catalog_make("quadratic-smooth", 8, 0.5)
        self.quad_params = qzopt.derive_params_qgfm_plus(8, self.quad.L, self.DELTA, self.QUAD_EPS,
                                                         self.quad.delta_0)
        self.quad_x0 = self._unit(rng)
        self.qgm = qzopt.catalog_make("quadratic-smooth", 8, 0.1)
        l, sigma = self.qgm.smooth_params
        self.qgm_params = qzopt.derive_params_qgm_plus(l, sigma, self.QGM_EPS, self.qgm.delta_0, 8)
        self.qgm_x0 = self._unit(rng)
        self.smoothing = qzopt.SmoothingParams(self.DELTA)
        self.model = qzopt.CostModel()

    @staticmethod
    def _unit(rng):
        v = rng.standard_normal(8)
        return v / np.linalg.norm(v)

    def warmup(self):
        p = qzopt.derive_params_qgfm_plus(2, self.saw.L, self.DELTA, 0.5, self.saw.delta_0)
        algorithms.qgfm_plus(self.saw, self.saw_x0[0], p, self.smoothing, self.model, self.seed)
        p = qzopt.derive_params_qgfm_plus(8, self.quad.L, self.DELTA, 2.0, self.quad.delta_0)
        algorithms.qgfm_plus(self.quad, self.quad_x0, p, self.smoothing, self.model, self.seed)
        l, sigma = self.qgm.smooth_params
        p = qzopt.derive_params_qgm_plus(l, sigma, 0.1, self.qgm.delta_0, 8)
        algorithms.qgm_plus(self.qgm, self.qgm_x0, p, self.model, self.seed)

    def run_pass(self):
        outputs, inv = {}, []
        for j, x0 in enumerate(self.saw_x0):
            res = self.timed(f"saw{j}", algorithms.qgfm_plus, self.saw, x0, self.saw_params,
                             self.smoothing, self.model, 4 * self.seed + j)
            outputs.update(_result_outputs(f"saw{j}", res, self.SAW_EPS))
            inv += _ledger_invariants(f"saw{j}", res)
            inv.append((f"saw{j}.diff_charged", res.ledger.phase_tags.get("diff", (0,))[0] > 0))
        res = self.timed("quad", algorithms.qgfm_plus, self.quad, self.quad_x0, self.quad_params,
                         self.smoothing, self.model, self.seed)
        outputs.update(_result_outputs("quad", res, self.QUAD_EPS))
        inv += _ledger_invariants("quad", res)
        inv.append(("quad.diff_charged", res.ledger.phase_tags.get("diff", (0,))[0] > 0))
        res = self.timed("qgm", algorithms.qgm_plus, self.qgm, self.qgm_x0, self.qgm_params,
                         self.model, self.seed)
        outputs.update(_result_outputs("qgm", res, self.QGM_EPS))
        inv += _ledger_invariants("qgm", res)
        inv.append(("qgm.grad_oracle_only",
                    res.ledger.uf_queries == 0 and res.ledger.classical_queries == 0))
        self.invariants = inv
        return outputs


class Certify(Workload):
    """Reference-side work that is never charged, plus the circuit emulation."""

    name = "certify"
    DELTA = 0.3
    VERIFY_D = 64
    # The true residual at 0.03*a is 0.579.  At eps 0.646 the interval test is
    # inconclusive at 10k, 20k and 40k draws and accepts at 80k for every seed
    # (upper ends about 0.66 and 0.64), so the rounds do not depend on the seed.
    VERIFY_EPS = 0.646
    TRACE_EPS = 0.4
    EMULATE_N = 2000
    EMULATE_SEGMENTS = 4
    SV_SAMPLES = 1000
    any_seed_keys = ("verify.verdict", "cli_verify.rc", "traced.T", "traced.p",
                     "circuit_demo.rc")
    kernel_main = ("abs-linear", 64, 0.0)
    kernel_F = {"abs-linear": (64, 0.0), "sawtooth": (4, 0.0), "quadratic-smooth": (64, 0.0)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(seed, 2)
        self.smoothing = qzopt.SmoothingParams(self.DELTA)
        self.model = qzopt.CostModel()
        self.big = qzopt.catalog_make("abs-linear", self.VERIFY_D)
        self.big_x = 0.03 * self.big.direction
        self.cli_point = ",".join(repr(float(v)) for v in rng.uniform(-0.03, 0.03, 2))
        self.saw = qzopt.catalog_make("sawtooth", 4)
        self.saw_x0 = self.saw.x0 + rng.uniform(-0.4, 0.4, 4)
        self.saw_params = qzopt.derive_params_qgfm_plus(4, self.saw.L, self.DELTA, self.TRACE_EPS,
                                                        self.saw.delta_0)
        self.emu_spec = qzopt.catalog_make("abs-linear", 8, 0.1)
        self.layout = qzopt.RegisterLayout(m1=8, m2=256, d=8)
        W = rng.standard_normal((self.EMULATE_N, 8))
        self.emu_w = W / np.linalg.norm(W, axis=1)[:, None]
        self.emu_xi = [qzopt.XiSample(float(v)) for v in rng.uniform(-0.1, 0.1, self.EMULATE_N)]
        self.emu_x = self.emu_spec.x0 + 0.05 * rng.standard_normal(8)
        self.emu_y = self.emu_x + 0.01 * rng.standard_normal(8)
        self.sv_layout = qzopt.RegisterLayout(m1=2, m2=4, d=3)

    def _emulate(self, start, stop):
        """The emulated registers for draws start..stop; digested outside the timed call."""
        out = []
        for w, xi in zip(self.emu_w[start:stop], self.emu_xi[start:stop]):
            out.append(circuit.emulate_U_g(self.emu_spec, self.emu_x, self.smoothing, xi, w,
                                           self.layout))
            out.append(circuit.emulate_V_g(self.emu_spec, self.emu_x, self.emu_y, self.smoothing,
                                           xi, w, self.layout))
        return out

    def _statevector(self, n):
        """n measure_sample and n pipeline_sample draws; digested outside the timed call."""
        rng = _rng(self.seed, 5)
        state = circuit.statevector_apply_h_and_norm(circuit.statevector_prepare(self.sv_layout))
        draws = [circuit.measure_sample(state, rng) for _ in range(n)]
        draws += [circuit.pipeline_sample(self.sv_layout, rng) for _ in range(n)]
        return draws

    @staticmethod
    def _draws_digest(draws):
        return sha(";".join(f"{o.xi}:{o.valid}:{'-' if o.w is None else o.w.tobytes().hex()}"
                            for o in draws))

    def warmup(self):
        stationarity.verify_stationary(self.big, self.big_x, self.smoothing, 2.0, 0.95,
                                       _rng(self.seed, 3), n0=1000)
        _run_cli(self._verify_argv())
        p = qzopt.derive_params_qgfm_plus(4, self.saw.L, self.DELTA, 0.9, self.saw.delta_0)
        algorithms.qgfm_plus(self.saw, self.saw_x0, p, self.smoothing, self.model, self.seed,
                             trace=True)
        _run_cli(self._demo_argv(1000))
        self._emulate(0, 10)
        self._statevector(10)

    def _verify_argv(self):
        return ["verify", "--problem", "abs-linear", "--d", "2", f"--point={self.cli_point}",
                "--delta", "0.3", "--eps", "0.2", "--seed", str(self.seed)]

    def _demo_argv(self, n):
        return ["circuit-demo", "--m1", "8", "--m2", "256", "--d", "8", "--n", str(n),
                "--seed", str(self.seed)]

    def run_pass(self):
        outputs = {}
        outputs["verify.verdict"] = self.timed(
            "verify", stationarity.verify_stationary, self.big, self.big_x, self.smoothing,
            self.VERIFY_EPS, 0.95, _rng(self.seed, 3))
        code, out = self.timed("cli_verify", _run_cli, self._verify_argv())
        outputs["cli_verify.rc"] = str(code)
        outputs["cli_verify.stdout"] = sha(out)
        res = self.timed("traced", algorithms.qgfm_plus, self.saw, self.saw_x0, self.saw_params,
                         self.smoothing, self.model, self.seed, trace=True)
        outputs.update(_result_outputs("traced", res, self.TRACE_EPS))
        outputs["traced.records"] = sha(";".join(
            f"{r.t},{r.theta},{r.g_norm!r},{r.step_norm!r},{r.phi!r},{r.gradref_norm!r}"
            for r in res.trace))
        code, out = self.timed("circuit_demo", _run_cli, self._demo_argv(200000))
        outputs["circuit_demo.rc"] = str(code)
        outputs["circuit_demo.stdout"] = sha(out)
        step = self.EMULATE_N // self.EMULATE_SEGMENTS
        for k in range(self.EMULATE_SEGMENTS):
            registers = self.timed(f"emulate{k}", self._emulate, k * step, (k + 1) * step)
            outputs[f"emulate.{k}"] = sha(np.concatenate(registers).tobytes())
        draws = self.timed("statevector", self._statevector, self.SV_SAMPLES)
        outputs["statevector"] = self._draws_digest(draws)
        led = res.ledger
        charged = [sum(getattr(r, k) for r in res.trace) for k in ("uf", "classical", "grad")]
        self.invariants = _ledger_invariants("traced", res) + [
            ("verify.accepted", outputs["verify.verdict"] == "accepted"),
            ("cli_verify.rc_zero", outputs["cli_verify.rc"] == "0"),
            ("circuit_demo.rc_zero", outputs["circuit_demo.rc"] == "0"),
            ("traced.records_sum_to_ledger",
             charged == [led.uf_queries, led.classical_queries, led.grad_oracle_queries]),
            ("traced.one_record_per_step", len(res.trace) == res.T),
        ]
        return outputs


WORKLOADS = {w.name: w for w in (Sweep, Recursion, Certify)}


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
