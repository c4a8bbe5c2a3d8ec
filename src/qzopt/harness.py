"""Experiment orchestration: configs, CSV emission, scaling-exponent fits.

A config is flat key=value text (``#`` comments).  Each (seed, eps) pair
becomes one optimizer run and one CSV row; rows are sorted canonically
(eps descending, seed ascending) and formatted locale-free, so identical
configs produce byte-identical CSV bodies.  Wall-clock times are only
recorded when explicitly requested (``timings = true``), keeping the
default output deterministic.

``scaling_sweep`` averages the primary query counter per eps over seeds
and fits an ordinary least-squares line through (log(1/eps),
log(queries)); the fitted slope is the measured complexity exponent that
the acceptance criteria compare against the theoretical rates (3 for the
plain method, 7/3 for the variance-reduced ones).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .algorithms import (
    DEFAULT_BUDGET,
    RunResult,
    _primary_count,
    derive_params_qgfm,
    derive_params_qgfm_plus,
    derive_params_qgm_plus,
    qgfm,
    qgfm_plus,
    qgm_plus,
)
from .objectives import CATALOG_NAMES, ObjectiveSpec, _check_int, _check_real, catalog_make
from .oracles import CostModel
from .smoothing import SmoothingParams
from .stationarity import _interval_verdict, _residual_args

__all__ = [
    "ALGORITHMS",
    "CSV_COLUMNS",
    "ConfigError",
    "ExperimentConfig",
    "RunRow",
    "SlopeFit",
    "config_from_mapping",
    "fit_loglog",
    "parse_config",
    "rows_to_csv",
    "run_experiment",
    "scaling_sweep",
    "write_csv",
]

ALGORITHMS = ("qgfm", "qgfm_plus", "qgm_plus")


class ConfigError(ValueError):
    """Invalid configuration (maps to CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    algorithm: str
    problem: str
    d: int
    eps_grid: tuple[float, ...]
    seeds: tuple[int, ...]
    delta: float = 0.0
    noise_scale: float = 0.0
    noise_kind: str | None = None
    cost: CostModel = field(default_factory=CostModel)
    out_path: str = ""
    budget: int = DEFAULT_BUDGET
    residual_n: int = 20000
    residual_confidence: float = 0.95
    timings: bool = False

    def __post_init__(self) -> None:
        # the checked values are stored, so numpy scalars become Python ints and floats
        try:
            if self.algorithm not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {self.algorithm!r}")
            if self.problem not in CATALOG_NAMES:
                raise ValueError(f"unknown problem {self.problem!r}")
            self.d = _check_int("d", self.d, 1)
            if not self.eps_grid:
                raise ValueError("at least one eps value is required")
            self.eps_grid = tuple(_check_real("eps values", e) for e in self.eps_grid)
            if len(set(self.eps_grid)) != len(self.eps_grid):
                raise ValueError("eps values must be distinct")
            if not self.seeds:
                raise ValueError("at least one seed is required")
            self.seeds = tuple(_check_int("seed", s, 0) for s in self.seeds)
            self.noise_scale = _check_real("noise_scale", self.noise_scale, lo_open=False)
            # qgm_plus smooths nothing, so its delta may be 0
            self.delta = _check_real("delta", self.delta, lo_open=self.algorithm != "qgm_plus")
            self.budget = _check_int("budget", self.budget, 1)
            self.residual_n, self.residual_confidence = _residual_args(
                self.residual_n, self.residual_confidence, prefix="residual_")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# config text


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parser(convert, kind: str):
    """Parser for one value: convert(raw), or a ConfigError saying key must be kind."""
    def parse(key: str, raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {kind}, got {raw!r}") from None
    return parse


_parse_bool = _parser(lambda raw: _BOOL_WORDS[raw.strip().lower()], "a boolean")
_parse_float = _parser(float, "a number")
_parse_int = _parser(int, "an integer")


def parse_config(text: str) -> dict[str, str]:
    """key=value lines with # comments; duplicate keys rejected."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _parse_list(parse):
    """Parser for comma-separated values; empty tokens are skipped."""
    return lambda key, raw: tuple(parse(key, tok) for tok in raw.split(",") if tok.strip())


# config key -> (ExperimentConfig or CostModel field, parser; None keeps the
# text).  Absent keys take the dataclass defaults.  Keys are parsed in this
# order, so the first malformed value in it is the one reported.
_KEYS = {
    "eps": ("eps_grid", lambda key, raw: (_parse_float(key, raw),)),
    "eps_grid": ("eps_grid", _parse_list(_parse_float)),
    "seeds": ("seeds", _parse_list(_parse_int)),
    "cost_mode": ("mode", None),
    "c_q": ("c_q", _parse_float),
    "log_k": ("log_k", _parse_int),
    "algorithm": ("algorithm", None),
    "problem": ("problem", None),
    "d": ("d", _parse_int),
    "delta": ("delta", _parse_float),
    "noise_scale": ("noise_scale", _parse_float),
    "noise_kind": ("noise_kind", None),
    "out": ("out_path", None),
    "budget": ("budget", _parse_int),
    "residual_n": ("residual_n", _parse_int),
    "residual_confidence": ("residual_confidence", _parse_float),
    "timings": ("timings", _parse_bool),
}


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    unknown = set(mapping) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("algorithm", "problem", "d", "seeds"):
        if key not in mapping:
            raise ConfigError(f"missing required key {key!r}")
    if ("eps" in mapping) == ("eps_grid" in mapping):
        raise ConfigError("exactly one of eps / eps_grid is required")

    values = {}
    for key, (name, parse) in _KEYS.items():
        if key in mapping:
            values[name] = mapping[key] if parse is None else parse(key, mapping[key])
    cost_args = {f.name: values.pop(f.name) for f in fields(CostModel) if f.name in values}
    try:
        cost = CostModel(**cost_args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(cost=cost, **values)


# ---------------------------------------------------------------------------
# running


@dataclass
class RunRow:
    """One CSV row; its fields, in order, are the CSV columns."""

    algorithm: str
    problem: str
    d: int
    L: float
    delta: float
    eps: float
    seed: int
    T: int
    p: float | None
    uf_queries: int
    classical_queries: int
    grad_oracle_queries: int
    residual_est: float
    residual_halfwidth: float
    verdict: str
    wall_ms: int

    def values(self) -> list[str]:
        out = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        return out


CSV_COLUMNS = tuple(f.name for f in fields(RunRow))


def build_spec(config: ExperimentConfig) -> ObjectiveSpec:
    return catalog_make(config.problem, config.d, config.noise_scale, config.noise_kind)


def _verdict(result: RunResult, eps: float) -> str:
    if result.budget_exceeded:
        return "budget_exceeded"
    return _interval_verdict(result.residual, eps)


def _schedule(config: ExperimentConfig, spec: ObjectiveSpec, eps: float):
    """The schedule of config's cells at eps; one that cannot be derived
    raises ConfigError or ValueError."""
    if config.algorithm == "qgm_plus":
        if spec.smooth_params is None:
            raise ConfigError(f"{config.problem} has no smooth gradient oracle")
        l, sigma = spec.smooth_params
        return derive_params_qgm_plus(l, sigma, eps, spec.delta_0, spec.d)
    derive = derive_params_qgfm if config.algorithm == "qgfm" else derive_params_qgfm_plus
    return derive(spec.d, spec.L, config.delta, eps, spec.delta_0)


def _check_schedules(config: ExperimentConfig, spec: ObjectiveSpec) -> None:
    """Derive every eps's schedule before any cell runs, so that a config
    that fails at one eps fails before the first cell."""
    for eps in config.eps_grid:
        _schedule(config, spec, eps)


def run_one(config: ExperimentConfig, spec: ObjectiveSpec, eps: float, seed: int) -> RunRow:
    """Derive the schedule, run, classify the residual against eps."""
    t0 = time.perf_counter()
    params = _schedule(config, spec, eps)
    if config.algorithm in ("qgfm", "qgfm_plus"):
        # picked per call from the module globals, which the benchmark's span tracer rebinds
        run = qgfm if config.algorithm == "qgfm" else qgfm_plus
        result = run(spec, spec.x0, params, SmoothingParams(config.delta), config.cost, seed,
                     budget=config.budget, residual_n=config.residual_n,
                     residual_confidence=config.residual_confidence)
    else:
        result = qgm_plus(spec, spec.x0, params, config.cost, seed, budget=config.budget)
    wall_ms = int(round((time.perf_counter() - t0) * 1000.0)) if config.timings else 0
    led = result.ledger
    return RunRow(
        algorithm=config.algorithm,
        problem=config.problem,
        d=spec.d,
        L=spec.L,
        delta=config.delta,
        eps=eps,
        seed=seed,
        T=result.T,
        p=result.p,
        uf_queries=led.uf_queries,
        classical_queries=led.classical_queries,
        grad_oracle_queries=led.grad_oracle_queries,
        residual_est=result.residual.estimate,
        residual_halfwidth=result.residual.half_width,
        verdict=_verdict(result, eps),
        wall_ms=wall_ms,
    )


def run_experiment(config: ExperimentConfig) -> list[RunRow]:
    """One run per (seed, eps); rows in canonical order (eps desc, seed asc)."""
    spec = build_spec(config)
    _check_schedules(config, spec)
    rows = [run_one(config, spec, eps, seed)
            for eps in config.eps_grid for seed in config.seeds]
    rows.sort(key=lambda r: (-r.eps, r.seed))
    return rows


def rows_to_csv(rows: list[RunRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.values()) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows: list[RunRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


# ---------------------------------------------------------------------------
# scaling fits


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def fit_loglog(points) -> SlopeFit:
    """OLS line through already-log-transformed, finite (abscissa, ordinate) pairs."""
    pts = tuple((float(a), float(b)) for a, b in points)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if not np.isfinite(pts).all():
        raise ValueError("fit points must be finite")
    if len(set(xs.tolist())) < 2:
        raise ValueError("need at least 2 distinct abscissae")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(resid @ resid)
    centered = ys - ys.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    r_squared=min(1.0, max(0.0, r2)), points=pts)


def primary_queries(row: RunRow, config: ExperimentConfig) -> int:
    """The costed counter: gradient-oracle calls on the smooth track,
    otherwise the active cost mode's function-value counter."""
    return _primary_count(row, config.cost, config.algorithm == "qgm_plus")


def _sweep_grid(config: ExperimentConfig) -> list[float]:
    """The config's distinct eps values, largest first; a grid too small to
    fit a slope over raises ConfigError."""
    eps_vals = sorted(set(config.eps_grid), reverse=True)
    if len(eps_vals) < 3:
        raise ConfigError("sweep needs at least 3 distinct eps values")
    if max(eps_vals) / min(eps_vals) < 4.0:
        raise ConfigError("sweep eps grid must span at least a 4x ratio")
    return eps_vals


def scaling_sweep(config: ExperimentConfig, rows: list[RunRow] | None = None) -> SlopeFit:
    """Fit the measured query exponent over the config's eps grid."""
    eps_vals = _sweep_grid(config)
    if rows is None:
        rows = run_experiment(config)
    points = []
    for eps in eps_vals:
        qs = [primary_queries(r, config) for r in rows if r.eps == eps]
        if not qs:
            raise ConfigError(f"no rows for eps={eps}")
        points.append((math.log(1.0 / eps), math.log(sum(qs) / len(qs))))
    return fit_loglog(points)


def apply_overrides(
    config: ExperimentConfig,
    *,
    seed: int | None = None,
    out: str | None = None,
    cost_mode: str | None = None,
    timings: bool | None = None,
) -> ExperimentConfig:
    """CLI-level overrides on top of a parsed config."""
    if seed is not None:
        config = replace(config, seeds=(seed,))
    if out is not None:
        config = replace(config, out_path=out)
    if cost_mode is not None:
        config = replace(config, cost=replace(config.cost, mode=cost_mode))
    if timings is not None:
        config = replace(config, timings=timings)
    return config
