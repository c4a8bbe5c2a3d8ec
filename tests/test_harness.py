import math

import numpy as np
import pytest

from qzopt import (
    CSV_COLUMNS,
    ConfigError,
    CostModel,
    ExperimentConfig,
    apply_overrides,
    config_from_mapping,
    fit_loglog,
    parse_config,
    primary_queries,
    rows_to_csv,
    run_experiment,
    scaling_sweep,
    write_csv,
)


def small_config(**kw):
    base = dict(algorithm="qgfm", problem="abs-linear", d=2, eps_grid=(0.4,),
                seeds=(0, 1), delta=0.3, residual_n=2000)
    base.update(kw)
    return ExperimentConfig(**base)


CONFIG_TEXT = """\
# minimal experiment
algorithm = qgfm
problem = abs-linear
d = 2
delta = 0.3
eps = 0.4
seeds = 0,1   # two replicates
"""


def test_parse_config_text():
    mapping = parse_config(CONFIG_TEXT)
    assert mapping == {"algorithm": "qgfm", "problem": "abs-linear", "d": "2",
                       "delta": "0.3", "eps": "0.4", "seeds": "0,1"}
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(" = 3\n")


def test_config_from_mapping_roundtrip():
    cfg = config_from_mapping(parse_config(CONFIG_TEXT))
    assert cfg.algorithm == "qgfm" and cfg.problem == "abs-linear"
    assert cfg.eps_grid == (0.4,) and cfg.seeds == (0, 1)
    assert cfg.cost.mode == "quantum" and cfg.cost.c_q == 1.0


def test_config_every_key_and_defaults():
    base = parse_config(CONFIG_TEXT)
    assert config_from_mapping(base) == ExperimentConfig(
        algorithm="qgfm", problem="abs-linear", d=2, eps_grid=(0.4,), seeds=(0, 1), delta=0.3)
    full = {k: v for k, v in base.items() if k != "eps"}
    full.update(eps_grid="0.4, 0.2,", noise_scale="0.1", noise_kind="additive-offset",
                cost_mode="classical", c_q="1.5", log_k="1",
                out="rows.csv", budget="777", residual_n="300",
                residual_confidence="0.9", timings="1")
    assert config_from_mapping(full) == ExperimentConfig(
        algorithm="qgfm", problem="abs-linear", d=2, eps_grid=(0.4, 0.2), seeds=(0, 1),
        delta=0.3, noise_scale=0.1, noise_kind="additive-offset",
        cost=CostModel(mode="classical", c_q=1.5, log_k=1),
        out_path="rows.csv", budget=777, residual_n=300, residual_confidence=0.9,
        timings=True)


def test_config_mapping_errors():
    base = parse_config(CONFIG_TEXT)
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping({**base, "bogus": "1"})
    missing = {k: v for k, v in base.items() if k != "problem"}
    with pytest.raises(ConfigError, match="missing required key"):
        config_from_mapping(missing)
    with pytest.raises(ConfigError, match="exactly one of eps"):
        config_from_mapping({**base, "eps_grid": "0.4,0.2"})
    no_eps = {k: v for k, v in base.items() if k != "eps"}
    with pytest.raises(ConfigError, match="exactly one of eps"):
        config_from_mapping(no_eps)
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_mapping({**base, "d": "two"})
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_mapping({**base, "eps": "tiny"})
    with pytest.raises(ConfigError, match="must be a boolean"):
        config_from_mapping({**base, "timings": "maybe"})
    for bad in ("nan", "inf", "-0.1"):
        # noise_scale = nan used to run noise-free and exit 0
        with pytest.raises(ConfigError, match="noise_scale must be non-negative and finite"):
            config_from_mapping({**base, "noise_scale": bad})


def test_config_cost_model_keys():
    base = parse_config(CONFIG_TEXT)
    cfg = config_from_mapping({**base, "cost_mode": "classical", "c_q": "2.5", "log_k": "2"})
    assert cfg.cost == CostModel(mode="classical", c_q=2.5, log_k=2)
    with pytest.raises(ConfigError):
        config_from_mapping({**base, "cost_mode": "analog"})


def test_experiment_config_validation():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        small_config(algorithm="sgd")
    with pytest.raises(ConfigError, match="unknown problem"):
        small_config(problem="rosenbrock")
    with pytest.raises(ConfigError):
        small_config(d=0)
    with pytest.raises(ConfigError, match="distinct"):
        small_config(eps_grid=(0.4, 0.4))
    with pytest.raises(ConfigError, match="positive and finite"):
        small_config(eps_grid=(0.4, -0.1))
    with pytest.raises(ConfigError, match="seed"):
        small_config(seeds=())
    with pytest.raises(ConfigError, match="seed"):
        small_config(seeds=(0, -1))
    with pytest.raises(ConfigError, match="delta"):
        small_config(delta=0.0)
    with pytest.raises(ConfigError, match="budget"):
        small_config(budget=0)
    # bool is an int subclass; NaN passes every comparison-based check
    with pytest.raises(ConfigError, match="d must"):
        small_config(d=True)
    with pytest.raises(ConfigError, match="seed"):
        small_config(seeds=(0, True))
    for bad in (True, 2.5, 1e9, math.nan):
        with pytest.raises(ConfigError, match="budget"):
            small_config(budget=bad)
    # the smooth track has no smoothing radius to validate
    cfg = ExperimentConfig(algorithm="qgm_plus", problem="quadratic-smooth", d=2,
                           eps_grid=(0.2,), seeds=(0,), delta=0.0)
    assert cfg.delta == 0.0


def test_run_experiment_rows_and_order():
    cfg = small_config(eps_grid=(0.2, 0.4), seeds=(1, 0))
    rows = run_experiment(cfg)
    assert [(r.eps, r.seed) for r in rows] == [(0.4, 0), (0.4, 1), (0.2, 0), (0.2, 1)]
    for r in rows:
        assert r.algorithm == "qgfm" and r.problem == "abs-linear"
        assert r.p is None
        assert r.verdict in ("accepted", "rejected", "inconclusive", "budget_exceeded")
        assert r.wall_ms == 0


def test_csv_shape_and_determinism():
    cfg = small_config()
    csv_a = rows_to_csv(run_experiment(cfg))
    csv_b = rows_to_csv(run_experiment(small_config()))
    assert csv_a == csv_b
    lines = csv_a.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    # p is empty for the plain method, floats are repr-formatted
    assert first[CSV_COLUMNS.index("p")] == ""
    assert first[CSV_COLUMNS.index("delta")] == "0.3"
    assert first[CSV_COLUMNS.index("seed")] == "0"


def test_write_csv(tmp_path):
    cfg = small_config(seeds=(0,))
    rows = run_experiment(cfg)
    path = tmp_path / "rows.csv"
    write_csv(rows, str(path))
    assert path.read_text() == rows_to_csv(rows)


def test_fit_loglog_exact():
    pts = [(x, 3.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 3.0)]
    fit = fit_loglog(pts)
    assert fit.slope == pytest.approx(3.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == 1.0
    fit2 = fit_loglog([(x, 7.0 / 3.0 * x) for x in (0.5, 1.5, 2.5)])
    assert fit2.slope == pytest.approx(7.0 / 3.0)
    with pytest.raises(ValueError, match="distinct"):
        fit_loglog([(1.0, 2.0), (1.0, 3.0)])


def test_scaling_sweep_grid_validation():
    with pytest.raises(ConfigError, match="at least 3"):
        scaling_sweep(small_config(eps_grid=(0.4, 0.1)))
    with pytest.raises(ConfigError, match="4x"):
        scaling_sweep(small_config(eps_grid=(0.4, 0.2, 0.15)))


def test_scaling_sweep_on_precomputed_rows():
    cfg = small_config(eps_grid=(0.8, 0.4, 0.2), seeds=(0,))
    rows = run_experiment(cfg)
    fit = scaling_sweep(cfg, rows=rows)
    assert len(fit.points) == 3
    assert fit.points[0][0] == pytest.approx(math.log(1 / 0.8))
    # queries grow as eps shrinks
    assert fit.slope > 0


def test_primary_queries_selects_counter():
    cfg_q = small_config(seeds=(0,))
    row = run_experiment(cfg_q)[0]
    assert primary_queries(row, cfg_q) == row.uf_queries
    cfg_c = small_config(seeds=(0,), cost=CostModel(mode="classical"))
    row_c = run_experiment(cfg_c)[0]
    assert primary_queries(row_c, cfg_c) == row_c.classical_queries
    cfg_g = ExperimentConfig(algorithm="qgm_plus", problem="quadratic-smooth", d=2,
                             eps_grid=(0.2,), seeds=(0,), noise_scale=1.0)
    row_g = run_experiment(cfg_g)[0]
    assert primary_queries(row_g, cfg_g) == row_g.grad_oracle_queries > 0


def test_apply_overrides():
    cfg = small_config()
    assert apply_overrides(cfg).seeds == (0, 1)
    assert apply_overrides(cfg, seed=7).seeds == (7,)
    assert apply_overrides(cfg, out="x.csv").out_path == "x.csv"
    assert apply_overrides(cfg, cost_mode="classical").cost.mode == "classical"
    assert apply_overrides(cfg, timings=True).timings
    # original untouched
    assert cfg.out_path == "" and cfg.cost.mode == "quantum"


def test_qgm_plus_requires_smooth_problem():
    cfg = ExperimentConfig(algorithm="qgm_plus", problem="sawtooth", d=2,
                           eps_grid=(0.2,), seeds=(0,))
    with pytest.raises(ConfigError, match="smooth"):
        run_experiment(cfg)


def test_timings_column_populated_when_requested():
    rows = run_experiment(small_config(seeds=(0,), timings=True))
    assert rows[0].wall_ms >= 0
    text = rows_to_csv(rows)
    assert text.count("\n") == 2


def test_residual_verdict_accepted_on_easy_instance():
    # abs-linear from the canonical start reaches the kink neighborhood,
    # where the exact residual is zero
    rows = run_experiment(small_config())
    assert all(r.verdict == "accepted" for r in rows)
    assert all(r.residual_est <= 0.4 for r in rows)
