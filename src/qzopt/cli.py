"""Command-line front end: run / sweep / circuit-demo / verify.

Exit codes: 0 success, 2 configuration or argument error, 3 budget-cap
abort (a run hit the query budget; rows are still written, flagged).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .circuit import RegisterLayout, _pipeline_blocks, invalid_probability
from .harness import (
    ConfigError,
    _check_schedules,
    _sweep_grid,
    apply_overrides,
    build_spec,
    config_from_mapping,
    parse_config,
    rows_to_csv,
    run_experiment,
    scaling_sweep,
    write_csv,
)
from .objectives import CATALOG_NAMES, _row_norms, catalog_make
from .rng import substream
from .smoothing import SmoothingParams
from .stationarity import exact_goldstein_distance, goldstein_residual, verify_stationary

__all__ = ["build_parser", "main"]


def _add_shared(p: argparse.ArgumentParser, default) -> None:
    """The options accepted both before and after the subcommand: the top
    level defaults them to None, and each subcommand to SUPPRESS, which
    keeps it from overwriting a value given before it."""
    p.add_argument("--seed", type=int, default=default, help="override the seed list / seed the demo")
    p.add_argument("--out", type=str, default=default, help="output CSV path")
    p.add_argument("--cost-mode", choices=("quantum", "classical"), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qzopt", description=__doc__)
    _add_shared(parser, None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config, emit CSV rows")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--timings", action="store_true", help="record wall_ms (breaks byte-determinism)")

    p_sweep = sub.add_parser("sweep", help="run an eps grid and fit the query-scaling exponent")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--timings", action="store_true")

    p_circ = sub.add_parser("circuit-demo", help="sample the (xi, w) circuit and print diagnostics")
    p_circ.add_argument("--m1", type=int, required=True)
    p_circ.add_argument("--m2", type=int, required=True)
    p_circ.add_argument("--d", type=int, required=True)
    p_circ.add_argument("--n", type=int, required=True)

    p_ver = sub.add_parser("verify", help="check a point for (delta, eps) stationarity")
    p_ver.add_argument("--problem", required=True, choices=CATALOG_NAMES)
    p_ver.add_argument("--d", type=int, required=True)
    p_ver.add_argument("--point", required=True, help="comma-separated coordinates")
    p_ver.add_argument("--delta", type=float, required=True)
    p_ver.add_argument("--eps", type=float, required=True)
    for p in sub.choices.values():
        _add_shared(p, argparse.SUPPRESS)
    return parser


def _load_config(args: argparse.Namespace, sweep: bool = False):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    config = config_from_mapping(parse_config(text))
    config = apply_overrides(config, seed=args.seed, out=args.out,
                             cost_mode=args.cost_mode, timings=args.timings or None)
    # the checks that need no cell come before the output is opened, so that
    # a config failing one leaves no empty output file behind
    if sweep:
        _sweep_grid(config)
    _check_schedules(config, build_spec(config))
    if config.out_path:
        # open the output (creating it empty) before the first cell runs, so
        # that an unwritable path fails at once, not after the whole run
        try:
            open(config.out_path, "a").close()
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from None
    return config


def _emit_rows(rows, config) -> int:
    if config.out_path:
        write_csv(rows, config.out_path)
        print(f"wrote {len(rows)} rows to {config.out_path}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    if any(r.verdict == "budget_exceeded" for r in rows):
        print("budget cap hit; flagged rows present", file=sys.stderr)
        return 3
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    return _emit_rows(run_experiment(config), config)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args, sweep=True)
    rows = run_experiment(config)
    fit = scaling_sweep(config, rows=rows)
    code = _emit_rows(rows, config)
    print(f"slope {fit.slope:.4f}  intercept {fit.intercept:.4f}  r2 {fit.r_squared:.6f}")
    for x, y in fit.points:
        print(f"  log(1/eps) {x:.4f} -> log(queries) {y:.4f}")
    return code


def _chisquare(counts: np.ndarray) -> tuple[float, float]:
    """Pearson chi2 against equal cells: the operations of scipy.stats.chisquare,
    whose p-value is scipy.special.chdtrc, without importing scipy.stats."""
    from scipy import special
    f = counts.astype(np.float64)
    e = np.mean(f, axis=0, keepdims=True)
    stat = np.sum((f - e) ** 2 / e, axis=0)
    return stat, special.chdtrc(np.float64(f.size - 1), stat)


def _cmd_circuit_demo(args: argparse.Namespace) -> int:
    layout = RegisterLayout(m1=args.m1, m2=args.m2, d=args.d)
    if args.n < 1:
        raise ConfigError("n must be positive")
    seed = args.seed if args.seed is not None else 0
    rng = substream(seed, "circuit-demo")
    # the draws block by block: xi is counted a block at a time (past 1024 cells it
    # is drawn only to keep the stream), the valid last coordinates, in order,
    # fill a prefix of last, and min and max of the valid rows' norms are exact
    xi_blocks, w_blocks = _pipeline_blocks(layout, args.n, rng)
    cells = 1 << layout.m1
    counts = np.zeros(cells, dtype=np.int64) if cells <= 1024 else None
    for _, _, xi in xi_blocks:
        if counts is not None:
            counts += np.bincount(xi, minlength=cells)
    last = np.empty(args.n)
    n_valid = 0
    lo, hi = np.inf, -np.inf
    for _, _, W, valid in w_blocks:
        norms = _row_norms(W)[valid]
        if norms.size:
            lo, hi = min(lo, norms.min()), max(hi, norms.max())
            last[n_valid:n_valid + norms.size] = W[valid, -1]
            n_valid += norms.size
    last = last[:n_valid]
    print(f"layout: m1={layout.m1} m2={layout.m2} d={layout.d} "
          f"({layout.total_qubits} qubits total)")
    print(f"invalid outcome probability: exact {invalid_probability(layout):.6g}, "
          f"empirical {1.0 - n_valid / args.n:.6g} over {args.n} draws")
    if n_valid == 0:
        print("no valid samples drawn")
        return 0
    print(f"||w|| on valid samples: min {lo:.12f} max {hi:.12f}")
    print(f"w_last moments: mean {last.mean():+.4f} var {last.var():.4f}")
    if layout.d == 3:
        from scipy import stats  # kstwo has no scipy.special kernel; only d = 3 loads stats
        ks = stats.kstest(last, stats.uniform(loc=-1.0, scale=2.0).cdf)
        print(f"KS w_3 vs uniform[-1,1]: D {ks.statistic:.4f} p {ks.pvalue:.4f}")
    if counts is not None:
        stat, p = _chisquare(counts)
        print(f"xi uniformity chi2 over {cells} cells: stat {stat:.4f} p {p:.4f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        point = np.array([float(tok) for tok in args.point.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"cannot parse point {args.point!r}") from None
    if point.shape != (args.d,):
        raise ConfigError(f"point has {point.size} coordinates, expected d={args.d}")
    spec = catalog_make(args.problem, args.d)
    params = SmoothingParams(args.delta)
    seed = args.seed if args.seed is not None else 0
    # the verdict first: it rejects a bad eps before any draw (the substreams are separate)
    verdict = verify_stationary(spec, point, params, args.eps, 0.95, substream(seed, "verify"))
    report = goldstein_residual(spec, point, params, 20000, 0.95, substream(seed, "residual"))
    print(f"residual estimate {report.estimate:.6g} +- {report.half_width:.6g} "
          f"(n={report.n}, confidence {report.confidence})")
    exact = exact_goldstein_distance(spec, point, args.delta)
    if exact is not None:
        print(f"exact Goldstein distance: {exact:.6g}")
    print(f"verdict at eps={args.eps}: {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "circuit-demo": _cmd_circuit_demo,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
