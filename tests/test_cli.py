import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzopt import cli, harness, stationarity
from qzopt.cli import _chisquare, _moments_in_place, main
from test_smoothing import _peak_bytes

CONFIG = """\
algorithm = qgfm
problem = abs-linear
d = 2
delta = 0.3
eps = 0.4
seeds = 0,1
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(CONFIG)
    return p


def test_run_to_stdout(config_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("algorithm,problem,d,")
    assert len(lines) == 3
    assert all(line.split(",")[0] == "qgfm" for line in lines[1:])


def test_run_to_file(config_path, tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out_path)]) == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    assert out_path.read_text().startswith("algorithm,problem,")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unwritable_output_exits_2_before_the_first_cell(command, config_path, tmp_path,
                                                          monkeypatch, capsys):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the output path was checked")

    monkeypatch.setattr(harness, "run_one", no_cell)
    if command == "sweep":
        # a grid the sweep accepts: its grid check comes before the output is opened
        config_path.write_text(CONFIG.replace("eps = 0.4", "eps_grid = 0.4,0.2,0.1"))
    out_path = tmp_path / "missing" / "rows.csv"
    assert main([command, "--config", str(config_path), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.out == ""
    assert not out_path.parent.exists()


def _no_cell(monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the config was checked")

    monkeypatch.setattr(harness, "run_one", no_cell)


@pytest.mark.parametrize("grid,message", [("0.4,0.2", "at least 3 distinct eps values"),
                                          ("0.4,0.3,0.2", "span at least a 4x ratio")])
def test_sweep_grid_checked_before_any_cell(grid, message, tmp_path, monkeypatch, capsys):
    # the grid check used to run after every cell, leaving --out created and empty
    _no_cell(monkeypatch)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(CONFIG.replace("eps = 0.4", f"eps_grid = {grid}"))
    out_path = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 2
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("body,message", [
    # eps = 2.0 fails at the second eps, after the first cell would have run
    ("algorithm = qgfm_plus\nproblem = sawtooth\neps_grid = 0.4,2.0,0.1\n", "eps must not exceed L"),
    ("algorithm = qgm_plus\nproblem = quadratic-smooth\nnoise_scale = 0.1\n"
     "eps_grid = 0.05,0.2,0.01\n", "eps must not exceed sigma"),
    ("algorithm = qgm_plus\nproblem = sawtooth\neps_grid = 0.4,0.2,0.1\n",
     "no smooth gradient oracle"),
])
def test_schedules_derived_before_any_cell(command, body, message, tmp_path, monkeypatch,
                                           capsys):
    _no_cell(monkeypatch)
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(body + "d = 2\ndelta = 0.3\nseeds = 0\n")
    out_path = tmp_path / "rows.csv"
    assert main([command, "--config", str(cfg), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out_path.exists()


def test_global_flags_accepted_on_both_sides(config_path, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--seed", "3", "run", "--config", str(config_path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(config_path), "--seed", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert ",3," in a.read_text().split("\n")[1]


def test_cost_mode_flag(config_path, capsys):
    assert main(["--cost-mode", "classical", "run", "--config", str(config_path)]) == 0
    body = capsys.readouterr().out.strip().split("\n")[1].split(",")
    uf, classical = int(body[9]), int(body[10])
    assert uf == 0 and classical > 0


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + "mystery = 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("c_q", ["nan", "inf"])
def test_non_finite_c_q_exits_2(c_q, tmp_path, capsys):
    cfg = tmp_path / "cq.cfg"
    cfg.write_text(CONFIG + f"c_q = {c_q}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: c_q must be positive and finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("key,bad", [("residual_n", "1"), ("residual_n", "0"),
                                     ("residual_confidence", "nan"),
                                     ("residual_confidence", "2.0")])
def test_bad_residual_args_exit_2_before_the_optimizer(key, bad, tmp_path, monkeypatch, capsys):
    # residual_n = 1 used to fail only at the residual, after the first cell's optimizer ran
    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(harness, "qgfm", no_run)
    cfg = tmp_path / "res.cfg"
    cfg.write_text(CONFIG + f"{key} = {bad}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must")


def test_budget_abort_exit_3(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("""\
algorithm = qgfm
problem = sawtooth
d = 4
noise_scale = 0.1
delta = 0.1
eps = 0.1
seeds = 0
cost_mode = classical
budget = 5000
""")
    assert main(["run", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert "budget_exceeded" in captured.out
    assert "budget cap hit" in captured.err


def test_sweep_prints_slope(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("""\
algorithm = qgfm
problem = abs-linear
d = 2
delta = 0.3
eps_grid = 0.8, 0.4, 0.2
seeds = 0
""")
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "slope " in out and "r2 " in out
    assert out.count("log(1/eps)") == 3


def test_sweep_rejects_short_grid(config_path, capsys):
    assert main(["sweep", "--config", str(config_path)]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_circuit_demo(capsys):
    code = main(["circuit-demo", "--m1", "1", "--m2", "256", "--d", "3",
                 "--n", "2000", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "layout: m1=1 m2=256 d=3 (769 qubits total)" in out
    assert "KS w_3 vs uniform[-1,1]" in out
    assert "xi uniformity chi2" in out


@pytest.mark.parametrize("counts", [
    [0, 5], [3, 3], [7, 0, 0, 1], [1] + [0] * 1023,
    np.random.default_rng(0).poisson(40.0, 1024), np.random.default_rng(1).poisson(0.5, 256),
], ids=["2cells", "2equal", "4zeros", "1024single", "1024poisson", "256sparse"])
def test_chisquare_matches_scipy_stats_bytes(counts):
    from scipy import stats
    counts = np.asarray(counts, dtype=np.int64)
    stat, p = _chisquare(counts)
    ref = stats.chisquare(counts)
    assert np.float64(stat).tobytes() == np.float64(ref.statistic).tobytes()
    assert np.float64(p).tobytes() == np.float64(ref.pvalue).tobytes()


# sha256 of the stdout of `circuit-demo --m1 8 --m2 256 --n 2000`, recorded while the
# chi2 test still called scipy.stats.chisquare (d = 2, 8) and while the w_last
# moments still came from last.mean() and last.var() (d = 3, where KS reads last too)
CIRCUIT_DEMO_STDOUT = {
    (2, 0): "456804abffe889bc35e9a802239624470d61ab2e76e8d608cea1a3ec78f943f0",
    (2, 1): "a0a188a5dcd3d3f803e404d46429d1b42ce683790170fc07cbaf6bec97474010",
    (3, 0): "961302845f10dd452a0f1621d705029c42b0a2bfcef0381b40c3c7e52adf783c",
    (3, 1): "abc13d9dfee496081226f0e8a9a870e19f2cb65fcbb5c036664a62b635653d9e",
    (8, 0): "39721ca2b3fa80c988d287582c3fa7a3c11a0ea95748ad940a415eac4d8ddf48",
    (8, 1): "08616f5db468bd8eba291d9374c96c33003a45b08facce485f19bfbe1596df9f",
}


@pytest.mark.parametrize("d,seed", sorted(CIRCUIT_DEMO_STDOUT))
def test_circuit_demo_stdout_pinned(d, seed, capsys):
    assert main(["circuit-demo", "--m1", "8", "--m2", "256", "--d", str(d),
                 "--seed", str(seed), "--n", "2000"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CIRCUIT_DEMO_STDOUT[d, seed]


def test_circuit_demo_loads_scipy_stats_only_for_ks():
    probe = (
        "import sys\n"
        "from qzopt.cli import main\n"
        "args = ['circuit-demo', '--m1', '8', '--m2', '256', '--n', '500', '--d']\n"
        "assert main(args + ['8']) == 0\n"
        "print('STATS', 'scipy.stats' in sys.modules)\n"
        "assert main(args + ['3']) == 0\n"
        "print('STATS', 'scipy.stats' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("STATS")] == ["STATS False", "STATS True"]
    assert sum(line.startswith("KS w_3 vs uniform[-1,1]: D ") for line in lines) == 1


def test_circuit_demo_wide_even_register(capsys):
    code = main(["circuit-demo", "--m1", "2", "--m2", "1024", "--d", "2", "--n", "100"])
    assert code == 0
    assert "layout: m1=2 m2=1024 d=2 (2050 qubits total)" in capsys.readouterr().out


def test_circuit_demo_peak_memory(capsys):
    # xi is drawn and counted, and the bit sums drawn and decoded, block by block, so
    # no n x d array and no n-long xi is built: the demo holds the valid last
    # coordinates, and their moments are computed in place in that one array
    args = ["circuit-demo", "--m1", "8", "--m2", "256", "--d", "8", "--seed", "1", "--n"]
    assert main(args + ["100"]) == 0  # imports scipy.special outside the measured call
    n, d = 200_000, 8
    peak = _peak_bytes(lambda: main(args + [str(n)]))
    assert "||w|| on valid samples" in capsys.readouterr().out
    assert peak < n * 8 + 2**20 < n * d * 8


def test_circuit_demo_bad_n(capsys):
    assert main(["circuit-demo", "--m1", "1", "--m2", "2", "--d", "2", "--n", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_circuit_demo_unholdable_n_exits_2_before_any_draw(monkeypatch, capsys):
    # the array of n last coordinates is allocated before the first xi block, so an
    # n it cannot hold exits 2 at once; the spy fails the test if a draw begins
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("xi drawn before n was checked")

    monkeypatch.setattr(cli, "_xi_blocks", spy)
    args = ["circuit-demo", "--m1", "1", "--m2", "2", "--d", "2", "--n", str(2**62)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: cannot hold n=4611686018427387904")
    assert calls == []


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 200_000])
@settings(max_examples=40, deadline=None)
@given(pool=st.lists(_FLOATS, min_size=1, max_size=64), seed=st.integers(0, 2**32 - 1))
def test_moments_in_place_match_numpy_bytes(n, pool, seed):
    # n values picked from a drawn pool: the in-place moments must have the bytes of
    # np.mean and np.var (same pairwise sums below and above numpy's 8- and 128-element
    # unroll and block sizes, same divisions), whatever the magnitudes and signed zeros
    values = np.random.default_rng(seed).choice(np.array(pool + [0.0, -0.0]), size=n)
    with np.errstate(all="ignore"):
        want = np.mean(values.copy()), np.var(values.copy())
        got = _moments_in_place(values)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_verify_command(capsys):
    code = main(["verify", "--problem", "sawtooth", "--d", "1", "--point", "0.0",
                 "--delta", "0.1", "--eps", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict at eps=0.2: accepted" in out
    assert "exact Goldstein distance: 0" in out


def test_verify_bad_point(capsys):
    assert main(["verify", "--problem", "sawtooth", "--d", "2", "--point", "0.0",
                 "--delta", "0.1", "--eps", "0.2"]) == 2
    assert "expected d=2" in capsys.readouterr().err
    assert main(["verify", "--problem", "sawtooth", "--d", "1", "--point", "oops",
                 "--delta", "0.1", "--eps", "0.2"]) == 2


@pytest.mark.parametrize("point", ["nan,0.1", "0.1,inf"])
def test_verify_non_finite_point_exits_2(point, capsys):
    assert main(["verify", "--problem", "abs-linear", "--d", "2", "--point", point,
                 "--delta", "0.1", "--eps", "0.2"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "finite" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("delta,eps", [("inf", "0.2"), ("0.3", "nan")])
def test_verify_non_finite_delta_or_eps_exits_2(delta, eps, monkeypatch, capsys):
    # both used to run to the 10^7-draw cap and exit 0 with a nan residual
    def no_draws(*args, **kwargs):
        raise AssertionError("verify drew before rejecting its input")

    monkeypatch.setattr(stationarity, "_g_delta_mean", no_draws)
    assert main(["verify", "--problem", "abs-linear", "--d", "2", "--point", "0.01,0.02",
                 "--delta", delta, "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "finite" in captured.err
    assert captured.out == ""


def test_module_entry_point(config_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "qzopt", "run",
                           "--config", str(config_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("algorithm,problem,")
