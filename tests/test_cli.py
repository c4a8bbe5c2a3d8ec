import subprocess
import sys

import pytest

from qzopt.cli import main

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


def test_circuit_demo_wide_even_register(capsys):
    code = main(["circuit-demo", "--m1", "2", "--m2", "1024", "--d", "2", "--n", "100"])
    assert code == 0
    assert "layout: m1=2 m2=1024 d=2 (2050 qubits total)" in capsys.readouterr().out


def test_circuit_demo_bad_n(capsys):
    assert main(["circuit-demo", "--m1", "1", "--m2", "2", "--d", "2", "--n", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


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


def test_module_entry_point(config_path):
    proc = subprocess.run([sys.executable, "-m", "qzopt", "run",
                           "--config", str(config_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("algorithm,problem,")
