"""Each demo runs cleanly and prints the bytes it has always printed.

The digests below are the sha256 of each demo's stdout.  A refactor must
leave them alone; a change that means to move a printed number records the
new digest and says why.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
STDOUT_SHA256 = {
    "01_problems_and_smoothing.py": "e786651eea1efd2ce92640287a03632b2fabf2a84fc9ceb7664c501ed9acb1f3",
    "02_estimators_and_ledger.py": "86c9b6950752da4ed04ff29e425f442764e742a41387d49f1bed4541cf76975b",
    "03_optimizer_run.py": "7e034ae552fc496b37cded32958fdc5ff3de196a5e7e0ede994aad11ec9eb449",
    "04_scaling_sweep.py": "418eeb2e17760410b51097bd5c011c8b88bc2ad4e59942c20f099926ba84981d",
    "05_sampling_circuit.py": "e951ed4e1a35b535e24cb556803205a0fc0a284b8ec96b1a098a06d2a841e026",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=tmp_path,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
