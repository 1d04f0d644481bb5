"""Each example script in scripts/ runs to the end on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("shape_recovery.py", "--m 3 --n 400 --gammas 3 --epochs 1 --seeds 1"),
    ("hybrid_vs_mlp.py", "--m 3 --n 400 --epochs 1 --trials 1"),
    ("init_comparison.py", "--m 3 --n 400 --epochs 1 --trials 1"),
    ("gated_blocks_demo.py", "--m 4 --n 300 --pair 0,1 --blocks 2 "
                             "--epochs 1"),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args.split()], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
