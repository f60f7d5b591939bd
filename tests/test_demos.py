"""The narrative demos run to completion."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(demo, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    return done.stdout


@pytest.mark.parametrize("demo", ["01_generate_graph.py",
                                  "02_fields_and_gating.py",
                                  "03_three_phase_episode.py",
                                  "04_method_suite.py",
                                  "06_theory_checks.py"])
def test_demo_exits_zero(demo, tmp_path):
    _run_demo(demo, tmp_path)


def test_sweep_demo_prints_no_temporary_path(tmp_path):
    # the sweep writes into a temporary directory; what it prints names
    # its files relative to it, so the output is the same on every run
    out = _run_demo("05_gate_strength_sweep.py", tmp_path)
    assert "wrote sweep grid (4 cells) to sweep.csv" in out
    assert tempfile.gettempdir() not in out
    assert "w_h,eta,rag" in out
