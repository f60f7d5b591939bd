"""The narrative demos and the README's examples run to completion."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_demo(demo, cwd):
    out = _run_python([str(ROOT / "demos" / demo)], cwd)
    assert out.strip()
    return out


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


# demo 03's whole stdout: gated replay stays near the stimulus while
# replay with the deformation off re-expresses most of the cascade
_DEMO_03_STDOUT = """\
--- replay deformation: inherit
exposure peak reach=50  replay peak reach=6
RAG=0.120  AUC-R=0.125  SM-R=0.503  odds ratio=0.0000
scar mass after exposure: 407.183

--- replay deformation: off
exposure peak reach=50  replay peak reach=40
RAG=0.800  AUC-R=0.805  SM-R=0.997  odds ratio=1.0000
scar mass after exposure: 407.183

"""


def test_three_phase_demo_prints_the_desk_episode(tmp_path):
    assert _run_demo("03_three_phase_episode.py", tmp_path) == _DEMO_03_STDOUT


_README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                            (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(_README_BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(_README_BLOCKS)))
def test_readme_python_block_runs(block, tmp_path):
    # each block on its own, as a reader would paste it; a public name that
    # is removed or renamed fails here
    _run_python(["-c", _README_BLOCKS[block]], tmp_path)
