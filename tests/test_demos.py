"""Every demo script and every Python block of the README runs to
completion; demo 01 asserts the closed forms."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import agcodes

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


def _run(args):
    env = dict(os.environ)
    src = str(Path(agcodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *args], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    _run([str(script)])


def test_readme_has_python_blocks():
    """The blocks below are found at all, so they cannot pass by being none."""
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    _run(["-c", block])
