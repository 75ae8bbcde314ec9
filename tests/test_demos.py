"""Every demo script runs to completion; demo 01 asserts the closed forms."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import agcodes

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    src = str(Path(agcodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
