"""Every demo script runs to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    r = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=600, cwd=tmp_path, env=package_env(),
    )
    assert r.returncode == 0, r.stdout + r.stderr
