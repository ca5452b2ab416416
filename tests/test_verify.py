"""The invariant suites behind ``densecap verify`` must fail loudly, even under -O."""

import json
import subprocess
import sys

from conftest import package_env

BROKEN_LIPSCHITZ = """
import dataclasses, json
from densecap import verify
real = verify.lipschitz_constant
verify.lipschitz_constant = lambda B, L: dataclasses.replace(real(B, L), exact=65)
print(json.dumps(verify.run_verification(quick=True, seed=1)))
"""


def test_broken_bound_evaluator_fails_under_optimize():
    r = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_LIPSCHITZ],
        capture_output=True, text=True, timeout=600, env=package_env(), check=True,
    )
    results = {name: (ok, detail) for name, ok, detail in json.loads(r.stdout)}
    ok, detail = results["bound calculator spot values"]
    assert not ok
    assert "65" in detail and "lipschitz_constant" in detail
    assert all(ok for name, (ok, _) in results.items() if name != "bound calculator spot values")
