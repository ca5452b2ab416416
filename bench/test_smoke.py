"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric BENCHMARK.json declares is emitted, that a
traced op returns bitwise the same outputs as an untraced one, that the
tracer puts every wrapped function back, and that the benchmark refuses
to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing.WRAPPED}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_match_and_originals_return(name):
    before = _originals()
    wl = workloads.WORKLOADS[name](seed=3, tiny=True)
    wl.build()
    tracer = tracing.Tracer()
    with wl.running():
        inputs = [wl.prepare(i) for i in range(wl.trace_batch)]
        plain = [wl.digest(wl.op(inp)) for inp in inputs]
        with tracing.patched(tracer):
            traced = [wl.digest(tracer.run_op(i, wl.op, inp)) for i, inp in enumerate(inputs)]
    assert traced == plain
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert _originals() == before


def test_originals_return_after_a_failing_op():
    before = _originals()
    tracer = tracing.Tracer()

    def boom(i):
        raise ValueError(i)

    with pytest.raises(ValueError):
        with tracing.patched(tracer):
            tracer.run_op(0, boom, 0)
    assert _originals() == before
    assert tracer.spans[0][0] == "op"


def test_refuses_to_run_without_the_library():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "compress", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
