"""densecap benchmark: run one workload, check every output, print metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload compress --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

With ``--trace 0`` the run is untraced and prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced batches of the same
ops and prints the per-layer metrics. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and the run
record are written under bench/out/. See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import densecap, densecap.experiments
print(time.perf_counter() - start)
"""
WORKLOAD_NAMES = ("compress", "cutnorm_exact", "equivalence", "train_spike")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Run BLAS on one thread; must happen before numpy loads.

    One thread is below nproc on any machine. On the 2-core reference
    machine it was also faster for every workload, whose matrices are
    small, and less disturbed by other load (see README.md).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_library():
    """Import densecap from this checkout's src/; None if it is not there."""
    if not (SRC / "densecap" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import densecap

    if Path(densecap.__file__).resolve().parent != SRC / "densecap":
        return None
    return densecap


def import_times():
    """Seconds to import densecap (numpy included) in fresh interpreters."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def git_sha():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(args, ncpu):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": ncpu,
        "cpu_model": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpLog:
    """Outcome of every op of a run: time, output, check result."""

    def __init__(self):
        self.times, self.outs, self.digests = [], [], []
        self.attempted = self.failed = 0

    def run(self, wl, i, call):
        """Run op ``i`` through ``call`` and check it; a raising op counts as failed."""
        self.attempted += 1
        try:
            inp = wl.prepare(i)
            start = time.perf_counter()
            out = call(wl.op, inp)
            elapsed = time.perf_counter() - start
            ok = wl.check(i, inp, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.digests.append(None)
            return
        self.times.append(elapsed)
        self.outs.append(out)
        self.digests.append(wl.digest(out))
        self.failed += not ok


def plain_call(op, inp):
    return op(inp)


def measure_untraced(wl, seconds):
    """Closed loop: ops back to back until another group would overrun ``seconds``."""
    log = OpLog()
    start = time.perf_counter()
    i = 0
    while True:
        t_group = time.perf_counter()
        for _ in range(wl.group):
            log.run(wl, i, plain_call)
            i += 1
        group_s = time.perf_counter() - t_group
        if time.perf_counter() - start + group_s > seconds:
            return log


def measure_traced(wl, seconds, tracing):
    """Alternate untraced and traced batches of the same ``trace_batch`` ops.

    Returns the op logs of both sides, the tracer, the traced-op count and
    whether every traced batch produced the same counts.
    """
    plain, traced = OpLog(), OpLog()
    tracer = tracing.Tracer()
    batch_metrics = []
    start = time.perf_counter()
    op_id = 0
    while True:
        t_pair = time.perf_counter()
        for i in range(wl.trace_batch):
            plain.run(wl, i, plain_call)
        first_span = len(tracer.spans)
        counts_before = tracer.counts.copy()
        with tracing.patched(tracer):
            for i in range(wl.trace_batch):
                traced.run(wl, i, lambda op, inp: tracer.run_op(op_id, op, inp))
                op_id += 1
        batch_metrics.append(
            _count_metrics(
                tracing.layer_metrics(
                    _rebase(tracer.spans[first_span:], first_span),
                    tracer.counts - counts_before,
                    wl.trace_batch,
                )
            )
        )
        pair_s = time.perf_counter() - t_pair
        if time.perf_counter() - start + pair_s > seconds:
            break
    steady = all(m == batch_metrics[0] for m in batch_metrics)
    return plain, traced, tracer, op_id, steady


def _rebase(spans, offset):
    return [
        (n, s, e, None if p is None else p - offset, op) for n, s, e, p, op in spans
    ]


COUNT_METRICS = (
    "cutnorm.reduced_dims.calls",
    "cutnorm.reductions_per_call",
    "cutnorm.subsets_enumerated",
    "cutnorm.exact_route_share",
    "regularity.iterations",
    "propagation.rounds",
    "experiments.batches",
)


def _count_metrics(metrics):
    return {k: metrics[k] for k in COUNT_METRICS}


def setup(workload_cls, seed, tiny):
    """Build inputs from the seed and warm up, ``SETUP_REPEATS`` times.

    Returns the last workload object and the time of each repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workload_cls(seed, tiny=tiny)
        wl.build()
        with wl.running():
            wl.warm_up()
        times.append(time.perf_counter() - start)
    return wl, times


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def traced_run(wl, seconds, tracing):
    """Per-layer metrics from a traced run, plus its op logs, notes and verdict."""
    plain, traced, tracer, n_traced, steady = measure_traced(wl, seconds, tracing)
    values = tracing.layer_metrics(tracer.spans, tracer.counts, n_traced)
    values["trace.overhead_ratio"] = sum(traced.times) / max(sum(plain.times), 1e-300)
    identical = plain.digests == traced.digests
    info = {"outputs_identical": (identical, "bool"), "counts_repeat": (steady, "bool")}
    return values, (plain, traced), info, identical and steady, tracer.span_dicts()


def untraced_run(wl, seconds, setup_s):
    """End-to-end metrics from an untraced run, plus its op log and notes."""
    log = measure_untraced(wl, seconds)
    times = log.times or [0.0]  # every op failed: correct is false anyway
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(log.times) / max(sum(times), 1e-300),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"ops_timed": (len(log.times), "count")}
    if len(log.times) >= 100:  # ten samples or more beyond the 90th percentile
        info["op_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    if log.outs:
        info.update(wl.quality(log.outs))
    return values, (log,), info, True


def run_workload(args, ncpu):
    import tracing
    import workloads

    record = run_record(args, ncpu)
    end_to_end, per_layer = declared_metrics()
    start = time.perf_counter()
    bounds_ok = workloads.check_bounds_once()
    bounds_s = time.perf_counter() - start
    imports = import_times()
    wl, setup_times = setup(workloads.WORKLOADS[args.workload], args.seed, args.tiny)
    setup_s = statistics.median(imports) + bounds_s + statistics.median(setup_times)
    record["setup"] = {
        "import_s": imports, "bounds_check_s": bounds_s, "inputs_and_warm_up_s": setup_times,
    }
    with wl.running():
        if args.trace:
            values, logs, info, ok, spans = traced_run(wl, args.seconds, tracing)
            write_json(OUT / f"spans-{args.workload}-seed{args.seed}.json", spans)
        else:
            values, logs, info, ok = untraced_run(wl, args.seconds, setup_s)
    attempted = sum(lg.attempted for lg in logs)
    failed = sum(lg.failed for lg in logs)
    info["failed_ratio"] = (failed / attempted, "ratio")
    info["setup_checks"] = (bounds_ok, "bool")
    declared = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in info.items():
        print(f"info {name} = {value} {unit}")
    result = {
        "correct": bool(bounds_ok and ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(info={k: v for k, (v, _) in info.items()},
                  op_s=[lg.times for lg in logs], result=result)
    write_json(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps(result))


def write_json(path, obj):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, default=str) + "\n")


def run_all(args):
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"# workload {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    ncpu = cap_blas_threads()
    if import_library() is None:
        print(f"error: no densecap package under {SRC}", file=sys.stderr)
        return 2
    run_workload(args, ncpu)
    return 0


if __name__ == "__main__":
    sys.exit(main())
