"""End-to-end checks that invoke the installed command-line binary."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from densecap.networks import random_network, save_network

from conftest import package_env

BIN = shutil.which("densecap")


def run_cli(*args, **kw):
    if BIN:
        cmd = [BIN, *args]
    else:
        cmd = [sys.executable, "-m", "densecap.cli", *args]
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=600, env=package_env(), **kw
    )


@pytest.fixture(scope="module")
def net_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "net.txt"
    save_network(random_network(2, 1, 1, 6, 4.0, np.random.default_rng(0)), path)
    return str(path)


def test_unknown_subcommand_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2
    assert "usage" in (r.stderr + r.stdout).lower()


def test_bounds_lipschitz_prints_64():
    r = run_cli("bounds", "lipschitz", "--B", "4", "--L", "2")
    assert r.returncode == 0
    assert "64" in r.stdout


def test_bounds_threshold_and_vc():
    r = run_cli("bounds", "d0-threshold", "--B", "4", "--L", "2", "--dL", "1")
    assert r.returncode == 0
    assert "18253611637" in r.stdout
    r = run_cli("bounds", "vc-lower", "--eps", "1/24", "--d0", "2")
    assert "4" in r.stdout


def test_induce_validate_cutnorm(net_file, tmp_path):
    kern = str(tmp_path / "kern.txt")
    assert run_cli("induce", net_file, "--out", kern).returncode == 0
    r = run_cli("validate", kern)
    assert r.returncode == 0
    assert r.stdout.count("pass") == 4
    r = run_cli("cutnorm", kern, "--exact")
    assert r.returncode == 0
    assert "cut norm (exact)" in r.stdout
    r = run_cli("cutnorm", kern, "--heuristic", "--restarts", "4", "--seed", "9")
    assert "heuristic" in r.stdout


def test_cutnorm_bad_header_is_one_line_error(tmp_path):
    kern = tmp_path / "bad.txt"
    kern.write_text("densecap-kernel v1\n4 x 1 1 5\n" + "0 0 0 0\n" * 4)
    r = run_cli("cutnorm", str(kern))
    assert r.returncode == 1
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("error: ")
    assert "(line 2)" in r.stderr


def test_equiv_check_random():
    r = run_cli("equiv-check", "--random", "12", "--seed", "3")
    assert r.returncode == 0
    assert "max discrepancy" in r.stdout


def test_compress_writes_outputs(net_file, tmp_path):
    out = str(tmp_path / "small.txt")
    report = str(tmp_path / "report.json")
    r = run_cli(
        "compress", net_file, "--target-d", "2", "--out", out,
        "--report", report, "--samples", "500",
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(open(report).read())
    assert rep["d_compressed"] == 2
    assert rep["empirical_max"] <= rep["theoretical_bound"]
    assert "bias" in rep["layer_counts"]
    r2 = run_cli("validate-file-missing")
    assert r2.returncode == 2


def test_compress_bad_width_is_operational_error(tmp_path):
    wide = str(tmp_path / "wide.txt")
    save_network(random_network(2, 2, 3, 12, 5.0, np.random.default_rng(1)), wide)
    r = run_cli("compress", wide, "--target-d", "7", "--out", str(tmp_path / "x.txt"))
    assert r.returncode == 1
    assert "divisible" in r.stderr


def assert_one_line_error(r, text):
    assert r.returncode == 1
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("error: ")
    assert text in r.stderr


def test_compress_refuses_no_samples_and_widening(tmp_path):
    narrow = str(tmp_path / "narrow.txt")
    save_network(random_network(2, 2, 3, 12, 5.0, np.random.default_rng(1)), narrow)
    out = str(tmp_path / "x.txt")
    r = run_cli("compress", narrow, "--target-d", "6", "--samples", "0", "--out", out)
    assert_one_line_error(r, "samples")
    r = run_cli("compress", narrow, "--target-d", "24", "--out", out)
    assert_one_line_error(r, "exceeds")


@pytest.mark.parametrize(
    "args",
    [("sweep", "--widths", "4,x"), ("sweep", "--seeds", "0,y"),
     ("equiv-check", "--random", "-3")],
)
def test_bad_counts_and_lists_are_usage_errors(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "usage" in r.stderr.lower() and "Traceback" not in r.stderr
    assert args[1] in r.stderr


def test_train_bad_spike_field_is_one_line_error():
    r = run_cli("train", "--dataset", "spike:d0=1,N", "--width", "4", "--epochs", "1")
    assert_one_line_error(r, "'N'")


def test_train_and_sweep_on_spike(tmp_path):
    r = run_cli(
        "train", "--dataset", "spike:d0=1,N=2,samples=400", "--width", "8",
        "--epochs", "1", "--seed", "0",
    )
    assert r.returncode == 0
    assert "train" in r.stdout
    csv = str(tmp_path / "sweep.csv")
    r = run_cli(
        "sweep", "--dataset", "spike:d0=1,N=2,samples=400", "--widths", "4,8",
        "--modes", "standard,dense", "--seeds", "0", "--epochs", "1", "--out", csv,
    )
    assert r.returncode == 0, r.stderr
    lines = open(csv).read().strip().splitlines()
    assert lines[0].startswith("width,mode,seed")
    assert len(lines) == 5


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": "4", "L": 2}))
    r = run_cli("bounds", "lipschitz", "--config", str(cfg))
    assert r.returncode == 0
    assert "64" in r.stdout
    # explicit flags win over the file
    r = run_cli("bounds", "lipschitz", "--config", str(cfg), "--L", "3")
    assert "512" in r.stdout


def test_verify_quick_passes():
    r = run_cli("verify", "--quick", "--seed", "1")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "all checks passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_config_without_path_is_usage_error():
    r = run_cli("verify", "--quick", "--config")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()
    assert "Traceback" not in r.stderr


def test_config_with_bad_json_is_one_line_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    r = run_cli("bounds", "lipschitz", "--config", str(cfg))
    assert r.returncode == 1
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("error: ")


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": "4", "L": 3}))
    r = run_cli("bounds", "lipschitz", f"--config={cfg}")
    assert r.returncode == 0, r.stderr
    assert "512" in r.stdout


def test_jobs_belongs_to_sweep_only():
    r = run_cli("verify", "--jobs", "2")
    assert r.returncode == 2
    assert "--jobs" in r.stderr
    r = run_cli(
        "sweep", "--dataset", "spike:d0=1,N=2,samples=200", "--widths", "4",
        "--modes", "standard", "--seeds", "0", "--epochs", "1", "--jobs", "2",
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("width,mode,seed")


def test_abbreviated_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": "4"}))
    r = run_cli("bounds", "lipschitz", "--conf", str(cfg), "--L", "2")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower() and "--conf" in r.stderr
    r = run_cli("bounds", "lipschitz", "--config", str(cfg), "--L", "2")
    assert r.returncode == 0, r.stderr
    assert "64" in r.stdout
