"""End-to-end checks that invoke the installed command-line binary.

The config fuzz alone calls ``main`` in process, to run many cases fast.
"""

import contextlib
import io
import json
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densecap.cli import BOUNDS, build_parser, main
from densecap.kernels import induce_kernel, save_kernel
from densecap.networks import DenseNetwork, random_network, save_network, serialize_network

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


@pytest.fixture(scope="module")
def kernel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "kernel.txt"
    save_kernel(induce_kernel(random_network(2, 1, 1, 4, 4.0, np.random.default_rng(0))), path)
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


@pytest.mark.parametrize("args, flag", [
    (("lipschitz", "--B", "4"), "--L"),
    (("wrl-dim", "--eps", "1/2"), "--L"),
    (("vc-lower", "--eps", "1/8"), "--d0"),
    (("d0-threshold", "--B", "4", "--L", "2"), "--dL"),
])
def test_bounds_missing_flag_is_one_line_error(args, flag):
    r = run_cli("bounds", *args)
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: bounds {args[0]} needs {flag}")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("lipschitz", "--B", "x", "--L", "2"),
    ("lipschitz", "--B", "1/0", "--L", "2"),
    ("vc-lower", "--eps", "abc", "--d0", "2"),
])
def test_bounds_bad_number_is_one_line_error(args):
    r = run_cli("bounds", *args)
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: cannot interpret {args[2]!r}")
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr


def test_validate_nan_bound_is_one_line_error(net_file, tmp_path):
    kern = tmp_path / "kern.txt"
    assert run_cli("induce", net_file, "--out", str(kern)).returncode == 0
    lines = kern.read_text().splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " nan"
    kern.write_text("\n".join(lines) + "\n")
    r = run_cli("validate", str(kern))
    assert r.returncode == 1
    assert r.stderr.startswith("error: B=nan") and r.stderr.count("\n") == 1
    assert r.stdout == ""


def test_induce_bad_weight_is_one_line_error(net_file, tmp_path):
    lines = open(net_file).read().splitlines()
    assert lines[2] == "W 1"
    lines[3] = "x"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    r = run_cli("induce", str(bad), "--out", str(tmp_path / "kern.txt"))
    assert r.returncode == 1
    assert r.stderr.startswith("error: W 1 row 0") and "(line 4)" in r.stderr
    assert r.stderr.count("\n") == 1


def test_induce_validate_cutnorm(net_file, tmp_path):
    kern = str(tmp_path / "kern.txt")
    assert run_cli("induce", net_file, "--out", kern).returncode == 0
    r = run_cli("validate", kern)
    assert r.returncode == 0
    assert r.stdout.count("pass") == 4
    r = run_cli("cutnorm", kern, "--exact")
    assert r.returncode == 0
    assert "cut norm (exact)" in r.stdout
    # the 6-wide network's kernel merges to 8 x 8: no high rows, one thread
    assert r.stdout.endswith("reduced dims: 8 x 8\nenumeration threads: 1\n")
    r = run_cli("cutnorm", kern, "--heuristic", "--restarts", "4", "--seed", "9")
    assert "heuristic" in r.stdout
    assert r.stdout.endswith("reduced dims: 18 x 18\n")


def test_cutnorm_prints_plain_int_parts(net_file, tmp_path):
    kern = str(tmp_path / "kern.txt")
    assert run_cli("induce", net_file, "--out", kern).returncode == 0
    for flag in ("--exact", "--heuristic"):
        r = run_cli("cutnorm", kern, flag)
        assert r.returncode == 0, r.stderr
        rows = next(line for line in r.stdout.splitlines() if line.startswith("row parts:"))
        assert isinstance(json.loads(rows.split(":", 1)[1]), list)


@pytest.mark.parametrize("flag", ["--restarts", "--cap"])
def test_cutnorm_negative_count_is_usage_error(net_file, tmp_path, flag):
    kern = str(tmp_path / "kern.txt")
    assert run_cli("induce", net_file, "--out", kern).returncode == 0
    r = run_cli("cutnorm", kern, "--heuristic", flag, "-4")
    assert r.returncode == 2
    assert "count must be non-negative" in r.stderr and "Traceback" not in r.stderr


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
    assert (rep["iterations"], rep["fk_status"]) == (1, "target_width")
    r2 = run_cli("validate-file-missing")
    assert r2.returncode == 2


@pytest.mark.parametrize("oracle, label", [
    ("heuristic", "output bound estimate (heuristic delta_hat, not certified) "),
    ("exact", "output bound "),
])
def test_compress_labels_a_heuristic_output_bound(net_file, tmp_path, oracle, label):
    r = run_cli(
        "compress", net_file, "--target-d", "2", "--out", str(tmp_path / "small.txt"),
        "--samples", "10", "--oracle", oracle,
    )
    assert r.returncode == 0, r.stderr
    line = r.stdout.splitlines()[1]
    assert line.startswith(label) and ("estimate" in line) == (oracle == "heuristic")


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_usage_error(jobs):
    r = run_cli(
        "sweep", "--dataset", "spike:samples=100", "--widths", "4",
        "--modes", "standard", "--seeds", "0", "--epochs", "1", "--jobs", jobs,
    )
    assert r.returncode == 2 and r.stdout == ""
    assert "--jobs" in r.stderr and "count must be positive" in r.stderr
    assert "Traceback" not in r.stderr


SPIKE_TRAIN = ("train", "--dataset", "spike:samples=100", "--width", "4", "--epochs", "1")


@pytest.mark.parametrize("command", [
    (*SPIKE_TRAIN, "--seed", "-1"),
    ("equiv-check", "--random", "1", "--seed", "-1"),
    ("compress", "NET", "--target-d", "2", "--out", "OUT", "--seed", "-1"),
    ("verify", "--quick", "--seed", "-1"),
    ("sweep", "--dataset", "spike:samples=100", "--widths", "4", "--modes", "standard",
     "--seeds", "0,-1", "--epochs", "1"),
    (*SPIKE_TRAIN, "--config", "CFG"),
])
def test_negative_seed_is_refused_before_any_work(command, net_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    swap = {"NET": net_file, "OUT": str(tmp_path / "out.txt"), "CFG": str(cfg)}
    r = run_cli(*(swap.get(a, a) for a in command))
    if command[0] == "sweep":
        # --seeds is a list; TrainConfig refuses the seed before any cell runs
        assert_one_line_error(r, "seed must be non-negative")
        assert r.stdout == ""
    else:
        assert r.returncode == 2
        assert "usage" in r.stderr.lower() and "--seed" in r.stderr
        assert "Traceback" not in r.stderr


def test_readme_command_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["densecap"]]
    assert len(commands) >= 9
    for argv in commands:
        build_parser().parse_args(argv)


def test_train_bad_spike_field_is_one_line_error():
    r = run_cli("train", "--dataset", "spike:d0=1,N", "--width", "4", "--epochs", "1")
    assert_one_line_error(r, "'N'")


def test_train_on_an_oversized_idx_header_is_one_line_error(tmp_path):
    # 2^63 pixels in a 16-byte file: read in chunks, never asked for whole
    images = tmp_path / "train-images-idx3-ubyte"
    images.write_bytes(struct.pack(">4I", 2051, 2**31, 2**16, 2**16))
    r = run_cli("train", "--data-dir", str(tmp_path), "--width", "4", "--epochs", "1")
    assert_one_line_error(r, str(images))


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


def test_config_negative_count_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"random": -3}))
    r = run_cli("equiv-check", "--config", str(cfg))
    assert r.returncode == 2
    assert "usage" in r.stderr.lower() and "--random" in r.stderr
    assert "Traceback" not in r.stderr
    # a count given on the command line still wins over the file
    r = run_cli("equiv-check", "--config", str(cfg), "--random", "2")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("2 instances")


def test_config_unknown_key_is_one_line_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radnom": 3}))
    r = run_cli("equiv-check", "--config", str(cfg))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "radnom" in r.stderr
    assert r.stderr.count("\n") == 1
    # a key of another subcommand is allowed, so one file serves several
    cfg.write_text(json.dumps({"random": 2, "widths": [4]}))
    r = run_cli("equiv-check", "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("2 instances")


def test_config_bad_list_item_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "widths": [4, "x"], "dataset": "spike:d0=1,N=2,samples=200",
        "modes": "standard", "seeds": [0], "epochs": 1,
    }))
    r = run_cli("sweep", "--config", str(cfg))
    assert r.returncode == 2
    assert "usage" in r.stderr.lower() and "--widths" in r.stderr
    assert "Traceback" not in r.stderr
    r = run_cli("sweep", "--config", str(cfg), "--widths", "4")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("width,mode,seed")


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


@pytest.mark.parametrize("args, text", [
    (("non-universality", "--B", "4", "--L", "2", "--dL", "1", "--d0", "0"), "d0 >= 1"),
    (("compression-dim", "--eps", "1/2", "--B", "4", "--L", "2", "--d0", "0", "--dL", "1"),
     "dimensions must be positive"),
    (("compression-dim", "--eps", "1/2", "--B", "4", "--L", "0", "--d0", "1", "--dL", "1"),
     "dimensions must be positive"),
])
def test_bounds_bad_dimension_is_one_line_error(args, text):
    assert_one_line_error(run_cli("bounds", *args), text)


@pytest.mark.parametrize("args, text", [
    (("wrl-dim", "--eps", "1e-200", "--L", "2", "--d0", "1", "--dL", "1"), "wrl_hidden_dim"),
    (("compression-dim", "--eps", "1/2", "--B", "200", "--L", "100", "--d0", "1", "--dL", "1"),
     "compression_hidden_dim"),
    (("non-universality", "--B", "200", "--L", "100", "--dL", "1", "--d0", "5"),
     "non_universality_check"),
])
def test_bounds_beyond_the_float_range_are_one_line_errors(args, text):
    r = run_cli("bounds", *args)
    assert_one_line_error(r, text)
    assert "log2 exceeds the float range" in r.stderr


@pytest.mark.parametrize("args, text", [
    (("compression-dim", "--eps", "1", "--B=-1e400", "--L", "2", "--d0", "1", "--dL", "1"),
     "need B >= L+2, got B=-2^1328.77"),
    (("d0-threshold", "--B=-1e400", "--L", "2", "--dL", "1"), "need B >= L+2, got B=-2^1328.77"),
    (("vc-lower", "--eps=-1e400", "--d0", "2"), "got -2^1328.77"),
])
def test_bounds_far_below_the_float_range_are_one_line_errors(args, text):
    assert_one_line_error(run_cli("bounds", *args), text)


def test_an_oversized_induced_kernel_is_one_line_error(tmp_path):
    # n = 4 * 8192: a 2^30-entry kernel (8 GiB) from a 98 kB network file
    net = tmp_path / "big.txt"
    save_network(DenseNetwork(2, 1, 1, 8192, 4.0, (np.ones((8192, 1)), np.ones((1, 8192))),
                              (np.ones(8192), np.ones(1))), net)
    for command in (("induce", str(net), "--out", str(tmp_path / "k.txt")),
                    ("equiv-check", "--net", str(net))):
        assert_one_line_error(run_cli(*command), "induced 32768 x 32768 array exceeds")
    assert not (tmp_path / "k.txt").exists()


@pytest.mark.parametrize("spike", [
    "spike:d0=30", "spike:d0=20", "spike:samples=10000000000", "spike:d0=2,N=4097",
])
def test_oversized_spike_data_is_one_line_error(spike):
    r = run_cli("train", "--dataset", spike, "--width", "4", "--epochs", "1")
    assert_one_line_error(r, "exceeds 16777216 entries")
    assert r.stdout == ""


def test_network_file_with_an_infinite_bound_is_refused(tmp_path):
    lines = serialize_network(random_network(2, 1, 1, 2, 4.0, np.random.default_rng(0))).splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " inf"
    net = tmp_path / "inf.txt"
    net.write_text("\n".join(lines) + "\n")
    for command in (
        ("equiv-check", "--net", str(net)),
        ("compress", str(net), "--target-d", "1", "--out", str(tmp_path / "out.txt")),
    ):
        assert_one_line_error(run_cli(*command), "not finite")


def test_equiv_check_fails_on_a_nan_discrepancy(tmp_path):
    # B is finite, but every path overflows to inf, and inf - inf is NaN
    B = 1e300
    ws = (np.array([[B]]), np.array([[B]]))
    path = tmp_path / "big.txt"
    save_network(DenseNetwork(2, 1, 1, 1, B, ws, (np.zeros(1), np.zeros(1))), path)
    r = run_cli("equiv-check", "--net", str(path))
    assert r.returncode == 1
    assert "max discrepancy nan (> 1e-09)" in r.stdout


@pytest.mark.parametrize("command, values, text", [
    (("cutnorm", "KERNEL"), {"heuristic": "false"}, "heuristic takes true or false"),
    (("cutnorm", "KERNEL"), {"exact": 1}, "exact takes true or false"),
    (("verify",), {"quick": None}, "quick takes true or false"),
    (("cutnorm", "KERNEL"), {"exact": True, "heuristic": True},
     "sets --exact and --heuristic, which exclude each other"),
    (("compress", "NET", "--out", "OUT"), {"target_d": 2, "epsilon": 0.1},
     "sets --target-d and --epsilon, which exclude each other"),
])
def test_config_flag_misuse_is_one_line_error(command, values, text, net_file, kernel_file,
                                              tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    swap = {"NET": net_file, "KERNEL": kernel_file, "OUT": str(tmp_path / "out.txt")}
    r = run_cli(*(swap.get(a, a) for a in command), "--config", str(cfg))
    assert_one_line_error(r, text)
    assert r.stdout == ""


def test_config_exclusive_flags_yield_to_the_command_line(net_file, kernel_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"heuristic": True, "epsilon": 0.1}))
    r = run_cli("cutnorm", kernel_file, "--config", str(cfg))
    assert r.returncode == 0 and r.stdout.startswith("cut norm (heuristic lower bound)")
    r = run_cli("cutnorm", kernel_file, "--config", str(cfg), "--exact")
    assert r.returncode == 0 and r.stdout.startswith("cut norm (exact)")
    out = str(tmp_path / "out.txt")
    r = run_cli("compress", net_file, "--config", str(cfg), "--target-d", "2", "--out", out)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("width 6 -> 2")
    cfg.write_text(json.dumps({"exact": True, "heuristic": False}))
    r = run_cli("cutnorm", kernel_file, "--config", str(cfg))
    assert r.returncode == 0 and r.stdout.startswith("cut norm (exact)")


@pytest.mark.parametrize("values, command", [
    ({"epsilon": 0.1}, ("--out", "OUT")),
    ({"out": "OUT"}, ("--target-d", "2")),
    ({"target_d": 2, "out": "OUT"}, ()),
])
def test_config_supplies_required_flags(values, command, net_file, tmp_path):
    out = str(tmp_path / "out.txt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: out if v == "OUT" else v for k, v in values.items()}))
    r = run_cli("compress", net_file, *(out if a == "OUT" else a for a in command),
                "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("width 6 -> ") and Path(out).exists()


@pytest.mark.parametrize("values, text", [
    ({"out": "OUT"}, "one of the arguments --target-d --epsilon is required"),
    ({"epsilon": None, "out": "OUT"}, "one of the arguments --target-d --epsilon is required"),
    ({"target_d": 2, "out": None}, "the following arguments are required: --out"),
])
def test_required_flags_set_nowhere_are_usage_errors(values, text, net_file, tmp_path):
    out = str(tmp_path / "out.txt")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: out if v == "OUT" else v for k, v in values.items()}))
    r = run_cli("compress", net_file, "--config", str(cfg))
    assert r.returncode == 2 and text in r.stderr and r.stdout == ""
    assert not Path(out).exists()


SUBPARSERS = build_parser()._subparsers._group_actions[0].choices


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


# values a hand-edited config may hold: nothing, the wrong type, NaN, a
# float overflow, an exact fraction, a division by zero, a list or a table
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.sampled_from([2**70, -(2**70)]),
    st.floats(), st.text(max_size=6),
    st.sampled_from(["1/8", "1e400", "-1e400", "nan", "inf", "1/0", "4", "9/2"]),
    st.lists(st.integers(-3, 40), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# half the keys are the bounds formulas' own flags, the rest any command's
FLAG = st.one_of(
    st.sampled_from(sorted(a.dest for a in SUBPARSERS["bounds"]._actions)),
    st.sampled_from(sorted({a.dest for p in SUBPARSERS.values() for a in p._actions})),
)


# a config every formula accepts, which the junk then overwrites in part
GOOD_BOUNDS = {"B": "6", "L": 2, "d0": 2, "dL": 1, "eps": "1/8", "c": "1"}


@settings(max_examples=150, deadline=None)
@given(formula=st.sampled_from(sorted(BOUNDS)), junk=st.dictionaries(FLAG, JUNK, max_size=4))
def test_config_junk_ends_in_an_exit_code(config_dir, formula, junk):
    """In process: any config for ``bounds`` ends in exit 0, 1 or 2, not a traceback."""
    cfg = config_dir / "cfg.json"
    cfg.write_text(json.dumps({**GOOD_BOUNDS, **junk}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["bounds", formula, "--config", str(cfg)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
