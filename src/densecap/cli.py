"""Command-line entry point wiring the library together.

Subcommands: induce, validate, equiv-check, cutnorm, compress, bounds,
train, sweep, verify. A JSON config file may supply any flag (flags given
on the command line win). Exit codes: 0 success, 1 operational failure,
2 usage error.
"""

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .cutnorm import kernel_cut_norm_exact, kernel_cut_norm_lower
from .errors import DensecapError
from .kernels import load_kernel, save_kernel, induce_kernel, validate_computational
from .networks import load_network, random_small_network, save_network
from .propagation import check_equivalence
from .regularity import compress_network


def _count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be non-negative, got {value}")
    return value


def _int_list(text):
    # argparse turns the ValueError of a bad item into a usage error
    return [int(v) for v in text.split(",")]


def _add_common(p):
    # abbreviations would read "--conf" as --config after the config pre-parse
    p.allow_abbrev = False
    p.add_argument("--config", help="JSON file supplying default values for flags")
    p.add_argument("--seed", type=int, default=0, help="seed for anything random")


def build_parser():
    ap = argparse.ArgumentParser(prog="densecap", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="network file -> kernel file")
    p.add_argument("net")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("validate", help="check the four structural conditions")
    p.add_argument("kernel")
    _add_common(p)

    p = sub.add_parser("equiv-check", help="network / kernel / graph agreement")
    p.add_argument("--net", help="network file (default: random instances)")
    p.add_argument("--random", type=_count, default=0, help="number of random instances")
    p.add_argument("--tolerance", type=float, default=1e-9)
    _add_common(p)

    p = sub.add_parser("cutnorm", help="cut norm of a kernel file")
    p.add_argument("kernel")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true")
    g.add_argument("--heuristic", action="store_true")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--cap", type=int, default=24)
    _add_common(p)

    p = sub.add_parser("compress", help="shrink a network's hidden width")
    p.add_argument("net")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--target-d", type=int)
    g.add_argument("--epsilon", type=float)
    p.add_argument("--oracle", choices=("exact", "heuristic", "auto"), default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p)

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    p.add_argument(
        "formula",
        choices=(
            "lipschitz", "wrl-dim", "compression-dim", "vc-lower",
            "d0-threshold", "non-universality",
        ),
    )
    p.add_argument("--B")
    p.add_argument("--L", type=int)
    p.add_argument("--d0", type=int)
    p.add_argument("--dL", type=int)
    p.add_argument("--eps", help="accuracy, exact fractions like 1/8 accepted")
    p.add_argument("--c", default="1", help="VC constant (default 1)")
    _add_common(p)

    p = sub.add_parser("train", help="one training run")
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--mode", choices=("standard", "dense"), default="standard")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--clamp-numerator", type=float, default=10.0)
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--subset", type=int)
    p.add_argument("--data-dir", help="defaults to $DENSECAP_DATA")
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--adam-eps", type=float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("sweep", help="grid of training runs -> CSV")
    p.add_argument("--widths", type=_int_list, default="16,128,512")
    p.add_argument("--modes", default="standard,dense")
    p.add_argument("--seeds", type=_int_list, default="0,1")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--subset", type=int)
    p.add_argument("--dataset", default="mnist")
    p.add_argument("--data-dir")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--jobs", type=int, default=1, help="worker cap for parallel runs")
    _add_common(p)

    p = sub.add_parser("verify", help="run the module invariant suites")
    p.add_argument("--quick", action="store_true", help="smaller instance counts")
    _add_common(p)
    return ap


def _apply_config(ap, argv):
    """Pre-parse --config and install its values as parser defaults."""
    # no abbreviations here, or "--c" (the VC constant) would read as --config
    pre = argparse.ArgumentParser(prog=ap.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DensecapError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise DensecapError(f"config {path} must hold a JSON object")
    for action in ap._subparsers._group_actions[0].choices.values():
        known = {a.dest for a in action._actions}
        action.set_defaults(**{k: v for k, v in values.items() if k in known})


def cmd_induce(args):
    save_kernel(induce_kernel(load_network(args.net)), args.out)
    print(f"wrote kernel to {args.out}")
    return 0


def cmd_validate(args):
    report = validate_computational(load_kernel(args.kernel))
    print(report)
    return 0 if report.ok else 1


def cmd_equiv_check(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    if args.net:
        net = load_network(args.net)
        cases = [(net, rng.uniform(0, 1, net.d0)) for _ in range(max(1, args.random))]
    else:
        cases = []
        for _ in range(args.random or 20):
            net = random_small_network(rng)
            cases.append((net, rng.uniform(0, 1, net.d0)))
    for net, x in cases:
        rep = check_equivalence(net, x, tolerance=args.tolerance)
        worst = max(worst, rep.max_discrepancy)
    ok = worst <= args.tolerance
    print(f"{len(cases)} instances, max discrepancy {worst:.3e} "
          f"({'<=' if ok else '>'} {args.tolerance:g})")
    return 0 if ok else 1


def cmd_cutnorm(args):
    ck = load_kernel(args.kernel)
    if args.heuristic:
        w = kernel_cut_norm_lower(ck.kernel, restarts=args.restarts, seed=args.seed)
        kind = "heuristic lower bound"
    else:
        w = kernel_cut_norm_exact(ck.kernel, cap=args.cap)
        kind = "exact"
    print(f"cut norm ({kind}): {w.value!r}")
    print(f"row parts: {list(w.row_set)}")
    print(f"col parts: {list(w.col_set)}")
    return 0


def cmd_compress(args):
    net = load_network(args.net)
    net2, rep = compress_network(
        net,
        epsilon=args.epsilon,
        target_d=args.target_d,
        oracle=args.oracle,
        seed=args.seed,
        samples=args.samples,
    )
    save_network(net2, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
    print(f"width {rep.d_original} -> {rep.d_compressed}; "
          f"delta_hat {rep.delta_hat:.6g} ({'exact' if rep.delta_exact else 'heuristic'})")
    print(f"output bound {rep.theoretical_bound:.6g}, "
          f"empirical max {rep.empirical_max:.6g} over {rep.samples} samples")
    return 0


def cmd_bounds(args):
    f = args.formula
    if f == "lipschitz":
        value = bounds_mod.lipschitz_constant(args.B, args.L)
    elif f == "wrl-dim":
        value = bounds_mod.wrl_hidden_dim(args.eps, args.L, args.d0, args.dL)
    elif f == "compression-dim":
        value = bounds_mod.compression_hidden_dim(args.eps, args.B, args.L, args.d0, args.dL)
    elif f == "vc-lower":
        value = bounds_mod.vc_lower_bound(args.eps, args.d0, args.c)
    elif f == "d0-threshold":
        value = bounds_mod.d0_threshold(args.B, args.L, args.dL, args.c)
    elif f == "non-universality":
        value = bounds_mod.non_universality_check(args.B, args.L, args.dL, args.d0, args.c)
    else:
        raise DensecapError(f"unknown formula {f}")
    print(value)
    return 0


def cmd_train(args):
    from .experiments import TrainConfig, train

    cfg = TrainConfig(
        width=args.width, mode=args.mode, epochs=args.epochs, lr=args.lr,
        batch=args.batch, seed=args.seed, dataset=args.dataset,
        subset=args.subset, clamp_numerator=args.clamp_numerator,
        beta1=args.beta1, beta2=args.beta2, adam_eps=args.adam_eps,
    )
    m = train(cfg, data_dir=args.data_dir)
    print(f"width {cfg.width} mode {cfg.mode} seed {cfg.seed}: "
          f"train {m.train_acc:.2f}% test {m.test_acc:.2f}% "
          f"loss {m.final_loss:.4g} ({m.wall_s:.1f}s)")
    return 0


def cmd_sweep(args):
    from .experiments import TrainConfig, sweep, sweep_to_csv
    from .experiments.training import sweep_summary

    base = TrainConfig(epochs=args.epochs, dataset=args.dataset, subset=args.subset)
    rows = sweep(
        args.widths, args.modes.split(","), args.seeds, base,
        data_dir=args.data_dir, jobs=args.jobs,
    )
    csv = sweep_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(csv, end="")
    for (width, mode), cell in sweep_summary(rows).items():
        print(
            f"width {width:>5} {mode:<8}: train {cell['train_mean']:6.2f} "
            f"+/- {cell['train_std']:.2f}, test {cell['test_mean']:6.2f} "
            f"+/- {cell['test_std']:.2f}  ({cell['runs']} runs)"
        )
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"FAILED cell ({r.width},{r.mode},{r.seed}): {r.error}", file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args):
    from .verify import run_verification

    results = run_verification(quick=args.quick, seed=args.seed)
    width = max(len(name) for name, _, _ in results)
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        mark = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {mark}  {detail}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


COMMANDS = {
    "induce": cmd_induce,
    "validate": cmd_validate,
    "equiv-check": cmd_equiv_check,
    "cutnorm": cmd_cutnorm,
    "compress": cmd_compress,
    "bounds": cmd_bounds,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        _apply_config(ap, argv)
        args = ap.parse_args(argv)
        return COMMANDS[args.command](args)
    except DensecapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
