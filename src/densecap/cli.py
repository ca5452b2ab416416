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
from .cutnorm import ORACLES, enumeration_threads, kernel_cut_norm
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


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be positive, got {value}")
    return value


def _int_list(text):
    # argparse turns the ValueError of a bad item into a usage error
    return [int(v) for v in text.split(",")]


# formula -> (evaluator, the flags it takes in order); only --c has a default
BOUNDS = {
    "lipschitz": (bounds_mod.lipschitz_constant, ("B", "L")),
    "wrl-dim": (bounds_mod.wrl_hidden_dim, ("eps", "L", "d0", "dL")),
    "compression-dim": (bounds_mod.compression_hidden_dim, ("eps", "B", "L", "d0", "dL")),
    "vc-lower": (bounds_mod.vc_lower_bound, ("eps", "d0", "c")),
    "d0-threshold": (bounds_mod.d0_threshold, ("B", "L", "dL", "c")),
    "non-universality": (bounds_mod.non_universality_check, ("B", "L", "dL", "d0", "c")),
}


def _add_common(p):
    # abbreviations would read "--conf" as --config after the config pre-parse
    p.allow_abbrev = False
    p.add_argument("--config", help="JSON file supplying default values for flags")
    p.add_argument("--seed", type=_count, default=0, help="seed for anything random")


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
    p.add_argument("--restarts", type=_count, default=32)
    p.add_argument("--cap", type=_count, default=24)
    _add_common(p)

    p = sub.add_parser("compress", help="shrink a network's hidden width")
    p.add_argument("net")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--target-d", type=int)
    g.add_argument("--epsilon", type=float)
    p.add_argument("--oracle", choices=ORACLES, default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p)

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    p.add_argument("formula", choices=tuple(BOUNDS))
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
    p.add_argument("--jobs", type=_positive, default=1, help="worker cap for parallel runs")
    _add_common(p)

    p = sub.add_parser("verify", help="run the module invariant suites")
    p.add_argument("--quick", action="store_true", help="smaller instance counts")
    _add_common(p)
    return ap


def _apply_config(ap, argv):
    """Pre-parse --config and install its values as parser defaults.

    A value for a flag that takes one is installed as the command line
    would spell it (a list joined by commas), because argparse passes only
    string defaults through the flag's type and its checks. An on/off flag
    takes only true or false. The file may set one flag of a mutually
    exclusive group, and none of it when the command line names one. A
    required flag or group that the file sets is no longer required, since
    argparse counts only the command line toward it; with neither source
    setting it, parsing still stops with a usage error.
    """
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
    parsers = ap._subparsers._group_actions[0].choices.values()
    # keys of other subcommands pass, so one file can serve several of them
    unknown = sorted(set(values) - {a.dest for p in parsers for a in p._actions})
    if unknown:
        raise DensecapError(f"config {path} has keys that name no flag: {', '.join(unknown)}")
    named = {arg.split("=", 1)[0] for arg in argv}
    for parser in parsers:
        dropped = set()
        for group in parser._mutually_exclusive_groups:
            on = [a for a in group._group_actions
                  if values.get(a.dest) is not None and values.get(a.dest) is not False]
            if len(on) > 1:
                flags = " and ".join(a.option_strings[0] for a in on)
                raise DensecapError(f"config {path} sets {flags}, which exclude each other")
            if any(named.intersection(a.option_strings) for a in group._group_actions):
                dropped.update(a.dest for a in on)  # the command line's choice wins
        for action in (a for a in parser._actions if a.dest in values.keys() - dropped):
            value = values[action.dest]
            if action.nargs == 0 and not isinstance(value, bool):
                raise DensecapError(
                    f"config {path}: {action.dest} takes true or false, not {value!r}"
                )
            if action.nargs != 0 and value is not None and not isinstance(value, str):
                value = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            parser.set_defaults(**{action.dest: value})
            if value is not None and value is not False:
                action.required = False
                for group in parser._mutually_exclusive_groups:
                    if action in group._group_actions:
                        group.required = False


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
    if args.net:
        net = load_network(args.net)
        cases = [(net, rng.uniform(0, 1, net.d0)) for _ in range(max(1, args.random))]
    else:
        cases = []
        for _ in range(args.random or 20):
            net = random_small_network(rng)
            cases.append((net, rng.uniform(0, 1, net.d0)))
    reports = [check_equivalence(net, x, tolerance=args.tolerance) for net, x in cases]
    # a NaN discrepancy fails its report and shows in the NaN-keeping np.max
    worst = float(np.max([rep.max_discrepancy for rep in reports]))
    ok = all(rep.passed for rep in reports)
    print(f"{len(cases)} instances, max discrepancy {worst:.3e} "
          f"({'<=' if ok else '>'} {args.tolerance:g})")
    big = max(reports, key=lambda rep: rep.kernel_entries)
    print(f"kernel held in {big.kernel_blocks} blocks, "
          f"{big.kernel_entries:,} of {big.n * big.n:,} entries")
    return 0 if ok else 1


def cmd_cutnorm(args):
    ck = load_kernel(args.kernel)
    oracle = "heuristic" if args.heuristic else "exact"
    w, exact = kernel_cut_norm(ck.kernel, oracle, args.cap, args.restarts, args.seed)
    print(f"cut norm ({'exact' if exact else 'heuristic lower bound'}): {w.value!r}")
    print(f"row parts: {list(w.row_set)}")
    print(f"col parts: {list(w.col_set)}")
    print(f"reduced dims: {w.dims[0]} x {w.dims[1]}")
    if exact:
        print(f"enumeration threads: {enumeration_threads(min(w.dims), max(w.dims))}")
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
    print(f"width {rep.d_original} -> {rep.d_compressed}; cut norm of the difference, "
          f"identity layout {rep.delta_hat:.6g} ({'exact' if rep.delta_exact else 'heuristic'})")
    print(f"{rep.bound_label} {rep.theoretical_bound:.6g}, "
          f"empirical max {rep.empirical_max:.6g} over {rep.samples} samples")
    return 0


def cmd_bounds(args):
    evaluate, flags = BOUNDS[args.formula]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise DensecapError(f"bounds {args.formula} needs {', '.join(missing)}")
    print(evaluate(*(getattr(args, f) for f in flags)))
    return 0


def cmd_train(args):
    from .experiments import TrainConfig, train

    cfg = TrainConfig(
        width=args.width, mode=args.mode, epochs=args.epochs, lr=args.lr,
        batch=args.batch, seed=args.seed, dataset=args.dataset,
        subset=args.subset, clamp_numerator=args.clamp_numerator,
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
    for name, passed, detail in results:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    ok = all(passed for _, passed, _ in results)
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
    except (DensecapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
