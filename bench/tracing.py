"""Outside-in tracing: spans around calls into each densecap layer.

The library is not modified. Instead, ``patched`` replaces the
module-level names that densecap code resolves at call time (for example
``densecap.regularity.kernel_cut_norm``) with timing wrappers, and puts
the originals back on exit. A span is recorded only while an op is open,
so correctness checks that run between ops leave no spans. Spans live in
memory as tuples ``(name, start, end, parent_index, op_id)``.
"""

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict

import densecap.cutnorm
import densecap.kernels
import densecap.propagation
import densecap.regularity
from densecap.experiments import training

# (module, attribute, span name). The span name is "<layer>.<function>",
# where the layer is the module that defines the function.
WRAPPED = [
    (densecap.regularity, "compress_network", "regularity.compress_network"),
    (densecap.regularity, "kernel_cut_norm", "cutnorm.kernel_cut_norm"),
    (densecap.regularity, "comp_cut_distance_upper", "cutnorm.comp_cut_distance_upper"),
    (densecap.regularity, "induce_kernel", "kernels.induce_kernel"),
    (densecap.regularity, "lift_computational", "kernels.lift_computational"),
    (densecap.regularity, "validate_computational", "kernels.validate_computational"),
    (densecap.regularity, "extract_network", "kernels.extract_network"),
    (densecap.regularity, "forward", "networks.forward"),
    (densecap.cutnorm, "kernel_cut_norm", "cutnorm.kernel_cut_norm"),
    (densecap.cutnorm, "reduced_dims", "cutnorm.reduced_dims"),
    (densecap.cutnorm, "kernel_cut_norm_exact", "cutnorm.kernel_cut_norm_exact"),
    (densecap.cutnorm, "kernel_cut_norm_lower", "cutnorm.kernel_cut_norm_lower"),
    (densecap.kernels, "validate_computational", "kernels.validate_computational"),
    (densecap.propagation, "check_equivalence", "propagation.check_equivalence"),
    (densecap.propagation, "induce_kernel", "kernels.induce_kernel"),
    (densecap.propagation, "induce_graph", "kernels.induce_graph"),
    (densecap.propagation, "induce_input_signal", "kernels.induce_input_signal"),
    (densecap.propagation, "graph_features", "kernels.graph_features"),
    (densecap.propagation, "mpnn_forward", "propagation.mpnn_forward"),
    (densecap.propagation, "sr_mpnn_forward", "propagation.sr_mpnn_forward"),
    (densecap.propagation, "forward", "networks.forward"),
    (training, "train", "experiments.train"),
    (training, "loss_and_grads", "experiments.loss_and_grads"),
    (training.Adam, "step", "experiments.adam_step"),
]


def _exact_route(tracer, args, out):
    tracer.counts["cutnorm.exact_route"] += bool(out[1])


def _subsets(tracer, args, out):
    # The exact oracle enumerates every subset of the smaller side of the
    # lossless reduction; the original reduced_dims gives that side after
    # the span has closed, so the probe costs no span time.
    kern = args.arguments["kern"]
    if isinstance(kern, densecap.kernels.ComputationalKernel):
        kern = kern.kernel
    rows, cols = tracer.originals[(densecap.cutnorm, "reduced_dims")](kern)
    if rows and cols:
        tracer.counts["cutnorm.subsets"] += 1 << min(rows, cols)


def _rounds(tracer, args, out):
    tracer.counts["propagation.rounds"] += int(args.arguments["L"])


# Counters recorded at the same boundaries as the spans.
HOOKS = {
    "cutnorm.kernel_cut_norm": _exact_route,
    "cutnorm.kernel_cut_norm_exact": _subsets,
    "propagation.mpnn_forward": _rounds,
    "propagation.sr_mpnn_forward": _rounds,
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.originals = {}
        self._stack = []
        self._op = None

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            out = self._timed(name, fn, args, kwargs)
            if hook:
                hook(self, sig.bind(*args, **kwargs), out)
            return out

        return wrapper

    def _timed(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span named "op"."""
        self._op = op_id
        try:
            return self._timed("op", fn, args, {})
        finally:
            self._op = None

    def span_dicts(self):
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


@contextlib.contextmanager
def patched(tracer):
    """Install the wrappers of ``WRAPPED``; always restore the originals."""
    wrappers = {}
    try:
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            tracer.originals[(owner, attr)] = original
            if name not in wrappers:
                wrappers[name] = (original, tracer.wrap(name, original))
            if wrappers[name][0] is not original:
                raise RuntimeError(f"{name} resolves to two different functions")
            setattr(owner, attr, wrappers[name][1])
        yield tracer
    finally:
        for (owner, attr), original in tracer.originals.items():
            setattr(owner, attr, original)


def layer_metrics(spans, counts, n_ops):
    """Per-op layer numbers from the spans and counters of ``n_ops`` ops.

    ``<name>.s`` is inclusive time in that function (outermost calls only);
    ``<layer>.self_s`` is time in the layer's spans not covered by child
    spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    incl, self_fn, self_layer = defaultdict(float), defaultdict(float), defaultdict(float)
    calls = Counter()
    iterations = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        own = end - start - child_time[i]
        self_fn[name] += own
        self_layer[name.split(".")[0]] += own
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            incl[name] += end - start
        if name == "cutnorm.kernel_cut_norm" and parent is not None:
            iterations += spans[parent][0].startswith("regularity.")

    def ratio(a, b):
        return a / b if b else 0.0

    cut_calls = calls["cutnorm.kernel_cut_norm"]
    reductions = sum(
        calls[f"cutnorm.{f}"]
        for f in ("reduced_dims", "kernel_cut_norm_exact", "kernel_cut_norm_lower")
    )
    prop_s = incl["propagation.mpnn_forward"] + incl["propagation.sr_mpnn_forward"]
    per_op = {
        "cutnorm.self_s": self_layer["cutnorm"],
        "cutnorm.reduced_dims.s": incl["cutnorm.reduced_dims"],
        "cutnorm.reduced_dims.calls": calls["cutnorm.reduced_dims"],
        "cutnorm.kernel_cut_norm_lower.s": incl["cutnorm.kernel_cut_norm_lower"],
        "cutnorm.kernel_cut_norm_exact.s": incl["cutnorm.kernel_cut_norm_exact"],
        "cutnorm.subsets_enumerated": counts["cutnorm.subsets"],
        "cutnorm.comp_cut_distance_upper.s": incl["cutnorm.comp_cut_distance_upper"],
        "regularity.self_s": self_layer["regularity"],
        "regularity.iterations": iterations,
        "kernels.self_s": self_layer["kernels"],
        "kernels.induce_kernel.s": incl["kernels.induce_kernel"],
        "kernels.induce_graph.s": incl["kernels.induce_graph"],
        "kernels.validate_computational.s": incl["kernels.validate_computational"],
        "kernels.extract_network.s": incl["kernels.extract_network"],
        "kernels.lift_computational.s": incl["kernels.lift_computational"],
        "propagation.self_s": self_layer["propagation"],
        "propagation.mpnn_forward.s": incl["propagation.mpnn_forward"],
        "propagation.sr_mpnn_forward.s": incl["propagation.sr_mpnn_forward"],
        "propagation.rounds": counts["propagation.rounds"],
        "networks.forward.s": incl["networks.forward"],
        "experiments.self_s": self_layer["experiments"],
        "experiments.train.self_s": self_fn["experiments.train"],
        "experiments.loss_and_grads.s": incl["experiments.loss_and_grads"],
        "experiments.adam_step.s": incl["experiments.adam_step"],
        "experiments.batches": calls["experiments.loss_and_grads"],
        "trace.op_s": incl["op"],
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    out["cutnorm.reductions_per_call"] = ratio(reductions, cut_calls)
    out["cutnorm.exact_route_share"] = ratio(counts["cutnorm.exact_route"], cut_calls)
    out["cutnorm.subsets_per_s"] = ratio(
        counts["cutnorm.subsets"], incl["cutnorm.kernel_cut_norm_exact"]
    )
    out["propagation.round_s"] = ratio(prop_s, counts["propagation.rounds"])
    return out
