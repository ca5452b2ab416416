"""The four benchmark workloads: inputs from a seed, one op, its checks.

Each workload is a closed loop with one client: the runner calls ``op``
back to back in one process, each time on the input ``prepare`` returns
(untimed). Inputs come only from the workload seed. Ops call the library
through module attributes (``regularity.compress_network`` rather than a
name imported here) so that the tracer's wrappers see them. Why each
workload exists is written in README.md.
"""

import contextlib
import hashlib
import math

import numpy as np

from densecap import bounds, cutnorm, propagation, regularity
from densecap.experiments import make_spike_dataset, training
from densecap.experiments.training import TrainConfig, max_scaled_weight
from densecap.kernels import StepKernel, induce_kernel, validate_computational
from densecap.networks import random_network
from densecap.partitions import Partition


def _digest(*parts):
    """Bitwise fingerprint of an op's outputs (arrays, numbers, strings)."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode() + str(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def check_bounds_once():
    """Acceptance-criterion-7 values of the bound calculators."""
    return (
        bounds.lipschitz_constant(4, 2).exact == 64
        and bounds.wrl_hidden_dim(4, 2, 1, 1).exact == 16
        and bounds.compression_hidden_dim(1, 4, 2, 1, 1).log2 == 2_097_164
        and bounds.d0_threshold(4, 2, 1, 1).exact == 18_253_611_637
    )


class Workload:
    """Defaults shared by the workloads."""

    group = 1  # runs end on a whole group of ops
    trace_batch = 1  # ops in one traced batch; every batch repeats the same ops

    def build(self):
        """Make the inputs that every op shares."""

    def running(self):
        return contextlib.nullcontext()

    def quality(self, outs):
        """Workload-specific output numbers, {name: (value, unit)}."""
        return {}


class Compress(Workload):
    """compress_network(net, target_d=24, seed=5) on a 240-wide network."""

    name = "compress"

    def __init__(self, seed, tiny=False):
        self.width, self.target = (24, 12) if tiny else (240, 24)
        self.samples = 200 if tiny else 10_000
        self.seed = seed

    def build(self):
        rng = np.random.default_rng(self.seed)
        self.net = random_network(3, 2, 2, self.width, 5.0, rng)

    def warm_up(self):
        small = random_network(3, 2, 2, 12, 5.0, np.random.default_rng(self.seed))
        regularity.compress_network(small, target_d=6, seed=5, samples=100)

    def prepare(self, i):
        return self.net

    def op(self, net):
        return regularity.compress_network(
            net, target_d=self.target, seed=5, samples=self.samples
        )

    def check(self, i, net, out):
        net_new, rep = out
        return (
            rep.d_compressed == self.target
            and validate_computational(induce_kernel(net_new)).ok
            and rep.empirical_max <= rep.theoretical_bound
        )

    def digest(self, out):
        net_new, rep = out
        return _digest(
            *net_new.weights, *net_new.biases, rep.delta_hat, rep.delta_exact,
            rep.empirical_max, rep.theoretical_bound, rep.iterations, rep.fk_status,
        )

    def quality(self, outs):
        reps = [rep for _, rep in outs]
        return {
            "exact_share": (sum(r.delta_exact for r in reps) / len(reps), "ratio"),
            "output_gap": (float(np.median([r.empirical_max for r in reps])), "1"),
        }


def exact_kernel(rng, parts, rows, cols):
    """Step kernel on ``parts`` parts whose lossless reduction is rows x cols.

    Every part repeats one of ``rows`` random row patterns and one of
    ``cols`` column patterns, so the reduction merges them back exactly.
    """
    base = rng.uniform(-1.0, 1.0, (rows, cols))
    rmap = np.repeat(np.arange(rows), rng.multinomial(parts - rows, np.ones(rows) / rows) + 1)
    cmap = np.repeat(np.arange(cols), rng.multinomial(parts - cols, np.ones(cols) / cols) + 1)
    rng.shuffle(rmap)
    rng.shuffle(cmap)
    return StepKernel(Partition(rng.dirichlet(np.ones(parts))), base[np.ix_(rmap, cmap)])


class CutnormExact(Workload):
    """kernel_cut_norm(kern, oracle="auto") on a kernel reducing to 22 x 30."""

    name = "cutnorm_exact"

    def __init__(self, seed, tiny=False):
        self.rows, self.cols = (10, 14) if tiny else (22, 30)
        self.parts = 30 if tiny else 90
        self.seed = seed

    def build(self):
        self.kern = exact_kernel(
            np.random.default_rng(self.seed), self.parts, self.rows, self.cols
        )
        # the auto route must go exact on exactly 2^rows subsets
        dims = cutnorm.reduced_dims(self.kern)
        if dims != (self.rows, self.cols):
            raise RuntimeError(f"kernel reduced to {dims}, wanted {(self.rows, self.cols)}")
        self.l1 = cutnorm.l1_norm(self.kern)

    def warm_up(self):
        small = exact_kernel(np.random.default_rng(self.seed), 20, 8, 10)
        cutnorm.kernel_cut_norm(small, oracle="auto")

    def prepare(self, i):
        return self.kern

    def op(self, kern):
        return cutnorm.kernel_cut_norm(kern, oracle="auto")

    def check(self, i, kern, out):
        w, exact = out
        lower = cutnorm.kernel_cut_norm_lower(kern).value
        return exact and w.check(kern, tol=1e-12) and lower <= w.value <= self.l1

    def digest(self, out):
        w, exact = out
        return _digest(w.value, w.row_set, w.col_set, exact)

    def quality(self, outs):
        return {"exact_share": (sum(ex for _, ex in outs) / len(outs), "ratio")}


class Equivalence(Workload):
    """check_equivalence on acceptance-criterion-1 networks, width up to 240.

    Op i gets its own network, drawn from the seed and i, so a run covers
    thousands of sizes and its median does not hinge on a small pool.
    """

    name = "equivalence"

    def __init__(self, seed, tiny=False):
        self.max_width = 24 if tiny else 240
        self.trace_batch = 20 if tiny else 200
        self.seed = seed

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i])
        L = int(rng.choice([2, 3, 4]))
        d0 = int(rng.integers(1, 4))
        dL = int(rng.integers(1, 4))
        mult = int(np.lcm(d0, dL))
        d = mult * int(rng.integers(1, self.max_width // mult + 1))
        B = float(rng.uniform(L + 2, 10.0))
        net = random_network(L, d0, dL, d, B, rng)
        return net, rng.uniform(0.0, 1.0, d0)

    def warm_up(self):
        for i in range(3):
            self.op(self.prepare(i))

    def op(self, inp):
        return propagation.check_equivalence(*inp, tolerance=1e-9)

    def check(self, i, inp, out):
        return out.max_discrepancy <= 1e-9 and out.max_bias_drift <= 1e-12

    def digest(self, out):
        return _digest(out.net_output, out.kernel_output, out.graph_output, out.bias_values)


class TrainSpike(Workload):
    """One epoch of train() at width 512 on spike data, standard and dense in turn."""

    name = "train_spike"
    group = trace_batch = 2

    def __init__(self, seed, tiny=False):
        self.width, self.samples = (16, 512) if tiny else (512, 20_000)
        self.seed = seed
        self.params = None

    def build(self):
        self.data = make_spike_dataset(2, 4, self.seed, self.samples)
        self.configs = [
            TrainConfig(width=self.width, mode=m, epochs=1, seed=self.seed)
            for m in ("standard", "dense")
        ]

    @contextlib.contextmanager
    def running(self):
        """Swap in an optimizer that hands over the trained parameters.

        train() returns only metrics; the dense-mode clamp check needs the
        weights themselves.
        """
        base, workload = training.Adam, self

        class KeepParams(base):
            def __init__(self, params, *args):
                super().__init__(params, *args)
                workload.params = params

        training.Adam = KeepParams
        try:
            yield
        finally:
            training.Adam = base

    def warm_up(self):
        small = make_spike_dataset(2, 4, self.seed, 256)
        training.train(TrainConfig(width=8, epochs=1, seed=self.seed), data=small)

    def prepare(self, i):
        return self.configs[i % 2]

    def op(self, cfg):
        return training.train(cfg, data=self.data), self.params

    def check(self, i, cfg, out):
        metrics, params = out
        ok = math.isfinite(metrics.final_loss)
        if cfg.mode == "dense":
            d_in = self.data.train_x.shape[1]
            ok = ok and max_scaled_weight(params, d_in, cfg.width) <= cfg.clamp_numerator
        return ok

    def digest(self, out):
        metrics, params = out
        return _digest(metrics.epoch_loss, metrics.train_acc, metrics.test_acc, *params.values())

    def quality(self, outs):
        acc = {}
        for i, (metrics, _) in enumerate(outs):
            acc.setdefault(self.configs[i % 2].mode, metrics.test_acc)
        return {f"test_acc_{m}": (a, "%") for m, a in acc.items()}


WORKLOADS = {w.name: w for w in (Compress, CutnormExact, Equivalence, TrainSpike)}
