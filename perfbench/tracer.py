"""Outside-in tracing of the dpawno layers.

The tracer wraps public functions of the package's modules (no code inside
`src/dpawno` changes) and records, per span name, the call count, the
inclusive time and the self time: a span's duration minus the part covered by
its child spans.  Spans nest by call order on one thread; the package runs
every stage on a single thread.

Time spent in the tracer's own hooks (tape measurement, byte counting) is
booked as child time of the enclosing span, so it does not inflate any self
time; it still shows in `trace.overhead_s`.
"""

import functools
import math
import time
from collections import defaultdict

# Public autodiff ops whose calls and self time are reported one by one.
AUTODIFF_OPS = ("add", "sub", "mul", "scalar_mul", "matmul", "bias_add",
                "gelu", "square", "total_sum", "slice_axis", "concat",
                "boundary_overwrite", "circ_stencil", "level_matmul")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.samples = defaultdict(list)
        self.counters = defaultdict(float)
        self.stack = []  # child time accumulated by each open span
        self.stage = None
        self.batch = None  # (batch size, T, start time) of the open batch
        self.tape_nodes = {}  # "B<b>_T<t>" -> set of node counts at backward
        self.tape_mb = {}  # "B<b>_T<t>" -> largest tape, in MB of node values

    # -- spans -------------------------------------------------------------
    def wrap(self, name, fn, enter=None, leave=None, keep_samples=False):
        calls, total, self_time = self.calls, self.total, self.self_time
        samples = self.samples[name]
        stack, clock = self.stack, time.perf_counter

        def hook(fn_, *args):
            t = clock()
            fn_(*args)
            if stack:
                stack[-1] += clock() - t

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                hook(enter, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - child
                if keep_samples:
                    samples.append(dt)
            if leave is not None:
                hook(leave, args, kwargs, out)
            return out

        return traced

    # -- hooks -------------------------------------------------------------
    def _enter_stage(self, args, kwargs):
        argv = args[0] if args else kwargs["argv"]
        self.stage = argv[0]

    def _enter_rollout_loss(self, args, kwargs):
        t_steps = args[4] if len(args) > 4 else kwargs["t_steps"]
        self.batch = (len(args[2]), t_steps, time.perf_counter())

    def _leave_adam(self, args, kwargs, out):
        if self.batch is not None:
            self.samples["training.batch"].append(
                time.perf_counter() - self.batch[2])

    def _enter_backward(self, args, kwargs):
        tape = args[0]
        nodes = len(tape.nodes)
        mb = sum(node.value.nbytes for node in tape.nodes) / 1e6
        self.counters["autodiff.tape_nodes"] = max(
            self.counters["autodiff.tape_nodes"], nodes)
        self.counters["autodiff.tape_mb"] = max(
            self.counters["autodiff.tape_mb"], mb)
        if self.batch is not None:
            key = f"B{self.batch[0]}_T{self.batch[1]}"
            self.tape_nodes.setdefault(key, set()).add(nodes)
            self.tape_mb[key] = max(self.tape_mb.get(key, 0.0), mb)

    def _count_out_bytes(self, args, kwargs, out):
        value = out.data if hasattr(out, "tape") else out
        self.counters["autodiff.out_mb"] += getattr(value, "nbytes", 8) / 1e6

    def _leave_surrogate_step(self, args, kwargs, out):
        if self.stage == "uq":
            self.counters["uq.sample_steps_run"] += len(args[1])

    def _leave_load(self, args, kwargs, out):
        self.counters["datagen.load_mb"] += out.trajectories.nbytes / 1e6

    def _leave_estimate(self, args, kwargs, out):
        self.counters["reliability.diverged"] += out.diverged

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap the traced functions in every dpawno module that binds them."""
        import dpawno.autodiff as ad
        import dpawno.cli as cli
        import dpawno.config as config
        import dpawno.datagen as datagen
        import dpawno.physics as physics
        import dpawno.reliability as reliability
        import dpawno.training as training
        import dpawno.uq as uq
        import dpawno.wno as wno

        out_bytes = self._count_out_bytes
        plan = [
            (cli, "main", "cli", {"enter": self._enter_stage}),
            (config, "load_config", "config.load", {}),
            (datagen, "generate", "datagen.generate", {}),
            (datagen, "load", "datagen.load", {"leave": self._leave_load}),
            (datagen, "save", "datagen.save", {}),
            (wno, "wno_forward", "wno.forward", {}),
            (wno, "lift", "wno.lift", {}),
            (wno, "kernel_layer", "wno.kernel_layer", {}),
            (wno, "downlift", "wno.downlift", {}),
            (wno, "load_checkpoint", "wno.checkpoint_load", {}),
            (wno, "save_checkpoint", "wno.checkpoint_save", {}),
            (physics, "euler_step_values", "physics.euler_step", {}),
            (physics, "rhs_values", "physics.rhs", {}),
            (physics, "apply_bc_values", "physics.apply_bc", {}),
            (ad, "record", "autodiff.record", {}),
            (ad, "backward", "autodiff.backward", {"enter": self._enter_backward}),
            (training, "train", "training.train", {}),
            (training, "rollout_loss", "training.rollout_loss",
             {"enter": self._enter_rollout_loss}),
            (training, "clip_gradients", "training.clip", {}),
            (training.Adam, "step", "training.adam", {"leave": self._leave_adam}),
            (training, "rollout_statistics", "training.rollout_statistics", {}),
            (training.AugmentedSurrogate, "step", "training.surrogate_step",
             {"leave": self._leave_surrogate_step, "keep_samples": True}),
            (training.PhysicsSurrogate, "step", "training.physics_step",
             {"leave": self._leave_surrogate_step}),
            (uq, "estimate_pdf", "uq.estimate_pdf", {}),
            (uq, "hellinger", "uq.hellinger", {}),
            (uq, "rebin", "uq.rebin", {}),
            (reliability, "sample_grf", "reliability.sample_grf", {}),
            (reliability, "estimate_reliability", "reliability.estimate",
             {"leave": self._leave_estimate}),
        ]
        plan += [(ad, op, f"autodiff.{op}", {"leave": out_bytes})
                 for op in AUTODIFF_OPS]
        modules = (ad, cli, config, datagen, physics, reliability, training,
                   uq, wno)
        for owner, attr, name, opts in plan:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, **opts)
            setattr(owner, attr, wrapped)
            # names imported with `from .x import f` are bound in other modules
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapped)

    # -- results -----------------------------------------------------------
    def metrics(self, uq_required_steps):
        """Per-layer metrics under the names listed in BENCHMARK.json."""
        c, s, t = self.calls, self.self_time, self.total
        m = {}
        for op in AUTODIFF_OPS + ("record",):
            m[f"autodiff.{op}.calls"] = (c[f"autodiff.{op}"], "count")
            m[f"autodiff.{op}.self_s"] = (s[f"autodiff.{op}"], "s")
        m["autodiff.backward.calls"] = (c["autodiff.backward"], "count")
        m["autodiff.backward.s"] = (t["autodiff.backward"], "s")
        m["autodiff.tape_nodes"] = (int(self.counters["autodiff.tape_nodes"]), "count")
        m["autodiff.tape_mb"] = (self.counters["autodiff.tape_mb"], "MB")
        m["autodiff.out_mb"] = (self.counters["autodiff.out_mb"], "MB")
        m["wno.forward.calls"] = (c["wno.forward"], "count")
        for part in ("forward", "lift", "kernel_layer", "downlift",
                     "checkpoint_load", "checkpoint_save"):
            m[f"wno.{part}.s"] = (t[f"wno.{part}"], "s")
        m["physics.euler_step.calls"] = (c["physics.euler_step"], "count")
        m["physics.euler_step.self_s"] = (s["physics.euler_step"], "s")
        m["physics.rhs.s"] = (t["physics.rhs"], "s")
        m["physics.apply_bc.s"] = (t["physics.apply_bc"], "s")
        batches = self.samples["training.batch"]
        m["training.batches"] = (len(batches), "count")
        m["training.batch_s_p50"] = (percentile(batches, 0.5), "s")
        m["training.batch_s_p90"] = (percentile(batches, 0.9), "s")
        for phase in ("rollout_loss", "clip", "adam"):
            m[f"training.{phase}.s"] = (t[f"training.{phase}"], "s")
        steps = self.samples["training.surrogate_step"]
        m["training.surrogate_steps"] = (len(steps), "count")
        m["training.surrogate_step_s_p50"] = (percentile(steps, 0.5), "s")
        m["training.surrogate_step_s_p90"] = (percentile(steps, 0.9), "s")
        m["training.rollout_statistics.calls"] = (
            c["training.rollout_statistics"], "count")
        m["uq.estimate_pdf.calls"] = (c["uq.estimate_pdf"], "count")
        m["uq.estimate_pdf.s"] = (t["uq.estimate_pdf"], "s")
        m["uq.hellinger.s"] = (t["uq.hellinger"], "s")
        run = self.counters["uq.sample_steps_run"]
        m["uq.rollout_step_ratio"] = (uq_required_steps / run if run else 0.0, "ratio")
        m["reliability.sample_grf.s"] = (t["reliability.sample_grf"], "s")
        m["reliability.estimate.s"] = (t["reliability.estimate"], "s")
        m["reliability.diverged"] = (int(self.counters["reliability.diverged"]), "count")
        m["datagen.load.s"] = (t["datagen.load"], "s")
        m["datagen.load_mb"] = (self.counters["datagen.load_mb"], "MB")
        m["datagen.generate.s"] = (t["datagen.generate"], "s")
        m["config.load.s"] = (t["config.load"], "s")
        m["cli.self_s"] = (s["cli"], "s")
        return m
