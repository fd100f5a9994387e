"""End-to-end trainer: progressively unrolled rollout loss through the
differentiable stepper, optimized with Adam.

Rollouts always feed predictions forward (no teacher forcing): the state at
step t+1 is AugmentedSurrogate.step(state_t), i.e. euler_step(state_t, spec,
wno_forward(state_t)), the same step that evaluation, uq and reliability
roll, and gradients flow back through every step of the unroll.
"""

import resource
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import physics as ph
from . import wno as wno_mod
from .errors import (
    NonFiniteLoss,
    NonFiniteState,
    NonFiniteValue,
    ScheduleExhausted,
    ShapeMismatch,
)
from .rng import stream


def default_schedule(t_start: int, hold_epochs: int, t_max: int,
                     reach_epoch: int) -> tuple:
    """(epoch, T) pairs: hold t_start, grow linearly to t_max, then hold.

    T at epoch hold_epochs + k - 1 is t_start + round((t_max - t_start) *
    k / span) for k = 1 .. reach_epoch - hold_epochs. It is monotone in k,
    so each T's first epoch is found by bisection, in time that grows with
    the number of pairs rather than with reach_epoch."""
    last = reach_epoch - hold_epochs
    span = max(last, 1)

    def t_at(k):
        return t_start + round((t_max - t_start) * k / span)

    pairs = [(0, t_start)]
    k = 1
    while k <= last:
        t = t_at(k)
        if t != pairs[-1][1]:
            pairs.append((hold_epochs + k - 1, t))
        # t_at(lo) is t; hi is past the end or has another T
        lo, hi = k, last + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if t_at(mid) == t else (lo, mid)
        k = hi
    if pairs[-1][1] != t_max:
        pairs.append((reach_epoch, t_max))
    return tuple(pairs)


def schedule_lookup(schedule, epoch: int) -> int:
    t = None
    for threshold, steps in schedule:
        if epoch >= threshold:
            t = steps
    if t is None:
        raise ScheduleExhausted(f"no unroll length scheduled for epoch {epoch}")
    return t


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    unroll_schedule: tuple
    learning_rate: float
    seed: int
    batch_size: int = 8

    def __post_init__(self):
        for key in ("epochs", "batch_size"):
            if getattr(self, key) < 1:
                raise ValueError(
                    f"[train] {key} must be >= 1, got {getattr(self, key)}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("[train] learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        sched = tuple((int(e), int(t)) for e, t in self.unroll_schedule)
        object.__setattr__(self, "unroll_schedule", sched)
        if not sched or sched[0][0] != 0:
            raise ValueError("[train] schedule must start at epoch 0, got "
                             f"{sched[0][0] if sched else 'no pairs'}")
        for (e0, t0), (e1, t1) in zip(sched, sched[1:]):
            if e1 <= e0 or t1 < t0:
                raise ValueError("[train] schedule must be monotone in both "
                                 "coordinates")
        if sched[0][1] < 1:
            raise ValueError(f"[train] schedule T must be >= 1, got {sched[0][1]}")


@dataclass
class EpochLog:
    """Telemetry of one epoch (one train_log.csv row); times are summed over
    the epoch's batches."""
    epoch: int
    t_steps: int
    mean_loss: float
    wall_ms: float
    forward_ms: float  # taped rollout loss
    backward_ms: float  # reverse sweep
    optimizer_ms: float  # gradient read-out, clipping and the Adam update
    grad_norm_max: float  # largest global gradient norm before clipping
    clipped_batches: int
    tape_nodes: int  # largest tape of the epoch
    tape_bytes: int  # largest sum of node values kept for the reverse sweep
    minor_faults: int  # pages the process faulted in during the epoch


@dataclass
class TrainReport:
    losses: list
    wall_time_s: float


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# every batch's gradients are scaled to at most this global norm
GRAD_CLIP_NORM = 10.0


class Adam:
    """Standard Adam with bias correction over a name -> array parameter dict,
    with the moment decays ADAM_BETA1/ADAM_BETA2 and denominator ADAM_EPS."""

    def __init__(self, params: dict, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, g in grads.items():
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1 ** self.t)
            v_hat = self.v[name] / (1.0 - b2 ** self.t)
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_gradients(grads: dict, max_norm: float) -> tuple:
    """(grads scaled to a global norm of at most `max_norm`, the global norm
    before clipping); a non-finite norm leaves the grads unscaled."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if not max_norm < total < np.inf:
        return grads, total
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}, total


# ---------------------------------------------------------------------------
# surrogate steps and rollouts

# Bytes of a surrogate's widest array over one block of samples, which
# physics.masked_steps steps together: about half of a 2 MiB L2 cache, so each
# block's arrays stay in cache from one operation to the next instead of
# streaming a whole batch through memory.  A block holds at least one sample.
_BLOCK_BYTES = 1 << 20


class PhysicsSurrogate:
    """Rolls the bare right-hand side of `spec` (partial or full physics);
    its widest array is the state."""

    def __init__(self, spec: ph.PdeSpec):
        self.spec = spec
        self.block = max(1, _BLOCK_BYTES // (int(np.prod(spec.state_shape())) * 8))

    def step(self, u):
        return ph.euler_step_values(u, self.spec)


class AugmentedSurrogate:
    """Rolls spec physics plus the learned correction of `model` with
    `params` (default: the model's own; taped leaves make the step
    differentiable).

    A model made for another state shape than `spec`'s (another number of
    spatial axes or channels) is a ShapeMismatch here, before any rollout.
    The widest array is an activation of max(width, fc1_dim) channels.
    """

    def __init__(self, spec: ph.PdeSpec, model, params=None):
        expected = wno_mod.io_fields(spec.state_shape())
        found = {key: getattr(model.config, key) for key in expected}
        if found != expected:
            def fields(doc):
                return ", ".join(f"{k}={v}" for k, v in doc.items())
            raise ShapeMismatch(
                f"model has {fields(found)}; {spec.benchmark} states of shape "
                f"{spec.state_shape()} need {fields(expected)}")
        self.spec = spec
        self.model = model
        self.params = model.params if params is None else params
        self.coords = spec.coordinates()
        widest = max(model.config.width, model.config.fc1_dim)
        points = int(np.prod(spec.spatial_shape()))
        self.block = max(1, _BLOCK_BYTES // (widest * points * 8))

    def step(self, u):
        corr = wno_mod.wno_forward(u, self.coords, self.model, self.params)
        return ph.euler_step_values(u, self.spec, corr)


def rollout(step, ic, t_steps: int):
    """T+1 states starting from `ic`, each the `step` of the one before
    (e.g. a surrogate's step); differentiable when inputs are Tensors.

    A state that turns non-finite or exceeds physics.BLOWUP_LIMIT raises
    NonFiniteState.
    """
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    states = [ic]
    u = ic
    for _ in range(t_steps):
        u = step(u)
        peak = float(np.max(np.abs(ad.value_of(u))))
        if not np.isfinite(peak) or peak > ph.BLOWUP_LIMIT:
            raise NonFiniteState(
                f"state magnitude {peak:.3e} exceeds {ph.BLOWUP_LIMIT:.0e}")
        states.append(u)
    return states


def rollout_loss(model, spec: ph.PdeSpec, batch_ics, batch_targets,
                 t_steps: int, params):
    """Mean squared rollout error over (batch, T, space) of the augmented
    step of `model` with `params` (taped leaves make it differentiable)."""
    targets = np.asarray(batch_targets, dtype=np.float64)
    if targets.shape[1] < t_steps + 1:
        raise ValueError(
            f"batch stores {targets.shape[1] - 1} steps, rollout needs {t_steps}")
    states = rollout(AugmentedSurrogate(spec, model, params).step, batch_ics,
                     t_steps)
    acc = None
    for t in range(1, t_steps + 1):
        sq = ad.total_sum(ad.square(ad.sub(states[t], targets[:, t])))
        acc = sq if acc is None else ad.add(acc, sq)
    count = targets.shape[0] * t_steps * int(np.prod(targets.shape[2:]))
    return ad.scalar_mul(acc, 1.0 / count)


def train(model, dataset, partial_spec: ph.PdeSpec, cfg: TrainConfig,
          log_sink=None) -> TrainReport:
    """Algorithm: per epoch, shuffle; per batch, unroll T steps from the
    schedule, backpropagate through the whole rollout, Adam-update.

    `log_sink`: optional callable(EpochLog), called after every epoch.
    """
    if dataset.spec.benchmark != partial_spec.benchmark:
        raise ValueError("dataset and training spec target different benchmarks")
    opt = Adam(model.params, cfg.learning_rate)
    shuffle_rng = stream(cfg.seed, "shuffle")
    n = dataset.n_samples
    losses = []
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        t_steps = schedule_lookup(cfg.unroll_schedule, epoch)
        if t_steps > dataset.n_steps:
            raise ScheduleExhausted(
                f"schedule wants T={t_steps} but dataset stores {dataset.n_steps} steps")
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        forward_s = backward_s = optimizer_s = 0.0
        norm_max = 0.0
        clipped = 0
        tape_nodes = tape_bytes = 0
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        epoch_t0 = time.perf_counter()
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = dataset.trajectories[idx]
            tape = ad.Tape()
            staged = {name: tape.leaf(value) for name, value in model.params.items()}
            where = f"epoch {epoch}, batch {start // cfg.batch_size}, T={t_steps}"
            t_forward = time.perf_counter()
            try:
                loss = rollout_loss(model, partial_spec, batch[:, 0], batch,
                                    t_steps, staged)
                loss_val = float(loss.data)
                t_backward = time.perf_counter()
                ad.backward(tape, loss)
            except (NonFiniteValue, NonFiniteState) as exc:
                raise NonFiniteLoss(f"{where}: {exc}") from exc
            t_optimizer = time.perf_counter()
            grads = {name: ad.grad_of(tape, leaf) for name, leaf in staged.items()}
            grads, norm = clip_gradients(grads, GRAD_CLIP_NORM)
            # an Adam step on it would write non-finite parameters
            if not np.isfinite(norm):
                raise NonFiniteLoss(f"{where}: gradient norm is {norm}")
            opt.step(grads)
            t_done = time.perf_counter()
            forward_s += t_backward - t_forward
            backward_s += t_optimizer - t_backward
            optimizer_s += t_done - t_optimizer
            norm_max = max(norm_max, norm)
            if norm > GRAD_CLIP_NORM:
                clipped += 1
            tape_nodes = max(tape_nodes, len(tape.nodes))
            tape_bytes = max(tape_bytes, sum(node.value.nbytes for node in tape.nodes))
            epoch_losses.append(loss_val)
            # the next batch's forward pass must not run beside this tape
            del tape, staged, loss
        mean_loss = float(np.mean(epoch_losses))
        losses.append(mean_loss)
        if log_sink is not None:
            wall_ms = (time.perf_counter() - epoch_t0) * 1e3
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
            log_sink(EpochLog(epoch, t_steps, mean_loss, wall_ms,
                              forward_s * 1e3, backward_s * 1e3,
                              optimizer_s * 1e3, norm_max, clipped, tape_nodes,
                              tape_bytes, faults))
    return TrainReport(losses, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# streamed evaluation rollouts (no tape, blow-up masked)

def rollout_statistics(surrogate, ics, steps: int, probe_index=None,
                       snapshots=(), truth=None, mse_steps: int = None):
    """Stream a masked rollout (physics.masked_steps) of `surrogate.step` in
    blocks of `surrogate.block` samples, keeping reductions instead of
    trajectories; every field equals that of a whole-batch rollout.

    Full-scale predicted trajectories run to gigabytes; everything the
    evaluation pipeline needs is accumulated per step:

      max_response  running per-sample max of |u|, IC included
      probe         (steps, B) channel-0 values at `probe_index`, a spatial
                    index such as uq.nearest_grid_index returns, when given
      snapshots     {t: state copy} for the requested step indices
      mse           mean squared error against `truth` over
                    min(steps, mse_steps) steps (0.0 without `truth`)
      diverged      per-sample blow-up flags (frozen at last finite state)
      diverged_at   per-sample step at which the sample was first flagged
                    (0 for a non-finite IC), -1 for samples still alive
    """
    rolled = ph.masked_steps(surrogate.step, ics, steps, surrogate.block)
    _, u, alive = next(rolled)
    n = u.shape[0]
    flat = u.reshape(n, -1)
    max_response = np.max(np.abs(flat), axis=1)
    diverged_at = np.where(alive, -1, 0)
    probe = np.zeros((steps, n)) if probe_index is not None else None
    at = (slice(None), 0) + tuple(probe_index or ())  # channel 0 at the probe
    snaps = {}
    sse = 0.0
    count = 0
    limit = steps if mse_steps is None else min(steps, mse_steps)
    for t, u, alive in rolled:
        flat = u.reshape(n, -1)
        max_response = np.maximum(max_response, np.max(np.abs(flat), axis=1))
        diverged_at[~alive & (diverged_at < 0)] = t
        if probe is not None:
            probe[t - 1] = u[at]
        if t in snapshots:
            snaps[t] = u.copy()
        if truth is not None and t <= limit:
            diff = u - truth[:, t]
            sse += float(np.sum(diff * diff))
            count += diff.size
    return {
        "max_response": max_response,
        "probe": probe,
        "snapshots": snaps,
        "mse": sse / count if count else 0.0,
        "diverged": ~alive,
        "diverged_at": diverged_at,
    }
