"""End-to-end trainer: progressively unrolled rollout loss through the
differentiable stepper, optimized with Adam.

Rollouts always feed predictions forward (no teacher forcing): the state at
step t+1 is euler_step(state_t, spec, wno_forward(state_t)), and gradients
flow back through every step of the unroll.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import physics as ph
from . import wno as wno_mod
from .errors import NonFiniteLoss, NonFiniteState, NonFiniteValue, ScheduleExhausted
from .rng import stream


def default_schedule(t_start: int = 10, hold_epochs: int = 100,
                     t_max: int = 50, reach_epoch: int = 400) -> tuple:
    """(epoch, T) pairs: hold t_start, grow linearly to t_max, then hold."""
    pairs = [(0, t_start)]
    span = max(reach_epoch - hold_epochs, 1)
    for e in range(hold_epochs, reach_epoch):
        t = t_start + round((t_max - t_start) * (e - hold_epochs + 1) / span)
        if t != pairs[-1][1]:
            pairs.append((e, int(t)))
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
    epochs: int = 500
    unroll_schedule: tuple = field(default_factory=default_schedule)
    batch_size: int = 8
    learning_rate: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    checkpoint_every: int = 0
    grad_clip_norm: float = 10.0  # None disables clipping

    def __post_init__(self):
        sched = tuple((int(e), int(t)) for e, t in self.unroll_schedule)
        object.__setattr__(self, "unroll_schedule", sched)
        for (e0, t0), (e1, t1) in zip(sched, sched[1:]):
            if e1 <= e0 or t1 < t0:
                raise ValueError("unroll schedule must be monotone in both coordinates")


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


@dataclass
class TrainReport:
    losses: list
    schedule_trace: list  # (epoch, T) actually used
    wall_time_s: float
    model: object


class Adam:
    """Standard Adam with bias correction over a name -> array parameter dict."""

    def __init__(self, params: dict, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1 ** self.t)
            v_hat = self.v[name] / (1.0 - b2 ** self.t)
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(grads: dict, max_norm) -> tuple:
    """(grads scaled to a global norm of at most `max_norm`, the global norm
    before clipping); max_norm None leaves the gradients as they are."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if max_norm is None or total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}, total


# ---------------------------------------------------------------------------
# rollouts

def rollout(model, spec: ph.PdeSpec, ic, t_steps: int, params=None,
            grid=None, correction_fn=None):
    """T+1 states starting from `ic`; differentiable when inputs are Tensors.

    `correction_fn` overrides the model (e.g. to inject an oracle correction);
    pass model=None with correction_fn=None for a pure known-physics rollout.
    """
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    if grid is None:
        grid = spec.grid()
    if correction_fn is None and model is not None:
        def correction_fn(state):
            return wno_mod.wno_forward(state, grid, model, params)
    states = [ic]
    u = ic
    for _ in range(t_steps):
        corr = correction_fn(u) if correction_fn is not None else None
        u = ph.euler_step_values(u, spec, corr)
        states.append(u)
    return states


def rollout_loss(model, spec: ph.PdeSpec, batch_ics, batch_targets,
                 t_steps: int, params=None, grid=None):
    """Mean squared rollout error over (batch, T, space)."""
    targets = np.asarray(batch_targets, dtype=np.float64)
    if targets.shape[1] < t_steps + 1:
        raise ValueError(
            f"batch stores {targets.shape[1] - 1} steps, rollout needs {t_steps}")
    states = rollout(model, spec, batch_ics, t_steps, params=params, grid=grid)
    acc = None
    for t in range(1, t_steps + 1):
        sq = ad.total_sum(ad.square(ad.sub(states[t], targets[:, t])))
        acc = sq if acc is None else ad.add(acc, sq)
    count = targets.shape[0] * t_steps * int(np.prod(targets.shape[2:]))
    return ad.scalar_mul(acc, 1.0 / count)


def train(model, dataset, partial_spec: ph.PdeSpec, cfg: TrainConfig,
          log_sink=None, checkpoint_fn=None) -> TrainReport:
    """Algorithm: per epoch, shuffle; per batch, unroll T steps from the
    schedule, backpropagate through the whole rollout, Adam-update.

    `log_sink`: optional callable(EpochLog), called after every epoch.
    `checkpoint_fn`: optional callable(epoch, model) honoring checkpoint_every.
    """
    if dataset.spec.benchmark != partial_spec.benchmark:
        raise ValueError("dataset and training spec target different benchmarks")
    grid = partial_spec.grid()
    opt = Adam(model.params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    shuffle_rng = stream(cfg.seed, "shuffle")
    n = dataset.n_samples
    losses = []
    trace = []
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
        tape_nodes = 0
        epoch_t0 = time.perf_counter()
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = dataset.trajectories[idx]
            tape = ad.Tape()
            staged = {name: tape.leaf(value) for name, value in model.params.items()}
            t_forward = time.perf_counter()
            try:
                loss = rollout_loss(model, partial_spec, batch[:, 0], batch,
                                    t_steps, params=staged, grid=grid)
                loss_val = float(loss.data)
                t_backward = time.perf_counter()
                ad.backward(tape, loss)
            except (NonFiniteValue, NonFiniteState) as exc:
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch {start // cfg.batch_size}, "
                    f"T={t_steps}: {exc}") from exc
            t_optimizer = time.perf_counter()
            grads = {name: ad.grad_of(tape, leaf) for name, leaf in staged.items()}
            grads, norm = clip_gradients(grads, cfg.grad_clip_norm)
            opt.step(grads)
            t_done = time.perf_counter()
            forward_s += t_backward - t_forward
            backward_s += t_optimizer - t_backward
            optimizer_s += t_done - t_optimizer
            norm_max = max(norm_max, norm)
            if cfg.grad_clip_norm is not None and norm > cfg.grad_clip_norm:
                clipped += 1
            tape_nodes = max(tape_nodes, len(tape.nodes))
            epoch_losses.append(loss_val)
        mean_loss = float(np.mean(epoch_losses))
        losses.append(mean_loss)
        trace.append((epoch, t_steps))
        if log_sink is not None:
            wall_ms = (time.perf_counter() - epoch_t0) * 1e3
            log_sink(EpochLog(epoch, t_steps, mean_loss, wall_ms,
                              forward_s * 1e3, backward_s * 1e3,
                              optimizer_s * 1e3, norm_max, clipped, tape_nodes))
        if checkpoint_fn is not None and cfg.checkpoint_every > 0 \
                and (epoch + 1) % cfg.checkpoint_every == 0:
            checkpoint_fn(epoch, model)
    return TrainReport(losses, trace, time.perf_counter() - t0, model)


# ---------------------------------------------------------------------------
# evaluation-time surrogates (no tape, batched, blow-up masked)

def rollout_statistics(surrogate, ics, steps: int, probe_index=None,
                       snapshots=(), truth=None, mse_steps: int = None,
                       magnitude: bool = True):
    """Stream a masked rollout (physics.masked_steps) of `surrogate.step`,
    keeping reductions instead of trajectories.

    Full-scale predicted trajectories run to gigabytes; everything the
    evaluation pipeline needs is accumulated per step:

      max_response  running per-sample max of |u| (or signed u), IC included
      probe         (steps, B) channel-0 values at `probe_index` when given
      snapshots     {t: state copy} for the requested step indices
      sse / count   squared error against `truth` over min(steps, mse_steps)
      diverged      per-sample blow-up flags (frozen at last finite state)
      diverged_at   per-sample step at which the sample was first flagged
                    (0 for a non-finite IC), -1 for samples still alive
      final         the state after the last step
    """
    rolled = ph.masked_steps(surrogate.step, ics, steps)
    _, u, alive = next(rolled)
    n = u.shape[0]
    flat = u.reshape(n, -1)
    max_response = np.max(np.abs(flat) if magnitude else flat, axis=1)
    diverged_at = np.where(alive, -1, 0)
    probe = np.zeros((steps, n)) if probe_index is not None else None
    snaps = {}
    sse = 0.0
    count = 0
    limit = steps if mse_steps is None else min(steps, mse_steps)
    for t, u, alive in rolled:
        flat = u.reshape(n, -1)
        response = np.abs(flat) if magnitude else flat
        max_response = np.maximum(max_response, np.max(response, axis=1))
        diverged_at[~alive & (diverged_at < 0)] = t
        if probe is not None:
            if isinstance(probe_index, tuple):
                probe[t - 1] = u[:, 0, probe_index[0], probe_index[1]]
            else:
                probe[t - 1] = u[:, 0, probe_index]
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
        "sse": sse,
        "count": count,
        "mse": sse / count if count else 0.0,
        "diverged": ~alive,
        "diverged_at": diverged_at,
        "final": u,
    }


class PhysicsSurrogate:
    """Rolls the bare right-hand side of `spec` (partial or full physics)."""

    def __init__(self, spec: ph.PdeSpec):
        self.spec = spec

    def step(self, u):
        return ph.euler_step_values(u, self.spec, check_blowup=False)


# Bytes of one widest WNO activation per sample block: about half of a
# 2 MiB L2 cache, so each block's activations stay in cache from one layer
# to the next instead of streaming a whole batch through memory.
_BLOCK_BYTES = 1 << 20


class AugmentedSurrogate:
    """Rolls spec physics plus the model's learned correction.

    The correction is evaluated in blocks of samples (at least one) whose
    widest activation, max(width, fc1_dim) channels over the grid, fits in
    _BLOCK_BYTES; every WNO operation acts on each sample alone, so the
    blocked correction equals the whole-batch one bit for bit.
    """

    def __init__(self, spec: ph.PdeSpec, model):
        self.spec = spec
        self.model = model
        self.grid = spec.grid()
        widest = max(model.config.width, model.config.fc1_dim)
        points = int(np.prod(spec.spatial_shape()))
        self.block = max(1, _BLOCK_BYTES // (widest * points * 8))

    def step(self, u):
        corr = np.concatenate([
            wno_mod.wno_forward(u[i:i + self.block], self.grid, self.model)
            for i in range(0, len(u), self.block)])
        return ph.euler_step_values(u, self.spec, corr, check_blowup=False)
