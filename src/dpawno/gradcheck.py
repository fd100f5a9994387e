"""Reduced-size gradient fidelity harness.

For a benchmark configuration, builds a small instance (16 grid points per
axis, width 4, two wavelet levels, T=3 unroll), then compares the reverse-mode
gradient of the rollout loss against central finite differences for every
parameter block and for the initial condition.

Per-block disagreement is reported as ||ad - fd||_inf / (||fd||_inf + 1e-12);
a per-coordinate ratio would be dominated by finite-difference roundoff on
coordinates whose true gradient is near zero.
"""

from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import physics as ph
from . import training as tr
from . import wno as wno_mod
from .rng import stream

REDUCED_NX = 16
REDUCED_WIDTH = 4
REDUCED_LEVELS = 2
REDUCED_T = 3


def reduced_spec(spec: ph.PdeSpec) -> ph.PdeSpec:
    return replace(spec, nx=REDUCED_NX, ny=REDUCED_NX if spec.ny else None)


def reduced_wno_config(spec: ph.PdeSpec) -> wno_mod.WnoConfig:
    return wno_mod.WnoConfig(
        width=REDUCED_WIDTH,
        layers=2,
        levels=REDUCED_LEVELS,
        fc1_dim=8,
        **wno_mod.io_fields(spec.state_shape()),
    )


def _randomized_model(config, seed):
    # the zero-initialized output layer would zero most gradients; a generic
    # point is what the comparison needs
    model = wno_mod.WnoModel.initialize(config, seed)
    rng = stream(seed, "init", 1)
    for name, value in model.params.items():
        if name.startswith("downlift2.") or name.endswith(".bias"):
            model.params[name] = 0.3 * rng.standard_normal(value.shape)
    return model


def _reduced_ic(spec: ph.PdeSpec, seed: int) -> np.ndarray:
    rng = stream(seed, "data", 7)
    if spec.is_2d:
        # smooth positive field; keeps upwind masks away from sign flips
        x, y = spec.grid()
        base = 2.0 + np.sin(np.pi * x)[None, :] * np.sin(np.pi * y)[:, None]
        field = base + 0.3 * rng.standard_normal(base.shape)
        return np.broadcast_to(field, (1, 2) + base.shape).copy()
    (x,) = spec.grid()
    u = 2.0 * np.sin(2 * np.pi * x) + 0.3 * rng.standard_normal(len(x))
    if spec.bc == "dirichlet":
        u[0] = u[-1] = spec.bc_value
    return u[None, None, :]


def gradient_fidelity(partial_spec: ph.PdeSpec, seed: int = 0,
                      t_steps: int = REDUCED_T) -> dict:
    """Per-block relative gradient error for the reduced instance."""
    spec = reduced_spec(partial_spec)
    full = spec.with_terms(spec.full_terms)
    cfg = reduced_wno_config(spec)
    model = _randomized_model(cfg, seed)
    ic = _reduced_ic(spec, seed)

    # targets from the full physics so residuals (and gradients) are generic
    states = tr.rollout(tr.PhysicsSurrogate(full).step, ic, t_steps)
    targets = np.stack([ad.value_of(s) for s in states], axis=1)
    targets += 0.05 * stream(seed, "data", 8).standard_normal(targets.shape)

    def loss_with(params, ic_values):
        return tr.rollout_loss(model, spec, ic_values, targets, t_steps,
                               params=params)

    # reverse-mode gradients for everything in one pass
    tape = ad.Tape()
    staged = {name: tape.leaf(value) for name, value in model.params.items()}
    ic_leaf = tape.leaf(ic)
    loss = loss_with(staged, ic_leaf)
    ad.backward(tape, loss)
    auto = {name: ad.grad_of(tape, leaf) for name, leaf in staged.items()}
    auto["<initial condition>"] = ad.grad_of(tape, ic_leaf)

    def loss_value(params, ic_values):
        return float(ad.value_of(loss_with(params, ic_values)))

    errors = {}
    blocks = dict(model.params)
    blocks["<initial condition>"] = ic
    for name, block in blocks.items():
        if name == "<initial condition>":
            def fn(values):
                return loss_value(model.params, values)
        else:
            def fn(values, name=name):
                return loss_value({**model.params, name: values}, ic)
        step = 1e-5 * max(1.0, float(np.max(np.abs(block))))
        fd = ad.central_differences(fn, block, step)
        errors[name] = float(np.max(np.abs(auto[name] - fd))
                             / (np.max(np.abs(fd)) + 1e-12))
    return errors
