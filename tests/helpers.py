"""Helpers shared by the test modules: a gradient check built from a tape
and `autodiff.central_differences`, a surrogate that replays stored
trajectories, and a re-sealer for edited container files."""

import hashlib
import struct

import numpy as np

from dpawno import autodiff as ad
from dpawno import container


def gradient_error(loss_fn, point, step: float) -> float:
    """Largest per-coordinate |ad - fd| / (|fd| + 1e-12) between the
    reverse-mode gradient of `loss_fn` (Tensor -> scalar Tensor) at `point`
    and central differences with `step`."""
    point = np.asarray(point, dtype=np.float64)
    tape = ad.Tape()
    x = tape.leaf(point)
    ad.backward(tape, loss_fn(x))
    auto = ad.grad_of(tape, x)

    def value(values):
        return float(ad.value_of(loss_fn(ad.Tape().leaf(values))))

    fd = ad.central_differences(value, point, step)
    return float(np.max(np.abs(auto - fd) / (np.abs(fd) + 1e-12)))


class Replay:
    """Surrogate whose t-th step returns state t of the stored trajectories
    (B, T+1, C) + spatial, whatever state it is handed; roll it from
    trajectories[:, 0].  Its block is the whole batch, since each step
    returns whole-batch states."""

    def __init__(self, trajectories):
        self.trajectories = np.asarray(trajectories, dtype=np.float64)
        self.block = len(self.trajectories)
        self.t = 0

    def step(self, u):
        self.t += 1
        return self.trajectories[:, self.t]


def reseal(path, edit):
    """Rewrite the container file at `path` with its JSON header replaced by
    edit(header bytes), and a fresh header length and digest: the edit
    reaches the header checks behind the checksum."""
    raw = open(path, "rb").read()
    (size,) = struct.unpack("<I", raw[8:12])
    header = edit(raw[12:12 + size])
    body = (raw[:8] + struct.pack("<I", len(header)) + header
            + raw[12 + size:-container.DIGEST_BYTES])
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest()[:container.DIGEST_BYTES])
