"""The benchmark's tracer wraps public names of the package by attribute
lookup; this keeps a refactor from silently breaking the traced run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracer import Tracer
tracer = Tracer()
tracer.install()

# the WNO reaches level_matmul through dpawno.wavelet, which the tracer does
# not list: a `from .autodiff import level_matmul` there would escape it
import numpy as np
from dpawno import wno
axis = np.linspace(0, 1, 16)
for dims, shape, coords in [
        (1, (1, 1, 16), axis[None]),
        (2, (1, 2, 16, 16), np.stack(np.meshgrid(axis, axis)))]:
    before = tracer.calls["autodiff.level_matmul"]
    cfg = wno.WnoConfig(width=2, layers=1, levels=2,
                        fc1_dim=2, in_channels=shape[1] + dims,
                        out_channels=shape[1], spatial_dims=dims)
    model = wno.WnoModel.initialize(cfg, 0)
    wno.wno_forward(np.zeros(shape), coords, model, model.params)
    assert tracer.calls["autodiff.level_matmul"] > before, dims

# the 2D GRF draw reaches sample_grf through the module, so the traced
# reliability.sample_grf.s measures it
from dpawno import physics as ph
from dpawno import reliability as rel
before = tracer.calls["reliability.sample_grf"]
spec = ph.PdeSpec("burgers2d", dict(nu=0.01), (), "periodic", domain=(0.0, 2.0),
                  nx=8, ny=6, dt=1e-4)
rel.grf_initial_conditions(rel.GrfSpec("rbf", alpha=4.0, length_scale=0.5),
                           spec, 2, 0)
assert tracer.calls["reliability.sample_grf"] == before + 1

# the CLI saves and loads checkpoints through the module, so the traced
# wno.checkpoint_save.s and wno.checkpoint_load.s measure them
import os
import tempfile
from dpawno import cli
with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["train", "--preset", "burgers1d-missing-diffusion-desk",
                     "--data", tmp, "--out", tmp, "--mode", "physics-only"]) == 0
    assert tracer.calls["wno.checkpoint_save"] == 1
    wno.load_checkpoint(os.path.join(tmp, "model.dpaw"))
    assert tracer.calls["wno.checkpoint_load"] == 1
"""


def test_tracer_installs_over_every_wrapped_name():
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
