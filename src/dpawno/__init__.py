"""Differentiable PDE stepping with a learnable wavelet-operator correction.

A finite-difference explicit-Euler solver for a family of benchmark PDEs is
augmented, inside the governing equation, by a wavelet neural operator that
learns whatever physics the solver's right-hand side is missing.  The
augmented model is trained end to end through the solver by progressively
unrolled rollouts, then used for uncertainty propagation and Monte Carlo
reliability analysis over random initial conditions.

Module map:

    autodiff     reverse-mode tape over dense float64 grid tensors
    wavelet      multilevel db6 transforms (1D / separable 2D)
    wno          the wavelet neural operator network and its checkpoints
    physics      benchmark right-hand sides, term masks, grid layout,
                 Euler stepper
    datagen      initial-condition families, ground truth, dataset files
    training     Adam, progressive-unroll trainer, evaluation surrogates
    uq           KDE response densities, Hellinger distance
    reliability  Gaussian random fields, limit states, failure probability
    config/cli   experiment presets and the command-line runner
"""

from .physics import PdeSpec
from .reliability import GrfSpec, LimitState, ReliabilityReport
from .training import TrainConfig, TrainReport
from .wno import WnoConfig, WnoModel

__version__ = "0.1.0"

__all__ = [
    "GrfSpec",
    "LimitState",
    "PdeSpec",
    "ReliabilityReport",
    "TrainConfig",
    "TrainReport",
    "WnoConfig",
    "WnoModel",
    "__version__",
]
