"""Monte Carlo reliability analysis over Gaussian-random-field initial
conditions: covariance kernels, Cholesky sampling with one factor per grid
axis, limit-state margins and failure-probability estimation.

A sample fails when the spatial maximum of |u| exceeds the threshold at
any step up to the horizon, or when its trajectory diverges.

The surrogate handed to :func:`estimate_reliability` only needs a
``step(u)`` method mapping a batch of states (B, C) + spatial to the next
batch and a ``block``, the most samples one step call takes; it is rolled by
:func:`dpawno.training.rollout_statistics`, which freezes and flags
diverging samples.  See :mod:`dpawno.training` for the provided
implementations.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotPositiveDefinite
from .rng import stream
from .training import rollout_statistics

KERNELS = ("exp_sine_squared", "rbf")
# diagonal jitter of the first Cholesky attempt on the x axis; each retry
# multiplies it by ten, up to _MAX_JITTER
JITTER = 1e-8
_MAX_JITTER = 1e-4


@dataclass(frozen=True)
class GrfSpec:
    """Zero-mean Gaussian random field over the solver grid.

    exp_sine_squared:  k(x, x') = alpha * exp(-(2/l^2) sin^2(pi ||x-x'|| / p))
    rbf:               k(x, x') = alpha * exp(-||x-x'||^2 / (2 l^2))

    Draws factor the covariance one grid axis at a time, so over a 2D grid
    the kernel must be rbf, the one that separates over the axes.

    alpha lies in [JITTER/_MAX_JITTER, _MAX_JITTER/eps], about [1e-4, 4.5e11]:
    below it the x factor's jitter swamps the kernel and the other axes'
    jitter, JITTER/alpha, starts above _MAX_JITTER; above it even
    _MAX_JITTER is lost in the rounding of the kernel's diagonal.
    """

    kernel: str
    alpha: float
    length_scale: float
    periodicity: float = 1.0

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown GRF kernel {self.kernel!r}; choose from {KERNELS}")
        for key in ("alpha", "length_scale", "periodicity"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"[grf] {key} must be finite and > 0, got {value}")
        lo, hi = JITTER / _MAX_JITTER, _MAX_JITTER / np.finfo(np.float64).eps
        if not lo <= self.alpha <= hi:
            raise ValueError(f"[grf] alpha must lie in [{lo:.3g}, {hi:.3g}], "
                             f"got {self.alpha}")
        # grf_covariance divides by length_scale ** 2, and ** raises on overflow
        square = self.length_scale * self.length_scale
        if not np.finfo(np.float64).tiny <= square < np.inf:
            raise ValueError(f"[grf] length_scale {self.length_scale} is out of "
                             "range: its square is not a normal float")


def grf_covariance(spec: GrfSpec, axis, jitter: float) -> np.ndarray:
    """Covariance matrix over the points of one grid axis, with `jitter`
    already added to the diagonal; the kernel is applied in the order of
    the closed forms above."""
    x = np.asarray(axis, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty grid")
    dist = np.sqrt(np.square(np.subtract.outer(x, x)))  # ||x - x'||
    if spec.kernel == "exp_sine_squared":
        k = spec.alpha * np.exp(np.square(np.sin(dist * np.pi / spec.periodicity))
                                * -(2.0 / spec.length_scale ** 2))
    else:
        k = spec.alpha * np.exp(-np.square(dist) / (2.0 * spec.length_scale ** 2))
    return k + jitter * np.eye(len(x))


def _cholesky(spec: GrfSpec, axis, jitter: float) -> np.ndarray:
    while jitter <= _MAX_JITTER:
        try:
            return np.linalg.cholesky(grf_covariance(spec, axis, jitter))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NotPositiveDefinite(
        f"covariance not positive definite even with jitter {_MAX_JITTER:g}")


def _factors(spec: GrfSpec, axes) -> list:
    """Cholesky factors, outermost grid axis first, whose Kronecker product
    factors the covariance over the tensor grid `axes` (x first).

    The x factor is the plain 1D one, starting at JITTER, and every other
    axis uses the unit-variance kernel starting at JITTER/alpha, so each
    factor carries the same relative jitter.  Only rbf separates over the
    axes: the exp_sine_squared kernel of the Euclidean distance does not,
    so over more than one axis it is a ValueError, raised before any
    factorization.  So is an exp_sine_squared period shorter than twice
    the grid spacing (the Nyquist limit): it aliases on the grid, and
    dist * pi / p keeps no accurate digit, so the covariance can be
    indefinite.
    """
    if len(axes) > 1 and spec.kernel != "rbf":
        raise ValueError(f"the {spec.kernel} GRF kernel does not separate over "
                         f"{len(axes)} grid axes; use kernel = rbf")
    nyquist = 2.0 * np.max(np.diff(axes[0]), initial=0.0)
    if spec.kernel == "exp_sine_squared" and spec.periodicity < nyquist:
        raise ValueError(f"[grf] periodicity must be at least twice the grid "
                         f"spacing, {nyquist:.3g}, got {spec.periodicity}")
    unit = replace(spec, alpha=1.0)
    return [_cholesky(unit, axis, JITTER / spec.alpha)
            for axis in reversed(axes[1:])] + [_cholesky(spec, axes[0], JITTER)]


def sample_grf(spec: GrfSpec, axes, count: int, seed: int) -> np.ndarray:
    """`count` zero-mean draws over the tensor grid `axes` (x first, as
    PdeSpec.grid() gives them), one row per draw with x varying fastest,
    as in a flattened spatial field."""
    factors = _factors(spec, axes)
    rng = stream(seed, "grf")
    shape = tuple(len(chol) for chol in factors)
    z = rng.standard_normal((count, int(np.prod(shape))))
    # L_y Z L_x^T for the Kronecker factor L_y (x) L_x: each factor acts
    # along its own axis, the last axis as the plain z @ L.T
    u = z.reshape((count,) + shape)
    for axis, chol in enumerate(factors, 1):
        u = np.swapaxes(np.swapaxes(u, axis, -1) @ chol.T, axis, -1)
    return u.reshape(count, -1)


@dataclass(frozen=True)
class LimitState:
    """Failure when min over time of (threshold - max |u|) goes negative.

    The response functional is the spatial maximum of |u|; all states up to
    `horizon` steps are scanned, the initial condition included.
    """

    threshold: float
    horizon: int

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.horizon < 0:
            raise ValueError(f"limit-state horizon must be >= 0, got {self.horizon}")


# two-sided 95% standard normal quantile
_Z95 = 1.959963984540054


def wilson_interval(failures: int, n: int):
    """95% Wilson (1927) score interval for a binomial proportion; unlike
    the normal-approximation stderr it stays wide at 0/n and n/n.  None
    when n is 0."""
    if n < 1:
        return None
    p = failures / n
    z2n = _Z95 * _Z95 / n
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = _Z95 / (1.0 + z2n) * np.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    # the bounds are exactly 0 at 0/n and 1 at n/n; rounding would miss them
    lo = 0.0 if failures == 0 else max(0.0, float(center - half))
    hi = 1.0 if failures == n else min(1.0, float(center + half))
    return lo, hi


@dataclass
class ReliabilityReport:
    n_samples: int
    failures: int
    diverged: int
    p_f: float
    reliability: float
    stderr: float
    seed: int
    margins: np.ndarray  # per sample: threshold - max response; < 0 fails
    # sidecar-only fields (not in to_json): the 95% Wilson interval of p_f
    # and the step at which each diverged sample diverged, as (index, step)
    p_f_interval: tuple = None
    diverged_at: list = None

    def to_json(self, **extra) -> str:
        doc = {
            "n": self.n_samples,
            "failures": self.failures,
            "diverged": self.diverged,
            "p_f": self.p_f,
            "reliability": self.reliability,
            "stderr": self.stderr,
            "seed": self.seed,
        }
        doc.update(extra)
        return json.dumps(doc, sort_keys=True)


def estimate_reliability(surrogate, ics, ls: LimitState,
                         seed: int) -> ReliabilityReport:
    """Indicator-based Monte Carlo failure probability over the initial
    conditions `ics` (one sample per row, e.g. from grf_initial_conditions;
    never written to, so several surrogates can share one draw).  `seed` is
    the seed the draws came from, recorded in the report.

    A diverged surrogate trajectory counts as a failure: its margin is -inf.
    """
    n = len(ics)
    if n < 1:
        raise ValueError("n must be >= 1")
    # streaming reduction: full trajectory storage for thousands of samples
    # over long horizons does not fit in memory at 2D scale
    stats = rollout_statistics(surrogate, ics, ls.horizon)
    diverged = stats["diverged"]
    margins = ls.threshold - stats["max_response"]
    margins[diverged] = -np.inf
    failures = int(np.sum(margins < 0.0))
    p_f = failures / n
    return ReliabilityReport(
        n_samples=n,
        failures=failures,
        diverged=int(np.sum(diverged)),
        p_f=p_f,
        reliability=1.0 - p_f,
        stderr=float(np.sqrt(p_f * (1.0 - p_f) / n)),
        seed=seed,
        margins=margins,
        p_f_interval=wilson_interval(failures, n),
        diverged_at=[(int(i), int(stats["diverged_at"][i]))
                     for i in np.flatnonzero(diverged)],
    )


def grf_initial_conditions(grf_spec: GrfSpec, spec, n: int, seed: int) -> np.ndarray:
    """GRF draws shaped as solver states (n,) + spec.state_shape(); every
    channel holds the same field."""
    draws = sample_grf(grf_spec, spec.grid(), n, seed)
    fields = draws.reshape((n, 1) + spec.spatial_shape())
    return np.broadcast_to(fields, (n,) + spec.state_shape()).copy()
