"""Monte Carlo reliability analysis over Gaussian-random-field initial
conditions: covariance kernels, Cholesky sampling, limit-state margins and
failure-probability estimation.

The surrogate handed to :func:`estimate_reliability` only needs a
``step(u)`` method mapping a batch of states (B, C) + spatial to the next
batch; it is rolled by :func:`dpawno.training.rollout_statistics`, which
freezes and flags diverging samples.  See :mod:`dpawno.training` for the
provided implementations.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotPositiveDefinite
from .rng import stream
from .training import rollout_statistics

KERNELS = ("exp_sine_squared", "rbf")
_MAX_JITTER = 1e-4


@dataclass(frozen=True)
class GrfSpec:
    """Zero-mean Gaussian random field over the solver grid.

    exp_sine_squared:  k(x, x') = alpha * exp(-(2/l^2) sin^2(pi ||x-x'|| / p))
    rbf:               k(x, x') = alpha * exp(-||x-x'||^2 / (2 l^2))
    """

    kernel: str = "exp_sine_squared"
    alpha: float = 4.0
    length_scale: float = 0.5
    periodicity: float = 1.0
    jitter: float = 1e-8

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown GRF kernel {self.kernel!r}; choose from {KERNELS}")
        if self.alpha <= 0 or self.length_scale <= 0 or self.periodicity <= 0:
            raise ValueError("alpha, length_scale and periodicity must be positive")


# Bytes of one row block of the covariance under construction: the block
# and its separation temporary stay in a 2 MiB L2 cache through the whole
# elementwise sequence.
_BLOCK_BYTES = 2 << 20


def grf_covariance(spec: GrfSpec, points) -> np.ndarray:
    """Dense covariance matrix with the diagonal jitter already added.

    Built block of rows by block of rows into one n x n buffer: the squared
    separations are summed per coordinate and the kernel is applied in
    place, in the order of the closed forms above, so the values equal the
    broadcast expressions bit for bit while the peak memory stays at one
    matrix plus one block.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("empty grid")
    n = len(pts)
    rows = max(1, _BLOCK_BYTES // (8 * n))
    k = np.empty((n, n))
    sep = np.empty((min(rows, n), n))
    for r0 in range(0, n, rows):
        block = k[r0:r0 + rows]
        np.subtract.outer(pts[r0:r0 + rows, 0], pts[:, 0], out=block)
        np.square(block, out=block)
        for x in pts.T[1:]:
            part = sep[:len(block)]
            np.subtract.outer(x[r0:r0 + rows], x, out=part)
            np.square(part, out=part)
            block += part
        np.sqrt(block, out=block)  # the distance ||x - x'||
        if spec.kernel == "exp_sine_squared":
            block *= np.pi
            block /= spec.periodicity
            np.sin(block, out=block)
            np.square(block, out=block)
            block *= -(2.0 / spec.length_scale ** 2)
        else:
            np.square(block, out=block)
            np.negative(block, out=block)
            block /= 2.0 * spec.length_scale ** 2
        np.exp(block, out=block)
        block *= spec.alpha
    k.flat[::n + 1] += spec.jitter
    return k


def _cholesky(spec: GrfSpec, points) -> np.ndarray:
    # each attempt jitters the base in place from its saved diagonal: a
    # jittered copy would be a third n x n matrix next to the base and factor
    base = grf_covariance(replace(spec, jitter=0.0), points)
    diag = base.diagonal().copy()
    jitter = spec.jitter
    while jitter <= _MAX_JITTER:
        base.flat[::len(base) + 1] = diag + jitter
        try:
            return np.linalg.cholesky(base)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NotPositiveDefinite(
        f"covariance not positive definite even with jitter {_MAX_JITTER:g}")


def _factors(spec: GrfSpec, axes) -> list:
    """Cholesky factors, outermost grid axis first, whose Kronecker product
    factors the covariance over the tensor grid `axes` (x first).

    A kernel that separates over the axes (any kernel in 1D, rbf in any
    dimension) gets one factor per axis: the x factor is the plain 1D one,
    and every other axis uses the unit-variance kernel with jitter
    jitter/alpha, so each factor carries the same relative jitter.  A
    kernel that does not separate gets one dense factor over every grid
    point, in meshgrid order.
    """
    if len(axes) == 1 or spec.kernel == "rbf":
        unit = replace(spec, alpha=1.0, jitter=spec.jitter / spec.alpha)
        return [_cholesky(unit, axis) for axis in reversed(axes[1:])] \
            + [_cholesky(spec, axes[0])]
    points = np.stack(np.meshgrid(*axes)).reshape(len(axes), -1).T
    return [_cholesky(spec, points)]


def sample_grf(spec: GrfSpec, axes, count: int, seed: int,
               stream_index: int = 0) -> np.ndarray:
    """`count` zero-mean draws over the tensor grid `axes` (x first, as
    PdeSpec.grid() gives them), one row per draw in meshgrid order."""
    factors = _factors(spec, axes)
    rng = stream(seed, "grf", stream_index)
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
    """Failure when min over time of (threshold - max-response) goes negative.

    The response functional is the spatial maximum of |u| (of signed u when
    use_magnitude is off); all states up to `horizon` steps are scanned,
    the initial condition included.
    """

    threshold: float
    horizon: int
    use_magnitude: bool = True

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


def estimate_reliability(surrogate, ics, ls: LimitState, seed: int,
                         diverged_as_failure: bool = True) -> ReliabilityReport:
    """Indicator-based Monte Carlo failure probability over the initial
    conditions `ics` (one sample per row, e.g. from grf_initial_conditions;
    never written to, so several surrogates can share one draw).  `seed` is
    the seed the draws came from, recorded in the report.

    Diverged surrogate trajectories count as failures by default (their
    margin is set to -inf); pass diverged_as_failure=False to exclude them
    from the failure count instead.
    """
    n = len(ics)
    if n < 1:
        raise ValueError("n must be >= 1")
    # streaming reduction: full trajectory storage for thousands of samples
    # over long horizons does not fit in memory at 2D scale
    stats = rollout_statistics(surrogate, ics, ls.horizon,
                               magnitude=ls.use_magnitude)
    diverged = stats["diverged"]
    margins = ls.threshold - stats["max_response"]
    margins[diverged] = -np.inf if diverged_as_failure else np.nan
    valid = ~np.isnan(margins)
    failures = int(np.sum(margins[valid] < 0.0))
    n_eff = int(np.sum(valid))
    p_f = failures / n_eff if n_eff else 0.0
    stderr = float(np.sqrt(p_f * (1.0 - p_f) / n_eff)) if n_eff else float("nan")
    return ReliabilityReport(
        n_samples=n,
        failures=failures,
        diverged=int(np.sum(diverged)),
        p_f=p_f,
        reliability=1.0 - p_f,
        stderr=stderr,
        seed=seed,
        margins=margins,
        p_f_interval=wilson_interval(failures, n_eff),
        diverged_at=[(int(i), int(stats["diverged_at"][i]))
                     for i in np.flatnonzero(diverged)],
    )


def grf_initial_conditions(grf_spec: GrfSpec, spec, n: int, seed: int,
                           stream_index: int = 0) -> np.ndarray:
    """GRF draws shaped as solver states (n,) + spec.state_shape(); every
    channel holds the same field."""
    draws = sample_grf(grf_spec, spec.grid(), n, seed, stream_index)
    fields = draws.reshape((n, 1) + spec.spatial_shape())
    return np.broadcast_to(fields, (n,) + spec.state_shape()).copy()
