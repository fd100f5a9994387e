"""Uncertainty-propagation diagnostics: probe-point ensembles, Gaussian KDE
response densities and the Hellinger distance."""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSamples, ShapeMismatch


@dataclass
class Density:
    """Probability mass on a uniform support grid."""

    support: np.ndarray
    mass: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.float64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.support.shape != self.mass.shape:
            raise ShapeMismatch("support and mass must align")


def silverman_bandwidth(samples: np.ndarray) -> float:
    n = len(samples)
    h = 1.06 * np.std(samples, ddof=1) * n ** (-0.2)
    # floor keeps the KDE nonsingular for near-degenerate draws
    return max(h, 1e-6 * (np.max(samples) - np.min(samples)))


def estimate_pdf(samples, grid_points: int = 512) -> Density:
    """Gaussian KDE with Silverman bandwidth on [min-3h, max+3h]."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if len(samples) < 2 or np.max(samples) == np.min(samples):
        raise DegenerateSamples(
            "need at least two distinct samples for a density estimate")
    h = silverman_bandwidth(samples)
    support = np.linspace(np.min(samples) - 3 * h, np.max(samples) + 3 * h,
                          grid_points)
    z = (support[:, None] - samples[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(samples) * h * np.sqrt(2 * np.pi))
    mass = density * (support[1] - support[0])
    return Density(support, mass / mass.sum(), h)


def rebin(density: Density, lo: float, hi: float, bins: int) -> Density:
    """Re-express the mass on a new uniform grid (zero outside the support)."""
    new_support = np.linspace(lo, hi, bins)
    width_old = density.support[1] - density.support[0]
    pdf = density.mass / width_old
    new_pdf = np.interp(new_support, density.support, pdf, left=0.0, right=0.0)
    total = new_pdf.sum()
    if total <= 0.0:
        mass = np.zeros(bins)
    else:
        mass = new_pdf / total
    return Density(new_support, mass, density.bandwidth)


def on_shared_support(densities) -> list:
    """The densities re-binned onto one support: their union span (min of
    the support starts to max of the support ends) with the largest bin
    count among them."""
    lo = min(d.support[0] for d in densities)
    hi = max(d.support[-1] for d in densities)
    bins = max(len(d.support) for d in densities)
    return [rebin(d, lo, hi, bins) for d in densities]


def hellinger(p: Density, q: Density) -> float:
    """(1/sqrt 2) L2 distance between square roots of the masses, after
    re-binning both densities to a shared support (on_shared_support)."""
    pm, qm = (d.mass for d in on_shared_support((p, q)))
    return float(np.linalg.norm(np.sqrt(pm) - np.sqrt(qm)) / np.sqrt(2.0))


def nearest_grid_index(grid, x_star):
    """Snap a probe location to the grid; returns (index, coordinate).

    `grid` is physics.PdeSpec.grid(), (x,) or (x, y), and `x_star` a
    location in the same order.  The index is in spatial order, (ix,) or
    (iy, ix), and the coordinate is the snapped location, (x,) or (x, y)."""
    if len(grid) != len(x_star):
        raise ShapeMismatch(
            f"probe location {tuple(x_star)} against a {len(grid)}-axis grid")
    picks = [int(np.argmin(np.abs(np.asarray(axis) - s)))
             for axis, s in zip(grid, x_star)]
    snapped = tuple(float(axis[i]) for axis, i in zip(grid, picks))
    return tuple(reversed(picks)), snapped


def probe_trajectories(trajectories: np.ndarray, index, t_star: int) -> np.ndarray:
    """u(x*, t*) of channel 0 per sample from stored trajectories
    (B, T+1, C) + spatial, at the spatial index `index`."""
    if t_star >= trajectories.shape[1]:
        raise ValueError(
            f"probe step {t_star} beyond stored {trajectories.shape[1] - 1}")
    return trajectories[(slice(None), t_star, 0) + tuple(index)]


def _density_or_none(samples):
    try:
        return estimate_pdf(samples, 256)
    except DegenerateSamples:
        return None


def step_densities(probe) -> list:
    """The 256-point response density of each step of a (steps, samples)
    probe, None for a step with fewer than two distinct samples."""
    return [_density_or_none(row) for row in np.asarray(probe, dtype=np.float64)]


def mean_hellinger_from_samples(pred_probe, true_probe, true_densities) -> float:
    """Arithmetic mean over steps of the Hellinger distance between the
    predicted and true response densities, each estimated on 256 points;
    probes are (steps, samples) and `true_densities` is
    step_densities(true_probe), so one truth serves many predictions."""
    pred_probe = np.asarray(pred_probe, dtype=np.float64)
    true_probe = np.asarray(true_probe, dtype=np.float64)
    if pred_probe.shape != true_probe.shape:
        raise ShapeMismatch(f"{pred_probe.shape} vs {true_probe.shape}")
    values = []
    for p, q, dq in zip(pred_probe, true_probe, true_densities):
        dp = None if dq is None else _density_or_none(p)
        if dp is None:
            # an ensemble still sitting on a single value (early steps)
            values.append(0.0 if np.array_equal(p, q) else 1.0)
        else:
            values.append(hellinger(dp, dq))
    return float(np.mean(values))
