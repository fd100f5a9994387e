"""Finite-difference right-hand sides and the explicit-Euler augmented stepper.

Four benchmark problems are supported, each with a term mask selecting which
parts of the full right-hand side the "known physics" retains:

  burgers1d   u_t = -u u_x + nu u_xx                 terms: advection, diffusion
  nagumo      u_t = eps u_xx + u(1-u)(u-alpha)       terms: diffusion, reaction
  allen_cahn  u_t = gamma u_xx + 5u - 5u^3           terms: diffusion, reaction
  burgers2d   coupled (u1, u2), each component:
              u_t = -(u1 u_x + u2 u_y) + nu (u_xx + u_yy)
              terms: advection, diffusion_x (the u1 equation's diffusion),
              diffusion_y (the u2 equation's diffusion)

All state arrays are (..., C, X) or (..., C, Y, X) with an optional leading
batch axis; C is 1 except for burgers2d (C=2).  Diffusion uses the 3-point
stencil; advection is central by default with an upwind option for
advection-dominated settings.  Stencils wrap around; for Dirichlet problems
the wrapped values only ever enter boundary rows that apply_bc_values
overwrites.

Term arrays are accumulated in the benchmark's canonical term order, and the
correction enters as one extra addition; this makes "partial rhs + missing
rhs" reproduce the full rhs bit-for-bit, which the oracle tests rely on.
"""

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch, UnsupportedTermForBenchmark

BLOWUP_LIMIT = 1.0e8


def _finite_peaks(states: np.ndarray) -> np.ndarray:
    """Per-sample flag: every entry finite and no |u| above BLOWUP_LIMIT."""
    flat = states.reshape(states.shape[0], -1)
    with np.errstate(invalid="ignore"):
        peaks = np.max(np.abs(flat), axis=1)
    return np.isfinite(peaks) & (peaks <= BLOWUP_LIMIT)


def masked_steps(step, ics, steps: int, block: int):
    """Untaped batched rollout: yields (0, ics, alive), then (t, u_t, alive)
    after each of `steps` steps.

    Each step calls `step` on consecutive blocks of at most `block` samples;
    every physics and WNO operation acts on each sample alone, so the
    blocked step equals one whole-batch call bit for bit.
    A sample whose state turns non-finite or exceeds BLOWUP_LIMIT is frozen
    at its last finite state and stays flagged dead (alive False) for the
    rest of the rollout; the other samples keep stepping.
    """
    u = np.asarray(ics, dtype=np.float64)
    alive = _finite_peaks(u)
    sel = (slice(None),) + (None,) * (u.ndim - 1)
    yield 0, u, alive
    for t in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            parts = [step(u[i:i + block]) for i in range(0, len(u), block)]
        nxt = parts[0] if len(parts) == 1 else np.concatenate(parts)
        alive = _finite_peaks(nxt) & alive  # once dead, stays dead
        u = np.where(alive[sel], nxt, u)
        yield t, u, alive


# canonical term order per benchmark (also the full term set)
BENCHMARK_TERMS = {
    "burgers1d": ("advection", "diffusion"),
    "nagumo": ("diffusion", "reaction"),
    "allen_cahn": ("diffusion", "reaction"),
    "burgers2d": ("advection", "diffusion_x", "diffusion_y"),
}

# the physics constants each benchmark reads, as PdeSpec.params keys; the
# first is its diffusivity, which must be >= 0, and Nagumo's alpha takes
# either sign
BENCHMARK_PARAMS = {"burgers1d": ("nu",), "nagumo": ("epsilon", "alpha"),
                    "allen_cahn": ("gamma",), "burgers2d": ("nu",)}

# benchmarks on an (ny, nx) grid; the others have one axis of nx points
BENCHMARKS_2D = ("burgers2d",)


@dataclass(frozen=True)
class PdeSpec:
    """One benchmark configuration: physics parameters, retained terms, grid.
    Each field but benchmark, params and terms is the [pde] key of its name."""

    benchmark: str
    params: dict
    terms: tuple
    bc: str  # "periodic" or "dirichlet"
    domain: tuple  # (lo, hi) of every axis
    nx: int
    dt: float
    bc_value: float = 0.0
    ny: int = None  # 2D only; None means nx
    advection: str = "central"  # or "upwind"

    def __post_init__(self):
        if self.benchmark not in BENCHMARK_TERMS:
            raise UnsupportedTermForBenchmark(f"unknown benchmark {self.benchmark!r}")
        if self.advection not in ("central", "upwind"):
            raise ValueError(f"unknown advection scheme {self.advection!r}")
        full = BENCHMARK_TERMS[self.benchmark]
        for t in self.terms:
            if t not in full:
                raise UnsupportedTermForBenchmark(
                    f"term {t!r} not part of benchmark {self.benchmark!r}")
        # keep canonical ordering regardless of input order
        object.__setattr__(self, "terms", tuple(t for t in full if t in self.terms))
        object.__setattr__(self, "domain", tuple(self.domain))
        if len(self.domain) != 2 or not np.all(np.isfinite(self.domain)) \
                or self.domain[0] >= self.domain[1]:
            raise ValueError(f"[pde] domain must be two finite numbers lo < hi, "
                             f"got {self.domain}")
        if self.is_2d and self.ny is None:
            object.__setattr__(self, "ny", self.nx)
        for key in ("nx", "ny") if self.is_2d else ("nx",):
            if getattr(self, key) < 2:
                raise ValueError(f"[pde] {key} must be >= 2, got {getattr(self, key)}")
        # the diffusion stencil and its CFL number divide by the spacing squared
        if not all(np.finfo(np.float64).tiny <= h * h < np.inf for h in self.spacing()):
            raise ValueError(f"[pde] domain {self.domain} is out of range: a grid "
                             f"spacing squared is not a normal float")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"[pde] dt must be finite and > 0, got {self.dt}")
        for key, value in {**self.params, "bc_value": self.bc_value}.items():
            if not np.isfinite(value):
                raise ValueError(f"[pde] {key} must be finite, got {value}")
        key = BENCHMARK_PARAMS[self.benchmark][0]
        if self.params[key] < 0:
            raise ValueError(f"[pde] {key} must be >= 0, got {self.params[key]}")
        if self.bc not in ("periodic", "dirichlet"):
            raise ValueError(f"unknown bc {self.bc!r}")
        self._cfl_check()

    @property
    def is_2d(self) -> bool:
        return self.benchmark in BENCHMARKS_2D

    @property
    def channels(self) -> int:
        return 2 if self.is_2d else 1

    @property
    def dx(self) -> float:
        span = self.domain[1] - self.domain[0]
        return span / (self.nx - 1) if self.bc == "dirichlet" else span / self.nx

    @property
    def dy(self) -> float:
        if not self.is_2d:
            raise ValueError("dy only defined for 2D benchmarks")
        span = self.domain[1] - self.domain[0]
        return span / (self.ny - 1) if self.bc == "dirichlet" else span / self.ny

    def spacing(self) -> tuple:
        """Grid steps in the order of grid(): (dx,) in 1D, (dx, dy) in 2D."""
        return (self.dx, self.dy) if self.is_2d else (self.dx,)

    @property
    def full_terms(self) -> tuple:
        return BENCHMARK_TERMS[self.benchmark]

    def with_terms(self, terms) -> "PdeSpec":
        return replace(self, terms=tuple(terms))

    def diffusivity(self) -> float:
        return self.params[BENCHMARK_PARAMS[self.benchmark][0]]

    def _cfl_check(self):
        has_diffusion = any(t.startswith("diffusion") for t in self.terms)
        if not has_diffusion:
            return
        number = sum(self.diffusivity() * self.dt / h ** 2 for h in self.spacing())
        if number > 0.5:
            warnings.warn(
                f"explicit diffusion CFL number {number:.3f} > 0.5 for "
                f"{self.benchmark}; the run may be unstable",
                RuntimeWarning,
                stacklevel=3,
            )

    def grid(self) -> tuple:
        """Axis coordinates, x first: (x,) in 1D, (x, y) in 2D."""
        lo, hi = self.domain
        return tuple(np.linspace(lo, hi, n) if self.bc == "dirichlet"
                     else lo + (hi - lo) * np.arange(n) / n
                     for n in reversed(self.spatial_shape()))

    def coordinates(self) -> np.ndarray:
        """Coordinate of every grid point, (dims,) + spatial_shape(): the x
        channel first, then y."""
        return np.stack(np.meshgrid(*self.grid()))

    def spatial_shape(self) -> tuple:
        return (self.ny, self.nx) if self.is_2d else (self.nx,)

    def state_shape(self) -> tuple:
        return (self.channels,) + self.spatial_shape()

    def boundary_mask(self):
        """Read-only boolean mask over (C,) + spatial shape, True on Dirichlet
        entries; one shared array per state shape and bc."""
        return _boundary_mask(self.state_shape(), self.bc)


@lru_cache(maxsize=None)
def _boundary_mask(shape, bc):
    mask = np.zeros(shape, dtype=bool)
    if bc == "dirichlet":
        for axis in range(1, mask.ndim):  # both ends of every spatial axis
            np.moveaxis(mask, axis, 0)[[0, -1]] = True
    mask.flags.writeable = False
    return mask


def _d1(u, dx, axis):
    c = 1.0 / (2.0 * dx)
    return ad.circ_stencil(u, [(1, c), (-1, -c)], axis)


def _d1_upwind(speed, u, dx, axis):
    # one-sided against the flow; the flow-direction mask is held constant
    # at the evaluation point, so gradients use the selected stencil
    c = 1.0 / dx
    mask = (ad.value_of(speed) > 0.0).astype(np.float64)
    backward = ad.circ_stencil(u, [(0, c), (-1, -c)], axis)
    forward = ad.circ_stencil(u, [(1, c), (0, -c)], axis)
    return ad.add(ad.mul(backward, mask), ad.mul(forward, 1.0 - mask))


def _advective_d1(speed, u, dx, axis, spec):
    if spec.advection == "upwind":
        return _d1_upwind(speed, u, dx, axis)
    return _d1(u, dx, axis)


def _d2(u, coeff, dx, axis):
    c = coeff / dx ** 2
    return ad.circ_stencil(u, [(1, c), (0, -2.0 * c), (-1, c)], axis)


def _term_burgers1d(u, spec, term):
    if term == "advection":
        return ad.scalar_mul(ad.mul(u, _advective_d1(u, u, spec.dx, -1, spec)), -1.0)
    if term == "diffusion":
        return _d2(u, spec.params["nu"], spec.dx, -1)
    raise UnsupportedTermForBenchmark(term)


def _term_nagumo(u, spec, term):
    if term == "diffusion":
        return _d2(u, spec.params["epsilon"], spec.dx, -1)
    if term == "reaction":
        alpha = spec.params["alpha"]
        return ad.mul(ad.mul(u, ad.sub(1.0, u)), ad.sub(u, alpha))
    raise UnsupportedTermForBenchmark(term)


def _term_allen_cahn(u, spec, term):
    if term == "diffusion":
        return _d2(u, spec.params["gamma"], spec.dx, -1)
    if term == "reaction":
        return ad.scalar_mul(ad.sub(u, ad.mul(ad.square(u), u)), 5.0)
    raise UnsupportedTermForBenchmark(term)


def _split_components(u):
    c_axis = ad.value_of(u).ndim - 3  # (..., C, Y, X)
    u1 = ad.slice_axis(u, c_axis, 0, 1)
    u2 = ad.slice_axis(u, c_axis, 1, 2)
    return u1, u2, c_axis


def _term_burgers2d(u, spec, term):
    nu = spec.params["nu"]
    u1, u2, c_axis = _split_components(u)
    zeros = np.zeros(ad.value_of(u1).shape)
    if term == "advection":
        adv1 = ad.add(ad.mul(u1, _advective_d1(u1, u1, spec.dx, -1, spec)),
                      ad.mul(u2, _advective_d1(u2, u1, spec.dy, -2, spec)))
        adv2 = ad.add(ad.mul(u1, _advective_d1(u1, u2, spec.dx, -1, spec)),
                      ad.mul(u2, _advective_d1(u2, u2, spec.dy, -2, spec)))
        return ad.scalar_mul(ad.concat(adv1, adv2, c_axis), -1.0)
    if term == "diffusion_x":
        lap1 = ad.add(_d2(u1, nu, spec.dx, -1), _d2(u1, nu, spec.dy, -2))
        return ad.concat(lap1, zeros, c_axis)
    if term == "diffusion_y":
        lap2 = ad.add(_d2(u2, nu, spec.dx, -1), _d2(u2, nu, spec.dy, -2))
        return ad.concat(zeros, lap2, c_axis)
    raise UnsupportedTermForBenchmark(term)


_TERM_FN = {
    "burgers1d": _term_burgers1d,
    "nagumo": _term_nagumo,
    "allen_cahn": _term_allen_cahn,
    "burgers2d": _term_burgers2d,
}


def _check_state_shape(values, spec):
    shape = ad.value_of(values).shape
    expected = spec.state_shape()
    if shape[-len(expected):] != expected:
        raise ShapeMismatch(f"state {shape} does not end with {expected}")


def rhs_values(u, spec: PdeSpec):
    """Sum of the active terms; zeros when no term is active."""
    _check_state_shape(u, spec)
    term_fn = _TERM_FN[spec.benchmark]
    total = None
    for term in spec.terms:  # canonical order (see module docstring)
        contrib = term_fn(u, spec, term)
        total = contrib if total is None else ad.add(total, contrib)
    if total is None:
        return np.zeros(ad.value_of(u).shape)
    return total


def apply_bc_values(u, spec: PdeSpec):
    if spec.bc == "periodic":
        return u
    return ad.boundary_overwrite(u, spec.boundary_mask(), spec.bc_value)


def euler_step_values(u, spec: PdeSpec, correction=None):
    """u_next = apply_bc(u + dt * (rhs(u) + correction))."""
    total = rhs_values(u, spec)
    if correction is not None:
        corr_shape = ad.value_of(correction).shape
        if corr_shape != ad.value_of(u).shape:
            raise ShapeMismatch(
                f"correction {corr_shape} vs state {ad.value_of(u).shape}")
        total = ad.add(total, correction)
    return apply_bc_values(ad.add(u, ad.scalar_mul(total, spec.dt)), spec)
