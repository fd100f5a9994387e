"""Ground-truth generation: initial-condition families, full-physics
trajectories, and the dataset file: a :mod:`dpawno.container` file (magic
``DPDS``) whose header holds the full-physics PdeSpec's fields, the seed
and the family description, with the (N, Nt+1, C) + spatial trajectories as
its one block."""

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from . import physics as ph
from .errors import (
    CountExceedsFamily,
    DatasetIoError,
    NonFiniteState,
    UnsupportedTermForBenchmark,
)
from .rng import stream
from .training import PhysicsSurrogate

DATASET_MAGIC = b"DPDS"

# the [ic.*] keys each kind reads besides kind and count: the first fills
# IcFamily.amplitudes, the second (if any) IcFamily.frequencies
IC_KINDS = {
    "cosine": ("amplitudes", "frequencies"),
    "sine": ("amplitudes", "frequencies"),
    "square2d": ("value",),
}


@dataclass(frozen=True)
class IcFamily:
    """One initial-condition family.

    kind        cosine:   u0 = a cos(0.5 z pi x), 1D
                sine:     u0 = a sin(e pi x), 1D
                square2d: plateau value on [0.5, 1.5]^2, background 1, 2D
    count       how many fields this family contributes
    amplitudes  tuple of values (enumerated grid) or ("uniform", lo, hi):
                the wave amplitudes a, or the square2d plateau values
    frequencies tuple of z / e values to pair with the amplitudes
    """

    kind: str
    count: int
    amplitudes: tuple = ()
    frequencies: tuple = ()

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise ValueError(f"unknown IC kind {self.kind!r}")
        for key, values in zip(IC_KINDS[self.kind], (self.amplitudes, self.frequencies)):
            if not all(np.isfinite(v) for v in values if v != "uniform"):
                raise ValueError(f"{key} must be finite, got {values}")

    def describe(self) -> str:
        if self.kind == "square2d":
            return f"square2d(count={self.count}, value={self.amplitudes})"
        return (f"{self.kind}(count={self.count}, amplitudes={self.amplitudes}, "
                f"frequencies={self.frequencies})")


def _is_uniform(amplitudes):
    return len(amplitudes) == 3 and amplitudes[0] == "uniform"


def _draw_params(family, count, rng):
    """(amplitude, frequency) pairs: enumerated without replacement, or drawn."""
    freqs = family.frequencies or (1,)
    if _is_uniform(family.amplitudes):
        lo, hi = float(family.amplitudes[1]), float(family.amplitudes[2])
        amps = rng.uniform(lo, hi, size=count)
        fs = np.asarray(freqs, dtype=np.float64)[rng.integers(0, len(freqs), size=count)]
        return amps, fs
    combos = [(a, f) for a in family.amplitudes for f in freqs]
    if count > len(combos):
        raise CountExceedsFamily(
            f"{family.kind} family has {len(combos)} members, requested {count}")
    if count < len(combos):
        picked = rng.choice(len(combos), size=count, replace=False)
        combos = [combos[i] for i in sorted(picked)]
    arr = np.asarray(combos, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


def sample_ics(family: IcFamily, count: int, spec: ph.PdeSpec, seed: int,
               stream_index: int = 0, purpose: str = "data") -> np.ndarray:
    """Draw `count` initial fields, shaped (count,) + spec.state_shape().

    `purpose` selects the RNG stream family ("data" for training draws,
    "test" for evaluation draws) so the two never share a stream.
    """
    rng = stream(seed, purpose, stream_index)
    if family.kind in ("cosine", "sine"):
        if spec.is_2d:
            raise ValueError(f"{family.kind} ICs are 1D only")
        (x,) = spec.grid()
        amps, fs = _draw_params(family, count, rng)
        phase = 0.5 * np.pi * np.outer(fs, x) if family.kind == "cosine" \
            else np.pi * np.outer(fs, x)
        wave = np.cos(phase) if family.kind == "cosine" else np.sin(phase)
        fields = amps[:, None] * wave
        return fields[:, None, :]
    if not spec.is_2d:
        raise ValueError(f"{family.kind} ICs are 2D only")
    gx, gy = spec.coordinates()  # x and y of every grid point, each (ny, nx)
    mask = (gx >= 0.5) & (gx <= 1.5) & (gy >= 0.5) & (gy <= 1.5)
    if _is_uniform(family.amplitudes):
        vals = rng.uniform(float(family.amplitudes[1]), float(family.amplitudes[2]),
                           size=count)
    else:
        if count > len(family.amplitudes):
            raise CountExceedsFamily(
                f"{family.kind} family has {len(family.amplitudes)} members, "
                f"requested {count}")
        vals = np.asarray(family.amplitudes[:count], dtype=np.float64)
    fields = np.where(mask[None], vals[:, None, None], 1.0)
    return np.broadcast_to(fields[:, None], (count, 2) + mask.shape).copy()


def sample_families(families, spec: ph.PdeSpec, seed: int,
                    purpose: str = "data") -> np.ndarray:
    """Concatenate draws from several families; each gets its own substream."""
    blocks = [sample_ics(fam, fam.count, spec, seed, stream_index=i, purpose=purpose)
              for i, fam in enumerate(families)]
    return np.concatenate(blocks, axis=0)


@dataclass
class Dataset:
    """Full-physics trajectories.  trajectories[i][0] is the i-th IC."""

    spec: ph.PdeSpec
    trajectories: np.ndarray  # (N, Nt+1, C) + spatial
    seed: int
    family_desc: str

    @property
    def ics(self) -> np.ndarray:
        return self.trajectories[:, 0]

    @property
    def n_samples(self) -> int:
        return self.trajectories.shape[0]

    @property
    def n_steps(self) -> int:
        return self.trajectories.shape[1] - 1

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.spec == other.spec
                and self.seed == other.seed
                and self.family_desc == other.family_desc
                and np.array_equal(self.trajectories, other.trajectories))


def _check_advective_cfl(spec: ph.PdeSpec, ics):
    """Warn when the initial speeds give a Courant number above 1:
    max|u| dt/dx, plus max|u2| dt/dy for the 2D velocity (u1, u2)."""
    if "advection" not in spec.terms:
        return
    speeds = np.abs(ics)
    # channel k is the velocity along axis k of spec.grid()
    number = sum(float(np.max(speeds[:, k])) * spec.dt / h
                 for k, h in enumerate(spec.spacing()))
    if number > 1.0:
        warnings.warn(
            f"advective CFL number {number:.3f} > 1 for {spec.benchmark} at the "
            f"initial conditions; the run may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )


def generate(spec: ph.PdeSpec, families, nt: int, seed: int,
             purpose: str = "data") -> Dataset:
    """Solve the complete physics for every IC the `families` yield,
    storing all `nt` steps after the IC."""
    if tuple(spec.terms) != spec.full_terms:
        raise ValueError(
            f"ground truth needs the full term set {spec.full_terms}, got {spec.terms}")
    ics = sample_families(families, spec, seed, purpose=purpose)
    _check_advective_cfl(spec, ics)
    solver = PhysicsSurrogate(spec)
    states = np.empty((len(ics), nt + 1) + spec.state_shape())
    for t, u, alive in ph.masked_steps(solver.step, ics, nt, solver.block):
        if not alive.all():
            idx = int(np.argmax(~alive))
            raise NonFiniteState(
                f"sample {idx} blew up at step {t} while generating ground truth")
        states[:, t] = u
    desc = "; ".join(f.describe() for f in families)
    return Dataset(spec, states, seed, desc)


# ---------------------------------------------------------------------------
# file format: a dpawno.container file with one "trajectories" block

def save(dataset: Dataset, path):
    header = {"spec": asdict(dataset.spec), "seed": dataset.seed,
              "family": dataset.family_desc}
    container.write(path, DATASET_MAGIC, header,
                    {"trajectories": dataset.trajectories})


def load(path) -> Dataset:
    header, blocks = container.read(path, DATASET_MAGIC)
    try:
        spec = container.dataclass_from(ph.PdeSpec, header["spec"])
        return Dataset(spec, blocks["trajectories"], header["seed"], header["family"])
    except (ValueError, KeyError, TypeError, UnsupportedTermForBenchmark) as exc:
        raise DatasetIoError(
            f"dataset header is malformed: {type(exc).__name__}: {exc}") from exc
