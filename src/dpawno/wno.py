"""Wavelet neural operator: lift, wavelet kernel integral layers, downlift.

Each kernel integral layer computes

    v  ->  phi( idwt( R . dwt(v) ) + W v + b )

where dwt/idwt are the multilevel transforms of :mod:`dpawno.wavelet`
(1D or separable 2D, on ndarrays or tape Tensors), R applies learnable
width x width channel mixing to the retained sub-bands (by default the
coarsest approximation and detail bands; the other detail bands reach the
inverse as ``None``, which truncates them from the kernel path), W is a
pointwise affine map, and phi is GeLU on all but the final layer.  Channel
mixing is shared across coefficients within a band, so the parameter count is
independent of the grid resolution.

The downlift output layer is zero-initialized: a freshly initialized model is
the exact zero correction, so an augmented solver starts bit-identical to the
known-physics solver.

A checkpoint is a :mod:`dpawno.container` file (magic ``DPAW``) whose header
holds exactly the WnoConfig fields, with one block per parameter.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import container
from . import wavelet as wv
from .errors import DatasetIoError, ShapeMismatch
from .rng import stream

CHECKPOINT_MAGIC = b"DPAW"

# parameter-name stem of each detail band of a level, in the order of a
# level's bands in wavelet.dwt_multilevel's details
DETAIL_KINDS = {1: ("detail",), 2: ("lh", "hl", "hh")}


@dataclass(frozen=True)
class WnoConfig:
    width: int = 64
    layers: int = 4
    levels: int = 4  # of the db6 transform
    fc1_dim: int = 128
    in_channels: int = 2
    out_channels: int = 1
    spatial_dims: int = 1
    bands: str = "coarsest"  # or "all"

    def __post_init__(self):
        if min(self.width, self.layers, self.levels, self.fc1_dim) < 1:
            raise ValueError("width, layers, levels and fc1_dim must be >= 1")
        if self.spatial_dims not in DETAIL_KINDS:
            raise ValueError("spatial_dims must be 1 or 2")
        if self.bands not in ("coarsest", "all"):
            raise ValueError("bands must be 'coarsest' or 'all'")

    def kernel_bands(self) -> tuple:
        """Names of the sub-bands that carry mixing weights, coarsest first."""
        levels = self.levels if self.bands == "all" else 1
        return ("approx",) + tuple(f"{kind}{j}" for j in range(levels)
                                   for kind in DETAIL_KINDS[self.spatial_dims])

    def parameter_shapes(self) -> dict:
        w, f1 = self.width, self.fc1_dim
        shapes = {
            "lift.weight": (w, self.in_channels),
            "lift.bias": (w,),
        }
        for layer in range(self.layers):
            for band in self.kernel_bands():
                shapes[f"layer{layer}.kernel.{band}"] = (w, w)
            shapes[f"layer{layer}.pointwise.weight"] = (w, w)
            shapes[f"layer{layer}.pointwise.bias"] = (w,)
        shapes["downlift1.weight"] = (f1, w)
        shapes["downlift1.bias"] = (f1,)
        shapes["downlift2.weight"] = (self.out_channels, f1)
        shapes["downlift2.bias"] = (self.out_channels,)
        return shapes


def io_fields(state_shape) -> dict:
    """The WnoConfig fields fixed by states shaped (C,) + spatial: the lift
    reads the C state channels and one coordinate channel per spatial axis,
    the downlift writes C channels."""
    channels, dims = state_shape[0], len(state_shape) - 1
    return {"spatial_dims": dims, "in_channels": channels + dims,
            "out_channels": channels}


class WnoModel:
    """Parameter store for one network; values are float64 ndarrays."""

    def __init__(self, config: WnoConfig, params: dict):
        expected = config.parameter_shapes()
        if set(params) != set(expected):
            raise ShapeMismatch("parameter names do not match the configuration")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ShapeMismatch(
                    f"parameter {name}: expected {shape}, got {params[name].shape}")
        self.config = config
        self.params = {name: np.asarray(params[name], dtype=np.float64)
                       for name in expected}

    @classmethod
    def initialize(cls, config: WnoConfig, seed: int) -> "WnoModel":
        """Glorot-uniform everywhere except the zero output layer."""
        rng = stream(seed, "init")
        params = {}
        for name, shape in config.parameter_shapes().items():
            if name.startswith("downlift2.") or name.endswith(".bias"):
                params[name] = np.zeros(shape)
            else:
                fan_out, fan_in = shape if len(shape) == 2 else (shape[0], shape[0])
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                params[name] = rng.uniform(-limit, limit, size=shape)
        return cls(config, params)


# ---------------------------------------------------------------------------
# forward pass

def _channel_axis(x, spatial_dims):
    return ad.value_of(x).ndim - spatial_dims - 1


def lift(u, coords, model: WnoModel, params):
    """Pointwise affine map of (state, coordinates) into the width channels;
    `coords` is the (dims,) + spatial coordinate array of
    physics.PdeSpec.coordinates().  `params` maps each name of
    model.config.parameter_shapes() to an array or a tape leaf; so do the
    other blocks'."""
    cfg = model.config
    ca = _channel_axis(u, cfg.spatial_dims)
    shape = ad.value_of(u).shape
    state_channels = shape[ca]
    if state_channels + cfg.spatial_dims != cfg.in_channels:
        raise ShapeMismatch(
            f"state has {state_channels} channels; config expects "
            f"{cfg.in_channels - cfg.spatial_dims}")
    expected = (cfg.spatial_dims,) + shape[ca + 1:]
    if np.shape(coords) != expected:
        raise ShapeMismatch(
            f"coordinates {np.shape(coords)} vs state {shape}; expected {expected}")
    x = ad.concat(u, np.broadcast_to(coords, shape[:ca] + expected), ca)
    v = ad.matmul(params["lift.weight"], x, channel_axis=ca)
    return ad.bias_add(v, params["lift.bias"], channel_axis=ca)


def kernel_layer(v, layer: int, model: WnoModel, params, final=False):
    """One wavelet kernel integral block; `final` drops the activation."""
    cfg = model.config
    ca = _channel_axis(v, cfg.spatial_dims)
    bands = cfg.kernel_bands()

    def mix(band, value):
        # bands not carrying weights are truncated from the kernel path
        if band not in bands:
            return None
        return ad.matmul(params[f"layer{layer}.kernel.{band}"], value,
                         channel_axis=ca)

    # v feeds the transform and the pointwise path; recording the transform
    # first fixes the order in which backward sums v's gradient
    approx, details = wv.dwt_multilevel(v, cfg.levels, cfg.spatial_dims)
    kinds = DETAIL_KINDS[cfg.spatial_dims]
    details = [tuple(mix(f"{kind}{j}", d) for kind, d in zip(kinds, level))
               for j, level in enumerate(details)]
    x = wv.idwt_multilevel(mix("approx", approx), details, cfg.spatial_dims)

    w = ad.matmul(params[f"layer{layer}.pointwise.weight"], v, channel_axis=ca)
    w = ad.bias_add(w, params[f"layer{layer}.pointwise.bias"], channel_axis=ca)
    out = ad.add(x, w)
    return out if final else ad.gelu(out)


def downlift(v, model: WnoModel, params):
    ca = _channel_axis(v, model.config.spatial_dims)
    v = ad.matmul(params["downlift1.weight"], v, channel_axis=ca)
    v = ad.bias_add(v, params["downlift1.bias"], channel_axis=ca)
    v = ad.gelu(v)
    v = ad.matmul(params["downlift2.weight"], v, channel_axis=ca)
    return ad.bias_add(v, params["downlift2.bias"], channel_axis=ca)


def wno_forward(u, coords, model: WnoModel, params):
    """Correction field for state `u` on the grid whose coordinate array is
    `coords` (see lift) under the parameters `params` (e.g. model.params);
    shaped like `u`, differentiable when `u` or any parameter is a
    Tensor."""
    v = lift(u, coords, model, params)
    last = model.config.layers - 1
    for layer in range(model.config.layers):
        v = kernel_layer(v, layer, model, params, final=(layer == last))
    return downlift(v, model, params)


# ---------------------------------------------------------------------------
# checkpoint format: a dpawno.container file, one block per parameter

def config_from_header(doc: dict) -> WnoConfig:
    """The WnoConfig of a checkpoint header, which holds exactly its fields."""
    expected = {field.name for field in fields(WnoConfig)}
    if set(doc) != expected:
        raise ValueError(f"keys {sorted(doc)}; expected {sorted(expected)}")
    return WnoConfig(**doc)


def save_checkpoint(model: WnoModel, path):
    container.write(path, CHECKPOINT_MAGIC, asdict(model.config), model.params)


def load_checkpoint(path) -> WnoModel:
    """Read a checkpoint; a header that is not a WnoConfig, a non-finite
    parameter or parameter blocks that do not match the header raise
    DatasetIoError, like the container's own checks."""
    header, params = container.read(path, CHECKPOINT_MAGIC)
    try:
        config = config_from_header(header)
    except (ValueError, TypeError) as exc:
        raise DatasetIoError(
            f"checkpoint header is malformed: {type(exc).__name__}: {exc}") from exc
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise DatasetIoError(f"checkpoint parameter {name} is not finite")
    try:
        return WnoModel(config, params)
    except ShapeMismatch as exc:
        raise DatasetIoError(
            f"checkpoint blocks do not match its header: {exc}") from exc
