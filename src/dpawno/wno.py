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
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import wavelet as wv
from .errors import (
    ChecksumMismatch,
    DatasetIoError,
    FormatVersionMismatch,
    ShapeMismatch,
)
from .rng import stream

CHECKPOINT_MAGIC = b"DPAW"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class WnoConfig:
    width: int = 64
    layers: int = 4
    wavelet: wv.WaveletSpec = field(default_factory=wv.WaveletSpec)
    fc1_dim: int = 128
    in_channels: int = 2
    out_channels: int = 1
    spatial_dims: int = 1
    bands: str = "coarsest"  # or "all"

    def __post_init__(self):
        if self.width < 1 or self.layers < 1 or self.fc1_dim < 1:
            raise ValueError("width, layers and fc1_dim must be >= 1")
        if self.spatial_dims not in (1, 2):
            raise ValueError("spatial_dims must be 1 or 2")
        if self.bands not in ("coarsest", "all"):
            raise ValueError("bands must be 'coarsest' or 'all'")

    def kernel_bands(self) -> tuple:
        """Names of the sub-bands that carry mixing weights, coarsest first."""
        levels = self.wavelet.levels if self.bands == "all" else 1
        names = ["approx"]
        if self.spatial_dims == 1:
            names += [f"detail{j}" for j in range(levels)]
        else:
            for j in range(levels):
                names += [f"lh{j}", f"hl{j}", f"hh{j}"]
        return tuple(names)

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

    def parameter_count(self) -> int:
        return sum(int(np.prod(s)) for s in self.parameter_shapes().values())


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

    def copy(self) -> "WnoModel":
        return WnoModel(self.config, {k: v.copy() for k, v in self.params.items()})

    def save(self, path):
        save_checkpoint(self, path)

    @classmethod
    def load(cls, path) -> "WnoModel":
        return load_checkpoint(path)


# ---------------------------------------------------------------------------
# forward pass

def _channel_axis(x, spatial_dims):
    return ad.value_of(x).ndim - spatial_dims - 1


def grid_channels(grid, like_shape, spatial_dims):
    """Coordinate channels broadcast to the state's leading axes."""
    lead = like_shape[: len(like_shape) - spatial_dims - 1]
    if spatial_dims == 1:
        gx = np.asarray(grid, dtype=np.float64)
        return np.broadcast_to(gx, lead + (1,) + gx.shape).copy()
    x, y = grid
    ny, nx = len(y), len(x)
    gx = np.broadcast_to(np.asarray(x)[None, :], (ny, nx))
    gy = np.broadcast_to(np.asarray(y)[:, None], (ny, nx))
    g = np.stack([gx, gy])
    return np.broadcast_to(g, lead + (2, ny, nx)).copy()


def lift(u, grid, model: WnoModel, params=None):
    """Pointwise affine map of (state, coordinates) into the width channels."""
    p = params if params is not None else model.params
    cfg = model.config
    ca = _channel_axis(u, cfg.spatial_dims)
    shape = ad.value_of(u).shape
    state_channels = shape[ca]
    if state_channels + cfg.spatial_dims != cfg.in_channels:
        raise ShapeMismatch(
            f"state has {state_channels} channels; config expects "
            f"{cfg.in_channels - cfg.spatial_dims}")
    coords = grid_channels(grid, shape, cfg.spatial_dims)
    if coords.shape[-cfg.spatial_dims:] != shape[-cfg.spatial_dims:]:
        raise ShapeMismatch(
            f"grid {coords.shape[-cfg.spatial_dims:]} vs state "
            f"{shape[-cfg.spatial_dims:]}")
    x = ad.concat(u, coords, ca)
    v = ad.matmul(p["lift.weight"], x, channel_axis=ca)
    return ad.bias_add(v, p["lift.bias"], channel_axis=ca)


def kernel_layer(v, layer: int, model: WnoModel, params=None, final=False):
    """One wavelet kernel integral block; `final` drops the activation."""
    p = params if params is not None else model.params
    cfg = model.config
    wspec = cfg.wavelet
    ca = _channel_axis(v, cfg.spatial_dims)
    bands = cfg.kernel_bands()

    def mix(band, value):
        # bands not carrying weights are truncated from the kernel path
        if band not in bands:
            return None
        return ad.matmul(p[f"layer{layer}.kernel.{band}"], value, channel_axis=ca)

    # v feeds the transform and the pointwise path; recording the transform
    # first fixes the order in which backward sums v's gradient
    if cfg.spatial_dims == 1:
        c = wv.dwt_multilevel(v, wspec)
        details = [mix(f"detail{j}", d) for j, d in enumerate(c.details)]
        x = wv.idwt_multilevel(
            wv.WaveletCoeffs(mix("approx", c.approx), details, c.original_lengths),
            wspec)
    else:
        c = wv.dwt2d_multilevel(v, wspec)
        details = [tuple(mix(f"{kind}{j}", d)
                         for kind, d in zip(("lh", "hl", "hh"), triple))
                   for j, triple in enumerate(c.details)]
        x = wv.idwt2d_multilevel(
            wv.WaveletCoeffs2d(mix("approx", c.approx), details, c.original_shapes),
            wspec)

    w = ad.matmul(p[f"layer{layer}.pointwise.weight"], v, channel_axis=ca)
    w = ad.bias_add(w, p[f"layer{layer}.pointwise.bias"], channel_axis=ca)
    out = ad.add(x, w)
    return out if final else ad.gelu(out)


def downlift(v, model: WnoModel, params=None):
    p = params if params is not None else model.params
    ca = _channel_axis(v, model.config.spatial_dims)
    v = ad.matmul(p["downlift1.weight"], v, channel_axis=ca)
    v = ad.bias_add(v, p["downlift1.bias"], channel_axis=ca)
    v = ad.gelu(v)
    v = ad.matmul(p["downlift2.weight"], v, channel_axis=ca)
    return ad.bias_add(v, p["downlift2.bias"], channel_axis=ca)


def wno_forward(u, grid, model: WnoModel, params=None):
    """Correction field for state `u`; shaped like `u`, differentiable when
    `u` or any parameter is a Tensor."""
    v = lift(u, grid, model, params)
    last = model.config.layers - 1
    for layer in range(model.config.layers):
        v = kernel_layer(v, layer, model, params, final=(layer == last))
    return downlift(v, model, params)


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, config header, named shape-tagged blocks

def _config_header(config: WnoConfig) -> bytes:
    doc = {
        "width": config.width,
        "layers": config.layers,
        "wavelet_family": config.wavelet.family,
        "wavelet_levels": config.wavelet.levels,
        "wavelet_extension": config.wavelet.extension,
        "fc1_dim": config.fc1_dim,
        "in_channels": config.in_channels,
        "out_channels": config.out_channels,
        "spatial_dims": config.spatial_dims,
        "bands": config.bands,
    }
    return json.dumps(doc, sort_keys=True).encode()


def config_from_header(doc: dict) -> WnoConfig:
    return WnoConfig(
        width=doc["width"],
        layers=doc["layers"],
        wavelet=wv.WaveletSpec(doc["wavelet_family"], doc["wavelet_levels"],
                               doc["wavelet_extension"]),
        fc1_dim=doc["fc1_dim"],
        in_channels=doc["in_channels"],
        out_channels=doc["out_channels"],
        spatial_dims=doc["spatial_dims"],
        bands=doc["bands"],
    )


def save_checkpoint(model: WnoModel, path):
    header = _config_header(model.config)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(model.params)))
        for name, value in model.params.items():
            raw = name.encode()
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}Q", *value.shape))
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def _read(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) < size:
        raise ChecksumMismatch(f"checkpoint truncated inside the {what}")
    return raw


def load_checkpoint(path) -> WnoModel:
    """Read a checkpoint; a short read raises ChecksumMismatch, and a
    malformed header or a non-finite parameter DatasetIoError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatVersionMismatch(f"not a checkpoint file: magic {magic!r}")
        version, header_len = struct.unpack("<II", _read(fh, 8, "header"))
        if version > CHECKPOINT_VERSION:
            raise FormatVersionMismatch(
                f"checkpoint format version {version} is newer than supported "
                f"{CHECKPOINT_VERSION}")
        raw = _read(fh, header_len, "header")
        try:
            config = config_from_header(json.loads(raw.decode()))
        except (ValueError, KeyError, TypeError) as exc:
            raise DatasetIoError(
                f"checkpoint header is malformed: {type(exc).__name__}: {exc}") from exc
        (count,) = struct.unpack("<I", _read(fh, 4, "header"))
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, "parameter name"))
            name = _read(fh, name_len, "parameter name").decode()
            (ndim,) = struct.unpack("<B", _read(fh, 1, f"shape of {name}"))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, f"shape of {name}"))
            size = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(_read(fh, 8 * size, f"data of {name}"), dtype="<f8")
            if not np.all(np.isfinite(data)):
                raise DatasetIoError(f"checkpoint parameter {name} is not finite")
            params[name] = data.reshape(shape).astype(np.float64)
    return WnoModel(config, params)
