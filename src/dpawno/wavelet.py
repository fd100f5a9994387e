"""Multilevel Daubechies wavelet transforms for 1D signals and 2D fields.

Transforms are realized as per-level banded matrices so that adjoints are
plain transposes; with periodic extension the matrices are orthogonal and the
adjoint coincides with the inverse.  The trailing array axis is the transform
axis; leading axes (batch, channels) pass through untouched.

Every level is one :func:`autodiff.level_matmul`, so the transforms accept an
ndarray or a tape :class:`autodiff.Tensor`: on a Tensor they record
"dwt_level"/"idwt_level" nodes, and the tape's VJP of the forward transform
is its adjoint.  The inverses read a detail band given as ``None`` as a zero
band and record nothing for it; the WNO kernel layer truncates its
unweighted sub-bands this way.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import InconsistentCoeffLengths, SignalTooShort

# Orthonormal Daubechies scaling filters (reconstruction low-pass, natural
# order, sum = sqrt(2)).  dbN has N vanishing moments and 2N taps.  Values are
# the standard double-precision constants obtained by minimal-phase spectral
# factorization of the Daubechies half-band polynomial (Daubechies,
# "Ten Lectures on Wavelets", 1992, ch. 6); they match the widely published
# tables for db2/db4/db6.
_REC_LO = {
    "db2": (
        0.48296291314453416,
        0.8365163037378079,
        0.2241438680420134,
        -0.12940952255126037,
    ),
    "db4": (
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ),
    "db6": (
        0.11154074335010947,
        0.49462389039845306,
        0.7511339080210954,
        0.31525035170919763,
        -0.22626469396543983,
        -0.12976686756726194,
        0.09750160558732304,
        0.027522865530305727,
        -0.03158203931748603,
        0.0005538422011614961,
        0.004777257510945511,
        -0.0010773010853084796,
    ),
}

FAMILIES = tuple(_REC_LO)
EXTENSIONS = ("periodic", "symmetric")


@dataclass(frozen=True)
class WaveletSpec:
    family: str = "db6"
    levels: int = 4
    extension: str = "periodic"

    def __post_init__(self):
        if self.family not in _REC_LO:
            raise ValueError(f"unknown wavelet family {self.family!r}; choose from {FAMILIES}")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.extension not in EXTENSIONS:
            raise ValueError(f"unknown extension {self.extension!r}; choose from {EXTENSIONS}")


def filters(family: str):
    """Return (rec_lo, rec_hi) for the family; rec_hi is the QMF mirror."""
    h = np.asarray(_REC_LO[family], dtype=np.float64)
    n = len(h)
    g = np.array([(-1) ** k * h[n - 1 - k] for k in range(n)])
    return h, g


def coeff_length(n: int, family: str, extension: str) -> int:
    taps = len(_REC_LO[family])
    if extension == "periodic":
        return n // 2
    return (n + taps - 1) // 2


def _reflect(i: int, n: int) -> int:
    # numpy 'symmetric' pad: reflection including the edge sample, period 2n
    j = i % (2 * n)
    return j if j < n else 2 * n - 1 - j


@lru_cache(maxsize=None)
def level_analysis(n: int, family: str, extension: str):
    """Single-level analysis matrices (A_lo, A_hi), each (K, n)."""
    h, g = filters(family)
    taps = len(h)
    if extension == "periodic":
        if n % 2:
            raise SignalTooShort(
                f"periodic extension needs an even length at every level, got {n}"
            )
        k_out = n // 2
        lo = np.zeros((k_out, n))
        hi = np.zeros((k_out, n))
        for k in range(k_out):
            for m in range(taps):
                col = (2 * k + m) % n
                lo[k, col] += h[m]
                hi[k, col] += g[m]
    else:
        # window k covers source positions 2k+2-taps .. 2k+1, symmetric-reflected
        k_out = (n + taps - 1) // 2
        lo = np.zeros((k_out, n))
        hi = np.zeros((k_out, n))
        for k in range(k_out):
            for m in range(taps):
                col = _reflect(2 * k + 2 - taps + m, n)
                lo[k, col] += h[m]
                hi[k, col] += g[m]
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


@lru_cache(maxsize=None)
def level_synthesis(n: int, family: str, extension: str):
    """Single-level synthesis matrices (S_lo, S_hi), each (n, K).

    S_lo @ approx + S_hi @ detail reconstructs the level input exactly.
    """
    h, g = filters(family)
    taps = len(h)
    if extension == "periodic":
        lo, hi = level_analysis(n, family, extension)
        return lo.T.copy(), hi.T.copy()
    # upsample by 2, full convolution, crop [taps-2 : taps-2+n]
    k_in = (n + taps - 1) // 2
    s_lo = np.zeros((n, k_in))
    s_hi = np.zeros((n, k_in))
    for c in range(n):
        for k in range(k_in):
            m = taps - 2 + c - 2 * k
            if 0 <= m < taps:
                s_lo[c, k] += h[m]
                s_hi[c, k] += g[m]
    s_lo.setflags(write=False)
    s_hi.setflags(write=False)
    return s_lo, s_hi


def level_lengths(n: int, spec: WaveletSpec) -> tuple:
    """Input length at each level, finest first."""
    if n < 2 ** spec.levels:
        raise SignalTooShort(
            f"signal length {n} shorter than 2^levels = {2 ** spec.levels}"
        )
    lengths = []
    m = n
    for _ in range(spec.levels):
        lengths.append(m)
        m = coeff_length(m, spec.family, spec.extension)
    return tuple(lengths)


class WaveletCoeffs:
    """Multilevel 1D coefficients: one approximation band plus per-level
    details, coarsest first / finest last."""

    def __init__(self, approx, details, original_lengths):
        self.approx = approx
        self.details = list(details)
        self.original_lengths = tuple(original_lengths)


class WaveletCoeffs2d:
    """Multilevel separable 2D coefficients.  Each detail entry is a
    (d_lh, d_hl, d_hh) triple; the first letter is the filter along y, the
    second along x."""

    def __init__(self, approx, details, original_shapes):
        self.approx = approx
        self.details = list(details)
        self.original_shapes = tuple(original_shapes)


def _accumulate(x, mat, band, axis):
    """x + mat . band along `axis`; a None band (or x) is zero and records
    nothing."""
    if band is None:
        return x
    up = ad.level_matmul("idwt_level", mat, band, axis)
    return up if x is None else ad.add(x, up)


def dwt_multilevel(signal, spec: WaveletSpec) -> WaveletCoeffs:
    """Forward multilevel transform along the trailing axis."""
    x = signal
    lengths = level_lengths(ad.value_of(x).shape[-1], spec)
    details = []
    for m in lengths:
        lo, hi = level_analysis(m, spec.family, spec.extension)
        details.append(ad.level_matmul("dwt_level", hi, x, -1))
        x = ad.level_matmul("dwt_level", lo, x, -1)
    details.reverse()
    return WaveletCoeffs(x, details, lengths)


def idwt_multilevel(coeffs: WaveletCoeffs, spec: WaveletSpec):
    """Exact left inverse of :func:`dwt_multilevel`."""
    lengths = coeffs.original_lengths
    if len(coeffs.details) != len(lengths):
        raise InconsistentCoeffLengths(
            f"{len(coeffs.details)} detail bands for {len(lengths)} levels"
        )
    x = coeffs.approx
    for d, m in zip(coeffs.details, reversed(lengths)):
        k_in = coeff_length(m, spec.family, spec.extension)
        for band in (x, d):
            if band is not None and ad.value_of(band).shape[-1] != k_in:
                raise InconsistentCoeffLengths(
                    f"level input {m}: expected coefficient length {k_in}, "
                    f"got {ad.value_of(band).shape[-1]}"
                )
        s_lo, s_hi = level_synthesis(m, spec.family, spec.extension)
        x = _accumulate(ad.level_matmul("idwt_level", s_lo, x, -1), s_hi, d, -1)
    return x


def level_shapes_2d(shape, spec: WaveletSpec) -> tuple:
    ny, nx = shape
    if ny < 2 ** spec.levels or nx < 2 ** spec.levels:
        raise SignalTooShort(
            f"field extents {shape} shorter than 2^levels = {2 ** spec.levels}"
        )
    shapes = []
    for _ in range(spec.levels):
        shapes.append((ny, nx))
        ny = coeff_length(ny, spec.family, spec.extension)
        nx = coeff_length(nx, spec.family, spec.extension)
    return tuple(shapes)


def dwt2d_multilevel(field, spec: WaveletSpec) -> WaveletCoeffs2d:
    """Separable forward transform over the two trailing axes."""
    x = field
    shapes = level_shapes_2d(ad.value_of(x).shape[-2:], spec)
    details = []
    for ny, nx in shapes:
        lo_x, hi_x = level_analysis(nx, spec.family, spec.extension)
        lo_y, hi_y = level_analysis(ny, spec.family, spec.extension)
        l = ad.level_matmul("dwt_level", lo_x, x, -1)
        h = ad.level_matmul("dwt_level", hi_x, x, -1)
        ll = ad.level_matmul("dwt_level", lo_y, l, -2)
        lh = ad.level_matmul("dwt_level", hi_y, l, -2)
        hl = ad.level_matmul("dwt_level", lo_y, h, -2)
        hh = ad.level_matmul("dwt_level", hi_y, h, -2)
        details.append((lh, hl, hh))
        x = ll
    details.reverse()
    return WaveletCoeffs2d(x, details, shapes)


def idwt2d_multilevel(coeffs: WaveletCoeffs2d, spec: WaveletSpec):
    """Exact left inverse of :func:`dwt2d_multilevel`."""
    shapes = coeffs.original_shapes
    if len(coeffs.details) != len(shapes):
        raise InconsistentCoeffLengths(
            f"{len(coeffs.details)} detail bands for {len(shapes)} levels"
        )
    x = coeffs.approx
    for (lh, hl, hh), (ny, nx) in zip(coeffs.details, reversed(shapes)):
        ky = coeff_length(ny, spec.family, spec.extension)
        kx = coeff_length(nx, spec.family, spec.extension)
        for band in (x, lh, hl, hh):
            if band is not None and ad.value_of(band).shape[-2:] != (ky, kx):
                raise InconsistentCoeffLengths(
                    f"level input {(ny, nx)}: expected band shape {(ky, kx)}, "
                    f"got {ad.value_of(band).shape[-2:]}"
                )
        s_lo_x, s_hi_x = level_synthesis(nx, spec.family, spec.extension)
        s_lo_y, s_hi_y = level_synthesis(ny, spec.family, spec.extension)
        l = _accumulate(ad.level_matmul("idwt_level", s_lo_y, x, -2), s_hi_y, lh, -2)
        x = ad.level_matmul("idwt_level", s_lo_x, l, -1)
        h = _accumulate(_accumulate(None, s_lo_y, hl, -2), s_hi_y, hh, -2)
        x = _accumulate(x, s_hi_x, h, -1)
    return x
