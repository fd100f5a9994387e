"""Multilevel Daubechies (db6) wavelet transforms for 1D signals and 2D fields.

Transforms are realized as per-level banded matrices with periodic
extension, so every level matrix is orthogonal: its adjoint (the transpose)
is its inverse, and the synthesis matrices are the analysis matrices
transposed.  One transform serves both dimensions: it acts on the `dims`
trailing axes (the last is x, the one before it y) and applies the 1D level
step along each axis in turn (Mallat 1989); leading axes (batch, channels)
pass through untouched.

Coefficients are a plain ``(approx, details)`` pair (see
:func:`dwt_multilevel`).  Every level is one :func:`autodiff.level_matmul`
per band and axis, so the transforms accept an ndarray or a tape
:class:`autodiff.Tensor`: on a Tensor they record "level_matmul" nodes, wide
(n/2, n) analysis matrices forward and tall (n, n/2) synthesis matrices in
the inverse, and the tape's VJP of the forward transform is its adjoint.
The inverse reads a detail band given as ``None`` as a zero band and records
nothing for it; the WNO kernel layer truncates its unweighted sub-bands this
way.
"""

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import SignalTooShort

# Orthonormal Daubechies db6 scaling filter (reconstruction low-pass, natural
# order, sum = sqrt(2)): 6 vanishing moments, 12 taps.  The values are the
# standard double-precision constants obtained by minimal-phase spectral
# factorization of the Daubechies half-band polynomial (Daubechies,
# "Ten Lectures on Wavelets", 1992, ch. 6); they match the widely published
# db6 table.  It is the one family the operator uses.
_REC_LO = (
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
)


def filters():
    """Return (rec_lo, rec_hi); rec_hi is the QMF mirror."""
    h = np.asarray(_REC_LO, dtype=np.float64)
    n = len(h)
    g = np.array([(-1) ** k * h[n - 1 - k] for k in range(n)])
    return h, g


@lru_cache(maxsize=None)
def level_analysis(n: int):
    """Single-level analysis matrices (A_lo, A_hi), each (n/2, n)."""
    if n % 2:
        raise SignalTooShort(
            f"periodic extension needs an even length at every level, got {n}")
    h, g = filters()
    k_out = n // 2
    lo = np.zeros((k_out, n))
    hi = np.zeros((k_out, n))
    for k in range(k_out):
        for m in range(len(h)):
            col = (2 * k + m) % n
            lo[k, col] += h[m]
            hi[k, col] += g[m]
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


@lru_cache(maxsize=None)
def level_synthesis(n: int):
    """Single-level synthesis matrices (S_lo, S_hi), each (n, n/2): the
    analysis matrices transposed, so S_lo @ approx + S_hi @ detail
    reconstructs the level input exactly."""
    lo, hi = level_analysis(n)
    return lo.T.copy(), hi.T.copy()


def dwt_multilevel(x, levels: int, dims: int):
    """Separable `levels`-level forward transform over the `dims` trailing
    axes; returns ``(approx, details)``.

    `approx` is the coarsest approximation band.  `details` holds, per level
    (coarsest first, finest last), a tuple of 2^dims - 1 detail bands.  In
    1D a level is ``(h,)``.  In 2D it is ``(lh, hl, hh)``: the first letter
    is the filter along x (the last axis), the second along y, so ``lh`` is
    low-pass along x and high-pass along y.

    Each level splits every band along x, then y; a split emits (hi, lo), so
    the all-low band, the next level's input, comes out last."""
    extents = ad.value_of(x).shape[-dims:]
    if min(extents) < 2 ** levels:
        raise SignalTooShort(
            f"extents {extents} shorter than 2^levels = {2 ** levels}")
    details = []
    for _ in range(levels):
        shape = ad.value_of(x).shape
        bands = [x]
        for axis in range(-1, -dims - 1, -1):
            lo, hi = level_analysis(shape[axis])
            bands = [ad.level_matmul(mat, band, axis)
                     for band in bands for mat in (hi, lo)]
        x, *level = reversed(bands)
        details.append(tuple(level))
    details.reverse()
    return x, details


def _merge(s_lo, lo, s_hi, hi, axis):
    """S_lo . lo + S_hi . hi along `axis`; a None band is zero and records
    nothing."""
    parts = [ad.level_matmul(mat, band, axis)
             for mat, band in ((s_lo, lo), (s_hi, hi)) if band is not None]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else ad.add(*parts)


def idwt_multilevel(approx, details, dims: int):
    """Exact left inverse of :func:`dwt_multilevel`: merges each level's
    (lo, hi) pairs along y, then x.  A level's input extents are twice its
    approximation band's; a band of any other extent fails in the level
    matmul or the add that merges it (ShapeMismatch)."""
    x = approx
    for level in details:
        shape = ad.value_of(x).shape
        bands = [x, *level]
        for axis in range(-dims, 0):
            s_lo, s_hi = level_synthesis(2 * shape[axis])
            bands = [_merge(s_lo, lo, s_hi, hi, axis)
                     for lo, hi in zip(bands[0::2], bands[1::2])]
        (x,) = bands
    return x
