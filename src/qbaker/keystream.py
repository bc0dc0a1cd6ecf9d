"""Plaintext-bound seeding and per-position key digits.

The chaotic system is seeded from aggregate plaintext statistics: x(0) is
the normalized total intensity, z(0) = frac(1000 * x(0)), and y(0), t(0)
apply Chebyshev maps of plaintext-dependent integer orders to x(0), z(0).
The system supplies only four initial values; the fifth component is fixed
as frac(1000 * (x(0) + z(0))) so both parties derive the same 5-vector.

Key digits combine four Chebyshev evaluations over the extracted sequences,
scaled by 1e10, floored, and reduced mod 2^ceil(log2 L).  The product can be
negative, so its absolute value is taken before the floor.  Sequence lookups
use the mirrored index (len - i + 1) reduced mod len.

A digit depends on its factors' last bits, so each factor is
``chaos.chebyshev`` (libm through ``math``), never a numpy kernel picked by
CPU at run time; the orbit's own dependence on ``math.sin`` remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chaos import ChaoticSequences, chebyshev
from .images import BlockLayout, ImageSet

KEY_SCALE = 10**10


@dataclass(frozen=True)
class Seed:
    x0: float
    z0: float
    y0: float
    t0: float
    w0: float
    alpha: int
    beta: int

    def state(self) -> tuple[float, float, float, float, float]:
        """Initial 5-vector, components ordered (x, y, z, t, w)."""
        return (self.x0, self.y0, self.z0, self.t0, self.w0)


def intensity_seed(image_set: ImageSet) -> float:
    """Total intensity normalized into [0, 1]; the total is exact at every L."""
    images = np.asarray(image_set.images)
    if image_set.L <= 32:
        total = int(images.sum(dtype=np.uint64))
    else:  # a uint64 sum of 64-bit pixels can wrap: sum their 32-bit halves apart
        wide = images.astype(np.uint64, copy=False)
        low = int((wide & 0xFFFFFFFF).sum(dtype=np.uint64))
        total = low + (int((wide >> 32).sum(dtype=np.uint64)) << 32)
    denom = image_set.M * (1 << (2 * image_set.n)) * ((1 << image_set.L) - 1)
    return total / denom


def alpha_beta(image_set: ImageSet) -> tuple[int, int]:
    """Floor of the mean and mean square of per-pixel set-bit counts.

    A pixel's count is the number of lit bit planes at that position over
    every image of the cube.  Blank padding images light none, so the counts
    are taken over the images alone.
    """
    lit = np.bitwise_count(np.asarray(image_set.images))
    per_pixel = lit.sum(axis=0, dtype=np.int64)  # (side, side)
    pixels = per_pixel.size
    alpha = int(per_pixel.sum()) // pixels
    beta = int((per_pixel**2).sum()) // pixels
    return alpha, beta


def derive_seed(image_set: ImageSet) -> Seed:
    x0 = intensity_seed(image_set)
    alpha, beta = alpha_beta(image_set)
    return seed_from_header(x0, alpha, beta)


def seed_from_header(x0: float, alpha: int, beta: int) -> Seed:
    """Rebuild the full seed from the transported aggregates."""
    z0 = (x0 * 1e3) % 1.0
    y0 = chebyshev(alpha, x0)
    t0 = chebyshev(beta, z0)
    w0 = ((x0 + z0) * 1e3) % 1.0
    return Seed(x0, z0, y0, t0, w0, alpha, beta)


def _mirrored(seq) -> np.ndarray:
    """seq[(len - i + 1) mod len] at every i."""
    size = len(seq)
    return np.asarray(seq)[(size - np.arange(size) + 1) % size]


def key_factors(seqs: ChaoticSequences, layout: BlockLayout, n: int) -> tuple[np.ndarray, ...]:
    """(t_t, t_z, t_y, t_x): the four Chebyshev factors of every key digit,
    shaped (b, m, 1, 1), (b, m, 1, 1), (side, 1) and (side,), so that digit
    [b, m, i, j] multiplies the factors at its index."""
    side = 1 << n
    if len(seqs.xs) != side or len(seqs.ys) != side:
        raise ValueError("pixel sequences disagree with the grid size")
    if len(seqs.zs) != layout.images_per_block or len(seqs.ts) != layout.block_count:
        raise ValueError("image/block sequences disagree with the layout")
    cheb = np.frompyfunc(chebyshev, 2, 1)  # T_k(x) elementwise, as Python floats
    t_y = cheb(seqs.ns, _mirrored(seqs.ys))
    t_x = cheb(seqs.ks, _mirrored(seqs.xs))
    t_t = cheb(np.asarray(seqs.rs)[None, :], _mirrored(seqs.ts)[:, None])  # (b, m)
    t_z = cheb(np.asarray(seqs.ss)[:, None], _mirrored(seqs.zs)[None, :])  # (b, m)
    factors = t_t[:, :, None, None], t_z[:, :, None, None], t_y[:, None], t_x
    return tuple(f.astype(float) for f in factors)


def key_table(factors: tuple[np.ndarray, ...], blocks: slice) -> np.ndarray:
    """The key digits of ``blocks`` as a uint8 array indexed [b, m, i, j].

    Each product multiplies in one order, t_t * t_z * t_y * t_x, so every
    digit floors the same whichever chunk of blocks it is computed in.
    """
    t_t, t_z, t_y, t_x = factors
    prod = t_t[blocks] * t_z[blocks] * t_y * t_x
    np.abs(prod, out=prod)
    prod *= KEY_SCALE  # in [0, KEY_SCALE], so the int64 cast floors
    return (prod.astype(np.int64) & (t_t.shape[1] - 1)).astype(np.uint8)  # mod 2^lplanes
