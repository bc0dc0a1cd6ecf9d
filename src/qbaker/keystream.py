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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chaos import ChaoticSequences, chebyshev
from .images import BitTensor, BlockLayout, ImageSet

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
    """Total intensity normalized into [0, 1]."""
    total = int(np.asarray(image_set.images).sum(dtype=np.int64))
    denom = image_set.M * (1 << (2 * image_set.n)) * ((1 << image_set.L) - 1)
    return total / denom


def alpha_beta(tensor: BitTensor) -> tuple[int, int]:
    """Floor of the mean and mean square of per-pixel set-bit counts."""
    per_pixel = tensor.bits.sum(axis=(0, 1, 4), dtype=np.int64)  # (side, side)
    pixels = per_pixel.size
    alpha = int(per_pixel.sum()) // pixels
    beta = int((per_pixel**2).sum()) // pixels
    return alpha, beta


def derive_seed(image_set: ImageSet, tensor: BitTensor) -> Seed:
    x0 = intensity_seed(image_set)
    alpha, beta = alpha_beta(tensor)
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


def _chebyshev(k, x) -> np.ndarray:
    """T_k(x) = cos(k * arccos x), elementwise."""
    return np.cos(np.asarray(k) * np.arccos(x))


def key_table(seqs: ChaoticSequences, layout: BlockLayout, n: int) -> np.ndarray:
    """All key digits as an array indexed [b, m, i, j]."""
    side = 1 << n
    blocks = layout.block_count
    per_block = layout.images_per_block
    if len(seqs.xs) != side or len(seqs.ys) != side:
        raise ValueError("pixel sequences disagree with the grid size")
    if len(seqs.zs) != per_block or len(seqs.ts) != blocks:
        raise ValueError("image/block sequences disagree with the layout")
    t_y = _chebyshev(seqs.ns, _mirrored(seqs.ys))
    t_x = _chebyshev(seqs.ks, _mirrored(seqs.xs))
    t_t = _chebyshev(np.asarray(seqs.rs)[None, :], _mirrored(seqs.ts)[:, None])  # (b, m)
    t_z = _chebyshev(np.asarray(seqs.ss)[:, None], _mirrored(seqs.zs)[None, :])  # (b, m)
    prod = (
        t_t[:, :, None, None]
        * t_z[:, :, None, None]
        * t_y[None, None, :, None]
        * t_x[None, None, None, :]
    )
    scaled = np.floor(np.abs(prod) * KEY_SCALE)
    return (scaled.astype(np.int64) % (1 << layout.lplanes)).astype(np.uint8)
