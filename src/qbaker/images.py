"""Block bit-plane layout for a set of grayscale images.

M images of size 2^n x 2^n with L-bit pixels are grouped into blocks of
2^ceil(log2 L) images (short blocks padded with all-zero blanks), and every
pixel is split into bit planes.  The result is a five-axis bit cube indexed
(block, image-in-block, row, column, plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _ceil_log2(v: int) -> int:
    return max(0, (v - 1).bit_length())


@dataclass(frozen=True)
class ImageSet:
    """Ordered grayscale images, all 2^n x 2^n, intensities below 2^L."""

    n: int
    L: int
    images: np.ndarray  # (M, side, side), integer dtype

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.L < 2:
            raise ValueError("L must be >= 2")
        arr = np.asarray(self.images)
        side = 1 << self.n
        if arr.ndim != 3 or arr.shape[1:] != (side, side):
            raise ValueError(f"images must have shape (M, {side}, {side})")
        if arr.shape[0] < 1:
            raise ValueError("at least one image required")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("intensities must be integers")
        if arr.min() < 0 or arr.max() >= (1 << self.L):
            raise ValueError(f"intensities must lie in [0, 2^{self.L})")

    @property
    def M(self) -> int:
        return int(self.images.shape[0])


@dataclass(frozen=True)
class BlockLayout:
    images_per_block: int
    block_count: int

    @property
    def padded_total(self) -> int:
        return self.images_per_block * self.block_count

    def blank_count(self, M: int) -> int:
        return self.padded_total - M


@dataclass(frozen=True)
class BitTensor:
    """The packed bit cube; bits[t, m, x, y, l] in {0, 1}."""

    n: int
    lplanes: int  # ceil(log2 L): plane index width and per-block image count
    bits: np.ndarray  # (block_count, 2^lplanes, side, side, 2^lplanes) uint8

    def __post_init__(self):
        side = 1 << self.n
        per_block = 1 << self.lplanes
        arr = self.bits
        if arr.ndim != 5 or arr.shape[1:] != (per_block, side, side, per_block):
            raise ValueError("bit tensor shape disagrees with n and plane count")
        if arr.dtype != np.uint8:
            raise ValueError("bit tensor must be uint8")

    @property
    def block_count(self) -> int:
        return int(self.bits.shape[0])

    def address_bits(self) -> int:
        """Index width: 2n + ceil(log2 L) + ceil(log2 of padded image count)."""
        total = self.bits.size
        assert total == 1 << (total.bit_length() - 1), "sizes are powers of two"
        return total.bit_length() - 1

    def copy(self) -> "BitTensor":
        return BitTensor(self.n, self.lplanes, self.bits.copy())


def plan_layout(M: int, L: int) -> BlockLayout:
    """Block geometry for M images with L bit planes; blank count minimal."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 2:
        raise ValueError("L must be >= 2")
    images_per_block = 1 << _ceil_log2(L)
    block_count = 1 << max(0, _ceil_log2(M) - _ceil_log2(L))
    return BlockLayout(images_per_block, block_count)


def pack(image_set: ImageSet) -> BitTensor:
    """Pack images into the bit cube; blank padding images are all zero.

    Planes are written one at a time from a copy of the images in the
    narrowest unsigned type that holds L bits, so no intermediate is wider
    than that copy.
    """
    layout = plan_layout(image_set.M, image_set.L)
    lplanes = _ceil_log2(image_set.L)
    side = 1 << image_set.n
    values = np.asarray(image_set.images).astype(np.min_scalar_type((1 << image_set.L) - 1))
    bits = np.zeros((layout.padded_total, side, side, 1 << lplanes), dtype=np.uint8)
    for plane in range(image_set.L):  # planes L and up stay zero
        bits[: image_set.M, ..., plane] = (values >> plane) & 1
    shape = (layout.block_count, layout.images_per_block, side, side, 1 << lplanes)
    return BitTensor(image_set.n, lplanes, bits.reshape(shape))


def unpack(tensor: BitTensor, layout: BlockLayout, M: int, L: int = 8) -> ImageSet:
    """Rebuild the first M images from their low L planes; padding content
    is discarded."""
    if tensor.block_count != layout.block_count or (
        1 << tensor.lplanes
    ) != layout.images_per_block:
        raise ValueError("tensor dimensions disagree with the layout")
    if not 1 <= M <= layout.padded_total:
        raise ValueError(f"M={M} outside [1, {layout.padded_total}]")
    side = 1 << tensor.n
    cube = tensor.bits.reshape(layout.padded_total, side, side, -1)[:M]
    values = np.zeros((M, side, side), dtype=np.min_scalar_type((1 << L) - 1))
    for plane in range(min(L, cube.shape[-1])):
        values |= cube[..., plane].astype(values.dtype) << plane
    return ImageSet(tensor.n, L, values.astype(np.int64))


# ---------------------------------------------------------------------------
# PGM + manifest I/O (binary P5, 8-bit, square power-of-two sides)


def read_pgm(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if width != height or width & (width - 1):
        raise ValueError(f"{path}: image must be square with power-of-two side")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).copy()


def write_pgm(path: str | Path, image: np.ndarray):
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("image must be square")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def read_manifest(path: str | Path, L: int = 8) -> ImageSet:
    """Load the images listed one path per line (relative to the manifest)."""
    base = Path(path).parent
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    paths = [base / ln for ln in lines if ln and not ln.startswith("#")]
    if not paths:
        raise ValueError(f"{path}: manifest lists no images")
    images = [read_pgm(p) for p in paths]
    side = images[0].shape[0]
    if any(img.shape[0] != side for img in images):
        raise ValueError("all images must share one size")
    n = side.bit_length() - 1
    return ImageSet(n, L, np.stack(images).astype(np.int64))
