"""Block bit-plane layout for a set of grayscale images.

M images of size 2^n x 2^n with L-bit pixels are grouped into blocks of
2^ceil(log2 L) images (short blocks padded with all-zero blanks), and every
pixel is split into bit planes.  The result is a five-axis bit cube indexed
(block, image-in-block, row, column, plane).

Images are read and written as binary 8-bit PGM (P5).  The reader accepts
a header of ``P5``, width, height and maxval separated by whitespace or
``#`` comments that run to the end of a line, then one whitespace byte.  It
raises ``ValueError`` naming the file unless maxval is 255, the image is
square with a power-of-two side of at least 1, and exactly width x height
pixel bytes follow the header.  A manifest lists one image path per line,
relative to the manifest's directory (an absolute path stands as it is);
blank lines and ``#`` lines are skipped, and every image must share one
size.  ``write_pgm`` creates its file or truncates an existing one, so no
bytes of an older, longer file remain.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np


def ceil_log2(v: int) -> int:
    """The least e >= 0 with 2^e >= v."""
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
    def lplanes(self) -> int:
        """ceil(log2 L): the index width of a bit plane and of an image in
        its block."""
        return ceil_log2(self.images_per_block)

    @property
    def padded_total(self) -> int:
        return self.images_per_block * self.block_count


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


def plan_layout(M: int, L: int) -> BlockLayout:
    """Block geometry for M images with L bit planes; blank count minimal."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 2:
        raise ValueError("L must be >= 2")
    images_per_block = 1 << ceil_log2(L)
    block_count = 1 << max(0, ceil_log2(M) - ceil_log2(L))
    return BlockLayout(images_per_block, block_count)


def pack(image_set: ImageSet) -> BitTensor:
    """Pack images into the bit cube; blank padding images are all zero.

    Planes are written one at a time from the images in the narrowest
    unsigned type that holds L bits (copied only when they are stored wider),
    so no intermediate is wider than that type.
    """
    layout = plan_layout(image_set.M, image_set.L)
    lplanes = layout.lplanes
    side = 1 << image_set.n
    values = np.asarray(image_set.images).astype(
        np.min_scalar_type((1 << image_set.L) - 1), copy=False
    )
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
    return ImageSet(tensor.n, L, values)


# ---------------------------------------------------------------------------
# PGM + manifest I/O (binary P5, 8-bit, square power-of-two sides)

# Whitespace or '#' comments running to the end of the line, between header
# fields; exactly one whitespace byte ends the header.
_PGM_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(
    rb"P5" + _PGM_SEP + rb"(\d+)" + _PGM_SEP + rb"(\d+)" + _PGM_SEP + rb"(\d+)\s"
)
_READ_CHUNK = 1 << 16


def _read_bytes(path: str | os.PathLike) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _pgm_pixels(path, data: bytes) -> tuple[int, memoryview]:
    """Side and pixel bytes of a PGM file's contents, after every check."""
    header = _PGM_HEADER.match(data)
    if header is None:
        if not data.startswith(b"P5"):
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        raise ValueError(f"{path}: malformed PGM header")
    width, height, maxval = (int(field) for field in header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if width != height or width < 1 or width & (width - 1):
        raise ValueError(f"{path}: image must be square with power-of-two side")
    payload = len(data) - header.end()
    if payload != width * height:
        raise ValueError(
            f"{path}: {payload} pixel bytes after the header, {width}x{height} needs "
            f"{width * height}"
        )
    return width, memoryview(data)[header.end():]


def write_pgm(path: str | os.PathLike, image: np.ndarray):
    """Write an 8-bit P5 file, replacing and truncating any file at path."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("image must be square")
    data = b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]) + arr.astype(
        np.uint8, copy=False
    ).tobytes()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def read_manifest(path: str | os.PathLike, L: int = 8) -> ImageSet:
    """Load the images listed one path per line (relative to the manifest);
    blank lines and lines starting with '#' are skipped."""
    base = os.path.dirname(path)
    lines = (ln.strip() for ln in _read_bytes(path).decode().splitlines())
    names = [ln for ln in lines if ln and not ln.startswith("#")]
    if not names:
        raise ValueError(f"{path}: manifest lists no images")
    side = None
    payloads = []
    for name in names:
        file = os.path.join(base, name)
        file_side, pixels = _pgm_pixels(file, _read_bytes(file))
        if side is None:
            side = file_side
        elif file_side != side:
            raise ValueError(
                f"{file}: side {file_side}; all images must share one size ({side})"
            )
        payloads.append(pixels)
    stack = np.frombuffer(bytearray().join(payloads), dtype=np.uint8)
    return ImageSet(side.bit_length() - 1, L, stack.reshape(len(payloads), side, side))
