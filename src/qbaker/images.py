"""Block bit-plane layout for a set of grayscale images.

M images of size 2^n x 2^n with L-bit pixels are grouped into blocks of
2^ceil(log2 L) images (short blocks padded with all-zero blanks), and every
pixel has 2^ceil(log2 L) bit planes.  The cells of the cube are indexed
(block, image-in-block, row, column, plane).  Callers work a bounded chunk
of blocks at a time (``block_chunks``), and hold a chunk's cells as uint8
bits, one byte per cell, shaped (t, m, x, y, l).  ``pack`` turns images
into the bits of a chunk and ``unpack`` turns them back; only these two
know that a pixel passes through a little-endian word whose bit l is plane
l.  No whole-cube array of bits is ever made.

Images are read and written as binary 8-bit PGM (P5).  The reader accepts
a header of ``P5``, width, height and maxval separated by whitespace or
``#`` comments that run to the end of a line, then one whitespace byte.  It
raises ``ValueError`` naming the file unless maxval is 255, the image is
square with a power-of-two side of at least 1, and exactly width x height
pixel bytes follow the header.  A manifest lists one image path per line,
relative to the manifest's directory (an absolute path stands as it is);
blank lines and ``#`` lines are skipped, and every image must share one
size.  ``check_pgm`` is ``write_pgm``'s range check, which a caller
writing several files runs on all of them first.  Every input file of the
program (manifest, PGM, key, ciphertext, circuit) is opened by
``open_regular``, and every output file is written by ``write_regular``,
which opens it the same way; both refuse anything but a regular file,
``/dev/null`` included.  ``write_regular`` writes over an existing file in
place and then cuts it to the bytes written, so no byte of an older, longer
file remains.  It opens without ``O_TRUNC``: on ext4 (``auto_da_alloc``) a
file truncated and rewritten has its blocks allocated and its writeback
started at close, which made writing 4,096 small PGMs several times slower.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from dataclasses import dataclass

import numpy as np


# The widest pixel word, uint64: its bit planes bound the bit depth L.
MAX_BIT_DEPTH = 64


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
        if self.L > MAX_BIT_DEPTH:
            raise ValueError(
                f"L={self.L} above {MAX_BIT_DEPTH}: a pixel word holds at most "
                f"{MAX_BIT_DEPTH} bit planes"
            )
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


def word_dtype(lplanes: int) -> np.dtype:
    """The narrowest little-endian unsigned type with 2^lplanes bits."""
    return np.dtype(f"<u{max(1, (1 << lplanes) // 8)}")


# Cells per chunk of blocks: bounds the bit-per-byte and float arrays of a
# chunked pass to a few hundred kB.  A chunk is still at least one block,
# whatever its size: 65,536 cells for 32x32 images at L=8, 4M for 256x256.
# Inside a chunk, the cipher's stage moves, table builds and schedule draws
# work a slice of half of this at a time (``cipher._SLICE_CELLS``), so their
# index arrays stay within it even when a single block is larger.
_CHUNK_CELLS = 1 << 16


def block_chunks(blocks: int, cells_per_block: int) -> list[slice]:
    """Slices of consecutive blocks covering range(blocks), each holding at
    most _CHUNK_CELLS cells (at least one block)."""
    step = max(1, _CHUNK_CELLS // cells_per_block)
    return [slice(lo, min(lo + step, blocks)) for lo in range(0, blocks, step)]


def plan_layout(M: int, L: int) -> BlockLayout:
    """Block geometry for M images with L bit planes; blank count minimal."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 2:
        raise ValueError("L must be >= 2")
    images_per_block = 1 << ceil_log2(L)
    block_count = 1 << max(0, ceil_log2(M) - ceil_log2(L))
    return BlockLayout(images_per_block, block_count)


def pack(image_set: ImageSet, blocks: slice) -> np.ndarray:
    """The (t, m, x, y, l) uint8 bits of the cube's blocks ``blocks``: bit l
    of pixel (x, y) of image m of block t; blank padding images are all zero.

    An L-bit pixel fits in a word of 2^ceil(log2 L) bits as it is, so each
    image becomes its words by one cast, and the words become bits by one
    little-endian unpack.
    """
    layout = plan_layout(image_set.M, image_set.L)
    start, stop, _ = blocks.indices(layout.block_count)
    per_block, side = layout.images_per_block, 1 << image_set.n
    words = np.zeros(((stop - start) * per_block, side, side), dtype=word_dtype(layout.lplanes))
    images = image_set.images[start * per_block : stop * per_block]
    words[: len(images)] = images
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits.reshape(-1, per_block, side, side, 8 * words.itemsize)[..., :per_block]


def unpack(bits: np.ndarray, L: int, out: np.ndarray):
    """Write the low L planes of the first len(out) images held by a chunk's
    (t, m, x, y, l) ``bits`` into ``out``; the images after them, blank
    padding, are discarded."""
    blocks, per_block, side, _, planes = bits.shape
    if len(out) > blocks * per_block:
        raise ValueError(f"{len(out)} images asked of bits that hold {blocks * per_block}")
    if planes < 8:  # the spare high bits of a byte word
        bits = np.pad(bits, [(0, 0)] * 4 + [(0, 8 - planes)])
    # one flat pack: packing along the last axis ran about 50 times slower
    words = np.packbits(bits.reshape(-1), bitorder="little").view(word_dtype(ceil_log2(planes)))
    images = words.reshape(-1, side, side)[: len(out)]
    np.bitwise_and(images, (1 << L) - 1, out=out, casting="unsafe")


# ---------------------------------------------------------------------------
# PGM + manifest I/O (binary P5, 8-bit, square power-of-two sides)

# Whitespace or '#' comments running to the end of the line, between header
# fields; exactly one whitespace byte ends the header.
_PGM_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(
    rb"P5" + _PGM_SEP + rb"(\d+)" + _PGM_SEP + rb"(\d+)" + _PGM_SEP + rb"(\d+)\s"
)
_READ_CHUNK = 1 << 16


def open_regular(path: str | os.PathLike, flags: int = os.O_RDONLY) -> int:
    """A descriptor of the regular file at path, opened with ``flags``;
    anything else (a FIFO, a device, a directory) raises ValueError naming
    it, before any byte moves and without waiting for a FIFO's other end
    (O_NONBLOCK: a write-only open of a FIFO with no reader fails, ENXIO;
    a write open of a directory fails, EISDIR)."""
    try:
        fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno not in (errno.ENXIO, errno.EISDIR):
            raise
    else:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            return fd
        os.close(fd)
    raise ValueError(f"{path}: not a regular file")


def write_regular(path: str | os.PathLike, *parts) -> None:
    """Write the bytes-like ``parts``, one after another, as the whole
    content of the regular file at path (``open_regular``), creating it if
    absent.  An existing file is written in place and then cut to the bytes
    written, also when a write fails, so none of its older bytes remain."""
    fd = open_regular(path, os.O_WRONLY | os.O_CREAT)
    written = 0
    try:
        for part in parts:
            view = memoryview(part).cast("B")
            while view:
                done = os.write(fd, view)
                written += done
                view = view[done:]
    finally:
        try:
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def read_file(path: str | os.PathLike) -> bytes:
    """Every byte of the regular file at path (``open_regular``)."""
    fd = open_regular(path)
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


def check_pgm(path: str | os.PathLike, image: np.ndarray) -> np.ndarray:
    """``image`` as an array, once an 8-bit P5 file at path can hold it:
    square, or ValueError, and every value in [0, 255], or ValueError
    naming the file."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("image must be square")
    if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
        raise ValueError(
            f"{path}: pixel values span [{arr.min()}, {arr.max()}]; an 8-bit PGM holds [0, 255]"
        )
    return arr


def write_pgm(path: str | os.PathLike, image: np.ndarray):
    """Write an 8-bit P5 file as the whole content of path (``write_regular``,
    one write of one ``bytes``), once ``check_pgm`` accepts the image."""
    arr = check_pgm(path, image)
    write_regular(path, b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
                  + arr.astype(np.uint8, copy=False).tobytes())


def read_manifest(path: str | os.PathLike, L: int = 8) -> ImageSet:
    """Load the images listed one path per line (relative to the manifest);
    blank lines and lines starting with '#' are skipped.  Each file's pixels
    are copied into one (M, side, side) buffer, sized once the first file
    gives the side."""
    base = os.path.dirname(path)
    lines = (ln.strip() for ln in read_file(path).decode().splitlines())
    names = [ln for ln in lines if ln and not ln.startswith("#")]
    if not names:
        raise ValueError(f"{path}: manifest lists no images")
    stack = None
    for i, name in enumerate(names):
        file = os.path.join(base, name)
        file_side, pixels = _pgm_pixels(file, read_file(file))
        if stack is None:
            side = file_side
            stack = np.empty((len(names), side, side), dtype=np.uint8)
            flat = memoryview(stack).cast("B")  # a slice store without numpy's per-call cost
        elif file_side != side:
            raise ValueError(
                f"{file}: side {file_side}; all images must share one size ({side})"
            )
        flat[i * len(pixels) : (i + 1) * len(pixels)] = pixels
    return ImageSet(side.bit_length() - 1, L, stack)
