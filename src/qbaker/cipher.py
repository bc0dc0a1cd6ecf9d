"""Encrypt/decrypt pipeline: two-stage baker scrambling plus keyed XOR.

Stage 1 permutes the (image, plane) matrix independently at every pixel and
block; stage 2 permutes pixel positions independently per plane, image, and
block.  Both stages compose into one map of each cell to where its bit lands
after stage 1 and then stage 2.  ``encrypt`` and ``decrypt`` are one loop
over chunks of blocks (``images.block_chunks``): encrypt packs a chunk's
images into words, moves its bits through the chunk's map (``scramble``),
XORs in the chunk's key digits (``diffuse``) and writes the words into the
ciphertext; decrypt undoes the XOR, moves the bits back and unpacks them into
the image array.  Only the chunk being moved is expanded to one byte per bit,
so besides the images and the ciphertext words a call holds one chunk's
arrays.  Each stage unranks its distinct drawn ranks once per call, in one
batch; a (rank, iterations) pair's table is then composed by binary powers,
for all blocks at once when every key the stage could draw fits one block's
map, and otherwise for each chunk from its own keys.  When every position
shares one key (simplified mode), block 0's map is built once and moves
every block.

Baker parameters and iteration counts come from a keyed schedule (SHA-256
over the schedule seed and position, so both sides agree without sharing
plaintext).  The positions are hashed a bounded chunk at a time, and
simplified mode makes one draw per stage, held as a broadcast view over the
positions.  A draw takes the digest's first 64 bits modulo the number of
admissible partitions as a lexicographic rank, and only the drawn ranks are
unranked.  There are 2.1e11 admissible partitions at n=6 but 4.4e22 at n=7,
more than a 64-bit draw can reach, so both squares are limited to n <= 6:
images of at most 64x64 pixels, L <= 64.
Diffusion XORs key digits derived from the plaintext-seeded chaotic
sequences into the bit cube; the aggregates x0/alpha/beta travel in the
ciphertext header so the receiver can rebuild the keystream, while the
lambda tuning parameters stay secret.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baker
from .chaos import ScmParams, generate_sequences
from .images import (BitTensor, BlockLayout, ImageSet, block_chunks, from_bits, pack,
                     plan_layout, to_bits, unpack, word_dtype)
from .keystream import Seed, derive_seed, key_factors, key_table, seed_from_header

MAX_ITERATIONS = 16
MAGIC = b"QBMI1"
# Largest square side exponent a 64-bit draw covers: count_admissible(6) is
# 2.1e11, count_admissible(7) is 4.4e22 > 2^64.
MAX_SCHEDULE_N = 6
# Positions hashed per pass of a keyed draw: bounds the digests held at once
# to about 200 kB.
_DRAW_CHUNK = 1 << 10

Mode = str  # one of MODES
MODES = ("simplified", "non_simplified")


@dataclass(frozen=True)
class MasterKey:
    lambdas: tuple[float, float, float, float, float]
    schedule_seed: int
    mode: Mode = "non_simplified"

    def __post_init__(self):
        self.params()  # the lambda rule
        if not 0 <= self.schedule_seed < (1 << 64):
            raise ValueError("schedule seed must fit in 64 bits")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def params(self) -> ScmParams:
        return ScmParams(self.lambdas)


@dataclass(frozen=True)
class KeySchedule:
    """Per-position partition choices and iteration counts for both stages.

    Stage 1 tables are indexed [x, y, t] and hold partitions of the 2^plane_n
    (m, l) square; stage 2 tables are indexed [l, m, t] and hold partitions of
    the 2^pixel_n (x, y) square.  A partition entry is the partition's
    lexicographic rank among the admissible partitions of its square, as
    ``baker.unrank_admissible`` reads it.
    """

    plane_n: int
    pixel_n: int
    s1_part: np.ndarray
    s1_iter: np.ndarray
    s2_part: np.ndarray
    s2_iter: np.ndarray


def _draws(seed: int, label: bytes, shape: tuple[int, ...], n_choices: int):
    """Partition ranks and iteration counts, one draw per position of an
    array of ``shape``, as two int64 arrays of that shape.

    A draw hashes the seed, the label and the position's coordinates (64-bit
    and 32-bit big-endian words) with SHA-256; the first 64 digest bits
    modulo ``n_choices`` give the rank, the next 64 bits the iteration count.
    Shape () makes one draw with no coordinates.
    """
    base = hashlib.sha256(struct.pack(">Q", seed) + label)
    copy, update, digest = type(base).copy, type(base).update, type(base).digest
    size = math.prod(shape)
    part = np.empty(size, dtype=np.int64)
    iters = np.empty(size, dtype=np.int64)
    for lo in range(0, size, _DRAW_CHUNK):
        at = np.arange(lo, min(lo + _DRAW_CHUNK, size))
        if shape:
            coords = np.array(np.unravel_index(at, shape), dtype=">u4").T.tobytes()
            rows = np.frombuffer(coords, dtype=f"V{4 * len(shape)}").tolist()
        else:
            rows = [b""]
        digests = []
        for row in rows:
            h = copy(base)
            update(h, row)
            digests.append(digest(h))
        words = np.frombuffer(b"".join(digests), dtype=">u8").reshape(-1, 4)
        part[lo : lo + len(at)] = words[:, 0] % np.uint64(n_choices)
        iters[lo : lo + len(at)] = words[:, 1] % np.uint64(MAX_ITERATIONS) + np.uint64(1)
    return part.reshape(shape), iters.reshape(shape)


def _choices(n: int) -> int:
    """Admissible partitions of a 2^n square, if a 64-bit draw covers them."""
    if n > MAX_SCHEDULE_N:
        raise ValueError(
            f"a 2^{n} square has more admissible partitions than the 64-bit "
            f"schedule draw reaches; the keyed schedule supports n <= {MAX_SCHEDULE_N}"
        )
    return baker.count_admissible(n)


def derive_schedule(key: MasterKey, n: int, layout: BlockLayout) -> KeySchedule:
    """Deterministic schedule from the seed; positions ignored when simplified."""
    lplanes = layout.lplanes
    if lplanes < 1:
        raise ValueError("plane square needs at least one bit")
    per_block = layout.images_per_block
    stages = (
        (b"stage1", (1 << n, 1 << n, layout.block_count), _choices(lplanes)),
        (b"stage2", (per_block, per_block, layout.block_count), _choices(n)),
    )
    simplified = key.mode == "simplified"
    arrays = []
    for label, shape, n_choices in stages:
        # simplified: one draw with no position, seen at every position
        drawn = _draws(key.schedule_seed, label, () if simplified else shape, n_choices)
        arrays += (np.broadcast_to(a, shape) for a in drawn)
    return KeySchedule(lplanes, n, *arrays)


def iterated_tables(n: int, ranks: np.ndarray, iters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tables, row): one table over (x << n) | y per distinct (rank, iterations)
    pair, and the row of each position's pair, in the shape of ``ranks``.

    Each distinct rank is unranked once, in one batch; ``_powers`` then
    builds the pairs' tables from those exponent rows.
    """
    distinct, which = np.unique(ranks, return_inverse=True)
    return _powers(n, baker.unrank_rows(n, distinct), which.reshape(ranks.shape), iters)


def _powers(n: int, exponents: np.ndarray, which: np.ndarray, iters: np.ndarray):
    """``iterated_tables`` for positions whose partitions are given as rows
    of ``exponents`` (as ``baker.unrank_rows`` returns them), ``which``
    holding each position's row.

    A pair is keyed by its exponent row, never by the rank, so no key can
    overflow.  Pairs sort by count, and each count c is a sum of powers of
    two, so P^c is composed from P, P^2, P^4, ... (the binary method, Knuth,
    TAOCP vol. 2, 4.6.3): the rows still squaring at bit b are the suffix
    with count >= 2^(b+1), and each equal-count slice copies its lowest set
    bit's power and composes one gather per further set bit.  Rows with
    count 0 stay the identity.
    """
    distinct = len(exponents)
    pairs, row = np.unique(iters.ravel() * distinct + which.ravel(), return_inverse=True)
    counts, first = np.divmod(pairs, distinct)
    power = baker.partition_tables(n, exponents[first])
    cells = power.shape[1]
    dtype = np.int32 if power.size < 1 << 31 else np.int64
    power = power.astype(dtype, copy=False)
    # every value a flat index into its own row, so one gather composes rows
    offsets = np.arange(0, power.size, cells, dtype=dtype).reshape(-1, 1)
    power += offsets
    done = np.empty_like(power)
    idle = np.searchsorted(counts, 1)
    done[:idle] = offsets[:idle] + np.arange(cells, dtype=dtype)
    flat = power.reshape(-1)
    starts = np.flatnonzero(np.diff(counts, prepend=-1)).tolist()  # of equal-count slices
    groups = [(lo, hi, int(counts[lo])) for lo, hi in zip(starts, [*starts[1:], len(counts)])]
    # a take's intp copy of its indices and its output, 384 kB at 2^15 cells,
    # stay in cache: 2^16 or more ran about 1.5 times slower at n=5
    chunk = max(1, (1 << 15) // cells)
    for bit in range(int(counts[-1]).bit_length()):
        for lo, hi, count in groups:
            if count >> bit & 1:
                if count & ((1 << bit) - 1):
                    _compose(flat, done, lo, hi, chunk)
                else:
                    done[lo:hi] = power[lo:hi]
        _compose(flat, power, np.searchsorted(counts, 2 << bit), len(counts), chunk)
    done -= offsets
    return done, row.reshape(which.shape)


def _compose(flat: np.ndarray, tables: np.ndarray, lo: int, hi: int, chunk: int):
    """tables[lo:hi] = flat[tables[lo:hi]], gathering ``chunk`` rows at a
    time into fresh arrays: a gather whose output overlaps its indices runs
    buffered and about half as fast.  Each row only reads its own row of
    ``flat``, so overwriting earlier rows is safe."""
    for at in range(lo, hi, chunk):
        rows = slice(at, min(at + chunk, hi))
        tables[rows] = np.take(flat, tables[rows])


class _StageTables:
    """One stage's iterated tables, handed out a chunk of blocks at a time.

    When every position has one key (``constant``), its tables are built
    from one position: ``np.unique`` of a broadcast schedule would copy it to
    full size.  Otherwise the stage's distinct ranks are unranked once, and
    when the tables of every key the stage could draw (count_admissible(n)
    ranks times ``MAX_ITERATIONS`` counts) fit in ``budget`` cells, one
    block's map, the drawn keys' tables are built once for all blocks;
    otherwise each chunk's are built from its own keys' exponent rows, so
    memory scales with one chunk and not with the block count.
    """

    def __init__(self, n: int, ranks: np.ndarray, iters: np.ndarray, budget: int):
        self.n, self.iters = n, iters
        self.constant = np.ptp(ranks) == 0 and np.ptp(iters) == 0
        self.whole = None
        if self.constant:
            one = (slice(0, 1),) * ranks.ndim
            tables, _ = iterated_tables(n, ranks[one], iters[one])
            self.whole = tables, np.broadcast_to(np.intp(0), ranks.shape)
            return
        distinct, which = np.unique(ranks, return_inverse=True)
        exponents, which = baker.unrank_rows(n, distinct), which.reshape(ranks.shape)
        if baker.count_admissible(n) * MAX_ITERATIONS << (2 * n) <= budget:
            self.whole = _powers(n, exponents, which, iters)
        else:
            self.exponents, self.which = exponents, which

    def tables(self, blocks: slice) -> tuple[np.ndarray, np.ndarray]:
        """(tables, row) as ``iterated_tables`` returns them, for the
        positions of ``blocks``: row[..., i] belongs to block blocks.start + i."""
        if self.whole is not None:
            tables, row = self.whole
            return tables, row[..., blocks]
        return _powers(self.n, self.exponents, self.which[..., blocks], self.iters[..., blocks])


def _cell_map(stage1: _StageTables, stage2: _StageTables, blocks: slice) -> np.ndarray:
    """Where both stages send each cell of ``blocks``: an int32 array over
    the slice's flat (t, m, x, y, l) cells holding the flat (t, m', x', y', l')
    index, with t counted from blocks.start.

    Stage 1 sends (m, l) to (m', l') by the table at (x, y, t); stage 2 then
    sends (x, y) to (x', y') by the table at (l', m', t).
    """
    n, lplanes = stage2.n, stage1.n
    side, per_block = 1 << n, 1 << lplanes
    tables1, row1 = stage1.tables(blocks)
    tables2, row2 = stage2.tables(blocks)
    # (x, y, t, m, l) -> (t, m, x, y, l), holding (m' << lplanes) | l'
    ml = tables1[row1].reshape(side, side, -1, per_block, per_block).transpose(2, 3, 0, 1, 4)
    m2, l2 = ml >> lplanes, ml & (per_block - 1)
    t = np.arange(len(ml), dtype=ml.dtype).reshape(-1, 1, 1, 1, 1)
    xy = np.arange(side * side, dtype=ml.dtype).reshape(1, 1, side, side, 1)
    # stage 2 tables in (t, l, m) order, flat over their (x << n) | y cells
    at = tables2[row2.transpose(2, 0, 1)].reshape(-1)
    xy2 = at[(((t << (2 * lplanes)) | (l2 << lplanes) | m2) << (2 * n)) | xy]
    dest = (((t << lplanes) | m2) << (2 * n + lplanes)) | (xy2 << lplanes) | l2
    return dest.reshape(-1)


class _CellMaps:
    """The cell maps of one schedule, handed out a chunk of blocks at a time
    as (index, scatter): the map that ``scramble`` moves the chunk's bits
    through, and how.

    The forward direction sends the bit at cell i to cell dest[i] (stage 1,
    then stage 2): each chunk scatters through its own map.  The inverse
    gathers through dest.  The stage tables are built once.  When both
    stages have one key for every position (simplified mode), block 0's map
    moves every block: it is built once, and the forward direction inverts
    it once and gathers through that.
    """

    def __init__(self, sched: KeySchedule, inverse: bool):
        self.cells = 1 << (2 * (sched.plane_n + sched.pixel_n))  # per block
        self.stage1 = _StageTables(sched.plane_n, sched.s1_part, sched.s1_iter, self.cells)
        self.stage2 = _StageTables(sched.pixel_n, sched.s2_part, sched.s2_iter, self.cells)
        self.scatter = not inverse
        self.shared = None
        if self.stage1.constant and self.stage2.constant:
            index = _cell_map(self.stage1, self.stage2, slice(0, 1))
            if not inverse:
                src = np.empty_like(index)
                src[index] = np.arange(index.size, dtype=index.dtype)
                index = src
            self.shared = index.astype(np.intp)  # np.take would copy it to intp for every chunk

    def __call__(self, blocks: slice) -> tuple[np.ndarray, bool]:
        if self.shared is not None:
            return self.shared, False
        return _cell_map(self.stage1, self.stage2, blocks), self.scatter


def scramble(words: np.ndarray, index: np.ndarray, scatter: bool) -> np.ndarray:
    """The words of a chunk of blocks with their bits moved through a cell
    map: the bit at cell i moves to cell index[i] (``scatter``) or comes from
    cell index[i].  The map covers the chunk's flat (t, m, x, y, l) cells or
    one block's, and then moves every block alike.
    """
    lplanes = words.shape[1].bit_length() - 1
    bits = to_bits(words, lplanes).reshape(-1, index.size)
    if scatter:
        moved = np.empty_like(bits)
        moved[:, index] = bits
    else:
        moved = np.take(bits, index, axis=1)
    return from_bits(moved.reshape(*words.shape, -1), lplanes)


@functools.cache
def _plane_masks(lplanes: int) -> np.ndarray:
    """The word that XORs digit d into every plane: plane l takes digit bit
    (l mod digit width)."""
    per_block, width = 1 << lplanes, max(1, lplanes)
    return np.array(
        [sum(((d >> (l % width)) & 1) << l for l in range(per_block)) for d in range(per_block)],
        dtype=word_dtype(lplanes),
    )


def diffuse(words: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The words of a chunk of blocks with key digits XORed in; plane l
    takes key bit (l mod digit width).

    Key digits carry ceil(log2 L) bits while the cube has 2^ceil(log2 L)
    planes, so digit bits are reused cyclically across planes; the operation
    stays an involution.  Each digit's plane mask is looked up as one word.
    """
    if keys.shape != words.shape:
        raise ValueError("key digits disagree with the words' layout")
    mask = _plane_masks(words.shape[1].bit_length() - 1)[keys]  # indexing reads uint8 keys in place
    mask ^= words
    return mask


@dataclass(frozen=True)
class Ciphertext:
    """Scrambled and diffused bit cube plus the public seed aggregates."""

    tensor: BitTensor
    n: int
    L: int
    M: int
    x0: float
    alpha: int
    beta: int
    mode: Mode


def _key_factors(seed: Seed, key: MasterKey, n: int, layout: BlockLayout):
    lengths = (1 << n, 1 << n, layout.images_per_block, layout.block_count)
    return key_factors(generate_sequences(seed.state(), key.params(), lengths), layout, n)


def encrypt(image_set: ImageSet, key: MasterKey) -> Ciphertext:
    n = image_set.n
    layout = plan_layout(image_set.M, image_set.L)
    sched = derive_schedule(key, n, layout)
    seed = derive_seed(image_set)
    factors = _key_factors(seed, key, n, layout)
    side = 1 << n
    words = np.empty((layout.block_count, layout.images_per_block, side, side),
                     dtype=word_dtype(layout.lplanes))
    maps = _CellMaps(sched, inverse=False)
    for chunk in block_chunks(layout.block_count, maps.cells):
        moved = scramble(pack(image_set, chunk), *maps(chunk))
        words[chunk] = diffuse(moved, key_table(factors, chunk))
    return Ciphertext(
        BitTensor(n, layout.lplanes, words), n, image_set.L, image_set.M,
        seed.x0, seed.alpha, seed.beta, key.mode,
    )


def decrypt(ct: Ciphertext, key: MasterKey) -> ImageSet:
    """Reverse pipeline; a wrong key just yields garbage images."""
    layout = plan_layout(ct.M, ct.L)
    tensor = ct.tensor
    if (tensor.n, tensor.lplanes, tensor.block_count) != (ct.n, layout.lplanes, layout.block_count):
        raise ValueError("ciphertext dimensions disagree with its header")
    if ct.mode != key.mode:
        raise ValueError("key mode disagrees with the ciphertext header")
    sched = derive_schedule(key, ct.n, layout)
    factors = _key_factors(seed_from_header(ct.x0, ct.alpha, ct.beta), key, ct.n, layout)
    side, per_block = 1 << ct.n, layout.images_per_block
    images = np.empty((ct.M, side, side), dtype=np.min_scalar_type((1 << ct.L) - 1))
    maps = _CellMaps(sched, inverse=True)
    for chunk in block_chunks(layout.block_count, maps.cells):
        undiffused = diffuse(tensor.words[chunk], key_table(factors, chunk))
        out = images[chunk.start * per_block : chunk.stop * per_block]
        unpack(scramble(undiffused, *maps(chunk)), ct.L, out)
    return ImageSet(ct.n, ct.L, images)


# ---------------------------------------------------------------------------
# File formats


def _format_fields(fields: dict[str, object]) -> str:
    """One ``name = value`` line per field."""
    return "".join(f"{name} = {value}\n" for name, value in fields.items())


def _parse_fields(lines: list[str]) -> dict[str, str]:
    """Fields of ``name = value`` lines; blank and ``#`` lines are skipped."""
    fields: dict[str, str] = {}
    for ln in lines:
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            name, _, value = ln.partition("=")
            fields[name.strip()] = value.strip()
    return fields


def read_key(path: str | Path) -> MasterKey:
    fields = _parse_fields(Path(path).read_text().splitlines())
    try:
        lambdas = tuple(float(fields[f"lambda{i + 1}"]) for i in range(5))
        return MasterKey(lambdas, int(fields["schedule_seed"]), fields.get("mode", "non_simplified"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key field {exc}") from None


def write_ciphertext(path: str | Path, ct: Ciphertext):
    """Header lines, a separator, then bits packed in (t, m, l, y, x) order."""
    header = _format_fields({
        "n": ct.n, "L": ct.L, "M": ct.M, "blocks": ct.tensor.block_count,
        "x0": ct.x0, "alpha": ct.alpha, "beta": ct.beta, "mode": ct.mode,
    })
    tensor = ct.tensor
    with open(path, "wb") as f:
        f.write(f"{MAGIC.decode()}\n{header}---\n".encode())
        for chunk in block_chunks(tensor.block_count, tensor.cells // tensor.block_count):
            bits = to_bits(tensor.words[chunk], tensor.lplanes)
            f.write(np.packbits(bits.transpose(0, 1, 4, 3, 2).reshape(-1)))


def _read_header(f, path) -> tuple[bytes, int]:
    """The bytes before the first ``---`` separator line, read a block at a
    time, and the offset at which the payload starts."""
    head = bytearray()
    while more := f.read(1 << 16):
        seen = max(0, len(head) - 3)  # a separator may span two reads
        head += more
        if (sep := head.find(b"---\n", seen)) >= 0:
            break
    else:
        sep = -1
    if not head.startswith(MAGIC) or sep < 0:
        raise ValueError(f"{path}: not a ciphertext file")
    return bytes(head[:sep]), sep + 4


def read_ciphertext(path: str | Path) -> Ciphertext:
    """Parse a ciphertext file; any missing, malformed or inconsistent header
    field (n outside [1, MAX_SCHEDULE_N] and L outside [2, 2^MAX_SCHEDULE_N]
    are refused before anything is sized from them), aggregates no plaintext
    can produce, and a payload of the wrong length raise ValueError.  The
    payload is read a chunk of blocks at a time into one reused buffer."""
    with open(path, "rb") as f:
        head, start = _read_header(f, path)
        try:
            fields = _parse_fields(head.decode().splitlines()[1:])
            n, L, M, blocks, alpha, beta = (
                int(fields[name]) for name in ("n", "L", "M", "blocks", "alpha", "beta")
            )
            if not 1 <= n <= MAX_SCHEDULE_N:
                raise ValueError(f"n={n} outside [1, {MAX_SCHEDULE_N}]")
            if not 2 <= L <= 1 << MAX_SCHEDULE_N:
                raise ValueError(f"L={L} outside [2, {1 << MAX_SCHEDULE_N}]")
            x0, mode = float(fields["x0"]), fields["mode"]
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
            layout = plan_layout(M, L)
        except KeyError as exc:
            raise ValueError(f"{path}: missing ciphertext field {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: bad ciphertext header: {exc}") from None
        if blocks != layout.block_count:
            raise ValueError(f"{path}: bad ciphertext header: blocks={blocks} for M={M}, L={L}")
        side = 1 << n
        per_block = layout.images_per_block
        # alpha and beta floor the mean and mean square of per-pixel bit counts,
        # which lie in [0, c]; mean(c^2) >= mean(c)^2 gives alpha^2 <= beta.
        c = blocks * per_block * per_block
        if not (0.0 <= x0 <= 1.0 and 0 <= alpha <= c and alpha * alpha <= beta <= c * c):
            raise ValueError(
                f"{path}: impossible header aggregates x0={x0!r}, alpha={alpha}, beta={beta} "
                f"(per-pixel bit counts lie in [0, {c}])"
            )
        # a block holds 2^(2n + 2 lplanes) >= 16 bits (n >= 1, L >= 2): whole bytes
        block_bytes = per_block * side * side * per_block // 8
        payload = os.fstat(f.fileno()).st_size - start
        if payload != blocks * block_bytes:
            raise ValueError(
                f"{path}: payload has {payload} bytes, the header implies "
                f"{blocks * block_bytes}"
            )
        f.seek(start)
        chunks = block_chunks(blocks, 8 * block_bytes)
        buffer = memoryview(bytearray((chunks[0].stop - chunks[0].start) * block_bytes))
        words = np.empty((blocks, per_block, side, side), dtype=word_dtype(layout.lplanes))
        for chunk in chunks:
            raw = buffer[: (chunk.stop - chunk.start) * block_bytes]
            if f.readinto(raw) != len(raw):
                raise ValueError(f"{path}: payload ended early")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            bits = bits.reshape(-1, per_block, per_block, side, side).transpose(0, 1, 4, 3, 2)
            words[chunk] = from_bits(bits, layout.lplanes)
    return Ciphertext(BitTensor(n, layout.lplanes, words), n, L, M, x0, alpha, beta, mode)
