"""Encrypt/decrypt pipeline: two-stage baker scrambling plus keyed XOR.

Stage 1 permutes the (image, plane) square at every pixel and block; stage 2
permutes the pixel square of every plane, image and block.  ``encrypt`` and
``decrypt`` are one loop over chunks of blocks (``images.block_chunks``),
and a chunk is (t, m, x, y, l) bits, one byte per bit, from ``images.pack``
to the payload and back: encrypt scrambles a chunk's bits (stage 1, then
stage 2), XORs in its key digits (``diffuse``) and packs them eight to a
byte into its bytes of ``Ciphertext.payload``, in the file's order; decrypt
unpacks them, undoes the XOR, unscrambles (stage 2, then stage 1) and hands
the bits to ``images.unpack``.  Each stage moves every row of a chunk, a
pixel's (m, l) square or a plane's (x, y) square, through its own forward
table (``scramble_stage1``, ``scramble_stage2``): encrypt scatters, decrypt
gathers.  A stage position's key, its partition's row and its iteration
count, names a table composed by binary powers: every key's table is built
once when they all fit one block's cells, and otherwise each slice of rows
builds its own keys' tables from the stage's distinct ranks, unranked once
per call.  When every position shares one key (simplified mode), the two
stages are composed once into one gather index over a block's cells.

Besides a chunk's bits and the arrays they move into, no array that a move,
a table build or a schedule draw makes spans more than ``_SLICE_CELLS``
cells (or one row, where a row is larger), whatever the block size.  Moves
walk a chunk's rows a slice at a time, read them as they lie and index them
through one intp buffer held for the whole call; the shared index is int32
and gathers through that buffer a slice at a time; and Horner's rule
reduces the one SHAKE-256 output a slice of draws at a time.

Baker parameters and iteration counts come from a keyed schedule, one
SHAKE-256 stream (FIPS 202) per stage over the schedule seed and the stage's
label, so both sides agree without sharing plaintext; simplified mode makes
one draw per stage, a broadcast view over the positions.  A rank is a word
64 bits wider than the partition count, modulo the count (bias below 2^-64),
so every square up to ``baker.MAX_N`` is drawn; only drawn ranks are unranked.
The stream comes from ``_sha3``, CPython's built-in Keccak, which ``hashlib``
itself falls back to for SHAKE and which gives the same bytes: taking it from
``hashlib`` loads OpenSSL's libcrypto, about 3.6 MB of every encrypt and
decrypt process, for this one call.  Its digests stop below 2^29 bytes
(``_MAX_STREAM``), so a keyed stage whose stream would be longer is refused:
at L <= 8 stage 1 takes 10 bytes a position, which at L = 8 refuses keyed
n=8 past 4096 images and keyed n=10 past 256.
Diffusion XORs key digits derived from the plaintext-seeded chaotic
sequences into the bit cube; the aggregates x0/alpha/beta travel in the
ciphertext header so the receiver can rebuild the keystream, while the
lambda tuning parameters stay secret.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from _sha3 import shake_256

from . import baker
from .chaos import ScmParams, generate_sequences
from .images import (_CHUNK_CELLS, MAX_BIT_DEPTH, BlockLayout, ImageSet, block_chunks,
                     open_regular, pack, plan_layout, read_file, unpack, write_regular)
from .keystream import Seed, derive_seed, key_factors, key_table, seed_from_header

MAX_ITERATIONS = 16
MAGIC = b"QBMI2"
# Bytes of a ciphertext file read for its header; headers written here are
# about 150 bytes.
_HEADER_BYTES = 1 << 16
# Cells that one array of a stage move, a table build or a schedule draw
# spans, whatever the block size (a move takes at least one row): half of
# ``images._CHUNK_CELLS``, so even a one-block chunk moves in slices.  A
# quarter ran keyed n=5, M=200 about 13% slower in process (2-core host):
# each slice's table build costs about 0.2 ms, however few its rows.
_SLICE_CELLS = _CHUNK_CELLS >> 1
# ``_sha3`` digests raise ValueError from this length up.
_MAX_STREAM = 1 << 29

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
    Counts are uint8; ranks the narrowest unsigned type, Python ints from n = 7.

    Stage 1 tables are indexed [x, y, t] and hold partitions of the 2^plane_n
    (m, l) square; stage 2 tables are indexed [l, m, t] and hold partitions of
    the 2^pixel_n (x, y) square.  A partition entry is the partition's
    lexicographic rank among the admissible partitions of its square, as
    ``baker.unrank_rows`` reads it.
    """

    plane_n: int
    pixel_n: int
    s1_part: np.ndarray
    s1_iter: np.ndarray
    s2_part: np.ndarray
    s2_iter: np.ndarray


def _record_bytes(count: int) -> int:
    """Stream bytes per position of a stage drawing ranks below ``count``:
    a word 64 bits wider than the count, and one byte of iterations."""
    return (count.bit_length() + 64 + 7) // 8 + 1


def _draws(seed: int, label: bytes, shape: tuple[int, ...], count: int):
    """(ranks below ``count``, iteration counts), one draw per position of
    an array of ``shape`` (() makes one), read from one SHAKE-256 stream over
    the seed and the label, ``_record_bytes(count)`` bytes per position in C
    order: a big-endian word modulo ``count``, reduced by Horner's rule over
    ``_SLICE_CELLS`` positions at a time, then one byte modulo 16 (a divisor
    of 256, so unbiased) plus one.

    Below 2^55 the word is reduced in int64 once per group of g byte columns:
    an accumulator below ``count`` (2^b > count) stays below 2^(b + 8g) <= 2^63
    for g = (63 - b) // 8 more columns.  Larger counts reduce Python ints
    after every column."""
    size = math.prod(shape)
    width = _record_bytes(count) - 1
    stream = shake_256(seed.to_bytes(8, "big") + label).digest(size * (width + 1))
    words = np.frombuffer(stream, dtype=np.uint8).reshape(size, width + 1)
    wide = count >= 1 << 55
    group = (63 - count.bit_length()) // 8
    part = np.empty(size, dtype=np.min_scalar_type(count - 1))  # object past 2^64
    quotients = np.empty(min(size, _SLICE_CELLS), dtype=np.int64)
    for lo in range(0, size, _SLICE_CELLS):
        rows = words[lo : lo + _SLICE_CELLS, :width]
        acc = np.zeros(len(rows), dtype=object if wide else np.int64)
        q = quotients[: len(rows)]
        for at, column in enumerate(rows.T, 1):
            acc *= 256
            acc += column
            if wide:
                acc %= count
            elif at % group == 0 or at == width:
                # acc %= count by the quotient, held in one buffer: int64
                # floor division by a scalar ran about 2.5 times faster than
                # np.remainder, and fresh quotients added 0.7 MB to a keyed
                # n=5 CLI process
                np.floor_divide(acc, count, out=q)
                q *= count
                acc -= q
        part[lo : lo + len(rows)] = acc
    iters = words[:, width] % MAX_ITERATIONS
    iters += 1
    return part.reshape(shape), iters.reshape(shape)


def derive_schedule(key: MasterKey, n: int, layout: BlockLayout) -> KeySchedule:
    """Deterministic schedule from the seed; positions ignored when simplified.
    Squares and blocks too large to scramble, and keyed stages whose stream
    ``_sha3`` cannot produce, are refused before any sizing or hashing."""
    lplanes, per_block = layout.lplanes, layout.images_per_block
    if not 1 <= n <= baker.MAX_N:
        raise ValueError(f"n={n} outside [1, {baker.MAX_N}]")
    if not 2 <= per_block <= MAX_BIT_DEPTH:
        raise ValueError(f"a block of {per_block} planes outside [2, {MAX_BIT_DEPTH}]")
    if per_block * per_block << 2 * n >= 1 << 31:  # cell numbers and table values are int32
        raise ValueError(f"n={n} outside what blocks of {per_block} planes allow: "
                         "a block holds 2^31 cells or more")
    stages = (
        (b"stage1", (1 << n, 1 << n, layout.block_count), baker.count_admissible(lplanes)),
        (b"stage2", (per_block, per_block, layout.block_count), baker.count_admissible(n)),
    )
    simplified = key.mode == "simplified"
    for label, shape, count in stages:
        stream = math.prod(shape) * _record_bytes(count)
        if not simplified and stream >= _MAX_STREAM:
            raise ValueError(f"keyed n={n} over {layout.block_count} blocks of {per_block} "
                             f"planes: {label.decode()} draws a SHAKE-256 stream of {stream} "
                             f"bytes, 2^29 or more")
    arrays = []
    for label, shape, count in stages:
        # simplified: one draw with no position, seen at every position
        drawn = _draws(key.schedule_seed, label, () if simplified else shape, count)
        arrays += (np.broadcast_to(a, shape) for a in drawn)
    return KeySchedule(lplanes, n, *arrays)


def _powers(n: int, exponents: np.ndarray, counts: np.ndarray):
    """The tables over (x << n) | y of these (exponent row, count) pairs,
    counts ascending: row i of ``exponents`` (as ``baker.unrank_rows``
    returns them) taken ``counts[i]`` times, P^c.

    Each count c is a sum of powers of two, so P^c is composed from P, P^2,
    P^4, ... (the binary method, Knuth, TAOCP vol. 2, 4.6.3): the rows still
    squaring at bit b are the suffix with count >= 2^(b+1), and each
    equal-count run of rows copies its lowest set bit's power and composes
    one gather per further set bit.  Rows with count 0 stay the identity.
    """
    power = baker.partition_tables(n, exponents)
    cells = power.shape[1]
    # every value a flat index into its own row, so one gather composes rows
    offsets = np.arange(0, power.size, cells, dtype=power.dtype).reshape(-1, 1)
    power += offsets
    done = np.empty_like(power)
    idle = np.searchsorted(counts, 1)
    done[:idle] = offsets[:idle] + np.arange(cells, dtype=power.dtype)
    flat = power.reshape(-1)
    listed = counts.tolist()  # equal-count runs: Python beats numpy at a slice's rows
    starts = [i for i in range(len(listed)) if not i or listed[i] != listed[i - 1]]
    groups = [(lo, hi, listed[lo]) for lo, hi in zip(starts, [*starts[1:], len(listed)])]
    # a slice of cells per gather: a take's intp copy of its indices and its
    # output stay in cache (2^16 cells or more ran about 1.5 times slower at n=5)
    chunk = max(1, _SLICE_CELLS // cells)
    for bit in range(listed[-1].bit_length()):
        for lo, hi, count in groups:
            if count >> bit & 1:
                if count & ((1 << bit) - 1):
                    _compose(flat, done, lo, hi, chunk)
                else:
                    done[lo:hi] = power[lo:hi]
        _compose(flat, power, np.searchsorted(counts, 2 << bit), len(counts), chunk)
    done -= offsets
    return done


def _compose(flat: np.ndarray, tables: np.ndarray, lo: int, hi: int, chunk: int):
    """tables[lo:hi] = flat[tables[lo:hi]], gathering ``chunk`` rows at a
    time into fresh arrays: a gather whose output overlaps its indices runs
    buffered and about half as fast.  Each row only reads its own row of
    ``flat``, so overwriting earlier rows is safe."""
    for at in range(lo, hi, chunk):
        rows = slice(at, min(at + chunk, hi))
        tables[rows] = np.take(flat, tables[rows])


class _StageTables:
    """One stage's iterated tables, handed out for the keys of a slice of rows.

    A position's key is (iterations - 1) * d + i, with i its partition's row
    among the stage's d exponent rows.  If every key's table (count_admissible(n)
    ranks times ``MAX_ITERATIONS`` counts) fits in ``budget`` cells, one
    block's, the rows are every partition at its rank and all keys' tables are
    built once, so a key is its table's row.  Otherwise the rows are the
    distinct drawn ranks, unranked once, and each slice of rows that a move
    takes builds its own keys' tables: memory scales with one slice, not with
    the block or the block count.
    """

    def __init__(self, n: int, ranks: np.ndarray, iters: np.ndarray, budget: int):
        self.n = n
        count = baker.count_admissible(n)
        every = count * MAX_ITERATIONS << (2 * n) <= budget
        ranked, row = (np.arange(count), ranks) if every else np.unique(ranks, return_inverse=True)
        self.exponents, d = baker.unrank_rows(n, ranked), len(ranked)
        dtype = np.min_scalar_type(d * MAX_ITERATIONS)
        self.keys = (iters.astype(dtype) - 1) * d + row.astype(dtype)
        self.whole = self._built(np.arange(d * MAX_ITERATIONS)) if every else None

    def _built(self, keys: np.ndarray) -> np.ndarray:
        """The tables of these keys, ascending."""
        counts, rows = np.divmod(keys, len(self.exponents))
        return _powers(self.n, self.exponents[rows], counts + 1)

    def tables(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tables, row) for some of ``self.keys``: the position of keys[i]
        moves through tables[row[i]], and row has the shape of keys."""
        if self.whole is not None:
            return self.whole, keys
        drawn, row = np.unique(keys, return_inverse=True)
        return self._built(drawn), row.reshape(keys.shape)


def _row_slices(lead: tuple[int, ...], step: int):
    """(at, lo, hi) for runs of at most ``step`` consecutive rows (at least
    one) of an array whose leading axes are ``lead``, in C order: the index
    ``at`` picks rows lo:hi of the flattened leading axes as a view, whatever
    the array's strides.  Trailing axes that fit go whole; the next one is split."""
    inner, axis = 1, len(lead)
    while axis and inner * lead[axis - 1] <= step:
        axis -= 1
        inner *= lead[axis]
    if not axis:
        yield (), 0, inner
        return
    split, lo = lead[axis - 1], 0
    width = max(1, step // inner)  # of the split axis
    for outer in np.ndindex(*lead[: axis - 1]):
        for at in range(0, split, width):
            hi = lo + (min(at + width, split) - at) * inner
            yield (*outer, slice(at, at + width)), lo, hi
            lo = hi


def _move(rows: np.ndarray, stage: _StageTables, keys: np.ndarray, send: bool,
          index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows`` (..., a, b), of any strides, with each (a, b) row moved
    through the table of its key (``keys`` has the shape of the leading axes)
    into ``out``, C-contiguous and as large as rows, returned in rows'
    shape: scattered with ``send``, out[i][T_i[j]] = rows[i][j], else
    gathered, out[i][j] = rows[i][T_i[j]].

    Rows move ``_SLICE_CELLS // (a * b)`` at a time, at least one.  Each
    slice's rows are read from ``rows`` as they lie, and its index, its
    tables' rows plus slice-local row offsets, is written into ``index``, an
    intp buffer of at least one slice (np.take copies any other dtype).
    """
    cells = rows.shape[-2] * rows.shape[-1]
    step = max(1, _SLICE_CELLS // cells)
    offsets = np.arange(0, step * cells, cells, dtype=np.intp).reshape(-1, 1)
    moved = out.reshape(-1, cells)
    for at, lo, hi in _row_slices(rows.shape[:-2], step):
        tables, row = stage.tables(keys[at].reshape(-1))
        ix = index[: (hi - lo) * cells].reshape(hi - lo, cells)
        np.add(tables[row], offsets[: hi - lo], out=ix)
        src = rows[at].reshape(-1)  # a copy of the slice when rows are strided
        if send:
            moved[lo:hi].reshape(-1)[ix.reshape(-1)] = src
        else:
            moved[lo:hi] = np.take(src, ix)
    return moved.reshape(rows.shape)


def scramble_stage1(cube: np.ndarray, stage: _StageTables, keys: np.ndarray, send: bool,
                    index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stage 1 on (t, m, x, y, l) cells: the (m, l) square at each pixel
    (x, y) of block t moved through the table of keys[x, y, t], some of
    ``stage.keys``, into ``out`` (``_move``), returned as (t, m, x, y, l)."""
    moved = _move(cube.transpose(0, 2, 3, 1, 4), stage, keys.transpose(2, 0, 1), send, index, out)
    return moved.transpose(0, 3, 1, 2, 4)


def scramble_stage2(cube: np.ndarray, stage: _StageTables, keys: np.ndarray, send: bool,
                    index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stage 2 on (t, m, x, y, l) cells: the (x, y) square of each plane
    (m, l) of block t moved through the table of keys[l, m, t], some of
    ``stage.keys``, into ``out`` (``_move``), returned as (t, m, x, y, l)."""
    moved = _move(cube.transpose(0, 1, 4, 2, 3), stage, keys.transpose(2, 1, 0), send, index, out)
    return moved.transpose(0, 1, 3, 4, 2)


class _Scrambler:
    """Moves a chunk of blocks' bits through both stages' forward tables.

    Encrypt sends the bit at cell c of a row to P(c), so it scatters stage 1
    then stage 2; decrypt gathers stage 2 then stage 1.  Every move slices
    its rows through one intp index buffer, held for the whole call.  When
    every position of both stages has one key (simplified mode), each stage
    has one table, and the two compose into one gather index over a block's
    cells that moves every chunk.
    """

    def __init__(self, sched: KeySchedule, inverse: bool):
        lplanes, n = sched.plane_n, sched.pixel_n
        self.cells = 1 << (2 * (lplanes + n))  # per block
        keys = (sched.s1_part, sched.s1_iter, sched.s2_part, sched.s2_iter)
        constant = all((a == a.flat[0]).all() for a in keys)
        if constant:  # block 0's keys: a broadcast view's stage keys would be full size
            keys = tuple(a[..., :1] for a in keys)
        self.stage1 = _StageTables(lplanes, *keys[:2], self.cells)
        self.stage2 = _StageTables(n, *keys[2:], self.cells)
        self.send = not inverse
        self.index = np.empty(max(_SLICE_CELLS, 1 << 2 * lplanes, 1 << 2 * n), dtype=np.intp)
        self.shared = self._composed(lplanes, n) if constant else None

    def _stages(self) -> list:
        """(stage function, tables) of both stages, in the order they run."""
        stages = [(scramble_stage1, self.stage1), (scramble_stage2, self.stage2)]
        return stages if self.send else stages[::-1]

    def _composed(self, lplanes: int, n: int) -> np.ndarray:
        """Block 0's cell numbers through both stages, as one gather index
        in (m, x, y, l) order.  Cell (m, x, y, l) is numbered g(m, l) +
        h(x, y), and each stage moves one share by one table: stage 1 g's
        (m, l) square, stage 2 h's (x, y) square.  So each share moves on
        its own, and their sum is written into an int32 index, half the
        bytes of intp."""
        planes, side = 1 << lplanes, 1 << n
        _, m, x, y, l = np.ogrid[:1, :planes, :side, :side, :planes]
        shares = [m * (side * side * planes) + l, (x * side + y) * planes]
        moved = [
            stage(share, tables, tables.keys[:1, :1, :1], self.send, self.index,
                  np.empty(share.size, dtype=share.dtype))
            for (stage, tables), share in zip(self._stages(), shares if self.send else shares[::-1])
        ]
        shared = np.empty(self.cells, dtype=np.int32)
        np.add(*moved, out=shared.reshape(1, planes, side, side, planes), casting="same_kind")
        return shared

    def __call__(self, bits: np.ndarray, blocks: slice) -> np.ndarray:
        """The (t, m, x, y, l) bits of the chunk ``blocks``, moved, as a
        view of a new array."""
        if self.shared is None:
            for stage, tables in self._stages():
                out = np.empty(bits.size, dtype=bits.dtype)
                bits = stage(bits, tables, tables.keys[..., blocks], self.send, self.index, out)
            return bits
        # every block of the chunk gathers through the shared index, a slice
        # of it at a time copied into the intp buffer
        flat = bits.reshape(len(bits), -1)
        out = np.empty(bits.shape, dtype=bits.dtype)
        moved = out.reshape(len(bits), -1)
        for lo in range(0, self.cells, _SLICE_CELLS):
            ix = self.index[: min(_SLICE_CELLS, self.cells - lo)]
            ix[...] = self.shared[lo : lo + len(ix)]
            moved[:, lo : lo + len(ix)] = np.take(flat, ix, axis=1)
        return out


@functools.cache
def _plane_bits(lplanes: int) -> np.ndarray:
    """The (digit, plane) uint8 bits that XOR digit d into every plane:
    plane l takes digit bit (l mod digit width)."""
    planes = np.arange(1 << lplanes)
    return (planes.reshape(-1, 1) >> (planes % lplanes) & 1).astype(np.uint8)


def diffuse(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """A chunk's (t, m, x, y, l) bits with key digits XORed in, as a new
    contiguous array; plane l takes key bit (l mod digit width).

    Key digits carry ceil(log2 L) bits while the cube has 2^ceil(log2 L)
    planes, so digit bits are reused cyclically across planes; the operation
    stays an involution.  Each digit's planes are looked up as one row.
    """
    if keys.shape != bits.shape[:-1]:
        raise ValueError("key digits disagree with the bits' layout")
    # np.take, not table[keys]: fancy indexing ran about eight times slower
    mask = np.take(_plane_bits(bits.shape[-1].bit_length() - 1), keys, axis=0)
    mask ^= bits
    return mask


def _block_bytes(n: int, layout: BlockLayout) -> int:
    """Payload bytes per block: 2^(2n + 2 lplanes) >= 16 cells (n >= 1,
    L >= 2), eight to a byte."""
    return layout.images_per_block**2 << 2 * n >> 3


@dataclass(frozen=True)
class Ciphertext:
    """Scrambled and diffused bit cube plus the public seed aggregates.
    ``payload`` is the cube as the file holds it after its header: the
    (t, m, l, y, x) cells packed eight to a byte, first cell in the high bit."""

    payload: np.ndarray  # 1-D uint8
    n: int
    L: int
    M: int
    x0: float
    alpha: int
    beta: int
    mode: Mode

    def __post_init__(self):
        layout = plan_layout(self.M, self.L)
        size = layout.block_count * _block_bytes(self.n, layout)
        p = self.payload
        if p.dtype != np.uint8 or p.ndim != 1 or not p.flags.c_contiguous or p.size != size:
            raise ValueError(f"payload must be {size} contiguous uint8 bytes for n={self.n}, "
                             f"L={self.L}, M={self.M}; got shape {p.shape} of {p.dtype}")


def _key_factors(seed: Seed, key: MasterKey, n: int, layout: BlockLayout):
    lengths = (1 << n, 1 << n, layout.images_per_block, layout.block_count)
    return key_factors(generate_sequences(seed.state(), key.params(), lengths), layout, n)


def encrypt(image_set: ImageSet, key: MasterKey) -> Ciphertext:
    n = image_set.n
    layout = plan_layout(image_set.M, image_set.L)
    sched = derive_schedule(key, n, layout)
    seed = derive_seed(image_set)
    factors = _key_factors(seed, key, n, layout)
    block_bytes = _block_bytes(n, layout)
    payload = np.empty(layout.block_count * block_bytes, dtype=np.uint8)
    scrambler = _Scrambler(sched, inverse=False)
    for chunk in block_chunks(layout.block_count, scrambler.cells):
        bits = diffuse(scrambler(pack(image_set, chunk), chunk), key_table(factors, chunk))
        # (t, m, x, y, l) bits in file order, (t, m, l, y, x)
        payload[chunk.start * block_bytes : chunk.stop * block_bytes] = np.packbits(
            bits.transpose(0, 1, 4, 3, 2))
    return Ciphertext(payload, n, image_set.L, image_set.M, seed.x0, seed.alpha, seed.beta,
                      key.mode)


def decrypt(ct: Ciphertext, key: MasterKey) -> ImageSet:
    """Reverse pipeline; a wrong key just yields garbage images."""
    if ct.mode != key.mode:
        raise ValueError("key mode disagrees with the ciphertext header")
    layout = plan_layout(ct.M, ct.L)
    sched = derive_schedule(key, ct.n, layout)
    factors = _key_factors(seed_from_header(ct.x0, ct.alpha, ct.beta), key, ct.n, layout)
    side, per_block = 1 << ct.n, layout.images_per_block
    block_bytes = _block_bytes(ct.n, layout)
    file_order = (-1, per_block, per_block, side, side)  # (t, m, l, y, x)
    images = np.empty((ct.M, side, side), dtype=np.min_scalar_type((1 << ct.L) - 1))
    scrambler = _Scrambler(sched, inverse=True)
    for chunk in block_chunks(layout.block_count, scrambler.cells):
        raw = ct.payload[chunk.start * block_bytes : chunk.stop * block_bytes]
        # seen as (t, m, x, y, l); the XOR writes them contiguous
        bits = np.unpackbits(raw).reshape(file_order).transpose(0, 1, 4, 3, 2)
        bits = diffuse(bits, key_table(factors, chunk))
        out = images[chunk.start * per_block : chunk.stop * per_block]
        unpack(scrambler(bits, chunk), ct.L, out)
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
    fields = _parse_fields(read_file(path).decode().splitlines())
    try:
        lambdas = tuple(float(fields[f"lambda{i + 1}"]) for i in range(5))
        return MasterKey(lambdas, int(fields["schedule_seed"]), fields.get("mode", "non_simplified"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key field {exc}") from None


def write_ciphertext(path: str | Path, ct: Ciphertext):
    """Header lines, a separator, then the payload."""
    header = _format_fields({
        "n": ct.n, "L": ct.L, "M": ct.M, "blocks": plan_layout(ct.M, ct.L).block_count,
        "x0": ct.x0, "alpha": ct.alpha, "beta": ct.beta, "mode": ct.mode,
    })
    write_regular(path, f"{MAGIC.decode()}\n{header}---\n".encode(), ct.payload)


def _read_header(f, path) -> tuple[bytes, int]:
    """The bytes before the first ``---`` separator line, which must lie in
    the file's first _HEADER_BYTES bytes, and the offset at which the payload
    starts.  A first line naming another ``QBMI`` format is refused by name."""
    head = f.read(_HEADER_BYTES)
    magic, sep = head.partition(b"\n")[0], head.find(b"---\n")
    if magic.startswith(b"QBMI") and magic != MAGIC:
        raise ValueError(f"{path}: format {magic[:16].decode(errors='replace')}, but this "
                         f"program reads {MAGIC.decode()}")
    if magic != MAGIC or sep < 0:
        raise ValueError(f"{path}: not a ciphertext file (no header in its first "
                         f"{_HEADER_BYTES} bytes)")
    return head[:sep], sep + 4


def read_ciphertext(path: str | Path) -> Ciphertext:
    """Parse a ciphertext file; any missing, malformed or inconsistent header
    field (n outside [1, baker.MAX_N] and L outside [2, MAX_BIT_DEPTH]
    are refused before anything is sized from them), aggregates no plaintext
    can produce, and a payload of the wrong length raise ValueError.  The
    payload is read once, after every check, into the array it stays in."""
    with open(open_regular(path), "rb") as f:
        head, start = _read_header(f, path)
        try:
            fields = _parse_fields(head.decode().splitlines()[1:])
            n, L, M, blocks, alpha, beta = (
                int(fields[name]) for name in ("n", "L", "M", "blocks", "alpha", "beta")
            )
            if not 1 <= n <= baker.MAX_N:
                raise ValueError(f"n={n} outside [1, {baker.MAX_N}]")
            if not 2 <= L <= MAX_BIT_DEPTH:
                raise ValueError(f"L={L} outside [2, {MAX_BIT_DEPTH}]")
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
        per_block = layout.images_per_block
        # alpha and beta floor the mean and mean square of per-pixel bit counts,
        # which lie in [0, c]; mean(c^2) >= mean(c)^2 gives alpha^2 <= beta.
        c = blocks * per_block * per_block
        if not (0.0 <= x0 <= 1.0 and 0 <= alpha <= c and alpha * alpha <= beta <= c * c):
            raise ValueError(
                f"{path}: impossible header aggregates x0={x0!r}, alpha={alpha}, beta={beta} "
                f"(per-pixel bit counts lie in [0, {c}])"
            )
        size, found = blocks * _block_bytes(n, layout), os.fstat(f.fileno()).st_size - start
        if found != size:
            raise ValueError(f"{path}: payload has {found} bytes, the header implies {size}")
        f.seek(start)
        payload = np.empty(size, dtype=np.uint8)
        if f.readinto(payload) != size:
            raise ValueError(f"{path}: payload ended early")
    return Ciphertext(payload, n, L, M, x0, alpha, beta, mode)
