"""Encrypt/decrypt pipeline: two-stage baker scrambling plus keyed XOR.

Stage 1 permutes the (image, plane) matrix independently at every pixel and
block; stage 2 permutes pixel positions independently per plane, image, and
block.  ``scramble`` composes both stages into one cell map per block, where
each cell's bit lands after stage 1 and then stage 2, and applies it with
one scatter (encrypt) or one gather (decrypt) per block; when every
position shares one key (simplified mode), all blocks share one map and the
whole cube moves in one gather in either direction.  Baker parameters and
iteration counts come from a keyed schedule (SHA-256 over the schedule seed
and position, so both sides agree without sharing plaintext).  A draw takes
the digest's first 64 bits modulo the number of admissible partitions as a
lexicographic rank, and only the drawn ranks are unranked into baker
tables.  There are 2.1e11 admissible partitions at n=6 but 4.4e22 at n=7,
more than a 64-bit draw can reach, so both squares are limited to n <= 6:
images of at most 64x64 pixels, L <= 64.
Diffusion XORs key digits derived from the plaintext-seeded chaotic
sequences into the bit cube; the aggregates x0/alpha/beta travel in the
ciphertext header so the receiver can rebuild the keystream, while the
lambda tuning parameters stay secret.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baker
from .chaos import ScmParams, generate_sequences
from .images import BitTensor, BlockLayout, ImageSet, pack, plan_layout, unpack
from .keystream import Seed, derive_seed, key_table, seed_from_header

MAX_ITERATIONS = 16
MAGIC = b"QBMI1"
# Largest square side exponent a 64-bit draw covers: count_admissible(6) is
# 2.1e11, count_admissible(7) is 4.4e22 > 2^64.
MAX_SCHEDULE_N = 6

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


def _draws(seed: int, label: bytes, positions: np.ndarray, n_choices: int):
    """Partition ranks and iteration counts, one draw per row of ``positions``.

    A draw hashes the seed, the label and the position's coordinates (64-bit
    and 32-bit big-endian words) with SHA-256; the first 64 digest bits
    modulo ``n_choices`` give the rank, the next 64 bits the iteration count.
    """
    base = hashlib.sha256(struct.pack(">Q", seed) + label)
    coords = positions.astype(">u4").tobytes()
    width = 4 * positions.shape[1]
    digests = []
    for i in range(len(positions)):
        h = base.copy()
        h.update(coords[i * width : (i + 1) * width])
        digests.append(h.digest())
    words = np.frombuffer(b"".join(digests), dtype=">u8").reshape(-1, 4)
    part = (words[:, 0] % np.uint64(n_choices)).astype(np.int64)
    iters = (words[:, 1] % np.uint64(MAX_ITERATIONS)).astype(np.int64) + 1
    return part, iters


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
        if simplified:
            positions = np.zeros((1, 0), dtype=np.uint32)  # one draw, no position
        else:
            positions = np.indices(shape).reshape(len(shape), -1).T
        for drawn in _draws(key.schedule_seed, label, positions, n_choices):
            arrays.append(np.full(shape, drawn[0]) if simplified else drawn.reshape(shape))
    return KeySchedule(lplanes, n, *arrays)


def _rows_per_take(cells: int) -> int:
    """Rows per gather, so that numpy's intp copy of the indices stays
    near 2 MB instead of scaling with the number of positions."""
    return max(1, (1 << 18) // cells)


def iterated_tables(n: int, ranks: np.ndarray, iters: np.ndarray) -> np.ndarray:
    """Row j: table over (x << n) | y of partition ranks[j] applied iters[j] times.

    Each distinct rank is unranked once.  Rows are sorted by iteration
    count, so the rows still composing at step s form a prefix, and hold
    indices into the flat buffer of all one-step tables, so ``np.take``
    advances the live rows a bounded block at a time.
    """
    order = np.argsort(-iters, kind="stable")
    counts = iters[order]
    distinct, which = np.unique(ranks[order], return_inverse=True)
    step = baker.rank_tables(n, distinct.tolist())[which]
    cells = step.shape[1]
    dtype = np.int32 if step.size < 1 << 31 else np.int64
    step = step.astype(dtype, copy=False)
    offsets = np.arange(0, step.size, cells, dtype=dtype).reshape(-1, 1)
    step += offsets
    done = step.copy()
    idle = counts == 0
    done[idle] = offsets[idle] + np.arange(cells, dtype=dtype)
    flat = step.reshape(-1)
    chunk = _rows_per_take(cells)
    for s in range(2, int(counts[0]) + 1):
        live = np.searchsorted(-counts, -s, side="right")
        for lo in range(0, live, chunk):
            rows = done[lo : min(live, lo + chunk)]
            np.take(flat, rows, out=rows)
    done -= offsets
    out = np.empty_like(done)
    out[order] = done
    return out


class _StageTables:
    """One stage's iterated tables, handed out a block at a time.

    When the stage's distinct (rank, iterations) keys need no more table
    cells than ``budget`` (one block's map), their tables are built once for
    all blocks; otherwise each block's tables are built from its own keys,
    so memory scales with one block and not with the block count.
    """

    def __init__(self, n: int, ranks: np.ndarray, iters: np.ndarray, budget: int):
        self.n = n
        self.keys = ranks * (MAX_ITERATIONS + 1) + iters
        self.distinct, row = np.unique(self.keys, return_inverse=True)
        self.whole = None
        if len(self.distinct) << (2 * n) <= budget:
            self.whole = self._tables(self.distinct), row.reshape(self.keys.shape)

    def _tables(self, keys: np.ndarray) -> np.ndarray:
        return iterated_tables(self.n, keys // (MAX_ITERATIONS + 1), keys % (MAX_ITERATIONS + 1))

    def block(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Tables, and the row of each of block t's positions in them."""
        if self.whole is not None:
            tables, row = self.whole
            return tables, row[..., t]
        distinct, row = np.unique(self.keys[..., t], return_inverse=True)
        return self._tables(distinct), row.reshape(self.keys.shape[:2])


def _cell_map(stage1: _StageTables, stage2: _StageTables, t: int) -> np.ndarray:
    """Where both stages send each cell of block t: an int32 array over the
    block's flat (m, x, y, l) cells holding the flat (m', x', y', l') index.

    Stage 1 sends (m, l) to (m', l') by the table at (x, y, t); stage 2 then
    sends (x, y) to (x', y') by the table at (l', m', t).
    """
    n, lplanes = stage2.n, stage1.n
    side, per_block = 1 << n, 1 << lplanes
    t1, row1 = stage1.block(t)
    t2, row2 = stage2.block(t)
    # (x, y, m, l) -> (m, x, y, l), holding (m' << lplanes) | l'
    ml = t1[row1].reshape(side, side, per_block, per_block).transpose(2, 0, 1, 3)
    at = row2.T.reshape(-1)[ml]  # stage-2 row at (l', m')
    xy = np.arange(side * side).reshape(1, side, side, 1)
    xy2 = t2.reshape(-1)[(at << (2 * n)) | xy]
    m2, l2 = ml >> lplanes, ml & (per_block - 1)
    return ((m2 << (2 * n + lplanes)) | (xy2 << lplanes) | l2).reshape(-1)


def scramble(tensor: BitTensor, sched: KeySchedule, inverse: bool = False) -> BitTensor:
    """Both baker stages as one permutation of each block's cells.

    The forward direction moves the bit at cell i to cell dest[i] (stage 1,
    then stage 2); the inverse gathers through dest.  Maps are built and
    applied one block at a time.  When each stage has one key for every
    position (simplified mode), all blocks share one map: it is built once
    and applied to every block in one gather.
    """
    bits = tensor.bits.reshape(tensor.block_count, -1)
    budget = bits.shape[1]
    stage1 = _StageTables(sched.plane_n, sched.s1_part, sched.s1_iter, budget)
    stage2 = _StageTables(sched.pixel_n, sched.s2_part, sched.s2_iter, budget)
    if len(stage1.distinct) == len(stage2.distinct) == 1:
        index = _cell_map(stage1, stage2, 0)
        if not inverse:
            src = np.empty_like(index)
            src[index] = np.arange(index.size, dtype=index.dtype)
            index = src
        out = np.take(bits, index, axis=1)
    else:
        out = np.empty_like(bits)
        for t in range(len(bits)):
            dest = _cell_map(stage1, stage2, t)
            if inverse:
                out[t] = bits[t][dest]
            else:
                out[t][dest] = bits[t]
    return BitTensor(tensor.n, tensor.lplanes, out.reshape(tensor.bits.shape))


def diffuse(tensor: BitTensor, keys: np.ndarray) -> BitTensor:
    """XOR key digits into the cube; plane l takes key bit (l mod digit width).

    Key digits carry ceil(log2 L) bits while the cube has 2^ceil(log2 L)
    planes, so digit bits are reused cyclically across planes; the operation
    stays an involution.
    """
    blocks, per_block, side, _ = keys.shape
    if (blocks, per_block) != (tensor.block_count, 1 << tensor.lplanes):
        raise ValueError("key table disagrees with the tensor layout")
    shifts = (np.arange(1 << tensor.lplanes) % max(1, tensor.lplanes)).astype(np.uint8)
    # keys: (t, m, x, y) -> plane mask (t, m, x, y, l), XORed in place: one
    # uint8 buffer the size of the cube
    mask = np.asarray(keys, dtype=np.uint8)[..., None] >> shifts
    mask &= 1
    mask ^= tensor.bits
    return BitTensor(tensor.n, tensor.lplanes, mask)


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


def _key_digits(seed: Seed, key: MasterKey, n: int, layout: BlockLayout) -> np.ndarray:
    lengths = (1 << n, 1 << n, layout.images_per_block, layout.block_count)
    return key_table(generate_sequences(seed.state(), key.params(), lengths), layout, n)


def encrypt(image_set: ImageSet, key: MasterKey) -> Ciphertext:
    layout = plan_layout(image_set.M, image_set.L)
    sched = derive_schedule(key, image_set.n, layout)
    tensor = pack(image_set)
    seed = derive_seed(image_set, tensor)
    keys = _key_digits(seed, key, image_set.n, layout)
    diffused = diffuse(scramble(tensor, sched), keys)
    return Ciphertext(
        diffused, image_set.n, image_set.L, image_set.M,
        seed.x0, seed.alpha, seed.beta, key.mode,
    )


def decrypt(ct: Ciphertext, key: MasterKey) -> ImageSet:
    """Reverse pipeline; a wrong key just yields garbage images."""
    layout = plan_layout(ct.M, ct.L)
    if ct.tensor.block_count != layout.block_count:
        raise ValueError("ciphertext dimensions disagree with its header")
    if ct.mode != key.mode:
        raise ValueError("key mode disagrees with the ciphertext header")
    sched = derive_schedule(key, ct.n, layout)
    seed = seed_from_header(ct.x0, ct.alpha, ct.beta)
    keys = _key_digits(seed, key, ct.n, layout)
    undiffused = diffuse(ct.tensor, keys)
    return unpack(scramble(undiffused, sched, inverse=True), layout, ct.M, ct.L)


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


def write_key(path: str | Path, key: MasterKey):
    fields = {f"lambda{i + 1}": lam for i, lam in enumerate(key.lambdas)}
    fields.update(schedule_seed=key.schedule_seed, mode=key.mode)
    Path(path).write_text(_format_fields(fields))


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
    payload_bits = ct.tensor.bits.transpose(0, 1, 4, 3, 2).reshape(-1)
    payload = np.packbits(payload_bits)
    Path(path).write_bytes(f"{MAGIC.decode()}\n{header}---\n".encode() + payload.tobytes())


def read_ciphertext(path: str | Path) -> Ciphertext:
    """Parse a ciphertext file; any missing, malformed or inconsistent header
    field (n outside [1, MAX_SCHEDULE_N] is refused before anything is sized
    from it), aggregates no plaintext can produce, and a payload of the wrong
    length raise ValueError."""
    blob = Path(path).read_bytes()
    sep = blob.find(b"---\n")
    if not blob.startswith(MAGIC) or sep < 0:
        raise ValueError(f"{path}: not a ciphertext file")
    try:
        fields = _parse_fields(blob[:sep].decode().splitlines()[1:])
        n, L, M, blocks, alpha, beta = (
            int(fields[name]) for name in ("n", "L", "M", "blocks", "alpha", "beta")
        )
        if not 1 <= n <= MAX_SCHEDULE_N:
            raise ValueError(f"n={n} outside [1, {MAX_SCHEDULE_N}]")
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
    total = blocks * per_block * side * side * per_block
    payload = blob[sep + 4 :]
    if len(payload) != (total + 7) // 8:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, the header implies {(total + 7) // 8}"
        )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=total)
    tensor_bits = bits.reshape(blocks, per_block, per_block, side, side).transpose(0, 1, 4, 3, 2)
    tensor = BitTensor(n, layout.lplanes, np.ascontiguousarray(tensor_bits))
    return Ciphertext(tensor, n, L, M, x0, alpha, beta, mode)
