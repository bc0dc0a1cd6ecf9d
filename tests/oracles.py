"""Pointwise reference implementations that the tests compare the program to.

Each evaluates one point, one gate, one schedule draw, one key digit, one
bit plane or one header field at a time, in plain Python, so it is slow and
easy to check by eye.  The program itself works on whole tables, bit
arrays and compiled patterns.  The helpers at the end, which only tests
call, unrank one partition, draw two partitions per head, build whole
baker tables through the program's own table code, read one PGM and write a
key file.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from functools import lru_cache
from pathlib import Path

import numpy as np

from qbaker import baker, cipher, images
from qbaker.baker import BakerPartition
from qbaker.chaos import ChaoticSequences, ScmParams, ScmState, scm_step
from qbaker.cipher import MasterKey
from qbaker.circuit import Circuit, Gate

Point = tuple[int, int]


# -- baker maps ---------------------------------------------------------------


def apply(p: BakerPartition, pt: Point) -> Point:
    """Forward baker map of a single point."""
    x, y = pt
    size = 1 << p.n
    if not (0 <= x < size and 0 <= y < size):
        raise ValueError(f"point {pt} outside the {size} square")
    prefix = 0
    for e in p.q:
        width = 1 << e
        if x < prefix + width:
            stretch = 1 << (p.n - e)
            return (stretch * (x - prefix) + y % stretch, prefix + y // stretch)
        prefix += width
    raise AssertionError("unreachable: widths cover the square")


def apply_ms(s: int, n: int, pt: Point) -> Point:
    """The standalone map M_s; equals the baker map on any strip whose
    width 2^s divides the strip's left edge."""
    if not 0 <= s <= n:
        raise ValueError(f"s must lie in [0, {n}]")
    x, y = pt
    size = 1 << n
    if not (0 <= x < size and 0 <= y < size):
        raise ValueError(f"point {pt} outside the {size} square")
    low = 1 << (n - s)
    return ((low * x) % size + y % low, y // low + x - x % (1 << s))


def admissible_partitions(n: int) -> list[tuple[int, ...]]:
    """Every admissible exponent list for a 2^n square, lexicographic in q,
    by a depth-first walk that appends each allowed next exponent."""
    total = 1 << n
    out: list[tuple[int, ...]] = []

    def extend(prefix_sum: int, acc: list[int]):
        remaining = total - prefix_sum
        for e in range(n + 1):
            width = 1 << e
            if width > remaining:
                break
            if acc and prefix_sum % width != 0:
                continue
            acc.append(e)
            if width == remaining:
                out.append(tuple(acc))
            else:
                extend(prefix_sum + width, acc)
            acc.pop()

    extend(0, [])
    return out


@lru_cache(maxsize=None)
def completions(n: int) -> tuple[int, ...]:
    """counts[s]: the admissible completions of a prefix that sums to s, by
    a DP over prefix sums from the square's side down to 0 (counts[0] is the
    number of admissible partitions)."""
    side = 1 << n
    counts = [0] * side + [1]
    for s in range(side - 1, -1, -1):
        counts[s] = sum(counts[s + (1 << e)] for e in range(n + 1)
                        if s % (1 << e) == 0 and s + (1 << e) <= side)
    return tuple(counts)


def unrank(n: int, index: int) -> tuple[int, ...]:
    """The exponent list at ``index`` in lexicographic order, one rank at a
    time: at each prefix sum, try the next exponents in ascending order and
    skip each one's whole subtree of completions while the index lies past
    it."""
    counts = completions(n)
    if not 0 <= index < counts[0]:
        raise ValueError(f"rank {index} outside [0, {counts[0]})")
    side = 1 << n
    q: list[int] = []
    s = 0
    while s < side:
        for e in range(n + 1):
            width = 1 << e
            if s % width or s + width > side:
                continue
            if index < counts[s + width]:
                q.append(e)
                s += width
                break
            index -= counts[s + width]
        else:
            raise AssertionError("unreachable: the counts cover the index")
    return tuple(q)


def iterate(p: BakerPartition, r: int, pt: Point) -> Point:
    """r-fold forward application (r >= 0)."""
    if r < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(r):
        pt = apply(p, pt)
    return pt


# -- swap circuits on basis states --------------------------------------------


def _bitpos(wire, n: int) -> int:
    """x wire i is bit n+i of the packed state (x << n) | y, y wire i is bit i."""
    return wire.index + (n if wire.reg == "x" else 0)


def apply_gate(g: Gate, s: Point, n: int) -> Point:
    """Swap the two target bits iff every control condition holds."""
    x, y = s
    packed = (x << n) | y
    for wire, value in g.controls:
        if (packed >> _bitpos(wire, n)) & 1 != value:
            return s
    p1 = _bitpos(g.targets[0], n)
    p2 = _bitpos(g.targets[1], n)
    if (packed >> p1) & 1 != (packed >> p2) & 1:
        packed ^= (1 << p1) | (1 << p2)
    return (packed >> n, packed & ((1 << n) - 1))


def run(c: Circuit, s: Point) -> Point:
    """Left-to-right application of every gate."""
    for g in c.gates:
        s = apply_gate(g, s, c.n)
    return s


# -- chaotic map ----------------------------------------------------------------


def trajectory(state: ScmState, params: ScmParams, steps: int) -> list[ScmState]:
    """States after 1..steps iterations (the start state is not included)."""
    out = []
    for _ in range(steps):
        state = scm_step(state, params)
        out.append(state)
    return out


# -- keyed schedule and key digits ---------------------------------------------


def schedule_draws(seed: int, label: bytes, count: int, positions: int):
    """(ranks, iteration counts) of the first ``positions`` draws of a stage,
    as lists of Python ints: draw i is record i of the SHAKE-256 stream over
    the 8-byte big-endian seed and the label.  A record is a word of
    ceil((bit length of count + 64) / 8) bytes, read big-endian and reduced
    modulo ``count``, then one byte whose value mod 16, plus one, is the
    iteration count."""
    width = -(-(count.bit_length() + 64) // 8)
    stream = hashlib.shake_256(seed.to_bytes(8, "big") + label).digest(positions * (width + 1))
    ranks, iters = [], []
    for at in range(0, len(stream), width + 1):
        ranks.append(int.from_bytes(stream[at : at + width], "big") % count)
        iters.append(stream[at + width] % 16 + 1)
    return ranks, iters


def key_digits(seqs: ChaoticSequences, layout: images.BlockLayout) -> np.ndarray:
    """Every key digit of the layout, indexed [b, m, i, j], by the formula
    with scalar ``math`` calls only: |T_t T_z T_y T_x| * 10^10, floored, mod
    2^lplanes, where T_t = T_rs[m](ts[b']), T_z = T_ss[b](zs[m']), T_y =
    T_ns[i](ys[i']), T_x = T_ks[j](xs[j']), T_k(x) = cos(k acos x), and i' is
    the mirrored index (len - i + 1) mod len.  The factors multiply in that
    order, as ``keystream.key_table`` does, so both round alike."""

    def factor(k: int, seq, i: int) -> float:
        return math.cos(k * math.acos(seq[(len(seq) - i + 1) % len(seq)]))

    side, modulus = len(seqs.xs), layout.images_per_block
    t_y = [factor(seqs.ns[i], seqs.ys, i) for i in range(side)]
    t_x = [factor(seqs.ks[j], seqs.xs, j) for j in range(side)]
    digits = []
    for b in range(layout.block_count):
        for m in range(modulus):
            t_tz = factor(seqs.rs[m], seqs.ts, b) * factor(seqs.ss[b], seqs.zs, m)
            for y in t_y:
                digits += [int(abs(t_tz * y * x) * 10**10) % modulus for x in t_x]
    return np.array(digits, dtype=np.uint8).reshape(layout.block_count, modulus, side, side)


# -- bit cube -------------------------------------------------------------------


def cube_bits(image_set: images.ImageSet) -> np.ndarray:
    """The whole cube of ``image_set`` as (t, m, x, y, l) uint8 bits: cell
    [t, m, x, y, l] is bit l of pixel (x, y) of image t * 2^lplanes + m,
    taken one plane at a time by shift and mask, and zero for the blank
    images that pad the last block."""
    layout = images.plan_layout(image_set.M, image_set.L)
    per_block, side = layout.images_per_block, 1 << image_set.n
    pixels = np.zeros((layout.block_count * per_block, side, side), dtype=np.uint64)
    pixels[: image_set.M] = image_set.images
    planes = [(pixels >> np.uint64(l)) & np.uint64(1) for l in range(per_block)]
    cube = np.stack(planes, axis=-1).astype(np.uint8)
    return cube.reshape(layout.block_count, per_block, side, side, per_block)


def cube_payload(bits: np.ndarray) -> np.ndarray:
    """The ciphertext file's payload for the cube's (t, m, x, y, l) bits:
    its cells in (t, m, l, y, x) order, eight to a byte, first cell in the
    high bit."""
    return np.packbits(bits.transpose(0, 1, 4, 3, 2).reshape(-1))


# -- PGM header -----------------------------------------------------------------


def pgm_header(data: bytes) -> tuple[int, int, int, int]:
    """(width, height, maxval, pixel offset) of a P5 header, by a byte loop.

    Fields are runs of non-whitespace bytes; whitespace and '#' comments up
    to a newline separate them, and one byte after maxval ends the header.
    Raises ValueError where a field is not an integer.
    """
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
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
    width, height, maxval = fields
    return width, height, maxval, pos + 1


def pgm_accepts(width: int, height: int, maxval: int, payload: int) -> bool:
    """The reader's checks on parsed header fields and the pixel byte count."""
    side_ok = width == height and width >= 1 and not width & (width - 1)
    return maxval == 255 and side_ok and payload == width * height


# -- test-only table helpers ------------------------------------------------------


def unrank_admissible(n: int, index: int) -> BakerPartition:
    """The partition at ``index`` in ``enumerate_admissible(n)`` order."""
    (row,) = baker.unrank_rows(n, [index]).tolist()
    return BakerPartition(n, tuple(e for e in row if e >= 0))


def two_per_head(n: int) -> list[BakerPartition]:
    """Two partitions per head q1, drawn uniformly inside q1's rank interval.
    Uniform draws over all ranks almost never reach a wide head: at n = 8,
    q1 >= 5 is a 2.2e-6 share of the partitions."""
    rng = random.Random(n)
    count, starts, exps, _ = baker._ranking(n)
    heads, firsts = exps[:, 0].tolist(), starts[:, 0].tolist()
    assert heads == list(range(n + 1))
    parts = []
    for q1, lo, hi in zip(heads, firsts, (*firsts[1:], count)):
        for _ in range(2):
            p = unrank_admissible(n, rng.randrange(lo, hi))
            assert p.q[0] == q1
            parts.append(p)
    return parts


def rank_tables(n: int, ranks) -> np.ndarray:
    """``baker.partition_tables`` of the partitions with these ranks."""
    return baker.partition_tables(n, baker.unrank_rows(n, ranks))


def iterated_tables(n: int, ranks: np.ndarray, iters: np.ndarray):
    """(tables, row): one table over (x << n) | y per distinct (rank,
    iterations) pair, P^c, and the row of each position's pair, in the shape
    of ``ranks``.  Each distinct rank is unranked once, in one batch; a
    position's key is (iterations - 1) * d + i with i its rank's row among
    the d distinct ranks, as in ``cipher._StageTables``, and
    ``cipher._powers`` composes the distinct keys' tables, counts ascending.
    Counts may be 0, the identity."""
    distinct, which = np.unique(ranks, return_inverse=True)
    d = len(distinct)
    # signed before subtracting 1: a uint8 count of 0 would wrap to 255
    keys = (iters.astype(np.int64) - 1) * d + which
    drawn, row = np.unique(keys, return_inverse=True)
    counts, rows = np.divmod(drawn, d)  # floored: a count of 0 has key -d + i
    return cipher._powers(n, baker.unrank_rows(n, distinct)[rows], counts + 1), row


# -- test-only file helpers -------------------------------------------------------


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """One image as a (side, side) uint8 array, after ``read_manifest``'s checks."""
    side, pixels = images._pgm_pixels(path, images.read_file(path))
    return np.frombuffer(bytearray(pixels), dtype=np.uint8).reshape(side, side)


def write_key(path: str | Path, key: MasterKey):
    """The key file that ``cipher.read_key`` parses back to ``key``."""
    fields = {f"lambda{i + 1}": lam for i, lam in enumerate(key.lambdas)}
    fields.update(schedule_seed=key.schedule_seed, mode=key.mode)
    Path(path).write_text(cipher._format_fields(fields))
