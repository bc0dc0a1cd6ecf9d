"""Basis-state simulation of swap-gate sequences.

Every gate maps computational basis states to basis states, so a gate
sequence is simulated exactly as a permutation of (x, y) integer pairs.
States pack as s = (x << n) | y; x wire i is bit n+i, y wire i is bit i.

``to_permutation(n, gates)`` is the one simulation kernel: numpy applies
each gate to all 4^n packed states at once.  ``equivalence`` simulates a
whole circuit's gates; ``equivalence_sweep`` does not.  Every synthesized
circuit is a concatenation of pieces, runs ``(n, head, run, start)``
(``circuit.piece_keys``), so the sweep simulates each distinct piece once,
memoizes its permutation table by key in a least-recently-used cache of
1024 tables (never gates; 930 tables, 1.8 MB, cover n <= 5, and 1024 n = 8
tables take 128 MB).  It visits partitions in input order and composes each
one from the composed table of the key prefix it shares with the partition
before it, one gather per later piece.  Each piece's gate count is checked
against ``circuit.piece_budget`` once, when the piece is built; the budgets
of a partition's pieces sum to its closed-form count.  Circuit tables are
compared pointwise against the baker map rows of ``baker.partition_tables``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable

import numpy as np

from . import baker, circuit
from .baker import BakerPartition
from .circuit import Circuit, Gate

# Partitions whose baker rows equivalence_sweep builds in one call.
_CHUNK = 64


def _bitpos(wire, n: int) -> int:
    return wire.index + (n if wire.reg == "x" else 0)


def _state_dtype(n: int):
    return np.uint16 if n <= 8 else np.uint32


def to_permutation(n: int, gates: Iterable[Gate]) -> np.ndarray:
    """Permutation table of a gate sequence on 2n wires, over packed indices
    (x << n) | y.

    Entry s is the image of state s.  The table is uint16 while 4^n <= 65536
    and uint32 above that.
    """
    if n > circuit.MAX_N:
        raise ValueError(f"table materialization capped at n={circuit.MAX_N}")
    out = np.arange(1 << (2 * n), dtype=_state_dtype(n))
    for g in gates:
        cmask = cval = 0
        for wire, value in g.controls:
            cmask |= 1 << _bitpos(wire, n)
            cval |= value << _bitpos(wire, n)
        p1 = _bitpos(g.targets[0], n)
        p2 = _bitpos(g.targets[1], n)
        flip = ((out >> p1) ^ (out >> p2)) & 1 == 1
        if cmask:
            flip &= (out & cmask) == cval
        out[flip] ^= (1 << p1) | (1 << p2)
    return out


def _witness(perm: np.ndarray, ref: np.ndarray, n: int):
    """(point, circuit_image, baker_image) at the first state where the
    tables (of one dtype) differ, or None when they agree everywhere."""
    if perm.tobytes() == ref.tobytes():
        return None
    i = int(np.flatnonzero(perm != ref)[0])
    unpack = lambda s: (s >> n, s & ((1 << n) - 1))
    return unpack(i), unpack(int(perm[i])), unpack(int(ref[i]))


def equivalence(c: Circuit, p: BakerPartition):
    """Compare the circuit's permutation against the baker map pointwise.

    Returns (True, None) on equality, else (False, (point, circuit_image,
    baker_image)) for the first mismatching basis state.
    """
    perm = to_permutation(c.n, c.gates)
    ref = baker.partition_tables(p.n, [p.q])[0].astype(perm.dtype)
    witness = _witness(perm, ref, c.n)
    return witness is None, witness


@functools.lru_cache(maxsize=1024)
def _piece_permutation(key: tuple) -> np.ndarray:
    """Memoized, read-only table of one stream piece; its gate count is
    checked against ``circuit.piece_budget`` when the piece is built."""
    gates = circuit.build_piece(key)
    budget = circuit.piece_budget(key)
    if len(gates) != budget:
        raise AssertionError(f"gate count {len(gates)} != model {budget} for piece {key}")
    table = to_permutation(key[0], gates)
    table.flags.writeable = False  # every caller shares this array
    return table


def equivalence_sweep(n: int, partitions):
    """Check synthesized-circuit vs baker-map equality for many partitions.

    Yields (partition, (point, circuit_image, baker_image)) for every
    partition whose circuit differs from its baker map, in input order and
    with the witness ``equivalence`` reports; silent when all match.  Every
    partition is checked at all 4^n states, and the gate count of every
    piece of its circuit is asserted against the piece's share of the
    closed-form model.  A partition of another square than n raises
    ``ValueError``.

    A stack of (key, composed table) pairs, kept for one call, holds the
    composed prefixes of the partition visited last: the next partition pops
    back to the ``circuit.piece_keys`` prefix the two share and composes only
    its later pieces, one gather each.  Input in q order, as enumeration
    gives it (forward or reversed), keeps every key prefix contiguous, so
    each distinct prefix is composed once.  Piece tables are memoized across
    calls by key in a least-recently-used cache of 1024 tables (930 pieces,
    1.8 MB, cover n <= 5; an n = 8 table is 128 KB).  Baker rows are built
    ``_CHUNK`` partitions at a time.
    """
    dtype = _state_dtype(n)
    stack: list[tuple[tuple, np.ndarray]] = []
    partitions = iter(partitions)
    while chunk := list(itertools.islice(partitions, _CHUNK)):
        for p in chunk:
            if p.n != n:
                raise ValueError(f"partition {p} has n={p.n}, the sweep is over n={n}")
        refs = baker.partition_tables(n, [p.q for p in chunk]).astype(dtype)
        for p, ref in zip(chunk, refs):
            keys = circuit.piece_keys(p)
            shared = 0
            for (key, _), want in zip(stack, keys):
                if key != want:
                    break
                shared += 1
            del stack[shared:]
            for key in keys[shared:]:
                table = _piece_permutation(key)
                stack.append((key, table.take(stack[-1][1]) if stack else table))
            witness = _witness(stack[-1][1], ref, n)
            if witness is not None:
                yield p, witness
