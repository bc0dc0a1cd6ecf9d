"""Basis-state simulation of swap circuits.

Every gate maps computational basis states to basis states, so a circuit is
simulated exactly as a permutation of (x, y) integer pairs.  States pack as
s = (x << n) | y; x wire i is bit n+i, y wire i is bit i.

``to_permutation`` is the one simulation kernel: numpy applies each gate to
all 4^n packed states at once.  ``equivalence_sweep`` does not simulate
whole circuits.  Every synthesized circuit is a concatenation of pieces
(``circuit.piece_keys``), so the sweep simulates each distinct piece once,
memoizes its permutation table by key (the memo holds tables, never gates),
and composes a partition's circuit from one gather per piece.  Each piece's
gate count is checked against ``circuit.piece_budget`` once, when the piece
is built; the budgets of a partition's pieces sum to its closed-form count.
Circuit tables are compared pointwise against the baker map rows of
``baker.partition_tables``.
"""

from __future__ import annotations

import numpy as np

from . import baker, circuit
from .baker import BakerPartition
from .circuit import Circuit

# Piece key -> permutation of the packed states; see equivalence_sweep.
# Emptied whenever it reaches _PIECES_MAX entries.
_PIECES: dict[tuple, np.ndarray] = {}
_PIECES_MAX = 1024


def _bitpos(wire, n: int) -> int:
    return wire.index + (n if wire.reg == "x" else 0)


def _state_dtype(n: int):
    return np.uint16 if n <= 8 else np.uint32


def to_permutation(c: Circuit) -> np.ndarray:
    """Permutation table over packed indices (x << n) | y.

    Entry s is the image of state s.  The table is uint16 while 4^n <= 65536
    and uint32 above that.
    """
    n = c.n
    if n > circuit.MAX_N:
        raise ValueError(f"table materialization capped at n={circuit.MAX_N}")
    out = np.arange(1 << (2 * n), dtype=_state_dtype(n))
    for g in c.gates:
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
    perm = to_permutation(c)
    ref = baker.partition_tables(p.n, [p.q])[0].astype(perm.dtype)
    witness = _witness(perm, ref, c.n)
    return witness is None, witness


def _piece_permutation(key: tuple) -> np.ndarray:
    """Memoized table of one stream piece; its gate count is checked
    against ``circuit.piece_budget`` when the piece is built."""
    table = _PIECES.get(key)
    if table is None:
        n = key[0]
        gates = circuit.build_piece(key)
        budget = circuit.piece_budget(key)
        if len(gates) != budget:
            raise AssertionError(f"gate count {len(gates)} != model {budget} for piece {key}")
        # A one-block circuit; the simulation never reads its partition.
        table = to_permutation(Circuit(n, BakerPartition(n, (n,)), (gates,)))
        if len(_PIECES) >= _PIECES_MAX:
            _PIECES.clear()
        _PIECES[key] = table
    return table


def _composed(p: BakerPartition) -> np.ndarray:
    """Permutation table of ``synthesize(p)``, one gather per piece."""
    keys = circuit.piece_keys(p)
    perm = _piece_permutation(keys[0])
    for key in keys[1:]:
        perm = _piece_permutation(key)[perm]
    return perm


def equivalence_sweep(n: int, partitions, chunk: int = 64):
    """Check synthesized-circuit vs baker-map equality for many partitions.

    Yields (partition, (point, circuit_image, baker_image)) for every
    partition whose circuit differs from its baker map, with the witness
    ``equivalence`` reports; silent when all match.  Every partition is
    checked at all 4^n states, and the gate count of every piece of its
    circuit is asserted against the piece's share of the closed-form model.

    Piece tables are memoized across calls, keyed by ``circuit.piece_keys``;
    no gate tuples are kept.  All n <= 5 together have 930 distinct pieces,
    1.8 MB as uint16 tables; the memo is emptied when it reaches 1024 pieces.
    Baker rows are built ``chunk`` partitions at a time.
    """
    batch: list[BakerPartition] = []
    for p in partitions:
        batch.append(p)
        if len(batch) == chunk:
            yield from _sweep_batch(n, batch)
            batch = []
    yield from _sweep_batch(n, batch)


def _sweep_batch(n: int, batch: list[BakerPartition]):
    refs = baker.partition_tables(n, [p.q for p in batch]).astype(_state_dtype(n))
    for p, ref in zip(batch, refs):
        witness = _witness(_composed(p), ref, n)
        if witness is not None:
            yield p, witness
