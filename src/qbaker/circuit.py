"""Swap-gate circuits for baker-map permutations on 2n wires.

Wires are x_{n-1}..x_0 (column register) and y_{n-1}..y_0 (row register).
Every pass of a circuit moves whole wires, and every pass has one lowering:
the minimal swap cycles of its wire move (``_cycle_gates``), where the move
is ``_delta_move(n, s, w, v)``: M_v after undoing M_w on a 2^s sub-square.

A circuit is lowered by one recursion over runs (``_run_gates``).  Under the
paper's condition [BA] every strip starts at a multiple of its own width, so
after a 2^head-wide head strip, the strips that start between two multiples
of 2^head form a run (``_runs``): one strip wider than the head, or a window
of narrower strips, tagged with the high bits of its column.  A wide strip
converts the head's M image to its own in one pass.  A window is a baker map
one size down, on the top and bottom head-many x and y wires: an M pass for
its own head strip over the window, then the window's runs, lowered the same
way.  The whole square is the window of an n-wide head at column 0, so a
partition's stream is ``_run_gates(n, n, n, q, 0, ())``, and the count model
prices each strip by ``_strip_gates(head, q)``, with head n for the first.

Controls are placed only on wires that (a) are never targets of the same
subcircuit and (b) provably hold the strip pattern at that point in the
stream.  Conditioning each gate on wires its own subcircuit relocates would
break the swap-gate involution property, so narrow-strip gates condition on
window tags (high y wires) rather than on every pattern bit; a documented
consequence is that consecutive same-width strips are handled by shared
gates.  The stream is cut into pieces, each a run ``(n, head, run, start)``
(``piece_keys``): the square's head strip alone, then every top-level run.
``build_piece`` lowers a piece and pads it with copies of its last,
self-inverse gate up to its share of the closed-form model
(``piece_budget``); the stream is sliced per subfunction by ``gate_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .baker import BakerPartition, is_admissible

# Largest square whose circuits are synthesized, parsed or simulated (4^12
# states per table).
MAX_N = 12


class Wire(NamedTuple):
    reg: str  # "x" or "y"
    index: int

    def __str__(self) -> str:
        return f"{self.reg}{self.index}"


class ControlCondition(NamedTuple):
    wire: Wire
    value: int

    def __str__(self) -> str:
        return f"{self.wire}={self.value}"


class Gate(NamedTuple):
    """A swap of two target wires, applied iff every control matches."""

    targets: tuple[Wire, Wire]
    controls: tuple[ControlCondition, ...] = ()

    def validate(self):
        a, b = self.targets
        if a == b:
            raise ValueError("swap targets must be distinct")
        seen: dict[Wire, int] = {}
        for wire, value in self.controls:
            if wire in (a, b):
                raise ValueError(f"control on target wire {wire}")
            if value not in (0, 1):
                raise ValueError("control value must be 0 or 1")
            if seen.setdefault(wire, value) != value:
                raise ValueError(f"conflicting controls on {wire}")

    def __str__(self) -> str:
        a, b = self.targets
        if not self.controls:
            return f"SWAP {a} {b}"
        conds = " ".join(str(c) for c in self.controls)
        return f"CSWAP {a} {b} ? {conds}"


@dataclass(frozen=True)
class Circuit:
    n: int
    partition: BakerPartition
    subfunctions: tuple[tuple[Gate, ...], ...]  # [0] is f_1

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(g for block in self.subfunctions for g in block)

    def validate(self):
        for g in self.gates:
            g.validate()
            for wire in (*g.targets, *(c.wire for c in g.controls)):
                if wire.reg not in ("x", "y") or not 0 <= wire.index < self.n:
                    raise ValueError(f"wire {wire} outside 2x{self.n} register")

    def to_text(self) -> str:
        lines = [f"# n={self.n} partition={self.partition}"]
        lines.extend(str(g) for g in self.gates)
        return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the one-gate-per-line interchange format."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing '# n=<n> partition=<q>' header")
    header = dict(part.split("=", 1) for part in lines[0][1:].split())
    for field in ("n", "partition"):
        if field not in header:
            raise ValueError(f"circuit header lacks '{field}='")
    n = int(header["n"])
    if not 1 <= n <= MAX_N:
        raise ValueError(f"circuit header n={n} outside [1, {MAX_N}]")
    partition = BakerPartition.parse(n, header["partition"])

    def parse_wire(tok: str) -> Wire:
        if tok[:1] not in ("x", "y") or not tok[1:].isdigit():
            raise ValueError(f"bad wire {tok!r}")
        return Wire(tok[0], int(tok[1:]))

    gates = []
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0] == "SWAP" and len(toks) == 3:
            gates.append(Gate((parse_wire(toks[1]), parse_wire(toks[2]))))
        elif toks[0] == "CSWAP" and len(toks) >= 5 and toks[3] == "?":
            targets = (parse_wire(toks[1]), parse_wire(toks[2]))
            conds = []
            for tok in toks[4:]:
                wire_s, val_s = tok.split("=")
                conds.append(ControlCondition(parse_wire(wire_s), int(val_s)))
            gates.append(Gate(targets, tuple(conds)))
        else:
            raise ValueError(f"bad gate line {ln!r}")
    circ = Circuit(n, partition, (tuple(gates),))
    circ.validate()
    return circ


# ---------------------------------------------------------------------------
# Gate-count model


def _strip_gates(head: int, q: int) -> int:
    """Model gates for a strip of width 2^q staged by M_head: M_q's cost on
    a 2^head square when q <= head (nothing when q == head), else the cost of
    converting the M_head image to M_q.  The first strip's head is n."""
    if q > head:
        return (q - head) * (2 * head + 1)
    if q <= head / 2:
        return head + q
    return (head - q) * (3 * q - head + 2)


def gate_count(p: BakerPartition) -> tuple[list[int], int]:
    """Per-subfunction gate counts and their total."""
    if not is_admissible(p):
        raise ValueError(f"partition {p} is not admissible")
    q1 = p.q[0]
    counts = [_strip_gates(p.n, q1)] + [_strip_gates(q1, q) for q in p.q[1:]]
    return counts, sum(counts)


def piece_budget(key: tuple) -> int:
    """Model gate count of the piece with this ``piece_keys`` key, its run's
    ``_strip_gates(head, e)`` summed.  The head piece ``(n, n, (q1,), 0)``
    is the first strip's cost, and a partition's piece budgets sum to its
    ``gate_count`` total, since strips as wide as the head cost nothing."""
    _, head, run, _ = key
    return sum(_strip_gates(head, e) for e in run)


# ---------------------------------------------------------------------------
# Wire moves and their one swap lowering


def _m_move(n: int, s: int, u: int) -> dict[Wire, Wire]:
    """Content movement of M_u on the 2^s sub-square, in global wires."""
    move: dict[Wire, Wire] = {}
    for j in range(s):
        src = Wire("x", n - s + j)
        move[src] = Wire("x", n - u + j) if j < u else Wire("y", j)
    for j in range(s):
        src = Wire("y", j)
        move[src] = Wire("x", n - s + j) if j < s - u else Wire("y", j - (s - u))
    return move


def _delta_move(n: int, s: int, w: int, v: int) -> dict[Wire, Wire]:
    """Content movement of M_v after undoing M_w, on the 2^s sub-square;
    with w = s it is M_v's own movement, since M_s is the identity."""
    mw = _m_move(n, s, w)
    mv = _m_move(n, s, v)
    inv_w = {dst: src for src, dst in mw.items()}
    return {wire: mv[inv_w[wire]] for wire in mw}


def _cycle_gates(move: dict[Wire, Wire],
                 controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Minimal swap realization of a content-movement permutation."""
    gates: list[Gate] = []
    seen: set[Wire] = set()
    for start in sorted(move):
        if start in seen or move[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        cur = move[start]
        while cur != start:
            cycle.append(cur)
            cur = move[cur]
        seen.update(cycle)
        for a, b in zip(cycle[-1:0:-1], cycle[-2::-1]):
            gates.append(Gate((a, b), controls))
    return gates


# ---------------------------------------------------------------------------
# Recursive stream construction


def _runs(qs: tuple[int, ...], start: int) -> list[tuple[tuple[int, ...], int]]:
    """The runs after the head strip ``qs[0]``, with their start columns.

    ``start`` is the head's column.  A run is the strips that start in
    ``[c, c + 2^head)``, c a multiple of 2^head: one strip wider than the
    head, or narrower strips that fill that window.  A strip as wide as the
    head is covered by its M_head pass and forms no run.
    """
    head = qs[0]
    window = 1 << head
    runs = []
    pos = start + window
    i = 1
    while i < len(qs):
        end = (pos | window - 1) + 1  # the next multiple of 2^head
        if end - pos != window:
            raise AssertionError("strips straddle a window boundary")
        j = i
        while pos < end:
            pos += 1 << qs[j]
            j += 1
        if qs[i] != head:
            runs.append((qs[i:j], end - window))
        i = j
    return runs


def _run_gates(n: int, s: int, head: int, run: tuple[int, ...], start: int,
               controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Gates of one run at column ``start`` of a 2^s sub-square whose strips
    are staged by M_head, tagged on top of ``controls`` with y[s-1..m] set to
    the bits of ``start``, m = max(head, run[0]): the run starts at a
    multiple of 2^m, so the tag pins its columns.

    A wide strip converts the M_head image to its own by one pass.  A window
    of strips no wider than the head is a 2^head sub-square: an M pass for
    its first strip, then the gates of each of its runs.
    """
    tag = controls + tuple(ControlCondition(Wire("y", j), (start >> j) & 1)
                           for j in range(s - 1, max(head, run[0]) - 1, -1))
    if run[0] > head:
        return _cycle_gates(_delta_move(n, s, head, run[0]), tag)
    out = _cycle_gates(_delta_move(n, head, head, run[0]), tag)
    for sub, sub_start in _runs(run, start):
        out += _run_gates(n, head, run[0], sub, sub_start, tag)
    return out


def _free_wire(n: int, gate: Gate) -> Wire:
    """The first wire, x before y, that the gate neither swaps nor reads."""
    used = set(gate.targets) | {c.wire for c in gate.controls}
    for reg in ("x", "y"):
        for idx in range(n):
            if Wire(reg, idx) not in used:
                return Wire(reg, idx)
    raise AssertionError("no free wire for padding")


def _pad(stream: list[Gate], deficit: int, n: int) -> list[Gate]:
    """Grow ``stream`` by ``deficit`` gates without changing its action.

    Every gate is a controlled swap, an involution, so repeating the last
    gate an even number of times adds the identity.  An odd deficit first
    splits the last gate in two on the value of a wire it neither swaps nor
    reads: the copies gated on 0 and on 1 act as the gate did.
    """
    if deficit % 2:
        gate = stream.pop()
        branch = _free_wire(n, gate)
        stream += [Gate(gate.targets, gate.controls + (ControlCondition(branch, v),))
                   for v in (0, 1)]
        deficit -= 1
    if deficit:
        stream += [stream[-1]] * deficit  # an empty piece raises IndexError
    return stream


def piece_keys(p: BakerPartition) -> list[tuple]:
    """Keys ``(n, head, run, start)`` of the pieces a partition's gate stream
    is cut into, in order: ``(n, n, (q1,), 0)``, the square as a window
    holding only its head strip (the M_{q1} pass), then each run of
    ``_runs``.  Equal keys give equal pieces in every partition.
    """
    n, q1 = p.n, p.q[0]
    keys = [(n, n, (q1,), 0)]
    keys += [(n, q1, run, start) for run, start in _runs(p.q, 0)]
    return keys


def build_piece(key: tuple) -> tuple[Gate, ...]:
    """The gates ``_run_gates`` lowers the run ``key`` to, on the whole
    square with no inherited controls, padded to its ``piece_budget``.

    It is built afresh on every call: the equivalence sweep memoizes piece
    permutations by key instead of gate tuples.
    """
    n = key[0]
    piece = _run_gates(n, n, *key[1:], ())
    deficit = piece_budget(key) - len(piece)
    if deficit < 0:
        raise AssertionError(f"piece {key} emits more gates than the count model")
    return tuple(_pad(piece, deficit, n))


def synthesize(p: BakerPartition) -> Circuit:
    """Full circuit for an admissible partition, sliced per subfunction."""
    if p.n > MAX_N:
        raise ValueError(f"synthesis capped at n={MAX_N}, got n={p.n}")
    counts, _ = gate_count(p)
    stream = [g for key in piece_keys(p) for g in build_piece(key)]
    blocks: list[tuple[Gate, ...]] = []
    pos = 0
    for c in counts:
        blocks.append(tuple(stream[pos : pos + c]))
        pos += c
    return Circuit(p.n, p, tuple(blocks))
