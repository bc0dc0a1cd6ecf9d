"""Swap-gate circuits for baker-map permutations on 2n wires.

Wires are x_{n-1}..x_0 (column register) and y_{n-1}..y_0 (row register).
Every pass of a circuit moves whole wires, and every pass has one lowering:
the minimal swap cycles of its wire move (``_cycle_gates``).  ``synthesize``
lowers an admissible partition to a gate list in three layers:

* the first strip's map M_{q_1} over the whole square (``_m_move``);
* the later strips split into runs (``_runs``): a strip wider than 2^{q_1}
  is one run, the move that converts the M_{q_1} image to the strip's own
  (``_delta_move``), gated on the strip-identifying y wires; strips as wide
  as the first need no gates;
* strips narrower than 2^{q_1} share a 2^{q_1}-aligned window, one run whose
  correction is itself a baker map one size down, so the lowering recurses
  on the top q_1 x wires and bottom q_1 y wires: an M_head pass over the
  window, then its runs split the same way.

Controls are placed only on wires that (a) are never targets of the same
subcircuit and (b) provably hold the strip pattern at that point in the
stream.  Conditioning each gate on wires its own subcircuit relocates would
break the swap-gate involution property, so narrow-strip gates condition on
window tags (high y wires) rather than on every pattern bit; a documented
consequence is that consecutive same-width strips are handled by shared
gates.  The stream is cut into pieces, the M_{q_1} pass and one per
top-level run (``piece_keys``).  ``build_piece`` lowers each piece and pads
it with net-identity swaps up to its share of the closed-form model
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


def _count_first(s: int, q: int) -> int:
    """Gates for M_q on a 2^s square (the first-strip cost)."""
    if q <= s / 2:
        return s + q
    return (s - q) * (3 * q - s + 2)


def _count_later(q1: int, qi: int) -> int:
    """Gates for converting M_{q1} staging to strip width 2^qi.  A strip no
    wider than the first costs what M_qi costs on a 2^q1 square."""
    if qi <= q1:
        return _count_first(q1, qi)
    return (qi - q1) * (2 * q1 + 1)


def gate_count(p: BakerPartition) -> tuple[list[int], int]:
    """Per-subfunction gate counts and their total."""
    if not is_admissible(p):
        raise ValueError(f"partition {p} is not admissible")
    q1 = p.q[0]
    counts = [_count_first(p.n, q1)]
    counts.extend(_count_later(q1, qi) for qi in p.q[1:])
    return counts, sum(counts)


def piece_budget(key: tuple) -> int:
    """Model gate count of the piece with this ``piece_keys`` key; a
    partition's piece budgets sum to its ``gate_count`` total, because
    strips as wide as the first cost nothing."""
    if len(key) == 2:
        return _count_first(*key)
    _, q1, qs, _ = key
    return sum(_count_later(q1, e) for e in qs)


# ---------------------------------------------------------------------------
# Control bookkeeping


def _window_tag(n: int, start: int, lo: int, hi: int,
                base: tuple[ControlCondition, ...]) -> tuple[ControlCondition, ...]:
    """Pin y[lo..hi] to the bits of ``start`` on top of inherited conditions."""
    extra = tuple(
        ControlCondition(Wire("y", j), (start >> j) & 1) for j in range(hi, lo - 1, -1)
    )
    return base + extra


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
    ``_m_move(n, s, u)`` is the case w = s."""
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

    ``start`` is the head's column.  A run is one strip wider than the head,
    or the narrower strips that exactly fill one head-width window.  Strips
    as wide as the head are covered by its M_head pass and form no run.
    """
    head = qs[0]
    window = 1 << head
    runs = []
    pos = start + window
    i = 1
    while i < len(qs):
        q = qs[i]
        if q < head:
            j = i
            width = 0
            while width < window:
                width += 1 << qs[j]
                j += 1
            if width != window:
                raise AssertionError("strips straddle a window boundary")
            runs.append((qs[i:j], pos))
            i = j
        else:
            width = 1 << q
            if q > head:
                runs.append((qs[i : i + 1], pos))
            i += 1
        pos += width
    return runs


def _run_gates(n: int, s: int, head: int, run: tuple[int, ...], start: int,
               controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Gates of one run of a 2^s sub-square whose strips are staged by M_head.

    A wide strip converts the M_head image to its own by the minimal swap
    cycles, tagged with its y pattern; a window of narrower strips is a baker
    map one size down, tagged with the window's y pattern.
    """
    if run[0] > head:
        tag = _window_tag(n, start, run[0], s - 1, controls)
        return _cycle_gates(_delta_move(n, s, head, run[0]), tag)
    return _stream(n, head, run, start, _window_tag(n, start, head, s - 1, controls))


def _stream(n: int, s: int, qs: tuple[int, ...], start: int,
            controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Gate stream for an admissible partition ``qs`` of a 2^s sub-square
    whose first column is ``start``: an M_head pass over the whole
    sub-square, then the gates of each run."""
    out = _cycle_gates(_m_move(n, s, qs[0]), controls)
    for run, run_start in _runs(qs, start):
        out.extend(_run_gates(n, s, qs[0], run, run_start, controls))
    return out


def _free_wires(n: int, gate: Gate, needed: int) -> list[Wire]:
    """Deterministically pick wires not touched by the gate's targets/controls."""
    used = set(gate.targets) | {c.wire for c in gate.controls}
    picked: list[Wire] = []
    for reg in ("x", "y"):
        for idx in range(n):
            w = Wire(reg, idx)
            if w not in used:
                picked.append(w)
                if len(picked) == needed:
                    return picked
    raise AssertionError("not enough free wires for padding")


def _sandwich(gate: Gate, scratch: Wire,
              controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Three swaps with the same net effect as ``gate`` (scratch restored)."""
    a, b = gate.targets
    return [
        Gate((a, scratch), controls),
        Gate((scratch, b), controls),
        Gate((a, scratch), controls),
    ]


def _pad(stream: list[Gate], deficit: int, n: int) -> list[Gate]:
    """Grow ``stream`` by ``deficit`` gates without changing its action.

    The last gate is rewritten as an equivalent longer sequence: a swap
    triple through a scratch wire (+2), a pair split on a free wire's value
    (+1), or a split whose second branch is a triple (+3).
    """
    while deficit > 0:
        gate = stream.pop()
        if deficit % 2 == 0:
            scratch = _free_wires(n, gate, 1)[0]
            stream.extend(_sandwich(gate, scratch, gate.controls))
            deficit -= 2
        elif deficit == 1:
            branch = _free_wires(n, gate, 1)[0]
            for val in (0, 1):
                cond = gate.controls + (ControlCondition(branch, val),)
                stream.append(Gate(gate.targets, cond))
            deficit -= 1
        else:  # odd deficit >= 3: split, one branch direct, one a triple
            branch, scratch = _free_wires(n, gate, 2)
            lo = gate.controls + (ControlCondition(branch, 0),)
            hi = gate.controls + (ControlCondition(branch, 1),)
            stream.append(Gate(gate.targets, lo))
            stream.extend(_sandwich(gate, scratch, hi))
            deficit -= 3
    return stream


def piece_keys(p: BakerPartition) -> list[tuple]:
    """Keys of the pieces a partition's gate stream is cut into, in order.

    ``(n, q1)`` is the M_{q1} pass over the whole square; each later key
    ``(n, q1, qs, start)`` is one run of ``_runs``.  Equal keys give equal
    pieces in every partition.
    """
    n, q1 = p.n, p.q[0]
    keys: list[tuple] = [(n, q1)]
    keys += [(n, q1, run, start) for run, start in _runs(p.q, 0)]
    return keys


def build_piece(key: tuple) -> tuple[Gate, ...]:
    """The gates of the piece with this ``piece_keys`` key, padded to its
    ``piece_budget``.

    It is built afresh on every call: the equivalence sweep memoizes piece
    permutations by key instead of gate tuples.
    """
    if len(key) == 2:
        n, q1 = key
        piece = _cycle_gates(_m_move(n, n, q1), ())
    else:
        n, q1, qs, start = key
        piece = _run_gates(n, n, q1, qs, start, ())
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
