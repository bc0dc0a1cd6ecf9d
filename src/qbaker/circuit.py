"""Swap-gate circuits for baker-map permutations on 2n wires.

Wires are x_{n-1}..x_0 (column register) and y_{n-1}..y_0 (row register).
``synthesize`` lowers an admissible partition to a gate list in three layers:

* the first strip's map M_{q_1} as plain swaps (``synth_f1``);
* for each later strip, controlled swaps that convert the M_{q_1} image to
  the strip's own image, gated on the strip-identifying y wires;
* strips narrower than 2^{q_1} share a 2^{q_1}-aligned window, and the
  window's correction is itself a baker map one size down, so the lowering
  recurses on the top q_1 x wires and bottom q_1 y wires.

Controls are placed only on wires that (a) are never targets of the same
subcircuit and (b) provably hold the strip pattern at that point in the
stream.  Conditioning each gate on wires its own subcircuit relocates would
break the swap-gate involution property, so narrow-strip gates condition on
window tags (high y wires) rather than on every pattern bit; a documented
consequence is that consecutive same-width strips are handled by shared
gates.  Streams are then padded with net-identity swap triples to keep every
subfunction at the gate count predicted by the closed-form model in
``gate_count``, and sliced per subfunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .baker import BakerPartition, is_admissible


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

    @property
    def kind(self) -> str:
        return "ControlledSwap" if self.controls else "Swap"

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
    partition = BakerPartition.parse(n, header["partition"])

    def parse_wire(tok: str) -> Wire:
        if tok[0] not in ("x", "y") or not tok[1:].isdigit():
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
    """Gates for converting M_{q1} staging to strip width 2^qi."""
    if qi <= q1 / 2:
        return q1 + qi
    if qi <= q1:
        return (q1 - qi) * (3 * qi - q1 + 2)
    return (qi - q1) * (2 * q1 + 1)


def gate_count(p: BakerPartition) -> tuple[list[int], int]:
    """Per-subfunction gate counts and their total."""
    if not is_admissible(p):
        raise ValueError(f"partition {p} is not admissible")
    q1 = p.q[0]
    counts = [_count_first(p.n, q1)]
    counts.extend(_count_later(q1, qi) for qi in p.q[1:])
    return counts, sum(counts)


# ---------------------------------------------------------------------------
# First subfunction (plain swaps)


def _first_strip_gates(n: int, s: int, q: int,
                       controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """M_q on the sub-square spanned by x[n-s..n-1] and y[0..s-1].

    Two gate families, chosen by q against s/2; both orderings are pinned by
    the exhaustive circuit-vs-permutation suite.
    """
    X = lambda j: Wire("x", n - s + j)
    Y = lambda j: Wire("y", j)
    out: list[Gate] = []

    def sw(a: Wire, b: Wire):
        out.append(Gate((a, b), controls))

    for i in range(s - q):
        sw(X(i), Y(i))
    if 2 * q <= s:
        for i in range(q):
            sw(X(s - q + i), Y(i))
        for i in range(q):
            sw(Y(s - q + i), Y(i))
    else:
        for j in range(q):
            for i in range(s - q):
                sw(Y(s - q - i + j), Y(s - q - i - 1 + j))
        for i in range(q, s):
            sw(X(i), Y(i))
        for j in range(s - q):
            for i in range(2 * q - s):
                sw(X(q - i + j), X(q - i - 1 + j))
    return out


def synth_f1(n: int, q1: int) -> list[Gate]:
    """Uncontrolled circuit for the first strip's map M_{q1} on the full square."""
    if not 0 <= q1 <= n:
        raise ValueError(f"q1 must lie in [0, {n}]")
    return _first_strip_gates(n, n, q1, ())


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
# Wide strips (width > 2^{q_1} at the current level)


def _wide_strip_gates(n: int, w: int, v: int,
                      controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Convert M_w staging to an M_v image, v > w (three swap families)."""
    X = lambda j: Wire("x", j)
    Y = lambda j: Wire("y", j)
    out: list[Gate] = []
    for k in range(w):
        for l in range(v - w):
            out.append(Gate((X(n - w - l + k), X(n - w - l - 1 + k)), controls))
    for l in range(v - w):
        out.append(Gate((X(n - 1 - l), Y(v - 1 - l)), controls))
    for k in range(v - w):
        for l in range(w):
            out.append(Gate((Y(w - l + k), Y(w - l - 1 + k)), controls))
    return out


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
    """Content movement of M_v after undoing M_w, on the 2^s sub-square."""
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


def _stream(n: int, s: int, parts: list[tuple[int, int]],
            controls: tuple[ControlCondition, ...]) -> list[Gate]:
    """Gate stream for an admissible partition of a 2^s sub-square.

    ``parts`` holds (exponent, absolute start) pairs.  The head strip becomes
    an M_{head} pass over the whole sub-square; same-width strips are covered
    by that pass; wider strips get their own tagged conversion; narrower
    strips recurse one window down.
    """
    head_q = parts[0][0]
    out = _first_strip_gates(n, s, head_q, controls)
    i = 1
    while i < len(parts):
        q, start = parts[i]
        if q == head_q:
            i += 1
        elif q > head_q:
            tag = _window_tag(n, start, q, s - 1, controls)
            out.extend(_cycle_gates(_delta_move(n, s, head_q, q), tag))
            i += 1
        else:
            width = 0
            j = i
            while width < (1 << head_q):
                width += 1 << parts[j][0]
                j += 1
            if width != 1 << head_q:
                raise AssertionError("strips straddle a window boundary")
            tag = _window_tag(n, start, head_q, s - 1, controls)
            out.extend(_stream(n, head_q, parts[i:j], tag))
            i = j
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
        if deficit == 2 or deficit % 2 == 0:
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


def _window_piece(n: int, q1: int, qs: tuple[int, ...], start: int) -> tuple[Gate, ...]:
    """Padded gate stream for one window (or one wide strip) at the top level.

    ``qs`` is either a single exponent > q1 (wide strip) or the exponent run
    of a 2^q1 window; ``start`` is the window's absolute column offset.  The
    piece is padded so its length equals the summed gate-count model of the
    strips it covers.  It is built afresh on every call: the equivalence
    sweep memoizes piece permutations by key instead of gate tuples.
    """
    if len(qs) == 1 and qs[0] > q1:
        tag = _window_tag(n, start, qs[0], n - 1, ())
        piece = _wide_strip_gates(n, q1, qs[0], tag)
        budget = _count_later(q1, qs[0])
    else:
        tag = _window_tag(n, start, q1, n - 1, ())
        pos = start
        parts = []
        for e in qs:
            parts.append((e, pos))
            pos += 1 << e
        piece = _stream(n, q1, parts, tag)
        budget = sum(_count_later(q1, e) for e in qs)
    deficit = budget - len(piece)
    if deficit < 0:
        raise AssertionError(
            f"window emission exceeds the count model (q1={q1}, qs={qs})"
        )
    return tuple(_pad(piece, deficit, n))


def piece_keys(p: BakerPartition) -> list[tuple]:
    """Keys of the pieces a partition's gate stream is cut into, in order.

    ``(n, q1)`` is the M_{q1} pass over the whole square; each later key
    ``(n, q1, qs, start)`` is one wide strip or one 2^q1 window (same-width
    strips emit no gates).  Equal keys give equal pieces in every partition.
    """
    n, q = p.n, p.q
    q1 = q[0]
    keys: list[tuple] = [(n, q1)]
    start = 1 << q1
    i = 1
    while i < len(q):
        width = 1 << q[i]
        j = i + 1
        if q[i] < q1:
            while width < (1 << q1):
                width += 1 << q[j]
                j += 1
            if width != 1 << q1:
                raise AssertionError("strips straddle a window boundary")
        if q[i] != q1:
            keys.append((n, q1, q[i:j], start))
        start += width
        i = j
    return keys


def build_piece(key: tuple) -> tuple[Gate, ...]:
    """The gates of the piece with this ``piece_keys`` key."""
    return tuple(synth_f1(*key)) if len(key) == 2 else _window_piece(*key)


def _flat_stream(p: BakerPartition) -> tuple[list[Gate], list[int]]:
    """Full padded gate stream plus the per-subfunction count model."""
    q1 = p.q[0]
    counts = [_count_first(p.n, q1)]
    counts.extend(_count_later(q1, qi) for qi in p.q[1:])
    stream: list[Gate] = []
    for key in piece_keys(p):
        stream.extend(build_piece(key))
    assert len(stream) == sum(counts), (len(stream), sum(counts), p)
    return stream, counts


def synthesize(p: BakerPartition) -> Circuit:
    """Full circuit for an admissible partition, sliced per subfunction."""
    if not is_admissible(p):
        raise ValueError(f"partition {p} is not admissible")
    stream, counts = _flat_stream(p)
    blocks: list[tuple[Gate, ...]] = []
    pos = 0
    for c in counts:
        blocks.append(tuple(stream[pos : pos + c]))
        pos += c
    return Circuit(p.n, p, tuple(blocks))
