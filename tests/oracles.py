"""Pointwise reference implementations that the tests compare the program to.

Each evaluates one point, one gate or one header field at a time, in plain
Python, so it is slow and easy to check by eye.  The program itself works on
whole tables and compiled patterns.
"""

from __future__ import annotations

from qbaker.baker import BakerPartition
from qbaker.chaos import ScmParams, ScmState, scm_step
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
