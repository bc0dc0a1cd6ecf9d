"""Width and depth accounting for the two multi-image protocols.

Protocol 1 keeps every image addressable in one index register; protocol 2
groups images into blocks of 2^ceil(log2 L).  Depths are evaluated from the
closed-form gate-count model over fixed benchmark decompositions; cells where
that evaluation disagrees with the published reference table are flagged
rather than silently patched, and the published ratio row uses one-decimal
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .baker import BakerPartition
from .circuit import gate_count
from .images import ceil_log2


#: Benchmark decompositions for the image-index square of protocol 1 at
#: M = 30, 64, 128, 200 (cases i-iv), plus the shared pixel-square and the
#: protocol-2 plane-square choices.
CASES = {
    "i": {"M": 30, "partition": BakerPartition(5, (3, 2, 2, 2, 2, 1, 1, 1, 1))},
    "ii": {"M": 64, "partition": BakerPartition(6, (5, 1, 1, 2, 3, 4))},
    "iii": {"M": 128, "partition": BakerPartition(7, (4, 3, 3, 3, 2, 2, 3, 2, 2, 6))},
    "iv": {"M": 200, "partition": BakerPartition(8, (6, 6, 2, 2, 3, 4, 5, 6))},
}
PIXEL_PARTITION = BakerPartition(8, (6, 6, 2, 2, 3, 4, 5, 6))
PLANE_PARTITION = BakerPartition(3, (2, 1, 1))

#: Published reference values (per case, in CASES order).
REFERENCE = {
    "widths_p1": (27, 29, 31, 33),
    "widths_p2": (25, 26, 27, 28),
    "simplified_p1": (124, 121, 167, 152),
    "simplified_p2": (87, 87, 87, 87),
    "nonsimplified_p1": (3_223_552, 3_260_416, 7_208_960, 9_961_472),
    "nonsimplified_p2": (2_903_040, 5_806_080, 11_612_160, 23_224_320),
    "ratio": (0.9, 1.7, 1.6, 2.3),
}

#: Table 1 rows in print order: (label, REFERENCE key).
ROWS = (
    ("# qubits P1", "widths_p1"),
    ("# qubits P2", "widths_p2"),
    ("simplified gates P1", "simplified_p1"),
    ("simplified gates P2", "simplified_p2"),
    ("non-simplified gates P1", "nonsimplified_p1"),
    ("non-simplified gates P2", "nonsimplified_p2"),
    ("ratio P2/P1", "ratio"),
)


@dataclass(frozen=True)
class ProtocolParams:
    protocol: str  # "P1" | "P2"
    n: int
    M: int
    L: int = 8

    def __post_init__(self):
        if self.protocol not in ("P1", "P2"):
            raise ValueError("protocol must be P1 or P2")
        if self.M <= self.L:
            raise ValueError("the block scheme assumes more images than planes")


def qubit_width(p: ProtocolParams) -> int:
    lM = ceil_log2(p.M)
    lL = ceil_log2(p.L)
    if p.protocol == "P1":
        return 2 * (p.n + lM) + 1
    return 2 * p.n + lM + lL + 1


def simplified_depth(index_partition: BakerPartition) -> int:
    """One index-square circuit plus one pixel-square circuit."""
    return gate_count(index_partition)[1] + gate_count(PIXEL_PARTITION)[1]


def nonsimplified_depth(p: ProtocolParams, n1: int, n2: int, n3: int) -> int:
    """Controlled-scrambler totals from average per-circuit gate counts.

    n1: pixel-square circuit, n2: image-index-square circuit (P1),
    n3: plane/image-square circuit (P2).
    """
    lM = ceil_log2(p.M)
    lL = ceil_log2(p.L)
    if p.protocol == "P1":
        return n1 * (1 << (2 * lM)) + n2 * (1 << (2 * p.n))
    return n1 * (1 << (lM + lL)) + n3 * (1 << (2 * p.n)) * (1 << (lM - lL))


def _trunc1(v: float) -> float:
    return math.floor(v * 10) / 10


def _number(v: float, sep: str = " ") -> str:
    """Every digit of a cell value: an integer with ``sep`` between digit
    groups, anything else as its shortest round-trip repr."""
    if isinstance(v, float) and not v.is_integer():
        return repr(v)
    return f"{int(v):,}".replace(",", sep)


@dataclass(frozen=True)
class Cell:
    value: float
    reference: float

    @property
    def flagged(self) -> bool:
        return self.value != self.reference

    def text(self) -> str:
        if self.flagged:
            return f"{_number(self.value)} [!= published {_number(self.reference)}]"
        return _number(self.value)


@dataclass(frozen=True)
class Table1:
    cases: tuple[str, ...]
    cells: dict[str, tuple[Cell, ...]]  # REFERENCE key -> one Cell per case

    def rows(self):
        for label, key in ROWS:
            yield label, self.cells[key]

    def render(self) -> str:
        heads = [f"M={CASES[c]['M']}" for c in self.cases]
        texts = [("", heads)] + [(nm, [cell.text() for cell in row]) for nm, row in self.rows()]
        widths = [max(len(row[j]) for _, row in texts) for j in range(len(heads))]
        name_w = max(len(nm) for nm, _ in texts)
        lines = [
            nm.ljust(name_w) + "  " + "  ".join(map(str.rjust, row, widths)) for nm, row in texts
        ]
        flagged = [
            f"  {nm} @ {heads[j]}: computed {_number(row[j].value)}, "
            f"published {_number(row[j].reference)}"
            for nm, row in self.rows()
            for j in range(len(row))
            if row[j].flagged
        ]
        if flagged:
            lines.append("")
            lines.append("flagged cells (formula-derived value differs from the published table):")
            lines.extend(flagged)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        out = ["row," + ",".join(f"M={CASES[c]['M']}" for c in self.cases)]
        for nm, row in self.rows():
            out.append(nm + "," + ",".join(_number(cell.value, sep="") for cell in row))
        return "\n".join(out) + "\n"


def table1() -> Table1:
    """Recompute every benchmark cell from the gate-count model."""
    n = 8
    _, pixel_gates = gate_count(PIXEL_PARTITION)
    _, plane_gates = gate_count(PLANE_PARTITION)
    columns = []
    for case in CASES.values():
        part = case["partition"]
        _, case_gates = gate_count(part)
        p1 = ProtocolParams("P1", n, case["M"])
        p2 = ProtocolParams("P2", n, case["M"])
        d1 = nonsimplified_depth(p1, pixel_gates, case_gates, plane_gates)
        d2 = nonsimplified_depth(p2, pixel_gates, case_gates, plane_gates)
        columns.append({
            "widths_p1": qubit_width(p1),
            "widths_p2": qubit_width(p2),
            "simplified_p1": simplified_depth(part),
            "simplified_p2": simplified_depth(PLANE_PARTITION),
            "nonsimplified_p1": d1,
            "nonsimplified_p2": d2,
            "ratio": _trunc1(d2 / d1),
        })
    cells = {
        key: tuple(Cell(col[key], ref) for col, ref in zip(columns, REFERENCE[key]))
        for _, key in ROWS
    }
    return Table1(tuple(CASES), cells)
