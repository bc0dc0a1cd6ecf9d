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
    "case_gates": (48, 45, 91, 76),
}


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


def simplified_depth(index_partition: BakerPartition,
                     pixel_partition: BakerPartition = PIXEL_PARTITION) -> int:
    """One index-square circuit plus one pixel-square circuit."""
    _, index_gates = gate_count(index_partition)
    _, pixel_gates = gate_count(pixel_partition)
    return index_gates + pixel_gates


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


@dataclass(frozen=True)
class Cell:
    value: float
    reference: float

    @property
    def flagged(self) -> bool:
        return self.value != self.reference

    def text(self) -> str:
        if isinstance(self.value, float) and not self.value.is_integer():
            base = f"{self.value:.1f}"
        else:
            base = f"{int(self.value):,}".replace(",", " ")
        if self.flagged:
            ref = self.reference
            ref_s = f"{ref:.1f}" if isinstance(ref, float) and not float(ref).is_integer() else f"{int(ref):,}".replace(",", " ")
            return f"{base} [!= published {ref_s}]"
        return base


@dataclass(frozen=True)
class Table1:
    cases: tuple[str, ...]
    widths_p1: tuple[Cell, ...]
    widths_p2: tuple[Cell, ...]
    simplified_p1: tuple[Cell, ...]
    simplified_p2: tuple[Cell, ...]
    nonsimplified_p1: tuple[Cell, ...]
    nonsimplified_p2: tuple[Cell, ...]
    ratio: tuple[Cell, ...]

    def rows(self):
        yield "# qubits P1", self.widths_p1
        yield "# qubits P2", self.widths_p2
        yield "simplified gates P1", self.simplified_p1
        yield "simplified gates P2", self.simplified_p2
        yield "non-simplified gates P1", self.nonsimplified_p1
        yield "non-simplified gates P2", self.nonsimplified_p2
        yield "ratio P2/P1", self.ratio

    def render(self) -> str:
        heads = [f"M={CASES[c]['M']}" for c in self.cases]
        cells = [[cell.text() for cell in row] for _, row in self.rows()]
        names = [name for name, _ in self.rows()]
        widths = [
            max(len(heads[j]), *(len(cells[i][j]) for i in range(len(cells))))
            for j in range(len(heads))
        ]
        name_w = max(len(nm) for nm in names)
        lines = [
            " " * name_w + "  " + "  ".join(h.rjust(w) for h, w in zip(heads, widths))
        ]
        for nm, row in zip(names, cells):
            lines.append(nm.ljust(name_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
        flagged = [
            f"  {nm} @ {heads[j]}: computed {row[j].value:g}, published {row[j].reference:g}"
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
            out.append(nm + "," + ",".join(f"{cell.value:g}" for cell in row))
        return "\n".join(out) + "\n"


def table1() -> Table1:
    """Recompute every benchmark cell from the gate-count model."""
    order = tuple(CASES)
    n = 8
    L = 8
    _, pixel_gates = gate_count(PIXEL_PARTITION)
    _, plane_gates = gate_count(PLANE_PARTITION)

    widths_p1 = []
    widths_p2 = []
    simp_p1 = []
    simp_p2 = []
    non_p1 = []
    non_p2 = []
    ratio = []
    for j, case in enumerate(order):
        M = CASES[case]["M"]
        part = CASES[case]["partition"]
        _, case_gates = gate_count(part)
        p1 = ProtocolParams("P1", n, M, L)
        p2 = ProtocolParams("P2", n, M, L)
        widths_p1.append(Cell(qubit_width(p1), REFERENCE["widths_p1"][j]))
        widths_p2.append(Cell(qubit_width(p2), REFERENCE["widths_p2"][j]))
        simp_p1.append(
            Cell(simplified_depth(part), REFERENCE["simplified_p1"][j])
        )
        simp_p2.append(
            Cell(simplified_depth(PLANE_PARTITION), REFERENCE["simplified_p2"][j])
        )
        d1 = nonsimplified_depth(p1, pixel_gates, case_gates, plane_gates)
        d2 = nonsimplified_depth(p2, pixel_gates, case_gates, plane_gates)
        non_p1.append(Cell(d1, REFERENCE["nonsimplified_p1"][j]))
        non_p2.append(Cell(d2, REFERENCE["nonsimplified_p2"][j]))
        ratio.append(Cell(_trunc1(d2 / d1), REFERENCE["ratio"][j]))

    return Table1(
        order,
        tuple(widths_p1),
        tuple(widths_p2),
        tuple(simp_p1),
        tuple(simp_p2),
        tuple(non_p1),
        tuple(non_p2),
        tuple(ratio),
    )
