"""Discrete baker map on a 2^n x 2^n grid.

A partition (q_1, ..., q_k) with sum(2^q_i) == 2^n cuts the square into
vertical strips of widths 2^q_i.  Strip i is stretched horizontally by
2^(n-q_i) and squashed vertically onto the band [N_{i-1}, N_i).  The map is
admissible (has a reversible swap-gate circuit) exactly when every 2^q_i
divides the preceding partial sum N_{i-1}.

Admissible partitions are numbered by their lexicographic rank in q.  Since
the admissible completions of a prefix depend only on its sum N, a DP over
prefix sums counts them, and skipping whole subtrees by their counts unranks
an index without listing the partitions before it (Kreher & Stinson,
*Combinatorial Algorithms*, ch. 2).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

# Enumeration guard: 458,330 admissible partitions at n=5, 2.1e11 at n=6.
MAX_ENUM_N = 5


@dataclass(frozen=True)
class BakerPartition:
    """Exponent list (q_1, ..., q_k) for a baker map on a 2^n square."""

    n: int
    q: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.q:
            raise ValueError("partition must be non-empty")
        if any(e < 0 or e > self.n for e in self.q):
            raise ValueError(f"exponents must lie in [0, {self.n}]")
        if sum(1 << e for e in self.q) != 1 << self.n:
            raise ValueError(
                f"widths 2^q must sum to 2^{self.n}, got {sum(1 << e for e in self.q)}"
            )

    @classmethod
    def parse(cls, n: int, text: str) -> "BakerPartition":
        """Parse the comma-separated exponent format, e.g. '2,1,1'."""
        try:
            q = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}: {exc}") from None
        return cls(n, q)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.q)

    @property
    def k(self) -> int:
        return len(self.q)

    def prefix_sums(self) -> list[int]:
        """N_0 = 0, N_1, ..., N_k = 2^n."""
        sums = [0]
        for e in self.q:
            sums.append(sums[-1] + (1 << e))
        return sums


def is_admissible(p: BakerPartition) -> bool:
    """True iff 2^q_i divides N_{i-1} for every i >= 2."""
    prefix = 1 << p.q[0]
    for e in p.q[1:]:
        if prefix % (1 << e) != 0:
            return False
        prefix += 1 << e
    return True


def enumerate_admissible(n: int) -> list[BakerPartition]:
    """All admissible partitions for a 2^n square, lexicographic in q."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must lie in [1, {MAX_ENUM_N}]")
    total = 1 << n
    out: list[BakerPartition] = []

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
                out.append(BakerPartition(n, tuple(acc)))
            else:
                extend(prefix_sum + width, acc)
            acc.pop()

    extend(0, [])
    return out


@lru_cache(maxsize=None)
def _ranking(n: int) -> tuple[int, tuple]:
    """Partition count, and per prefix sum s < 2^n the admissible next
    exponents (ascending) with the rank at which each one's subtree starts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1 << n
    counts = [0] * (total + 1)
    counts[total] = 1
    steps: list = [None] * total
    for s in range(total - 1, -1, -1):
        exps = [e for e in range(n + 1) if s % (1 << e) == 0 and s + (1 << e) <= total]
        starts = list(accumulate((counts[s + (1 << e)] for e in exps), initial=0))
        counts[s] = starts.pop()
        steps[s] = (tuple(starts), tuple(exps))
    return counts[0], tuple(steps)


def count_admissible(n: int) -> int:
    """Number of admissible partitions for a 2^n square."""
    return _ranking(n)[0]


def _unrank(n: int, index: int) -> list[int]:
    count, steps = _ranking(n)
    if not 0 <= index < count:
        raise ValueError(f"rank {index} outside [0, {count})")
    q: list[int] = []
    s = 0
    while s < 1 << n:
        starts, exps = steps[s]
        j = bisect_right(starts, index) - 1
        index -= starts[j]
        q.append(exps[j])
        s += 1 << exps[j]
    return q


def unrank_admissible(n: int, index: int) -> BakerPartition:
    """The partition at ``index`` in ``enumerate_admissible(n)`` order."""
    return BakerPartition(n, tuple(_unrank(n, index)))


def partition_tables(n: int, partitions: Iterable[Sequence[int]]) -> np.ndarray:
    """Forward maps of these exponent lists, one int32 row per list, as
    tables over indices (x << n) | y (so n <= 15).  Each list's widths 2^q
    must sum to 2^n.

    One vectorized pass: every column x gets its strip's left edge N and
    shift s = n - q, and (x, y) goes to ((x - N) << s | y mod 2^s, N + y >> s).
    The y-dependent share of that index depends only on s, so it is looked up.
    """
    if not 1 <= n <= 15:
        raise ValueError("tables need 1 <= n <= 15")
    side = 1 << n
    q = np.array([e for qs in partitions for e in qs], dtype=np.int32)
    widths = 1 << q
    edge = np.repeat((np.cumsum(widths, dtype=np.int32) - widths) % side, widths)
    shift = np.repeat(n - q, widths)
    x = np.arange(edge.size, dtype=np.int32) % side
    y = np.arange(side, dtype=np.int32)
    s = np.arange(n + 1, dtype=np.int32).reshape(-1, 1)
    y_share = ((y & ((1 << s) - 1)) << n) | (y >> s)
    column = ((x - edge) << (shift + n)) | edge
    return (column.reshape(-1, 1) + y_share[shift]).reshape(-1, side * side)


def rank_tables(n: int, ranks: Iterable[int]) -> np.ndarray:
    """``partition_tables`` of the partitions with these ranks."""
    return partition_tables(n, (_unrank(n, int(i)) for i in ranks))

