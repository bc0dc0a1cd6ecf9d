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
*Combinatorial Algorithms*, ch. 2).  ``_ranking`` builds that tree once per
n, in one DP pass, as padded arrays indexed [choice, prefix sum], and
``count_admissible`` reads its count.  ``unrank_rows`` is the one unranking:
it walks a whole array of ranks down the tree together, one numpy pass per
part index.  Single partitions, listing (every index, a bounded batch at a
time) and baker tables of ranks all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

# Enumeration guard: 458,330 admissible partitions at n=5, 2.1e11 at n=6.
MAX_ENUM_N = 5
# Largest square side exponent: tables over (x << n) | y stay int32.
MAX_N = 15
# Ranks unranked at once while listing: bounds the rows held to about 0.5 MB.
_ENUM_BATCH = 1 << 14


@dataclass(frozen=True)
class BakerPartition:
    """Exponent list (q_1, ..., q_k) for a baker map on a 2^n square."""

    n: int
    q: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [1, {MAX_N}], got {self.n}")
        if not self.q:
            raise ValueError("partition must be non-empty")
        if min(self.q) < 0 or max(self.q) > self.n:
            raise ValueError(f"exponents must lie in [0, {self.n}]")
        total = sum(1 << e for e in self.q)
        if total != 1 << self.n:
            raise ValueError(f"widths 2^q must sum to 2^{self.n}, got {total}")

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


def is_admissible(p: BakerPartition) -> bool:
    """True iff 2^q_i divides N_{i-1} for every i >= 2."""
    prefix = 1 << p.q[0]
    for e in p.q[1:]:
        if prefix % (1 << e) != 0:
            return False
        prefix += 1 << e
    return True


def _unranked(n: int, q: tuple[int, ...]) -> BakerPartition:
    """The partition q, which ``unrank_rows`` made valid, built without
    repeating ``__post_init__``'s checks: at n=5 they took about 1.8 s of
    the 3.9 s that ``enumerate_admissible`` spent on its 458,330 objects."""
    p = object.__new__(BakerPartition)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "q", q)
    return p


def enumerate_admissible(n: int) -> list[BakerPartition]:
    """All admissible partitions for a 2^n square, lexicographic in q."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must lie in [1, {MAX_ENUM_N}]")
    count = count_admissible(n)
    parts = []
    for lo in range(0, count, _ENUM_BATCH):
        rows = unrank_rows(n, np.arange(lo, min(lo + _ENUM_BATCH, count)))
        used = rows >= 0
        flat, start = rows[used].tolist(), 0
        for stop in np.cumsum(np.count_nonzero(used, axis=1)).tolist():
            parts.append(_unranked(n, tuple(flat[start:stop])))
            start = stop
    return parts


@lru_cache(maxsize=None)
def _ranking(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Partition count, and the tree of admissible partitions as arrays
    indexed [choice, prefix sum]: per prefix sum s < 2^n, the admissible
    next exponents (ascending), the rank at which each one's subtree starts
    and their widths.  Starts are int64 while the count fits (n <= 6), else
    Python ints; padding starts equal the count, above every rank."""
    if n < 1:
        raise ValueError("n must be >= 1")
    side = 1 << n
    counts = [0] * side + [1]
    starts = np.full((n + 1, side), -1, dtype=np.int64 if n <= 6 else object)
    exps = np.zeros((n + 1, side), dtype=np.int8)
    for s in range(side - 1, -1, -1):
        ex = [e for e in range(n + 1) if s % (1 << e) == 0 and s + (1 << e) <= side]
        st = list(accumulate((counts[s + (1 << e)] for e in ex), initial=0))
        counts[s] = st.pop()
        starts[: len(st), s] = st
        exps[: len(ex), s] = ex
    starts[starts < 0] = counts[0]
    return counts[0], starts, exps, np.left_shift(1, exps, dtype=np.int64)


def count_admissible(n: int) -> int:
    """Number of admissible partitions for a 2^n square."""
    return _ranking(n)[0]


def unrank_rows(n: int, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exponent lists of the partitions with these ranks, one int8 row per
    rank padded with -1 to the longest list.

    All ranks walk together, one pass per part index: each live rank counts
    the subtree starts of its prefix sum that it reaches, takes the last
    such choice's exponent, and stops once the widths cover the square.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in [1, {MAX_N}], got {n}")
    count, starts, exps, widths = _ranking(n)
    ranks = np.asarray(ranks).reshape(-1)
    if ranks.dtype.kind not in "iuO":
        raise ValueError("ranks must be integers")
    if ranks.size and not (0 <= ranks.min() and ranks.max() < count):
        raise ValueError(f"rank outside [0, {count})")
    side = 1 << n
    rows = np.full((ranks.size, side), -1, dtype=np.int8)
    live = np.arange(ranks.size)
    left = ranks.astype(starts.dtype)
    at = np.zeros(ranks.size, dtype=np.intp)  # prefix sum of each live rank
    parts = 0
    while live.size:
        choice = at.copy()  # flat [choice, prefix sum] index; choice 0 starts at 0
        for column in starts[1:]:
            choice += (column[at] <= left) * side
        left = left - starts.reshape(-1)[choice]
        rows[live, parts] = exps.reshape(-1)[choice]
        at += widths.reshape(-1)[choice]
        parts += 1
        more = at < side
        if not more.all():
            live, left, at = live[more], left[more], at[more]
    return rows[:, :parts]


def partition_tables(n: int, partitions: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Forward maps of these exponent lists, one int32 row per list, as
    tables over indices (x << n) | y (so n <= ``MAX_N``).  Each list's
    widths 2^q must sum to 2^n.  The lists may also come as rows padded
    with -1, as ``unrank_rows`` returns them.

    One vectorized pass: every column x gets its strip's left edge N and
    shift s = n - q, and (x, y) goes to ((x - N) << s | y mod 2^s, N + y >> s).
    The y-dependent share of that index depends only on s, so it is looked up
    (``_y_shares``, built once per n).
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"tables need 1 <= n <= {MAX_N}")
    side = 1 << n
    if isinstance(partitions, np.ndarray):
        q = partitions[partitions >= 0].astype(np.int32)
    else:
        q = np.array([e for qs in partitions for e in qs], dtype=np.int32)
    widths = 1 << q
    edge = np.repeat((np.cumsum(widths, dtype=np.int32) - widths) % side, widths)
    shift = np.repeat(n - q, widths)
    x = np.arange(edge.size, dtype=np.int32) % side
    column = ((x - edge) << (shift + n)) | edge
    table = np.take(_y_shares(n), shift, axis=0)  # filled in place: no broadcast temporary
    table += column.reshape(-1, 1)
    return table.reshape(-1, side * side)


@lru_cache(maxsize=None)
def _y_shares(n: int) -> np.ndarray:
    """Row s: the y-dependent share of the table index, (y mod 2^s) << n
    | y >> s, at every y of a 2^n side."""
    y = np.arange(1 << n, dtype=np.int32)
    s = np.arange(n + 1, dtype=np.int32).reshape(-1, 1)
    return ((y & ((1 << s) - 1)) << n) | (y >> s)

