"""Count and unrank admissible baker partitions without enumerating them.

A partition (q_1, ..., q_k) is admissible when every strip width 2^q_i
divides the prefix sum N_{i-1} before it, so the number of admissible
completions depends only on the prefix sum reached so far.  A DP over prefix
sums counts the completions; walking exponents in ascending order and
skipping whole subtrees by their counts gives the lexicographic unrank, in
the same order ``qbaker.baker.enumerate_admissible`` lists partitions.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def completions(n: int) -> tuple[int, ...]:
    """counts[s] = number of admissible completions from prefix sum s."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1 << n
    counts = [0] * (total + 1)
    counts[total] = 1
    for s in range(total - 1, -1, -1):
        counts[s] = sum(
            counts[s + (1 << e)]
            for e in range(n + 1)
            if (1 << e) <= total - s and s % (1 << e) == 0
        )
    return tuple(counts)


def count(n: int) -> int:
    """Number of admissible partitions of the 2^n square."""
    return completions(n)[0]


def unrank(n: int, index: int) -> tuple[int, ...]:
    """Exponents of the index-th admissible partition in lexicographic order."""
    counts = completions(n)
    if not 0 <= index < counts[0]:
        raise ValueError(f"index {index} outside [0, {counts[0]})")
    total = 1 << n
    s = 0
    q: list[int] = []
    while s < total:
        for e in range(n + 1):
            width = 1 << e
            if width > total - s:
                raise AssertionError("unreachable: counts cover the index")
            if s % width:
                continue
            if index < counts[s + width]:
                q.append(e)
                s += width
                break
            index -= counts[s + width]
    return tuple(q)
