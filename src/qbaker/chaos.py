"""Sine-wrapped 5D hyperchaotic map, sequence extraction, and ranks.

The base system's right-hand sides (fixed coefficients a=30, b=10, c=15.7,
d=5, e=2.5, f=4.45, g=38.5) are wrapped componentwise as
x_i <- sin(pi * lambda_i * phi_i(x)), read as a discrete map.  Every output
component therefore lands in [-1, 1], and the tuning parameters lambda_i >= 1
can grow without bound.

Every transcendental is a scalar ``math`` (libm) call, and ``chebyshev``
serves the key digits too.  ``BURN_IN`` steps amplify any last-bit
difference, so the orbit depends on the host's ``math.sin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BASE_COEFFS = (30.0, 10.0, 15.7, 5.0, 2.5, 4.45, 38.5)  # a, b, c, d, e, f, g

ScmState = tuple[float, float, float, float, float]

BURN_IN = 100
MAX_STEPS = 10**6


@dataclass(frozen=True)
class ScmParams:
    lambdas: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.lambdas) != 5:
            raise ValueError("exactly five lambda parameters required")
        if not all(1 <= lam < math.inf for lam in self.lambdas):
            raise ValueError("chaotification requires every lambda finite and >= 1")


def base_rhs(v: ScmState) -> ScmState:
    """The unwrapped hyperchaotic right-hand sides."""
    a, b, c, d, e, f, g = BASE_COEFFS
    x1, x2, x3, x4, x5 = v
    return (
        a * (x2 - x1) + x2 * x3 * x4,
        b * (x1 + x2) + x5 - x1 * x3 * x4,
        -c * x2 - d * x3 - e * x4 + x1 * x2 * x4,
        -f * x4 + x1 * x2 * x3,
        -g * (x1 + x2),
    )


def scm_step(state: ScmState, params: ScmParams) -> ScmState:
    """One iteration: componentwise sin(pi * lambda_i * phi_i(state))."""
    phi = base_rhs(state)
    return tuple(
        math.sin(math.pi * lam * p) for lam, p in zip(params.lambdas, phi)
    )  # type: ignore[return-value]


def rank(values) -> list[int]:
    """rank[i] = number of entries strictly below values[i]; input distinct."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ascending = arr[order]
    # equal values sort next to each other (np.unique would import numpy.ma)
    if (ascending[1:] == ascending[:-1]).any():
        raise ValueError("rank requires pairwise distinct values")
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[order] = np.arange(arr.size)
    return ranks.tolist()


def chebyshev(k: int, x: float) -> float:
    """T_k(x) = cos(k * arccos x) on [-1, 1]."""
    if k < 0 or k != int(k):
        raise ValueError("Chebyshev order must be a non-negative integer")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"Chebyshev argument {x} outside [-1, 1]")
    return math.cos(k * math.acos(x))


@dataclass(frozen=True)
class ChaoticSequences:
    """Four distinct-value sequences and their rank permutations.

    xs/ys/zs/ts are read from state components 1..4 respectively (component
    5 only participates in the dynamics); ns/ks/rs/ss are the positions each
    value takes in its ascending sort.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    zs: tuple[float, ...]
    ts: tuple[float, ...]
    ns: tuple[int, ...]
    ks: tuple[int, ...]
    rs: tuple[int, ...]
    ss: tuple[int, ...]


def generate_sequences(
    seed: ScmState,
    params: ScmParams,
    lengths: tuple[int, int, int, int],
) -> ChaoticSequences:
    """Iterate ``BURN_IN`` steps past the transient, then collect four
    distinct-value sequences within ``MAX_STEPS`` further steps.

    Each post-burn-in step offers components 1..4 to the four collectors; a
    value equal (exact float comparison) to one already collected in the same
    sequence is skipped.
    """
    if any(ln < 1 for ln in lengths):
        raise ValueError("sequence lengths must be >= 1")
    state = seed
    for _ in range(BURN_IN):
        state = scm_step(state, params)

    collected: list[list[float]] = [[], [], [], []]
    seen: list[set[float]] = [set(), set(), set(), set()]
    for _ in range(MAX_STEPS):
        if all(len(collected[i]) >= lengths[i] for i in range(4)):
            break
        state = scm_step(state, params)
        for i in range(4):
            if len(collected[i]) < lengths[i]:
                v = state[i]
                if v not in seen[i]:
                    seen[i].add(v)
                    collected[i].append(v)
    else:
        raise RuntimeError(
            f"could not collect distinct sequences within {MAX_STEPS} steps; "
            "degenerate parameters?"
        )

    values = [tuple(c) for c in collected]
    return ChaoticSequences(*values, *(tuple(rank(v)) for v in values))
