"""Feasible starting points, spread over the solution set, per problem class.

The three cardinality-style classes admit direct uniform sampling of
feasible supports.  The assignment class does not: its feasible set is the
binary matrices with fixed row and column sums, so we build one matrix
greedily (Gale-Ryser style) and random-walk along Graver moves, rejecting
steps that leave the 0/1 box.  The walk stays feasible by construction;
uniformity of the walk is not claimed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graver import GraverBasis
from .problems import InfeasibleError


def seeds_cbqp(rng: np.random.Generator, n: int, b: int, count: int) -> list[np.ndarray]:
    """Vectors with exactly b ones at a uniform random b-subset of [0, n)."""
    if b < 0 or b > n:
        raise InfeasibleError(f"need 0 <= b <= n, got b={b}, n={n}")
    out = []
    for _ in range(count):
        x = np.zeros(n, dtype=np.int64)
        x[rng.choice(n, size=b, replace=False)] = 1
        out.append(x)
    return out


def seeds_qsap1(
    rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int
) -> list[np.ndarray]:
    """Per brick i, exactly b[i] ones at uniform positions inside the brick."""
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (n,):
        raise ValueError(f"b must have one entry per brick, got shape {b.shape}")
    if np.any(b < 0) or np.any(b > k):
        raise InfeasibleError(f"each brick count must lie in [0, {k}]")
    out = []
    for _ in range(count):
        x = np.zeros(n * k, dtype=np.int64)
        for i in range(n):
            if b[i]:
                x[i * k + rng.choice(k, size=int(b[i]), replace=False)] = 1
        out.append(x)
    return out


def seeds_qsap2(
    rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int
) -> list[np.ndarray]:
    """Per slot m, exactly b[m] ones across the n bricks (positions m, m+k, ...)."""
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (k,):
        raise ValueError(f"b must have one entry per slot, got shape {b.shape}")
    if np.any(b < 0) or np.any(b > n):
        raise InfeasibleError(f"each slot count must lie in [0, {n}]")
    out = []
    for _ in range(count):
        x = np.zeros(n * k, dtype=np.int64)
        for m in range(k):
            if b[m]:
                bricks = rng.choice(n, size=int(b[m]), replace=False)
                x[bricks * k + m] = 1
        out.append(x)
    return out


def initial_assignment(r: Sequence[int], c: Sequence[int]) -> np.ndarray:
    """One binary k x n matrix with row sums r and column sums c.

    Greedy construction: columns in decreasing demand, each filled at the
    rows with the largest remaining residual (ties broken by index).  This
    succeeds exactly when the margins are realizable, so failure to place a
    one is reported as infeasibility.
    """
    r = np.asarray(r, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    k, n = r.shape[0], c.shape[0]
    if r.sum() != c.sum():
        raise InfeasibleError(f"row total {int(r.sum())} != column total {int(c.sum())}")
    if np.any(r < 0) or np.any(r > n):
        raise InfeasibleError(f"row sums must lie in [0, {n}]")
    if np.any(c < 0) or np.any(c > k):
        raise InfeasibleError(f"column sums must lie in [0, {k}]")
    residual = r.copy()
    matrix = np.zeros((k, n), dtype=np.int64)
    for j in sorted(range(n), key=lambda j: (-c[j], j)):
        need = int(c[j])
        if need == 0:
            continue
        rows = sorted(range(k), key=lambda i: (-residual[i], i))[:need]
        if residual[rows[-1]] <= 0:
            raise InfeasibleError("margins fail the Gale-Ryser dominance condition")
        matrix[rows, j] = 1
        residual[rows] -= 1
    if np.any(residual):
        raise InfeasibleError("margins fail the Gale-Ryser dominance condition")
    return matrix


def seeds_qap(
    rng: np.random.Generator,
    n: int,
    k: int,
    b: Sequence[int],
    count: int,
    basis: GraverBasis,
) -> list[np.ndarray]:
    """Feasible assignment vectors generated by a Graver random walk.

    Starting from the greedy matrix for margins b = (row sums; column sums),
    flattened column by column so that column j is brick j, each successor
    attempts a uniform 1..min(|G|, 10nk) random signed basis moves (1..10nk
    when G stores no element and its sampler draws them all), applying only
    those that keep every coordinate in [0, 1]; attempts, not successes,
    count toward the walk length, so seeding stays O(count * nk) even for
    huge bases.  Every emitted vector is feasible.
    """
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (k + n,):
        raise ValueError(f"b must stack k row sums and n column sums, got shape {b.shape}")
    x = initial_assignment(b[:k], b[k:]).T.reshape(-1)
    hi = max(1, min(len(basis), 10 * n * k) or 10 * n * k)

    out: list[np.ndarray] = []
    for _ in range(count):
        attempts = int(rng.integers(1, hi + 1))
        for _ in range(attempts):
            idx, val = basis.draw(rng)
            moved = (x[idx] + val).tolist()  # a short list beats numpy reductions here
            if min(moved) >= 0 and max(moved) <= 1:
                x[idx] = moved
        out.append(x.copy())
    return out
