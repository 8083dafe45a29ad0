"""Slow, direct references for the closed forms, shared by the tests."""

import math
from typing import Sequence

from graveropt import DimensionError, SparseIntVector


def hilbert_cycle_count(k: int) -> int:
    """Number of directed cycles of length 2..k on k labelled nodes."""
    if k < 2:
        raise DimensionError("need k >= 2")
    return sum(math.factorial(t - 1) * math.comb(k, t) for t in range(2, k + 1))


def lift_cycle(cycle: Sequence[int], bricks: Sequence[int], n: int, k: int) -> SparseIntVector:
    """Place a directed slot cycle into distinct bricks of an n*k vector.

    Brick bricks[s] receives e_{j_s} - e_{j_{s+1 mod t}} where j are the
    cycle nodes, so every brick sums to zero and every slot appears once
    with +1 and once with -1.  The result is a kernel element of the
    Assignment(n, k) matrix with exactly 2t nonzeros.
    """
    nodes = tuple(int(j) for j in cycle)
    t = len(nodes)
    bricks = [int(b) for b in bricks]
    if t < 2 or len(set(nodes)) != t:
        raise ValueError("a cycle needs at least 2 distinct nodes")
    if len(bricks) != t:
        raise ValueError("need exactly one brick per cycle node")
    if len(set(bricks)) != t:
        raise ValueError("bricks must be distinct")
    if any(b < 0 or b >= n for b in bricks):
        raise ValueError(f"brick indices must lie in [0, {n})")
    if any(j < 0 or j >= k for j in nodes):
        raise ValueError(f"cycle nodes must lie in [0, {k})")
    entries = [(b * k + nodes[s], 1) for s, b in enumerate(bricks)]
    entries += [(b * k + nodes[(s + 1) % t], -1) for s, b in enumerate(bricks)]
    return SparseIntVector(n * k, tuple(sorted(entries)))
