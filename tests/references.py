"""Slow, direct references for the closed forms, shared by the tests."""

import math
from typing import Sequence

import numpy as np

from graveropt import DimensionError, GraverBasis
from graveropt.graver import _pack_rows


def hilbert_cycle_count(k: int) -> int:
    """Number of directed cycles of length 2..k on k labelled nodes."""
    if k < 2:
        raise DimensionError("need k >= 2")
    return sum(math.factorial(t - 1) * math.comb(k, t) for t in range(2, k + 1))


def lift_cycle(cycle: Sequence[int], bricks: Sequence[int], n: int, k: int) -> np.ndarray:
    """Place a directed slot cycle into distinct bricks of an n*k vector.

    Brick bricks[s] receives e_{j_s} - e_{j_{s+1 mod t}} where j are the
    cycle nodes, so every brick sums to zero and every slot appears once
    with +1 and once with -1.  The result, a dense int64 vector, is a
    kernel element of the Assignment(n, k) matrix with exactly 2t nonzeros.
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
    g = np.zeros(n * k, dtype=np.int64)
    for s, b in enumerate(bricks):
        g[b * k + nodes[s]] += 1
        g[b * k + nodes[(s + 1) % t]] -= 1
    return g


def dense_rows(basis: GraverBasis) -> np.ndarray:
    """The basis as one dense int64 row per element, in order."""
    rows = np.zeros((len(basis), basis.dim), dtype=np.int64)
    np.add.at(rows, (np.arange(len(basis))[:, None], basis.idx), basis.val)  # padding adds 0
    return rows


def dense_set(basis: GraverBasis) -> set:
    """The basis rows as a set of dense tuples, for comparison across routes."""
    return set(map(tuple, dense_rows(basis).tolist()))


def basis_of(dim: int, rows) -> GraverBasis:
    """A basis holding the given dense rows, in order, packed as the builders pack theirs."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, dim)
    return _pack_rows(dim, [[(i, r[i]) for i in np.flatnonzero(r)] for r in rows])
