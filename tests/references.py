"""Slow, direct references for the closed forms, shared by the tests."""

import math
from typing import Sequence

import numpy as np

from graveropt import DimensionError, GraverBasis
from graveropt.graver import _pack_rows
from graveropt.problems import _integer_field, objective
from graveropt.seeds import initial_assignment


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


def objective_scalar(inst, x):
    """c.x + x'Qx on Python scalars, a row of Q at a time: exact for ints and
    Fractions of any size, and a Fraction exactly when a term read holds one."""
    xs = x.tolist()
    lin = sum(ci * xi for ci, xi in zip(inst.c.tolist(), xs))
    quad = 0
    for i, xi in enumerate(xs):
        if xi:
            quad += xi * sum(qij * xj for qij, xj in zip(inst.Q[i].tolist(), xs))
    return lin + quad


def improving_moves_per_move(inst, basis: GraverBasis, x) -> list:
    """``verify_local_optimality`` one signed move at a time: a copy of x,
    the move added, the box test, then one ``objective`` call."""
    x = _integer_field("x", x)
    fx = objective(inst, x)
    violations = []
    for e, (idx, val) in enumerate(zip(basis.idx, basis.val)):
        for sign in (1, -1):
            y = x.copy()
            np.add.at(y, idx, sign * val)  # unbuffered, so padding adds 0 to y[0]
            if np.all((y >= inst.lower) & (y <= inst.upper)) and objective(inst, y) < fx:
                violations.append((e, sign))
    return violations


def seeds_qap_numpy(rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int) -> list:
    """``seeds_qap``'s curveball walk on numpy rows: the same rng calls in the
    same order, so the same seeds."""
    b = np.asarray(b, dtype=np.int64)
    bricks = initial_assignment(b[:k], b[k:]).T.astype(bool)  # row j is brick j
    out = []
    for _ in range(count):
        for _ in range(2 * n if n > 1 else 0):
            p = int(rng.integers(n))
            q = int(rng.integers(n - 1))
            q += q >= p
            pool = np.flatnonzero(bricks[p] ^ bricks[q])  # exactly one of the two has a one
            kept = int(bricks[p, pool].sum())
            dealt = rng.permutation(pool)
            bricks[p, pool] = bricks[q, pool] = False
            bricks[p, dealt[:kept]] = bricks[q, dealt[kept:]] = True
        out.append(bricks.reshape(-1).astype(np.int64))
    return out


def seeds_cbqp_choice(rng: np.random.Generator, n: int, b: int, count: int) -> list:
    """``seeds_cbqp`` by one ``rng.choice`` per seed, as it drew before its
    one-call draws: the same seeds and generator state."""
    out = []
    for _ in range(count):
        x = np.zeros(n, dtype=np.int64)
        x[rng.choice(n, size=b, replace=False)] = 1
        out.append(x)
    return out


def seeds_qsap1_choice(rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int) -> list:
    """``seeds_qsap1`` by one ``rng.choice`` per seed and nonempty brick."""
    out = []
    for _ in range(count):
        x = np.zeros(n * k, dtype=np.int64)
        for i in range(n):
            if b[i]:
                x[i * k + rng.choice(k, size=int(b[i]), replace=False)] = 1
        out.append(x)
    return out


def seeds_qsap2_choice(rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int) -> list:
    """``seeds_qsap2`` by one ``rng.choice`` per seed and nonempty slot."""
    out = []
    for _ in range(count):
        x = np.zeros(n * k, dtype=np.int64)
        for m in range(k):
            if b[m]:
                x[rng.choice(n, size=int(b[m]), replace=False) * k + m] = 1
        out.append(x)
    return out
