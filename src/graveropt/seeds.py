"""Feasible starting points, spread over the solution set, per problem class.

The three cardinality-style classes admit direct uniform sampling of
feasible supports: one b-subset per brick (QSAP1), per slot (QSAP2) or of
the whole vector (CBQP).  A sampler draws all its subsets in one
``rng.integers`` call, the same numbers as one ``rng.choice`` per subset
(see :func:`_subsets`); above a population of 10 000 it makes those calls.

The assignment class admits no such sampling: its feasible set is the
binary matrices with fixed row and column sums, so we build one matrix
greedily (Gale-Ryser style) and walk from it by curveball trades (Strona
et al. 2014), each of which keeps both margins, so every step is feasible.
The trade chain's limit is uniform over the matrices (Carstens 2015).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .problems import InfeasibleError, _integer_field


def _subsets(rng: np.random.Generator, pop: int, sizes: np.ndarray) -> np.ndarray:
    """Row r marks a uniform ``sizes[r]``-subset of [0, pop): [rows, pop] bools.

    The same subsets and generator state as ``rng.choice(pop, sizes[r],
    replace=False)`` for r in turn.  Up to a population of 10 000 such a
    call runs Floyd's algorithm, a draw in [0, j] for j = pop-s .. pop-1,
    then shuffles its s picks, a draw in [0, i] for i = s-1 .. 1.  Here one
    ``rng.integers`` call with every row's bounds in that order makes the
    same draws; Floyd's rule (a drawn value already taken means take j)
    then runs over all rows at once, one step per draw position.  The
    shuffle only orders a subset, so its draws are made and not used."""
    sizes = np.asarray(sizes, dtype=np.int64)
    taken = np.zeros((len(sizes), pop), dtype=bool)
    if pop > 10_000:  # choice may shuffle the tail of range(pop) instead
        for row, s in zip(taken, sizes.tolist()):
            row[rng.choice(pop, size=s, replace=False)] = True
        return taken
    made = np.maximum(2 * sizes - 1, 0)  # draws per row
    start = np.cumsum(made) - made
    s = np.repeat(sizes, made)
    q = np.arange(len(s)) - np.repeat(start, made)  # a draw's position in its row
    draws = rng.integers(0, np.where(q < s, pop - s + q, 2 * s - 1 - q), endpoint=True)
    for p in range(int(sizes.max(initial=0))):
        rows = np.flatnonzero(sizes > p)
        val = draws[start[rows] + p]
        pick = np.where(taken[rows, val], pop - sizes[rows] + p, val)
        taken[rows, pick] = True
    return taken


def _counts(label: str, b, shape: tuple, top: int) -> np.ndarray:
    """``b`` as int64 of ``shape``, each entry in [0, top]."""
    b = _integer_field("b", b)
    if b.shape != shape:
        raise ValueError(f"b must have one entry per {label}, got shape {b.shape}")
    if np.any(b < 0) or np.any(b > top):
        raise InfeasibleError(f"each {label} count must lie in [0, {top}]")
    return b


def seeds_cbqp(rng: np.random.Generator, n: int, b: int, count: int) -> list[np.ndarray]:
    """Vectors with exactly b ones at a uniform random b-subset of [0, n)."""
    b = int(_integer_field("b", b))
    if b < 0 or b > n:
        raise InfeasibleError(f"need 0 <= b <= n, got b={b}, n={n}")
    return list(_subsets(rng, n, np.full(max(count, 0), b)).astype(np.int64))


def seeds_qsap1(
    rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int
) -> list[np.ndarray]:
    """Per brick i, exactly b[i] ones at uniform positions inside the brick."""
    b, count = _counts("brick", b, (n,), k), max(count, 0)
    taken = _subsets(rng, k, np.tile(b, count))  # row (seed, brick)
    return list(taken.reshape(count, n * k).astype(np.int64))


def seeds_qsap2(
    rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int
) -> list[np.ndarray]:
    """Per slot m, exactly b[m] ones across the n bricks (positions m, m+k, ...)."""
    b, count = _counts("slot", b, (k,), n), max(count, 0)
    taken = _subsets(rng, n, np.tile(b, count)).reshape(count, k, n)  # [seed, slot, brick]
    return list(taken.transpose(0, 2, 1).reshape(count, n * k).astype(np.int64))


def initial_assignment(r: Sequence[int], c: Sequence[int]) -> np.ndarray:
    """One binary k x n matrix with row sums r and column sums c.

    Greedy construction: columns in decreasing demand, each filled at the
    rows with the largest remaining residual (ties broken by index).  This
    succeeds exactly when the margins are realizable, so failure to place a
    one is reported as infeasibility.
    """
    r, c = _integer_field("r", r), _integer_field("c", c)
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
    rng: np.random.Generator, n: int, k: int, b: Sequence[int], count: int
) -> list[np.ndarray]:
    """Feasible assignment vectors spread by a curveball walk.

    Starts from the greedy matrix for margins b = (row sums; column sums),
    flattened column by column so that column j is brick j, and makes 2n
    curveball trades before each emitted vector.  A trade picks two
    bricks, pools the slots where exactly one of them has a one, and deals
    the pool back at random, each brick keeping its count: brick sums and
    slot sums both hold, so every step is feasible.
    """
    b = _integer_field("b", b)
    if b.shape != (k + n,):
        raise ValueError(f"b must stack k row sums and n column sums, got shape {b.shape}")
    # row j is brick j, a list of 0/1 ints: on a few slots a trade costs less in
    # plain Python than in numpy calls
    bricks = initial_assignment(b[:k], b[k:]).T.tolist()
    out: list[np.ndarray] = []
    for _ in range(count):
        for _ in range(2 * n if n > 1 else 0):
            p = int(rng.integers(n))
            q = int(rng.integers(n - 1))
            q += q >= p
            one, other = bricks[p], bricks[q]
            pool = [j for j in range(k) if one[j] != other[j]]  # exactly one of the two has a one
            kept = sum(one[j] for j in pool)
            rng.shuffle(pool)  # the draws and order of rng.permutation, without an array
            for j in pool[:kept]:
                one[j], other[j] = 1, 0
            for j in pool[kept:]:
                one[j], other[j] = 0, 1
        out.append(np.array(bricks, dtype=np.int64).reshape(-1))
    return out
