"""Independent ground truth for small instances.

Two oracles live here, deliberately decoupled from the closed-form
constructions they are used to check:

* a Pottier-style completion procedure that computes the full Graver basis
  of an arbitrary small integer matrix from an exact integer kernel basis,
  and
* a brute-force global solver that enumerates the bounded feasible lattice.

Both are single-threaded and budgeted; they raise ``ResourceBudgetError``
rather than ever returning a truncated answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
import numpy as np

from .graver import GraverBasis, _pack_rows, realize_matrix
from .problems import QuadraticInstance, batch_objective


class ResourceBudgetError(RuntimeError):
    """The requested computation exceeds the configured enumeration budget."""


# ---------------------------------------------------------------------------
# exact integer kernel basis
# ---------------------------------------------------------------------------

def integer_kernel_basis(A) -> list[np.ndarray]:
    """Lattice basis of ker_Z(A) via unimodular column elimination.

    Works on Python ints (no overflow); columns of the accumulated
    transform that pair with zeroed-out columns of A span the kernel
    lattice exactly, not just a full-rank sublattice.
    """
    mat = [[int(v) for v in row] for row in np.asarray(A)]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    trans = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def combine_cols(ca: int, cb: int) -> None:
        # unimodular 2x2 op zeroing column cb in the current pivot row
        a, b = mat[r][ca], mat[r][cb]
        g, x, y = _extended_gcd(a, b)
        pa, pb = a // g, b // g
        for rowset in (mat, trans):
            for row in rowset:
                va, vb = row[ca], row[cb]
                row[ca] = x * va + y * vb
                row[cb] = -pb * va + pa * vb

    pivot_col = 0
    for r in range(m):
        # find a nonzero entry in row r at or right of the pivot column
        piv = next((j for j in range(pivot_col, ncols) if mat[r][j] != 0), None)
        if piv is None:
            continue
        if piv != pivot_col:
            for rowset in (mat, trans):
                for row in rowset:
                    row[pivot_col], row[piv] = row[piv], row[pivot_col]
        for j in range(pivot_col + 1, ncols):
            if mat[r][j] != 0:
                combine_cols(pivot_col, j)
        pivot_col += 1
        if pivot_col == ncols:
            break

    basis = []
    for j in range(pivot_col, ncols):
        entries = [trans[i][j] for i in range(ncols)]
        if any(abs(v) >= 2**62 for v in entries):
            raise ResourceBudgetError("kernel basis entries exceed the int64 range")
        vec = np.array(entries, dtype=np.int64)
        if np.any(vec):
            basis.append(vec)
    return basis


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) > 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Pottier completion
# ---------------------------------------------------------------------------

def pottier_graver(
    A,
    max_elements: int = 50_000,
    max_iterations: int = 5_000_000,
) -> GraverBasis:
    """Complete Graver basis of a small integer matrix by completion.

    Classical normal-form completion: start from +-(lattice basis of
    ker_Z(A)), process the FIFO queue of pairwise sums, reduce each sum by
    sign-compatible subtraction until irreducible, and add survivors (with
    new pairs) until the queue drains.  A final sweep keeps only elements
    not sign-compatibly dominated by another, one representative per
    {g, -g} pair.
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or not np.any(A):
        raise ValueError("A must be a nonzero 2-d integer matrix")
    ncols = A.shape[1]

    lattice = integer_kernel_basis(A)
    if not lattice:
        return _pack_rows(ncols, ())

    # members of G, stored twice: python-visible rows of `gm` (grow-only)
    gm = np.zeros((64, ncols), dtype=np.int64)
    count = 0
    queue: deque[np.ndarray] = deque()
    seen_sums: set[bytes] = set()

    def add_vector(vec: np.ndarray) -> None:
        nonlocal gm, count
        for i in range(count):
            queue.append(vec + gm[i])
        if count == gm.shape[0]:
            gm = np.vstack([gm, np.zeros_like(gm)])
        gm[count] = vec
        count += 1
        if count > max_elements:
            raise ResourceBudgetError(f"completion exceeded {max_elements} elements")

    def normal_form(vec: np.ndarray) -> np.ndarray:
        vec = vec.copy()
        while np.any(vec):
            window = gm[:count]
            mask = np.all((window * vec >= 0) & (np.abs(window) <= np.abs(vec)), axis=1)
            hits = np.nonzero(mask)[0]
            if hits.size == 0:
                break
            vec -= window[hits[0]]
        return vec

    for vec in lattice:
        add_vector(vec.copy())
        add_vector(-vec)

    iterations = 0
    while queue:
        iterations += 1
        if iterations > max_iterations:
            raise ResourceBudgetError(f"completion exceeded {max_iterations} queue pops")
        s = queue.popleft()
        if not np.any(s):
            continue
        key = s.tobytes()
        if key in seen_sums:
            continue
        seen_sums.add(key)
        r = normal_form(s)
        if np.any(r):
            add_vector(r)
            add_vector(-r)

    # minimize: drop duplicates, then anything dominated by a distinct element
    unique: dict[bytes, np.ndarray] = {}
    for i in range(count):
        unique.setdefault(gm[i].tobytes(), gm[i].copy())
    vecs = list(unique.values())
    window = np.array(vecs, dtype=np.int64)
    survivors = []
    for i, vec in enumerate(vecs):
        dominated = np.all((window * vec >= 0) & (np.abs(window) <= np.abs(vec)), axis=1)
        dominated[i] = False
        if not np.any(dominated):
            survivors.append(vec)

    rows = set()
    for vec in survivors:
        support = np.flatnonzero(vec)
        signed = vec[support] if vec[support[0]] > 0 else -vec[support]
        rows.add(tuple(zip(support.tolist(), signed.tolist())))
    return _pack_rows(ncols, sorted(rows))  # sign-canonical rows in sorted order


def is_graver_minimal(g, A, max_ball: int = 10**7) -> bool:
    """True iff no other nonzero kernel vector is sign-compatibly below g.

    Enumerates the box of vectors h with 0 <= h <= g componentwise in g's
    orthant; the zero vector is not Graver-minimal by convention.
    """
    g = np.asarray(g, dtype=np.int64)
    A = np.asarray(A, dtype=np.int64)
    if not np.any(g):
        return False
    if np.any(A @ g):
        raise ValueError("g must lie in the kernel of A")
    ball = 1
    for v in g:
        ball *= abs(int(v)) + 1
        if ball > max_ball:
            raise ResourceBudgetError(f"domination ball larger than {max_ball}")
    ranges = [range(0, int(v) + 1) if v >= 0 else range(int(v), 1) for v in g]
    for h in product(*ranges):
        h = np.array(h, dtype=np.int64)
        if not np.any(h) or np.array_equal(h, g):
            continue
        if not np.any(A @ h):
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force global solver
# ---------------------------------------------------------------------------

@dataclass
class BruteForceResult:
    best_x: np.ndarray
    best_f: object
    points: np.ndarray        # all feasible lattice points, one per row
    optima: np.ndarray        # rows achieving best_f exactly

    @property
    def feasible_count(self) -> int:
        return self.points.shape[0]


def enumerate_feasible(inst: QuadraticInstance, max_points: int = 10**7) -> np.ndarray:
    """All x with l <= x <= u and Ax = b, as rows of an int matrix.

    The bounded box is scanned in fixed-size blocks (mixed-radix decode of
    the point index), so memory stays proportional to the block size plus
    the feasible set, not to the box.
    """
    lower = inst.lower
    sizes = (inst.upper - inst.lower + 1).astype(np.int64)
    total = 1
    for s in sizes:
        total *= int(s)
        if total > max_points:
            raise ResourceBudgetError(f"search space larger than {max_points}")
    strides = np.ones(inst.size, dtype=np.int64)
    for i in range(inst.size - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    A = realize_matrix(inst.kind)
    chunks = []
    block = 1 << 16
    for start in range(0, total, block):
        idx = np.arange(start, min(total, start + block), dtype=np.int64)
        grid = lower[None, :] + (idx[:, None] // strides[None, :]) % sizes[None, :]
        chunks.append(grid[np.all(A @ grid.T == inst.b[:, None], axis=0)])
    return np.concatenate(chunks, axis=0) if chunks else np.zeros((0, inst.size), dtype=np.int64)


def brute_force_solve(inst: QuadraticInstance, max_points: int = 10**7) -> BruteForceResult:
    """Exact global minimum over the bounded feasible lattice."""
    points = enumerate_feasible(inst, max_points=max_points)
    if points.shape[0] == 0:
        raise ValueError(f"instance {inst.name!r} has no feasible point")
    values = batch_objective(inst, points)
    best_f = min(values)
    optima_idx = [i for i, v in enumerate(values) if v == best_f]
    return BruteForceResult(
        best_x=points[optima_idx[0]].copy(),
        best_f=best_f,
        points=points,
        optima=points[optima_idx].copy(),
    )
