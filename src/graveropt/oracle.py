"""Independent ground truth for small instances.

Two oracles live here, deliberately decoupled from the closed-form
constructions they are used to check:

* a Pottier-style completion (Pottier 1996) that computes the full Graver
  basis of an arbitrary small integer matrix from an exact integer kernel
  basis, reducing the sum of each pair of members once, pairs in the order
  the members were added and sums seen before, up to sign, skipped, and
* a brute-force global solver that enumerates the bounded feasible lattice.

Both are single-threaded and budgeted (the completion on member rows its
reductions test, the solver on box size); they raise
``ResourceBudgetError`` rather than ever returning a truncated answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
import numpy as np

from .graver import GraverBasis, _pack_rows
from .problems import QuadraticInstance, _meets_equations, batch_objective


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

def pottier_graver(A, max_rows: int = 200_000_000) -> GraverBasis:
    """Complete Graver basis of a small integer matrix by completion.

    The members start as +-(lattice basis of ker_Z(A)).  Each pair (i, j),
    i < j, is taken once, j in the order the members were added and i
    ascending.  The sum of members i and j is reduced against every member
    held at that point, subtracting the first one sign-compatibly below it
    until none is; a nonzero survivor r is added as r and -r.  A sum s
    seen before, as s or as -s, is skipped.  The members come in adjacent
    pairs g, -g, so the members below -s are the partners of those below
    s, in the same order, and reducing -s mirrors reducing s.  So skipping
    -s leaves every pair sum reducible to 0: the negated chain that
    reduced s takes -s to 0 or to -r, itself a member.  A final sweep keeps
    the distinct members no other member sign-compatibly dominates, one
    per {g, -g} pair, in sorted order.

    Each reduction scan tests every member row.  Past ``max_rows`` rows
    tested in all it raises ``ResourceBudgetError``.  At about 75 ns a row,
    the default of 2e8 rows stops a completion in about 15 s.  The budget
    bounds the member count too: each pair of members is appended after a
    scan of every member row, so holding M members takes at least about
    M**2 / 4 rows, and 2e8 rows hold fewer than 30 000 members.
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or not np.any(A):
        raise ValueError("A must be a nonzero 2-d integer matrix")
    ncols = A.shape[1]

    lattice = integer_kernel_basis(A)
    if not lattice:
        return _pack_rows(ncols, ())

    gm = np.array([sign * vec for vec in lattice for sign in (1, -1)], dtype=np.int64)
    seen_sums: set[bytes] = set()
    rows_tested = 0
    j = 1
    while j < len(gm):
        for s in gm[:j] + gm[j]:
            key = min(s.tobytes(), (-s).tobytes())
            if key in seen_sums:
                continue
            seen_sums.add(key)
            while np.any(s):
                rows_tested += len(gm)
                if rows_tested > max_rows:
                    raise ResourceBudgetError(f"completion exceeded max_rows={max_rows} rows tested")
                mask = np.all((gm * s >= 0) & (np.abs(gm) <= np.abs(s)), axis=1)
                hits = np.flatnonzero(mask)
                if hits.size == 0:
                    gm = np.concatenate([gm, [s, -s]])
                    break
                s -= gm[hits[0]]
        j += 1

    gm = np.unique(gm, axis=0)
    rows = []
    for i, vec in enumerate(gm):
        dominated = np.all((gm * vec >= 0) & (np.abs(gm) <= np.abs(vec)), axis=1)
        dominated[i] = False
        support = np.flatnonzero(vec)
        if not np.any(dominated) and vec[support[0]] > 0:
            rows.append(tuple(zip(support.tolist(), vec[support].tolist())))
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
    chunks = []
    block = 1 << 16
    for start in range(0, total, block):
        idx = np.arange(start, min(total, start + block), dtype=np.int64)
        grid = lower[None, :] + (idx[:, None] // strides[None, :]) % sizes[None, :]
        chunks.append(grid[_meets_equations(inst, grid)])
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
