"""Correctness gate and workload properties, run outside the timed passes.

Every terminal point must be feasible and its recomputed objective must
equal the reported value; each instance's best point must carry a
local-optimality certificate.  For object-dtype (Fraction) data the
certificate is ``verify_local_optimality``.  For integer data an
equivalent check evaluates the same signed moves with direct objective
evaluation in int64 batches, which is exact under the headroom test below;
``smoke.py`` checks that both certificates agree.
"""

from __future__ import annotations

import hashlib

import numpy as np

from graveropt import check_feasible, objective, verify_local_optimality


def padded_moves(basis) -> tuple[np.ndarray, np.ndarray]:
    """Basis elements as padded (index, value) int64 matrices."""
    width = max(len(g.entries) for g in basis.elements)
    idx = np.zeros((len(basis), width), dtype=np.int64)
    val = np.zeros((len(basis), width), dtype=np.int64)
    for e, g in enumerate(basis.elements):
        for s, (i, v) in enumerate(g.entries):
            idx[e, s] = i
            val[e, s] = v
    return idx, val


def _signed_moves_in_bounds(inst, moves, x, sign) -> np.ndarray:
    idx, val = moves
    moved = x[idx] + sign * val  # padding has value 0 and keeps x[0], which is in bounds
    return np.all((moved >= inst.lower[idx]) & (moved <= inst.upper[idx]), axis=1)


def seed_feasible_share(inst, moves, seeds) -> float:
    """Share of signed basis moves that pass the bounds check at the seeds."""
    passed = 0
    for x in seeds:
        x = np.asarray(x, dtype=np.int64)
        for sign in (1, -1):
            passed += int(_signed_moves_in_bounds(inst, moves, x, sign).sum())
    return passed / (2 * len(moves[0]) * len(seeds))


def improving_moves(inst, basis, moves, x) -> list[tuple[int, int]]:
    """(element, sign) moves from x that stay in bounds and strictly lower f."""
    x = np.asarray(x, dtype=np.int64)
    numeric = inst.Q.dtype != object and inst.c.dtype != object
    if not numeric:
        return verify_local_optimality(inst, basis, x)
    reach = int(np.abs(x).sum()) + 2 * int(np.abs(moves[1]).sum(axis=1).max())
    if inst.Q.dtype.kind == "i":
        maxq = int(np.abs(inst.Q).max(initial=0))
        maxc = int(np.abs(inst.c).max(initial=0))
        if maxq * reach * reach + maxc * reach >= 2**62:
            return verify_local_optimality(inst, basis, x)
    fx = objective(inst, x)
    idx, val = moves
    rows = np.arange(len(idx))[:, None]
    found = []
    for sign in (1, -1):
        ok = np.flatnonzero(_signed_moves_in_bounds(inst, moves, x, sign))
        for start in range(0, len(ok), 4096):
            block = ok[start:start + 4096]
            y = np.tile(x, (len(block), 1))
            np.add.at(y, (rows[: len(block)], idx[block]), sign * val[block])
            fy = y @ inst.c + np.einsum("ij,jk,ik->i", y, inst.Q, y)
            found += [(int(e), sign) for e in block[fy < fx]]
    return sorted(found)


def check_points(inst, points_and_values) -> list[str]:
    """Problems with (point, reported objective) pairs: feasibility and value."""
    problems = []
    for x, value in points_and_values:
        x = np.asarray(x, dtype=np.int64)
        if not check_feasible(inst, x):
            problems.append(f"{inst.name}: terminal point infeasible")
        elif objective(inst, x) != value:
            problems.append(f"{inst.name}: objective {objective(inst, x)!r} != reported {value!r}")
    return problems


def check_report(inst, report, basis, moves) -> list[str]:
    """Gate for one library ``SolveReport``."""
    problems = check_points(inst, [(r.terminal_x, r.terminal_f) for r in report.results])
    if report.best.terminal_f != min(r.terminal_f for r in report.results):
        problems.append(f"{inst.name}: best is not the lowest terminal value")
    if improving_moves(inst, basis, moves, report.best.terminal_x):
        problems.append(f"{inst.name}: best point has an improving basis move")
    return problems


def report_digest(report) -> str:
    """Digest of everything a library solve returns except timing."""
    h = hashlib.sha256()
    h.update(repr((report.name, report.best.seed_index, report.landscape,
                   report.sampler_assisted, sorted(report.terminal_value_counts.items()))).encode())
    for r in report.results:
        h.update(repr((r.seed_index, r.terminal_f, r.steps, r.moves_scanned,
                       r.sampler_assisted)).encode())
        h.update(r.terminal_x.tobytes())
    return h.hexdigest()
