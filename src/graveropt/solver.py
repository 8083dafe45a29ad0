"""Multi-seeded Graver augmentation.

Each seed is improved by walking along signed basis elements: a move is
taken when it stays inside the bounds and strictly lowers the objective
(ties never accepted, so descent is strict and termination finite).  The
default policy is first-improvement over a cyclic sweep that resumes just
past the last accepted move; best-improvement rescans the whole basis per
step.  Terminal points from all seeds are collected, the best kept, and
the spread of terminal values classifies how rugged the landscape is.

One engine evaluates moves for every kind of data, in blocks of signed
moves over padded numpy arrays.  Only its arithmetic varies, chosen once
per run: rational data (ints and Fractions) is scaled to integers, which
keeps the sign of every move delta, and computed in int64 when every
intermediate provably fits, else in exact Python ints on object arrays;
float data is computed in double precision.

Bounds are tested first, with word operations on bitsets.  Each seed keeps
two room bitsets, ``up`` (x_i < u_i) and ``down`` (x_i > l_i), and every
basis element carries, per 64-bit word, the coordinates where it goes up
and where it goes down.  +g passes when its up bits lie in ``up`` and its
down bits in ``down``; for -g the two swap roles.  Only moves that pass
are evaluated.  For elements whose entries are all +-1 the test is exact
on any box; larger entries still get the full bounds check, on the moves
that pass.

Seeds are augmented independently: workers share the immutable basis and
instance, own their scratch state and random source, and results are merged
by seed index, so reports are identical at any parallelism degree.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graver import (
    Assignment,
    BrickCardinality,
    Cardinality,
    ConstraintKind,
    CoordinateCardinality,
    Explicit,
    GraverBasis,
    build_basis,
)
from .problems import InfeasibleError, QuadraticInstance, check_feasible, objective
from .seeds import seeds_cbqp, seeds_qap, seeds_qsap1, seeds_qsap2

POLICIES = ("first", "best")


@dataclass
class AugmentationResult:
    """Terminal point of one seed's descent, with a path-length audit trail."""

    seed_index: int
    terminal_x: np.ndarray
    terminal_f: object
    steps: int
    moves_scanned: int
    sampler_assisted: bool = False


@dataclass
class SolveReport:
    name: str
    best: AugmentationResult
    results: list[AugmentationResult]
    terminal_value_counts: dict
    best_points: list[np.ndarray]
    landscape: str
    policy: str
    rng_seed: int
    sampler_assisted: bool = False
    seeds: list = field(default_factory=list)

    @property
    def seed_count(self) -> int:
        return len(self.results)

    @property
    def distinct_terminal_values(self) -> int:
        return len(self.terminal_value_counts)

    @property
    def best_share(self) -> float:
        return self.terminal_value_counts[self.best.terminal_f] / len(self.results)


@dataclass
class MovePrep:
    """State-independent per-element data shared by every seed of a run.

    ``idxm``/``valm`` are the basis's own padded (index, value) arrays
    (padding has index 0 and value 0).  ``c`` and ``Q`` are the data
    moves are evaluated with (see :func:`_scan_data`), and ``cg``/``qgg``
    hold c.g and g'Qg per element in that arithmetic; both are reused
    across signs ((-g)'Q(-g) = g'Qg, and c.(-g) just flips in the delta
    formula).

    ``word``/``mask`` hold each element's room requirement for +g, stored
    like the basis: a padded row per element of the room words its support
    touches (padding has mask 0).  Room words are numbered as laid out by
    :class:`_BlockScanner`: the ``up`` words first, then the ``down`` words,
    so one id and one mask cover either side.  A row has at most as many
    words as the support has entries, and a word costs 12 bytes against 16
    per entry, so the masks stay smaller than ``idxm`` + ``valm``.
    ``unit`` says every entry is +-1, which makes the room test exact.
    """

    idxm: np.ndarray
    valm: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    cg: np.ndarray
    qgg: np.ndarray
    word: np.ndarray
    mask: np.ndarray
    unit: bool


def prepare_moves(inst: QuadraticInstance, basis: GraverBasis) -> MovePrep:
    """One pass over the basis arrays serving a whole multi-seed run."""
    idxm, valm = basis.idx, basis.val
    count, width = idxm.shape
    max_weight = int(np.abs(valm).sum(axis=1).max(initial=0))
    if basis.sampler is not None:  # a lifting of a t-cycle has 2t entries of +-1
        max_weight = max(max_weight, 2 * basis.sampler.t_max)
    c, Q = _scan_data(inst, max_weight)
    cg = (c[idxm] * valm).sum(axis=1)  # padded zeros contribute nothing
    qgg = np.empty(count, dtype=np.result_type(Q.dtype, np.int64))
    block = max(1, 250_000 // max(1, width * width))
    for start in range(0, count, block):
        rows = slice(start, min(count, start + block))
        gathered = Q[idxm[rows, :, None], idxm[rows, None, :]]
        qgg[rows] = np.einsum("ea,eab,eb->e", valm[rows], gathered, valm[rows])
    word, mask = _room_masks(idxm, valm, _room_span(inst.size))
    return MovePrep(
        idxm=idxm, valm=valm, c=c, Q=Q, cg=cg, qgg=qgg, word=word, mask=mask,
        unit=bool(np.abs(valm).max(initial=0) <= 1),
    )


def _room_span(size: int) -> int:
    """Bits per room bitset: the coordinates rounded up to whole words."""
    return 64 * -(-size // 64)


def _room_masks(idxm, valm, span) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the room words its support touches and the bits it
    needs in them for +g: up bits at i, down bits at ``span`` + i.  Rows
    list their words in increasing order; padding has mask 0."""
    count, width = idxm.shape
    word = np.zeros((count, min(width, 2 * span // 64)), dtype=np.int32)
    mask = np.zeros(word.shape, dtype="<u8")
    used = 0
    block = max(1, 4096 // max(1, width))  # keeps the transients small
    for start in range(0, count, block):
        idx, val = idxm[start : start + block], valm[start : start + block]
        key = np.sort(np.where(val != 0, idx + span * (val < 0), 2 * span), axis=1)
        cell = key >> 6
        real = key < 2 * span  # padding sorts last and opens no word
        new = real.copy()
        new[:, 1:] &= cell[:, 1:] != cell[:, :-1]
        slot = np.cumsum(new, axis=1) - 1
        bits = real.astype(np.uint64) << (key & 63).astype(np.uint64)
        # a word's entries follow its first one, in the row-major ravel too
        firsts = np.flatnonzero(new)
        at = (start + firsts // width, slot.ravel()[firsts])
        word[at] = cell.ravel()[firsts]
        mask[at] = np.bitwise_or.reduceat(bits.ravel(), firsts) if len(firsts) else 0
        used = max(used, int(slot.max(initial=-1)) + 1)
    return np.ascontiguousarray(word[:, :used]), np.ascontiguousarray(mask[:, :used])


def _scan_data(inst: QuadraticInstance, max_weight: int) -> tuple[np.ndarray, np.ndarray]:
    """The c and Q that moves are evaluated with.

    Rational data (every entry an int or a Fraction) is multiplied by the
    LCM of its denominators.  A positive factor scales every move delta
    alike, so the sign of each delta and the order between any two are
    kept, and both policies and the sampler accept the same moves.  The
    integers are then kept in int64 when every intermediate provably fits,
    else as exact Python ints on object arrays.  Floats stay in double
    precision; object data with floats mixed in stays object.
    """
    c, Q = inst.c, inst.Q
    if c.dtype == object or Q.dtype == object:
        flat = c.tolist() + Q.ravel().tolist()
        if not all(isinstance(v, numbers.Rational) for v in flat):
            return c.astype(object), Q.astype(object)
        scale = math.lcm(*{int(v.denominator) for v in flat})
        c, Q = (
            np.array(
                [int(v.numerator) * (scale // int(v.denominator)) for v in a.ravel().tolist()],
                dtype=object,
            ).reshape(a.shape)
            for a in (c, Q)
        )
    elif c.dtype.kind == "f" or Q.dtype.kind == "f":
        return c, Q
    if _int64_headroom_ok(inst, c, Q, max_weight):
        return c.astype(np.int64), Q.astype(np.int64)
    return c.astype(object), Q.astype(object)


def _int64_headroom_ok(inst: QuadraticInstance, c, Q, max_weight: int) -> bool:
    """Conservative bound that every int64 intermediate of a move with at
    most ``max_weight`` total |entry| stays far from overflow."""
    maxq = int(np.abs(Q).max(initial=0))
    maxc = int(np.abs(c).max(initial=0))
    maxb = int(max(np.abs(inst.lower).max(initial=0), np.abs(inst.upper).max(initial=0), 1))
    bound = max_weight * (maxc + 2 * maxq * inst.size * maxb) + max_weight**2 * maxq
    return bound < 2**62


class _BlockScanner:
    """The descent engine: move evaluation in blocks of signed moves.

    Signed move j covers basis element j // 2, with +g on even j and -g on
    odd j.  x and w = (Q+Q')x are kept as arrays in the arithmetic chosen
    by :func:`_scan_data`; moves are evaluated a few thousand at a time
    through the padded (index, value) matrices of a :class:`MovePrep`, and
    w is updated from the moved coordinates' rows and columns of Q.

    The room bitsets are kept complemented, as ``full`` (bit set where
    x_i sits at that bound), so a move passes when its mask meets no set
    bit.  Row 0 of ``full`` is the words of not-``up`` then not-``down``,
    which +g reads at its mask's word ids; row 1 has the two halves
    swapped, so -g reading the same ids meets the other bitset.  A block
    keeps the moves that pass, then computes deltas for those alone.
    ``bits`` holds the four halves unpacked; a move rewrites them at the
    coordinates it moved.
    """

    BLOCK = 4096

    def __init__(self, inst: QuadraticInstance, x: np.ndarray, prep: MovePrep):
        self.n_moves = 2 * len(prep.idxm)
        self.c = prep.c
        self.Q = prep.Q
        self.lower = inst.lower
        self.upper = inst.upper
        self.x = np.asarray(x, dtype=np.int64).copy()
        self.w = (self.Q + self.Q.T) @ self.x
        self.idxm = prep.idxm
        self.valm = prep.valm
        self.cg = prep.cg
        self.qgg = prep.qgg
        self.word = prep.word
        self.mask = prep.mask
        self.unit = prep.unit
        self.bits = np.zeros((4, _room_span(len(self.x))), dtype=bool)
        self._mark_room(np.arange(len(self.x)))

    def _mark_room(self, idx):
        """Rewrite the room bits of coordinates ``idx`` from x."""
        x = self.x[idx]
        self.bits[::3, idx] = x >= self.upper[idx]  # rows 0 and 3: not up
        self.bits[1:3, idx] = x <= self.lower[idx]  # rows 1 and 2: not down
        self.full = np.packbits(self.bits, bitorder="little").view("<u8").reshape(2, -1)

    def delta_support(self, idx, val):
        """f(x+g) - f(x) for one support, e.g. a fresh sampler draw, or
        None when x+g leaves the box."""
        moved = self.x[idx] + val
        if np.any(moved < self.lower[idx]) or np.any(moved > self.upper[idx]):
            return None
        cg = self.c[idx] @ val
        qgg = val @ self.Q[np.ix_(idx, idx)] @ val
        return cg + self.w[idx] @ val + qgg

    def apply_support(self, idx, val, sign):
        self.x[idx] += sign * val
        self.w += sign * (self.Q[:, idx] @ val + val @ self.Q[idx, :])
        self._mark_room(idx)

    def _scan_block(self, start, count):
        """Improving signed moves among the ``count`` moves from ``start``
        (cyclic): (absolute indices in scan order, their deltas)."""
        end = start + count
        rows = slice(start >> 1, (end + 1) >> 1)
        word, mask = self.word[rows], self.mask[rows]
        if end > self.n_moves:  # the block wraps on to the first elements
            more = slice(0, rows.stop - len(self.word))
            word = np.concatenate((word, self.word[more]))
            mask = np.concatenate((mask, self.mask[more]))
        hit = np.zeros((2, len(word)), dtype="<u8")  # rows +g, -g
        for k in range(word.shape[1]):  # a column at a time keeps the loops long
            hit |= self.full[:, word[:, k]] & mask[:, k]
        fits = hit.T.ravel()[start & 1 : (start & 1) + count] == 0
        seq = (start + np.flatnonzero(fits)) % self.n_moves
        e = seq >> 1
        sign = 1 - 2 * (seq & 1)
        idx = self.idxm[e]
        val = self.valm[e]
        wg = (self.w[idx] * val).sum(axis=1)
        delta = sign * (self.cg[e] + wg) + self.qgg[e]
        improving = delta < 0
        if not self.unit:  # a room bit promises room for one unit step only
            moved = self.x[idx] + sign[:, None] * val
            improving &= np.all((moved >= self.lower[idx]) & (moved <= self.upper[idx]), axis=1)
        return seq[improving], delta[improving]

    def try_from(self, pointer):
        """First feasible strictly improving move in one cyclic pass from
        ``pointer``: (signed index, moves examined), or (-1, n_moves)."""
        remaining = self.n_moves
        examined = 0
        at = pointer
        while remaining > 0:
            count = min(self.BLOCK, remaining)
            hits, _ = self._scan_block(at, count)
            if hits.size:
                j = int(hits[0])
                return j, examined + int((j - at) % self.n_moves) + 1
            examined += count
            at = (at + count) % self.n_moves
            remaining -= count
        return -1, examined

    def scan_best(self):
        """Most improving feasible move over all of them (first wins ties)."""
        best_d = None
        best_j = -1
        for at in range(0, self.n_moves, self.BLOCK):
            count = min(self.BLOCK, self.n_moves - at)
            hits, deltas = self._scan_block(at, count)
            for j, d in zip(hits.tolist(), deltas.tolist()):
                if best_d is None or d < best_d:
                    best_d = d
                    best_j = j
        return best_j, self.n_moves

    def apply_move(self, j):
        e, odd = divmod(j, 2)
        val = self.valm[e]
        # padding repeats index 0, and a buffered x[idx] += ... would let a
        # padded 0 overwrite the real update of x[0]
        real = val != 0
        self.apply_support(self.idxm[e][real], val[real], 1 - 2 * odd)


def augment(
    inst: QuadraticInstance,
    basis: GraverBasis,
    x0,
    policy: str = "first",
    sampler_budget: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    seed_index: int = 0,
    prep: Optional[MovePrep] = None,
) -> AugmentationResult:
    """Descend from a feasible point until no signed basis move improves.

    The returned point carries a local-optimality certificate relative to
    the enumerated elements: no feasible signed move strictly improves it.
    When the basis is sampler-backed, each stall additionally tries
    ``sampler_budget`` random high-length liftings (default 10 * dim) before
    termination; accepted sampler moves mark the result sampler-assisted and
    restrict the certificate to the enumerated part.

    ``prep`` is the output of :func:`prepare_moves` for this (instance,
    basis) pair; multi-seed callers pass it in so it is computed once.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    x0 = np.asarray(x0, dtype=np.int64)
    if not check_feasible(inst, x0):
        raise InfeasibleError(f"starting point infeasible for {inst.name!r}")

    if prep is None:
        prep = prepare_moves(inst, basis)
    scanner = _BlockScanner(inst, x0, prep)
    if basis.sampler is not None and sampler_budget is None:
        sampler_budget = 10 * inst.size
    if basis.sampler is not None and rng is None:
        rng = np.random.default_rng(0)

    steps = 0
    scanned = 0
    sampler_assisted = False

    def descend():
        nonlocal steps, scanned
        pointer = 0
        while scanner.n_moves:
            if policy == "first":
                j, examined = scanner.try_from(pointer)
            else:
                j, examined = scanner.scan_best()
            scanned += examined
            if j < 0:
                return
            scanner.apply_move(j)
            steps += 1
            pointer = (j + 1) % scanner.n_moves

    while True:
        descend()
        if basis.sampler is None or not sampler_budget:
            break
        accepted = False
        for _ in range(sampler_budget):
            idx, val = basis.sampler.draw(rng)
            scanned += 1
            d = scanner.delta_support(idx, val)
            if d is not None and d < 0:
                scanner.apply_support(idx, val, 1)
                steps += 1
                accepted = True
                sampler_assisted = True
        if not accepted:
            break

    return AugmentationResult(
        seed_index=seed_index,
        terminal_x=scanner.x,
        terminal_f=objective(inst, scanner.x),
        steps=steps,
        moves_scanned=scanned,
        sampler_assisted=sampler_assisted,
    )


def verify_local_optimality(
    inst: QuadraticInstance, basis: GraverBasis, x
) -> list[tuple[int, int]]:
    """Independent post-pass: list of (element index, sign) moves that are
    feasible and strictly improving at x.  Empty means certified terminal.

    Uses direct objective evaluation, not the incremental delta path.
    """
    x = np.asarray(x, dtype=np.int64)
    fx = objective(inst, x)
    violations = []
    for e, (idx, val) in enumerate(zip(basis.idx, basis.val)):
        for sign in (1, -1):
            y = x.copy()
            np.add.at(y, idx, sign * val)  # unbuffered, so padding adds 0 to y[0]
            if np.all((y >= inst.lower) & (y <= inst.upper)) and objective(inst, y) < fx:
                violations.append((e, sign))
    return violations


def generate_seeds(
    inst: QuadraticInstance,
    basis: GraverBasis,
    count: int,
    rng: np.random.Generator,
    walk_len_range: Optional[tuple[int, int]] = None,
) -> list[np.ndarray]:
    """Class-appropriate feasible starting points for an instance."""
    kind = inst.kind
    if isinstance(kind, Cardinality):
        return seeds_cbqp(rng, kind.n, int(inst.b[0]), count)
    if isinstance(kind, BrickCardinality):
        return seeds_qsap1(rng, kind.n, kind.k, inst.b, count)
    if isinstance(kind, CoordinateCardinality):
        return seeds_qsap2(rng, kind.n, kind.k, inst.b, count)
    if isinstance(kind, Assignment):
        return seeds_qap(rng, kind.n, kind.k, inst.b, count, basis, walk_len_range)
    raise ValueError(f"no seed sampler for constraint kind {kind!r}")


def default_seed_count(kind: ConstraintKind) -> int:
    """50 seeds for plain cardinality problems, k*n for the block families."""
    if isinstance(kind, (BrickCardinality, CoordinateCardinality, Assignment)):
        return kind.n * kind.k
    return 50


def classify_landscape(
    report_or_counts,
    best_f=None,
    max_easy_values: int = 5,
    min_best_share: float = 0.5,
) -> str:
    """Bucket a terminal-value histogram into one of three regimes.

    One distinct terminal value looks convex; a handful of values with the
    best one reached from at least half the seeds is an easy non-convex
    landscape; anything more scattered is hard.
    """
    if isinstance(report_or_counts, SolveReport):
        counts = report_or_counts.terminal_value_counts
        best_f = report_or_counts.best.terminal_f
    else:
        counts = dict(report_or_counts)
        if best_f is None:
            best_f = min(counts)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty report")
    distinct = len(counts)
    if distinct == 1:
        return "convex-like"
    share = counts[best_f] / total
    if distinct <= max_easy_values and share >= min_best_share:
        return "easy-nonconvex"
    return "hard-nonconvex"


def solve(
    inst: QuadraticInstance,
    seed_count: Optional[int] = None,
    policy: str = "first",
    parallelism: int = 1,
    rng_seed: int = 0,
    max_cycle_len: Optional[int] = None,
    enumeration_cap: int = 10**6,
    sampler_budget: Optional[int] = None,
    walk_len_range: Optional[tuple[int, int]] = None,
    seeds: Optional[Sequence] = None,
    basis: Optional[GraverBasis] = None,
) -> SolveReport:
    """Build the basis, seed, augment every seed, and report.

    Deterministic for a fixed ``rng_seed`` and policy regardless of the
    parallelism degree: worker random streams are spawned per seed index
    and results are merged by index, never by completion order.
    """
    if basis is None:
        if isinstance(inst.kind, Explicit):
            from .oracle import pottier_graver

            basis = pottier_graver(inst.kind.rows)
        else:
            basis = build_basis(inst.kind, max_cycle_len, enumeration_cap)

    master = np.random.SeedSequence(rng_seed)
    if seeds is None:
        if seed_count is None:
            seed_count = default_seed_count(inst.kind)
        seed_rng = np.random.default_rng(master.spawn(1)[0])
        seeds = generate_seeds(inst, basis, seed_count, seed_rng, walk_len_range)
    seeds = [np.asarray(s, dtype=np.int64) for s in seeds]
    if not seeds:
        raise InfeasibleError("no seeds to augment")
    worker_streams = master.spawn(len(seeds) + 1)[1:]
    prep = prepare_moves(inst, basis)

    def run(i: int) -> AugmentationResult:
        rng = np.random.default_rng(worker_streams[i])
        return augment(
            inst,
            basis,
            seeds[i],
            policy=policy,
            sampler_budget=sampler_budget,
            rng=rng,
            seed_index=i,
            prep=prep,
        )

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(run, range(len(seeds))))
    else:
        results = [run(i) for i in range(len(seeds))]

    best = min(results, key=lambda r: (r.terminal_f, r.seed_index))
    counts = dict(Counter(r.terminal_f for r in results))
    unique_best: dict[bytes, np.ndarray] = {}
    for r in results:
        if r.terminal_f == best.terminal_f:
            unique_best.setdefault(r.terminal_x.tobytes(), r.terminal_x)
    report = SolveReport(
        name=inst.name,
        best=best,
        results=results,
        terminal_value_counts=counts,
        best_points=list(unique_best.values()),
        landscape="",
        policy=policy,
        rng_seed=rng_seed,
        sampler_assisted=any(r.sampler_assisted for r in results),
        seeds=seeds,
    )
    report.landscape = classify_landscape(report)
    return report
