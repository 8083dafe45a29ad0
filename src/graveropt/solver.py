"""Multi-seeded Graver augmentation.

Each seed is improved by walking along signed basis elements: a move is
taken when it stays inside the bounds and strictly lowers the objective
(ties never accepted, so descent is strict and termination finite).  The
default policy is first-improvement over a cyclic sweep that resumes just
past the last accepted move; best-improvement rescans the whole basis per
step and takes its lowest move, the first on ties.  Terminal points from
all seeds are collected, the best kept, and the spread of terminal values
classifies how rugged the landscape is.

One engine evaluates moves for every kind of data, in blocks of signed
moves over padded numpy arrays.  Only its arithmetic varies, chosen once
per run: rational data (ints and Fractions) is scaled to integers, which
keeps the sign of every move delta, and computed in int64 when every
intermediate provably fits, else in exact Python ints on object arrays;
float data is computed in double precision.  Terminal values of rational
data are read off the same scaled integers.

The first-improvement scan tests bounds first, with word operations on
bitsets.  Each seed keeps two room bitsets, ``up`` (x_i < u_i) and
``down`` (x_i > l_i), and every basis element carries, per 64-bit word,
the coordinates where it goes up and where it goes down.  +g passes when
its up bits lie in ``up`` and its down bits in ``down``; for -g the two
swap roles.  Only moves that pass are evaluated.  For elements whose
entries are all +-1 the test is exact on any box; larger entries still
get the full bounds check, on the moves that pass.

All seeds of a run descend in lockstep: their points are rows of one
array, and each round evaluates every active seed's next window of moves
in one pass, so the per-call overhead of numpy is shared by the
seeds.  Under best-improvement every pass covers all moves from the first,
so a round is every live seed's whole pass, evaluated as dense tiles of
[seeds x elements] straight from the per-element arrays.  A tile computes
every move's delta anyway, so it checks each move against the box
directly instead of through the bitsets.  Each seed still takes exactly
the moves, and draws exactly the random numbers, of a descent run on its
own, so reports do not depend on which seeds share a round.

A sampler-backed assignment basis stores the cycle liftings up to some
length and stands for the longer ones too.  When a seed's pass over the
stored elements finds nothing, its long-cycle phase enumerates the
omitted lengths exactly: a lifting fits the box at x exactly when it is a
directed alternating cycle in the brick/slot graph whose arcs are the up
and down room bits (the cyclic exchanges of Thompson and Orlin, 1989), so
the feasible liftings are found by growing such paths level by level.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
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
    LiftingSampler,
    build_basis,
)
from .problems import InfeasibleError, QuadraticInstance, _int64_safe, check_feasible, objective
from .seeds import seeds_cbqp, seeds_qap, seeds_qsap1, seeds_qsap2

POLICIES = ("first", "best")
MAX_EASY_VALUES = 5  # classify_landscape: most distinct terminal values of an easy landscape
MIN_BEST_SHARE = 0.5  # and the least share of seeds that reach the best one


@dataclass
class AugmentationResult:
    """Terminal point of one seed's descent, with a path-length audit trail.

    ``moves_scanned`` counts the stored signed moves examined plus the
    cycles the long-cycle phase evaluated.  ``sampler_assisted`` says the
    descent took at least one long-cycle move (the name predates the
    phase and is kept so reports keep their fields).  ``certificate`` says
    what the terminal point is locally optimal against: ``"full"``, every
    signed element of the basis the solve was given, including all
    liftings its sampler stands for; ``"stored"``, the stored elements
    only, because the long-cycle phase thinned its paths.
    """

    seed_index: int
    terminal_x: np.ndarray
    terminal_f: object
    steps: int
    moves_scanned: int
    sampler_assisted: bool = False
    certificate: str = "full"


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
    :class:`_Lockstep`: the ``up`` words first, then the ``down`` words,
    so one id and one mask cover either side.  A row has at most as many
    words as the support has entries, and a word costs 12 bytes against 16
    per entry, so the masks stay smaller than ``idxm`` + ``valm``.
    ``unit`` says every entry is +-1, which makes the room test exact.
    ``qsym`` is Q+Q'.  ``sampler`` is the basis's lifting sampler, for
    the long-cycle phase; ``selfq`` then holds v'Qv per pair (see
    :func:`_pair_selfq`).  ``scale``, ``has_fraction``: see :func:`_scan_data`.
    """

    idxm: np.ndarray
    valm: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    qsym: np.ndarray
    cg: np.ndarray
    qgg: np.ndarray
    word: np.ndarray
    mask: np.ndarray
    unit: bool
    scale: Optional[int]
    has_fraction: Optional[np.ndarray]
    sampler: Optional[LiftingSampler] = None
    selfq: Optional[np.ndarray] = None


def _pair_selfq(Q, n, k) -> np.ndarray:
    """v'Qv per pair v = e_(b, j_up) - e_(b, j_down) of an n x k
    assignment, where coordinate (b, j) is b*k + j, by pair id
    (b*k + j_up)*k + j_down (see :meth:`_Lockstep.long_cycles`)."""
    q4 = Q.reshape(n, k, n, k)
    block = q4[np.arange(n), :, np.arange(n), :]  # [b, j, j'] = Q[(b, j), (b, j')]
    diag = np.diagonal(block, axis1=1, axis2=2)
    return (diag[:, :, None] + diag[:, None, :] - block - block.transpose(0, 2, 1)).reshape(-1)


def prepare_moves(inst: QuadraticInstance, basis: GraverBasis) -> MovePrep:
    """One pass over the basis arrays serving a whole multi-seed run."""
    idxm, valm = basis.idx, basis.val
    count, width = idxm.shape
    max_weight = int(np.abs(valm).sum(axis=1).max(initial=0))
    sampler = basis.sampler
    if sampler is not None:  # a lifting of a t-cycle has 2t entries of +-1
        max_weight = max(max_weight, 2 * sampler.t_max)
    c, Q, scale, has_fraction = _scan_data(inst, max_weight)
    cg = (c[idxm] * valm).sum(axis=1)  # padded zeros contribute nothing
    qgg = np.empty(count, dtype=np.result_type(Q.dtype, np.int64))
    block = max(1, 250_000 // max(1, width * width))
    for start in range(0, count, block):
        rows = slice(start, min(count, start + block))
        gathered = Q[idxm[rows, :, None], idxm[rows, None, :]]
        qgg[rows] = np.einsum("ea,eab,eb->e", valm[rows], gathered, valm[rows])
    word, mask = _room_masks(idxm, valm, _room_span(inst.size))
    return MovePrep(
        idxm=idxm, valm=valm, c=c, Q=Q, qsym=Q + Q.T, cg=cg, qgg=qgg, word=word, mask=mask,
        unit=bool(np.abs(valm).max(initial=0) <= 1), scale=scale, has_fraction=has_fraction,
        sampler=sampler, selfq=None if sampler is None else _pair_selfq(Q, sampler.n, sampler.k),
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


def _scan_data(inst: QuadraticInstance, max_weight: int) -> tuple:
    """The c and Q that moves are evaluated with, the factor they are
    scaled by (``None`` for floats), and whether each row of Q, then c,
    holds a Fraction.

    Rational data (every entry an int or a Fraction) is multiplied by the
    LCM of its denominators.  A positive factor scales every move delta
    alike, so the sign of each delta and the order between any two are
    kept, and both policies and the long-cycle phase accept the same
    moves.  The integers are then kept in int64 when every intermediate
    provably fits, else as exact Python ints on object arrays.  Floats stay
    in double precision; object data with floats mixed in stays object.
    """
    c, Q = inst.c, inst.Q
    scale, has_fraction = 1, np.zeros(inst.size + 1, dtype=bool)
    if c.dtype == object or Q.dtype == object:
        flat = c.tolist() + Q.ravel().tolist()
        if not all(isinstance(v, numbers.Rational) for v in flat):
            return c.astype(object), Q.astype(object), None, None
        held = np.array([isinstance(v, Fraction) for v in flat]).reshape(-1, c.size)
        has_fraction = np.append(held[1:].any(axis=1), held[0].any())
        scale = math.lcm(*{int(v.denominator) for v in flat})
        scaled = np.array([int(v.numerator) * (scale // int(v.denominator)) for v in flat], object)
        c, Q = scaled[: c.size], scaled[c.size :].reshape(Q.shape)
    elif c.dtype.kind == "f" or Q.dtype.kind == "f":
        return c, Q, None, None
    maxb = max(int(np.abs(inst.lower).max(initial=0)), int(np.abs(inst.upper).max(initial=0)), 1)
    dtype = np.int64 if _int64_safe(c, Q, inst.size * maxb + max_weight) else object
    return c.astype(dtype), Q.astype(dtype), scale, has_fraction


def _terminal_values(inst: QuadraticInstance, prep: MovePrep, x, w) -> list:
    """f at each row of ``x``, given ``w`` = (Q+Q')x in the engine's arithmetic.

    For rational data, with c and Q scaled by ``prep.scale``, scale * f =
    c.x + x.w/2, as x'(Q+Q')x = 2x'Qx; the int64 guard covers it, so it is
    exact in the engine's arithmetic.  f is a Fraction exactly when
    ``objective`` gives one (c, or a row i of Q with x_i != 0, holds a
    Fraction).  Float data goes through ``objective``.
    """
    if prep.scale is None:
        return [objective(inst, row) for row in x]
    xs = x.astype(prep.c.dtype)
    scaled = (xs @ prep.c + (xs * w).sum(axis=1) // 2).tolist()
    typed = (x != 0) @ prep.has_fraction[:-1] | prep.has_fraction[-1]
    return [Fraction(v, prep.scale) if t else v // prep.scale for v, t in zip(scaled, typed)]


class _Lockstep:
    """The descent engine: every seed of a run advanced in lockstep rounds.

    Signed move j covers basis element j // 2, with +g on even j and -g on
    odd j.  The seeds' points ``x`` and ``w`` = (Q+Q')x are [seeds, n]
    arrays, ``w`` in the arithmetic chosen by :func:`_scan_data`.  Each
    round evaluates moves of many seeds in one pass, then every seed with
    a hit takes its move at once.  Each seed's moves, examined counts and
    random draws are those of a descent run on its own.

    Under ``"first"`` a round lays each active seed's window of signed
    moves (cyclic, from that seed's own pointer) end to end: one room
    test, then deltas for the moves that pass.  A window is ``WINDOW``
    moves after an accept and doubles on each miss, up to ``BLOCK``: a
    seed near its last accept usually finds the next within a few hundred
    moves, and a seed that certifies its terminal point scans in large
    blocks.  A round takes the active seeds in index order until it holds
    ``ROUND`` moves, which may split the last seed's window over two
    rounds.

    Under ``"best"`` a round is every live seed's whole pass, run by
    :meth:`best_moves` as dense tiles of [seeds x elements] read straight
    from the per-element arrays, with no per-move window indices.

    The room bitsets are kept complemented, as ``full`` (bit set where
    x_i sits at that bound), so a move passes when its mask meets no set
    bit.  Row 0 of a seed's ``full`` is the words of not-``up`` then
    not-``down``, which +g reads at its mask's word ids; row 1 has the two
    halves swapped, so -g reading the same ids meets the other bitset.
    """

    BLOCK = 4096
    WINDOW = 256
    ROUND = 4 * BLOCK
    CAP = 16_384  # open paths per level of a long-cycle phase (see long_cycles)

    def __init__(self, inst: QuadraticInstance, prep: MovePrep, seeds: Sequence[np.ndarray]):
        self.n_moves = 2 * len(prep.idxm)
        self.c = prep.c
        self.Q = prep.Q
        self.lower = inst.lower
        self.upper = inst.upper
        self.idxm = prep.idxm
        self.valm = prep.valm
        self.cg = prep.cg
        self.qgg = prep.qgg
        self.word = prep.word
        self.mask = prep.mask
        self.unit = prep.unit
        self.qsym = prep.qsym
        self.sampler = prep.sampler
        self.selfq = prep.selfq
        self.x = np.array(seeds, dtype=np.int64).reshape(len(seeds), inst.size)
        self.w = np.stack([self.qsym @ x for x in self.x])
        self.full = np.zeros((len(self.x), 2, _room_span(inst.size) // 32), dtype="<u8")
        self._mark_room(np.arange(len(self.x)))

    def _mark_room(self, seeds):
        """Rewrite the room words of ``seeds`` from their x."""
        x = self.x[seeds]
        bits = np.zeros((len(seeds), 4, 32 * self.full.shape[2]), dtype=bool)
        bits[:, ::3, : x.shape[1]] = (x >= self.upper)[:, None]  # rows 0 and 3: not up
        bits[:, 1:3, : x.shape[1]] = (x <= self.lower)[:, None]  # rows 1 and 2: not down
        packed = np.packbits(bits, axis=-1, bitorder="little")
        self.full[seeds] = packed.view("<u8").reshape(len(seeds), 2, -1)

    def apply_support(self, s, idx, val, sign):
        self.x[s, idx] += sign * val
        self.w[s] += sign * (self.Q[:, idx] @ val + val @ self.Q[idx, :])
        self._mark_room(np.array([s]))

    def apply_moves(self, seeds, moves):
        """Seed ``seeds[i]`` takes signed move ``moves[i]``; seeds are distinct."""
        e = moves >> 1
        sign = 1 - 2 * (moves & 1)
        # int64 rows of w are updated for all movers at once, which is
        # exact; float and object rows one at a time, as a lone seed's are
        if self.w.dtype != np.int64:
            for s, g, sg in zip(seeds.tolist(), e.tolist(), sign.tolist()):
                val = self.valm[g]
                # padding repeats index 0, and a buffered x[idx] += ... would
                # let a padded 0 overwrite the real update of x[0]
                real = val != 0
                self.apply_support(s, self.idxm[g][real], val[real], sg)
            return
        idx = self.idxm[e]
        val = self.valm[e] * sign[:, None]
        np.add.at(self.x, (seeds[:, None], idx), val)  # unbuffered, so padding adds 0
        self.w[seeds] += np.einsum("hk,hkn->hn", val, self.qsym[idx])
        self._mark_room(seeds)

    def _scan(self, seeds, start, count):
        """Improving signed moves of one round, in which seed ``seeds[i]``
        scans ``count[i]`` moves from ``start[i]`` (cyclic): per improving
        move in scan order, (i, its offset in seed i's window, its signed
        index, its delta).

        The room test runs on whole elements, +g and -g side by side, so
        one gather of an element's masks serves both signs; a window that
        starts or ends halfway through an element drops the other move."""
        n_elements = self.n_moves >> 1
        lo = start >> 1
        span = ((start + count + 1) >> 1) - lo  # elements the window touches
        first = np.cumsum(span) - span
        e = np.arange(int(first[-1] + span[-1])) + np.repeat(lo - first, span)
        np.subtract(e, n_elements, out=e, where=e >= n_elements)
        words = self.full.shape[2]
        plus = np.repeat(2 * words * seeds, span)  # the seed's +g row; its -g row follows
        full = self.full.reshape(-1)
        hit = np.zeros((2, len(e)), dtype="<u8")
        for k in range(self.word.shape[1]):  # a column at a time keeps the loops long
            at, mask = plus + self.word[:, k][e], self.mask[:, k][e]
            hit[0] |= full[at] & mask
            hit[1] |= full[at + words] & mask
        hit = hit.T.ravel()
        hit[2 * first[start & 1 == 1]] = 1  # +g lies before the window
        hit[2 * (first + span)[(start + count) & 1 == 1] - 1] = 1  # -g lies after it
        at = np.flatnonzero(hit == 0)
        slot = np.searchsorted(first, at >> 1, side="right") - 1
        e, odd = e[at >> 1], at & 1
        sign = 1 - 2 * odd
        at_x = (seeds[slot] * self.x.shape[1])[:, None] + np.take(self.idxm, e, axis=0)
        val = np.take(self.valm, e, axis=0)
        wg = (self.w.reshape(-1)[at_x] * val).sum(axis=1)
        delta = sign * (self.cg[e] + wg) + self.qgg[e]
        improving = delta < 0
        if not self.unit:  # a room bit promises room for one unit step only
            idx = np.take(self.idxm, e, axis=0)
            moved = self.x.reshape(-1)[at_x] + sign[:, None] * val
            improving &= np.all((moved >= self.lower[idx]) & (moved <= self.upper[idx]), axis=1)
        at, slot = at[improving], slot[improving]
        offset = at - 2 * first[slot] - (start[slot] & 1)
        return slot, offset, 2 * e[improving] + odd[improving], delta[improving]

    def _tile(self, seeds, lo, hi):
        """The best-policy tile of ``seeds`` x elements ``lo .. hi - 1``: the
        deltas of signed moves ``2*lo .. 2*hi - 1``, a [seeds, moves] array
        with 0 for each move that leaves the box.  0 stands in for any
        arithmetic, as only a delta below 0 is taken."""
        idx, val = self.idxm[lo:hi], self.valm[lo:hi]
        x, w = self.x[seeds], self.w[seeds]
        plus = np.zeros((len(seeds), hi - lo), dtype=bool)  # +g leaves the box
        minus = np.zeros_like(plus)
        for i, v in zip(idx.T, val.T):  # padding adds 0 to an x inside its box
            xi, low, high = np.take(x, i, axis=1), self.lower[i], self.upper[i]
            plus |= xi < low - v
            plus |= xi > high - v
            minus |= xi < low + v
            minus |= xi > high + v
        if w.dtype == np.int64:  # exact in any order; an entry at a time skips a 3-d gather
            wg = np.zeros((len(seeds), hi - lo), dtype=np.int64)
            for i, v in zip(idx.T, val.T):
                wg += np.take(w, i, axis=1) * v
        else:  # summed as the windowed scan sums, for the same rounding
            wg = (np.take(w, idx, axis=1) * val).sum(axis=2)
        a = self.cg[lo:hi] + wg
        delta = np.stack([a + self.qgg[lo:hi], -a + self.qgg[lo:hi]], axis=2)
        return np.where(np.stack([plus, minus], axis=2), 0, delta).reshape(len(seeds), -1)

    def best_moves(self, seeds):
        """Per seed of ``seeds``, the best move of a whole pass, first wins
        ties, or -1 when no move improves.

        The pass runs as tiles of [seed chunk x element block] of at most
        ``ROUND`` signed moves: chunks of whole passes, or, when a pass
        holds more, one seed's pass in blocks of ``ROUND // 2`` elements.
        A tile runs the bounds check and the delta formula on every move,
        and an ``argmin`` takes the first lowest.  Each seed keeps a running minimum that
        only a strictly lower delta replaces, so ties go to the lowest
        signed index across blocks too."""
        n_elements = self.n_moves >> 1
        size = min(n_elements, max(1, self.ROUND // 2))  # elements per block
        chunk = max(1, self.ROUND // (2 * size))  # seeds per tile
        low = np.zeros(len(seeds), dtype=self.w.dtype)
        moves = np.full(len(seeds), -1, dtype=np.int64)
        for lo in range(0, n_elements, size):
            for at in range(0, len(seeds), chunk):
                delta = self._tile(seeds[at : at + chunk], lo, min(n_elements, lo + size))
                j = delta.argmin(axis=1)  # the first lowest
                d = delta[np.arange(len(j)), j]
                better = d < low[at : at + chunk]
                low[at : at + chunk][better] = d[better]
                moves[at : at + chunk][better] = 2 * lo + j[better]
        return moves

    @staticmethod
    def lifting(cycle):
        """A cycle, given as its up coordinates then its down coordinates,
        as unpadded (indices, values)."""
        return cycle, np.repeat([1, -1], len(cycle) // 2)

    def long_cycles(self, s, cap, rng):
        """The feasible liftings of lengths ``t_min..t_max`` at seed ``s``:
        per length, in order, (cycles [count, 2t], deltas, thinned), where
        a cycle lists the t coordinates it goes up at, then the t it goes
        down at.

        A path is a first brick b_1 with slots j_1 (up) and j_2 (down),
        then bricks b_2, b_3, ... above b_1, each entered at the open slot
        (up room there) and left at a new slot (down room there).  It
        closes when it leaves at j_1.  Each signed lifting is one such
        cycle with its smallest brick first, so each is found once.  Within
        a length the order is lexicographic in (b_1, j_1, j_2, b_2, j_3,
        ..., j_t, b_t).  When a level has more than ``cap`` open paths, a
        uniform random ``cap`` of them, drawn from ``rng``, go on, in
        order, and every later yield says ``thinned``.  Every length
        yields, so the last yield tells whether the enumeration was
        complete.

        A lifting is a sum of pairs v = e_(b, j_up) - e_(b, j_down), one
        per brick, where coordinate (b, j) is b*k + j.  f(x+g) - f(x) sums
        (c + w).v + v'Qv over its pairs (``linear``, by pair id
        (b*k + j_up)*k + j_down) and v'(Q+Q')v'' over every two pairs, so a
        path's delta grows by one ``linear`` entry and four ``qsym``
        entries per pair already on it."""
        n, k = self.sampler.n, self.sampler.k
        up = (self.x[s] < self.upper).reshape(n, k)
        down = (self.x[s] > self.lower).reshape(n, k)
        cw = (self.c + self.w[s]).reshape(n, k)
        linear = (cw[:, :, None] - cw[:, None, :]).reshape(-1) + self.selfq
        q = self.qsym.reshape(-1)  # symmetric, so q[a*n*k + b] serves (a, b) and (b, a)
        # reach[j*n + b] lists the bricks above b with up room at slot j
        reach = (up.T[:, None, :] & np.triu(np.ones((n, n), dtype=bool), 1)).reshape(k * n, n)
        exits = up[:, :, None] & down[:, None, :] & ~np.eye(k, dtype=bool)
        first_b, first_s, open_s = np.nonzero(exits)  # [b, j_up, j_down]
        thinned = False

        def thin(*paths):
            nonlocal thinned
            if len(paths[0]) <= cap:
                return paths
            thinned = True
            keep = np.sort(rng.choice(len(paths[0]), cap, replace=False))
            return tuple(a[keep] for a in paths)

        first_b, first_s, open_s = thin(first_b, first_s, open_s)
        ups = (first_b * k + first_s)[:, None]  # per path, where its pairs go up
        downs = (first_b * k + open_s)[:, None]  # and where they go down
        delta = linear.take(ups[:, 0] * k + open_s)
        free_b = np.ones((len(ups), n), dtype=bool)  # per path, the bricks not on it
        free_s = np.ones((len(ups), k), dtype=bool)  # and the slots
        rows = np.arange(len(ups))
        free_b[rows, first_b] = free_s[rows, first_s] = free_s[rows, open_s] = False

        def extend(par, brick, slot):
            """Paths ``par`` with one more pair: ``brick`` entered at the open slot, left at ``slot``."""
            new_up, new_down = brick * k + open_s.take(par), brick * k + slot
            old_up, old_down = ups.take(par, axis=0), downs.take(par, axis=0)
            row_up, row_down = (new_up * (n * k))[:, None], (new_down * (n * k))[:, None]
            cross = q.take(row_up + old_up) - q.take(row_down + old_up)
            cross -= q.take(row_up + old_down) - q.take(row_down + old_down)
            grown = delta.take(par) + linear.take(new_up * k + slot) + cross.sum(axis=1)
            return (
                np.concatenate([old_up, new_up[:, None]], axis=1),
                np.concatenate([old_down, new_down[:, None]], axis=1),
                grown,
            )

        for level in range(1, self.sampler.t_max):  # paths hold `level` pairs
            par, brick = np.nonzero(reach.take(open_s * n + first_b, axis=0) & free_b)
            if level + 1 >= self.sampler.t_min:
                close = down[brick, first_s.take(par)]
                cp = par[close]
                cycle_up, cycle_down, cycle_delta = extend(cp, brick[close], first_s.take(cp))
                yield np.concatenate([cycle_up, cycle_down], axis=1), cycle_delta, thinned
            if level + 2 > self.sampler.t_max:
                return
            at, slot = np.nonzero(down.take(brick, axis=0) & free_s.take(par, axis=0))
            par, brick, slot = thin(par.take(at), brick.take(at), slot)
            ups, downs, delta = extend(par, brick, slot)
            first_b, first_s, open_s = first_b.take(par), first_s.take(par), slot
            free_b, free_s = free_b.take(par, axis=0), free_s.take(par, axis=0)
            rows = np.arange(len(par))
            free_b[rows, brick] = free_s[rows, slot] = False

    def long_cycle(self, s, policy, rng):
        """The long-cycle phase of seed ``s``: (the cycle to take or None,
        cycles evaluated, certificate).  Under ``"first"`` the first
        improving cycle, lengths ascending; under ``"best"`` the lowest
        delta, first wins ties.  Cycles evaluated counts up to the taken
        one under ``"first"``, all of them otherwise."""
        taken, low, examined, thinned = None, None, 0, False
        for cycles, delta, thinned in self.long_cycles(s, self.CAP, rng):
            if policy == "first":
                hit = np.flatnonzero(delta < 0)
                if len(hit):
                    return cycles[hit[0]], examined + int(hit[0]) + 1, "stored"
            elif len(delta):
                j = int(np.argmin(delta))
                if delta[j] < 0 and (low is None or delta[j] < low):
                    taken, low = cycles[j], delta[j]
            examined += len(delta)
        return taken, examined, "stored" if thinned else "full"

    def descend(self, policy, rngs):
        """Run every seed to its terminal point: per seed (steps, moves
        examined, long-cycle assisted, certificate)."""
        count = len(self.x)
        steps = np.zeros(count, dtype=np.int64)
        scanned = np.zeros(count, dtype=np.int64)
        assisted = [False] * count
        certificate = ["full" if self.sampler is None else "stored"] * count
        pointer = np.zeros(count, dtype=np.int64)  # where the seed's next window starts
        left = np.full(count, self.n_moves, dtype=np.int64)  # moves left in its pass
        window = np.full(count, self.WINDOW, dtype=np.int64)
        live = np.ones(count, dtype=bool)

        def stalled(s):
            """A pass of seed ``s`` found no improving move: its long-cycle
            phase.  True when it took a cycle and rejoins the scan."""
            while self.sampler is not None:
                cycle, examined, certificate[s] = self.long_cycle(s, policy, rngs[s])
                scanned[s] += examined
                if cycle is None:
                    return False
                self.apply_support(s, *self.lifting(cycle), 1)
                steps[s] += 1
                assisted[s] = True
                if self.n_moves:
                    pointer[s], left[s], window[s] = 0, self.n_moves, self.WINDOW
                    return True
            return False

        if not self.n_moves:
            live[:] = [stalled(s) for s in range(count)]
        while live.any():
            seeds = np.flatnonzero(live)
            if policy == "best":  # every live seed's whole pass
                moves = self.best_moves(seeds)
                scanned[seeds] += self.n_moves
                movers, moves = seeds[moves >= 0], moves[moves >= 0]
                left[seeds] = 0  # every pass ends; a mover's starts over below
            else:
                want = np.minimum(window[seeds], left[seeds])
                ends = np.cumsum(want)
                m = min(len(seeds), int(np.searchsorted(ends, self.ROUND)) + 1)
                seeds, want = seeds[:m], want[:m]
                want[-1] -= max(0, int(ends[m - 1]) - self.ROUND)
                slot, offset, moves, _ = self._scan(seeds, pointer[seeds], want)
                group = np.flatnonzero(np.diff(slot, prepend=-1))  # each seed's first hit
                want[slot[group]] = offset[group] + 1  # a hit ends the pass
                movers, moves = seeds[slot[group]], moves[group]
                scanned[seeds] += want
                pointer[seeds] = (pointer[seeds] + want) % self.n_moves
                left[seeds] -= want
                window[seeds] = np.minimum(2 * window[seeds], self.BLOCK)
            if len(movers):
                self.apply_moves(movers, moves)
                steps[movers] += 1
                left[movers] = self.n_moves
                window[movers] = self.WINDOW
            for s in seeds[left[seeds] == 0].tolist():
                live[s] = stalled(s)
        return [
            (int(steps[s]), int(scanned[s]), assisted[s], certificate[s]) for s in range(count)
        ]


def _descend(
    inst: QuadraticInstance,
    prep: MovePrep,
    seeds: Sequence[np.ndarray],
    policy: str,
    rngs: Sequence[Optional[np.random.Generator]],
) -> list[AugmentationResult]:
    """Descend every seed in one lockstep engine; results in seed order."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    for x in seeds:
        if not check_feasible(inst, x):
            raise InfeasibleError(f"starting point infeasible for {inst.name!r}")
    rngs = [np.random.default_rng(0) if rng is None else rng for rng in rngs]
    engine = _Lockstep(inst, prep, seeds)
    runs = engine.descend(policy, rngs)
    values = _terminal_values(inst, prep, engine.x, engine.w)
    return [
        AugmentationResult(
            seed_index=i,
            terminal_x=engine.x[i].copy(),
            terminal_f=values[i],
            steps=steps,
            moves_scanned=scanned,
            sampler_assisted=assisted,
            certificate=certificate,
        )
        for i, (steps, scanned, assisted, certificate) in enumerate(runs)
    ]


def augment(
    inst: QuadraticInstance,
    basis: GraverBasis,
    x0,
    policy: str = "first",
    rng: Optional[np.random.Generator] = None,
) -> AugmentationResult:
    """Descend from a feasible point until no signed basis move improves.

    No feasible signed stored element strictly improves the returned
    point.  When the basis is sampler-backed, each time a pass over the
    stored elements finds nothing the long-cycle phase enumerates the
    feasible liftings of the sampler's lengths at x and takes one that
    improves (the first, lengths ascending, or under ``"best"`` the lowest),
    or stops.  A level of that enumeration with more than ``_Lockstep.CAP``
    open paths goes on with a uniform random subset of them, drawn from
    ``rng``; the result's ``certificate`` is ``"full"`` when the last phase
    saw every lifting and ``"stored"`` otherwise.

    This is a one-seed run of the engine :func:`solve` runs all seeds in.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    (result,) = _descend(inst, prepare_moves(inst, basis), [x0], policy, [rng])
    return result


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
        return seeds_qap(rng, kind.n, kind.k, inst.b, count, basis)
    raise ValueError(f"no seed sampler for constraint kind {kind!r}")


def default_seed_count(kind: ConstraintKind) -> int:
    """50 seeds for plain cardinality problems, k*n for the block families."""
    if isinstance(kind, (BrickCardinality, CoordinateCardinality, Assignment)):
        return kind.n * kind.k
    return 50


def classify_landscape(report_or_counts, best_f=None) -> str:
    """Bucket a terminal-value histogram into one of three regimes.

    One distinct terminal value looks convex; at most ``MAX_EASY_VALUES``
    values with the best one reached from at least ``MIN_BEST_SHARE`` of
    the seeds is an easy non-convex landscape; anything more scattered is
    hard.
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
    if distinct <= MAX_EASY_VALUES and share >= MIN_BEST_SHARE:
        return "easy-nonconvex"
    return "hard-nonconvex"


def solve(
    inst: QuadraticInstance,
    seed_count: Optional[int] = None,
    policy: str = "first",
    parallelism: int = 1,
    rng_seed: int = 0,
    enumeration_cap: int = 10**6,
    seeds: Optional[Sequence] = None,
    basis: Optional[GraverBasis] = None,
) -> SolveReport:
    """Build the basis, seed, augment every seed, and report.

    Deterministic for a fixed ``rng_seed`` and policy: each seed's random
    stream is spawned by its index.  All seeds run in one lockstep engine
    in this process, so ``parallelism`` must be 1; to use more processors,
    run separate solves in separate processes.
    """
    if parallelism != 1:
        raise ValueError(
            f"parallelism={parallelism}: solve runs every seed in one lockstep engine "
            "in one process; run separate solves in separate processes instead"
        )
    if basis is None:
        if isinstance(inst.kind, Explicit):
            from .oracle import pottier_graver

            basis = pottier_graver(inst.kind.rows)
        else:
            basis = build_basis(inst.kind, enumeration_cap=enumeration_cap)

    master = np.random.SeedSequence(rng_seed)
    if seeds is None:
        if seed_count is None:
            seed_count = default_seed_count(inst.kind)
        seed_rng = np.random.default_rng(master.spawn(1)[0])
        seeds = generate_seeds(inst, basis, seed_count, seed_rng)
    seeds = [np.asarray(s, dtype=np.int64) for s in seeds]
    if not seeds:
        raise InfeasibleError("no seeds to augment")
    streams = master.spawn(len(seeds) + 1)[1:]
    rngs = [np.random.default_rng(stream) for stream in streams]
    prep = prepare_moves(inst, basis)
    results = _descend(inst, prep, seeds, policy, rngs)

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
