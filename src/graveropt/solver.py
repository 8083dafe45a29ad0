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
data are read off the same scaled integers.  Every move, a basis element
or a room-graph cycle, updates w = (Q+Q')x by the one formula w starts
from, in every arithmetic.

The first-improvement scan tests bounds first, a byte per coordinate.
Each round builds, for its own seeds only, the room of every coordinate
from x: ``up`` (x_i < u_i) and ``down`` (x_i > l_i).  Every entry of a
basis element carries one room id, the ``up`` byte of its coordinate
when the entry is positive and the ``down`` byte when it is negative, so
+g passes when every byte it names is set; for -g the two swap roles.
Only moves that pass are evaluated.  For elements whose entries are all
+-1 the test is exact on any box; larger entries still get the full
bounds check, on the moves that pass.

All seeds of a run descend in lockstep: their points are rows of one
array, and each round evaluates every active seed's next window of moves
in one pass, so the per-call overhead of numpy is shared by the
seeds.  Under best-improvement every pass covers all moves from the first,
so a round is every live seed's whole pass, evaluated as dense tiles of
[seeds x elements] straight from the per-element arrays.  A tile computes
every move's delta anyway, so it checks each move against the box
directly instead of through the room bytes.  Each seed still takes exactly
the moves of a descent run on its own, so reports do not depend on which
seeds share a round.  Descent draws no random numbers: randomness is in
seeding only.

The instance's kind picks the moves.  Swap families and explicit
matrices scan their stored basis as above.  An assignment instance stores
no basis: its moves are the cycle liftings of the closed form, and a
lifting fits the box at x exactly when it is a directed alternating cycle
in the brick/slot graph whose arcs are the up and down room of x (the
cyclic exchanges of Thompson and Orlin, 1989).  Each of its steps grows
such paths level by level over lengths 2..min(n, k), the long-cycle
phase, and takes an improving cycle.
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

    ``moves_scanned`` counts the signed basis moves examined or, for an
    assignment instance, the room-graph cycles evaluated, a replayed
    long-cycle phase counting as if run: the seed's count, not work done.
    ``sampler_assisted`` says the descent took a room-graph move (the name
    predates the room graph and is kept so reports keep their fields).
    ``certificate`` says what the terminal point is locally optimal
    against: ``"full"``, every signed element of the basis, for an
    assignment every lifting of the closed form; ``"thinned"``, only the
    liftings of the lengths that the last long-cycle phase saw in full,
    because it went on with an evenly spaced subset of its paths.
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


def _pair_selfq(Q, n, k) -> np.ndarray:
    """v'Qv per pair v = e_(b, j_up) - e_(b, j_down) of an n x k
    assignment, where coordinate (b, j) is b*k + j, by pair id
    (b*k + j_up)*k + j_down (see :meth:`_Lockstep.long_cycles`)."""
    q4 = Q.reshape(n, k, n, k)
    block = q4[np.arange(n), :, np.arange(n), :]  # [b, j, j'] = Q[(b, j), (b, j')]
    diag = np.diagonal(block, axis1=1, axis2=2)
    return (diag[:, :, None] + diag[:, None, :] - block - block.transpose(0, 2, 1)).reshape(-1)


def prepare_moves(inst: QuadraticInstance, basis: Optional[GraverBasis]) -> _Lockstep:
    """The engine of a whole multi-seed run, its per-element data built in
    one pass over the basis arrays.  An assignment instance takes no basis
    (``None``) and gets its pair terms.  A function of its own, so that
    building the engine is timed apart from descent (``solver.prep_s`` in
    the benchmark)."""
    return _Lockstep(inst, basis)


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


def _terminal_values(inst: QuadraticInstance, engine: _Lockstep) -> list:
    """f at each of the engine's points, read off its x and w = (Q+Q')x.

    For rational data, with c and Q scaled by ``engine.scale``, scale * f =
    c.x + x.w/2, as x'(Q+Q')x = 2x'Qx; the int64 guard covers it, so it is
    exact in the engine's arithmetic.  f is a Fraction exactly when
    ``objective`` gives one (c, or a row i of Q with x_i != 0, holds a
    Fraction).  Float data goes through ``objective``.
    """
    if engine.scale is None:
        return [objective(inst, row) for row in engine.x]
    xs = engine.x.astype(engine.c.dtype)
    scaled = (xs @ engine.c + (xs * engine.w).sum(axis=1) // 2).tolist()
    typed = (engine.x != 0) @ engine.has_fraction[:-1] | engine.has_fraction[-1]
    return [Fraction(v, engine.scale) if t else v // engine.scale for v, t in zip(scaled, typed)]


class _Lockstep:
    """The descent engine: every seed of a run advanced in lockstep rounds.

    Signed move j covers basis element j // 2, with +g on even j and -g on
    odd j.  The seeds' points ``x`` and ``w`` = (Q+Q')x are [seeds, n]
    arrays, ``w`` in the arithmetic chosen by :func:`_scan_data`.  Each
    round evaluates moves of many seeds in one pass, then every seed with
    a hit takes its move at once.  Each seed's moves and examined counts
    are those of a descent run on its own.

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

    The engine is built once per run (see :func:`prepare_moves`) from data
    that no point changes, shared by every seed.  ``idxm``/``valm`` are the
    basis's own padded (index, value) arrays (padding has index 0 and
    value 0).  ``c`` is the data moves are evaluated with (see
    :func:`_scan_data`) and ``qsym`` is Q+Q' in that arithmetic; ``cg`` and
    ``qgg`` hold c.g and g'Qg per element, reused across signs
    ((-g)'Q(-g) = g'Qg, and c.(-g) just flips in the delta formula).
    ``room_id`` holds each entry's room id for +g, stored like the basis:
    ``i`` for a positive entry at coordinate i (it needs x_i < u_i),
    ``n + i`` for a negative one (x_i > l_i) and ``2n`` for padding, which
    always has room.  As int32 it takes a quarter of ``idxm`` + ``valm``.
    ``unit`` says every entry is +-1, which makes the room test exact.
    ``selfq``, set for an assignment instance only, holds v'Qv per pair for
    its long-cycle phase (see :func:`_pair_selfq`); such an instance has no
    stored elements.  ``scale``, ``has_fraction``: see :func:`_scan_data`.

    :meth:`start` puts the seeds in: ``x`` and ``w``, the engine's only
    state.  A round reads room from x as it scans (see :meth:`_scan`), and
    every move, a signed element or a room-graph cycle, updates w by the
    formula it starts with (see :meth:`apply_support`).

    An assignment instance has no signed moves: each of its seeds runs
    :meth:`cycle_descent` on the room graph instead, one seed after the
    other, and a seed replays the long-cycle phases that an earlier seed
    ran at the same point.
    """

    BLOCK = 4096
    WINDOW = 256
    ROUND = 4 * BLOCK
    CAP = 16_384  # open paths per level of a long-cycle phase (see long_cycles)

    def __init__(self, inst: QuadraticInstance, basis: Optional[GraverBasis]):
        self.kind, self.lower, self.upper = inst.kind, inst.lower, inst.upper
        room = isinstance(inst.kind, Assignment)
        if room:  # a t-cycle lifts to 2t entries of +-1, t <= min(n, k)
            idxm = valm = np.zeros((0, 0), dtype=np.int64)
            max_weight = 2 * min(inst.kind.n, inst.kind.k)
        else:
            idxm, valm = basis.idx, basis.val
            max_weight = int(np.abs(valm).sum(axis=1).max(initial=0))
        count, width = idxm.shape
        self.idxm, self.valm, self.n_moves = idxm, valm, 2 * count
        self.c, Q, self.scale, self.has_fraction = _scan_data(inst, max_weight)
        self.qsym = Q + Q.T
        self.cg = (self.c[idxm] * valm).sum(axis=1)  # padded zeros contribute nothing
        self.qgg = np.empty(count, dtype=np.result_type(Q.dtype, np.int64))
        block = max(1, 250_000 // max(1, width * width))
        for start in range(0, count, block):
            rows = slice(start, min(count, start + block))
            gathered = Q[idxm[rows, :, None], idxm[rows, None, :]]
            self.qgg[rows] = np.einsum("ea,eab,eb->e", valm[rows], gathered, valm[rows])
        n = inst.size
        self.room_id = np.where(valm > 0, idxm, np.where(valm < 0, n + idxm, 2 * n)).astype(np.int32)
        self.unit = bool(np.abs(valm).max(initial=0) <= 1)
        self.selfq = _pair_selfq(Q, inst.kind.n, inst.kind.k) if room else None

    def start(self, seeds: Sequence[np.ndarray]) -> _Lockstep:
        """Put one seed per row in ``x``, with ``w`` = (Q+Q')x; returns the engine."""
        self.x = np.array(seeds, dtype=np.int64).reshape(len(seeds), len(self.lower))
        self.w = np.stack([self.qsym @ x for x in self.x])
        return self

    def apply_support(self, seeds, idx, val):
        """Seed ``seeds[i]`` moves by ``val[i]`` at ``idx[i]``; seeds are distinct.

        Row i of w takes val[i] @ qsym[idx[i]] in every arithmetic, a sum
        over that row's entries alone, so a seed's w does not depend on
        which seeds share its round.  Padding (index 0, value 0) moves
        nothing: ``np.add.at`` is unbuffered, and it adds 0 to w."""
        np.add.at(self.x, (seeds[:, None], idx), val)
        self.w[seeds] += np.einsum("hk,hkn->hn", val, self.qsym[idx])

    def apply_moves(self, seeds, moves):
        """Seed ``seeds[i]`` takes signed move ``moves[i]``; seeds are distinct."""
        e, sign = moves >> 1, 1 - 2 * (moves & 1)
        self.apply_support(seeds, self.idxm[e], self.valm[e] * sign[:, None])

    def _scan(self, seeds, start, count):
        """Improving signed moves of one round, in which seed ``seeds[i]``
        scans ``count[i]`` moves from ``start[i]`` (cyclic): per improving
        move in scan order, (i, its offset in seed i's window, its signed
        index, its delta).

        The room test runs on whole elements, +g and -g side by side, so
        one gather of an element's room ids serves both signs; a window that
        starts or ends halfway through an element drops the other move.
        Row 0 of a seed's room is ``up``, ``down`` and a padding byte that
        is always set, which +g reads at its ids; row 1 has the two halves
        swapped, so -g reading the same ids meets the other side."""
        n_elements = self.n_moves >> 1
        lo = start >> 1
        span = ((start + count + 1) >> 1) - lo  # elements the window touches
        first = np.cumsum(span) - span
        e = np.arange(int(first[-1] + span[-1])) + np.repeat(lo - first, span)
        np.subtract(e, n_elements, out=e, where=e >= n_elements)
        x = self.x[seeds]
        up, down = x < self.upper, x > self.lower
        pad = np.ones((len(seeds), 1), dtype=bool)
        room = np.concatenate([up, down, pad, down, up, pad], axis=1).reshape(-1)
        row = 2 * x.shape[1] + 1
        plus = np.repeat(2 * row * np.arange(len(seeds)), span)  # the seed's +g row; -g follows
        ok = np.ones((2, len(e)), dtype=bool)
        for k in range(self.room_id.shape[1]):  # a column at a time keeps the loops long
            at = plus + self.room_id[:, k][e]
            ok[0] &= room[at]
            ok[1] &= room[at + row]
        ok = ok.T.ravel()
        ok[2 * first[start & 1 == 1]] = False  # +g lies before the window
        ok[2 * (first + span)[(start + count) & 1 == 1] - 1] = False  # -g lies after it
        at = np.flatnonzero(ok)
        slot = np.searchsorted(first, at >> 1, side="right") - 1
        e, odd = e[at >> 1], at & 1
        sign = 1 - 2 * odd
        at_x = (seeds[slot] * self.x.shape[1])[:, None] + np.take(self.idxm, e, axis=0)
        val = np.take(self.valm, e, axis=0)
        wg = (self.w.reshape(-1)[at_x] * val).sum(axis=1)
        delta = sign * (self.cg[e] + wg) + self.qgg[e]
        improving = delta < 0
        if not self.unit:  # a room byte promises room for one unit step only
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
        wg = np.zeros((len(seeds), hi - lo), dtype=w.dtype)
        # an entry column at a time skips a 3-d gather; padding adds 0 to an
        # x inside its box, and 0 to w.g
        for i, v in zip(idx.T, val.T):
            xi, low, high = np.take(x, i, axis=1), self.lower[i], self.upper[i]
            plus |= xi < low - v
            plus |= xi > high - v
            minus |= xi < low + v
            minus |= xi > high + v
            wg += np.take(w, i, axis=1) * v
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

    def long_cycles(self, s):
        """The feasible liftings of lengths 2..min(n, k) at seed ``s``:
        per length, in order, (cycles [count, 2t], deltas, thinned), where
        a cycle lists the t coordinates it goes up at, then the t it goes
        down at.

        A path is a first brick b_1 with slots j_1 (up) and j_2 (down),
        then bricks b_2, b_3, ... above b_1, each entered at the open slot
        (up room there) and left at a new slot (down room there).  It
        closes when it leaves at j_1.  Each signed lifting is one such
        cycle with its smallest brick first, so each is found once.  Within
        a length the order is lexicographic in (b_1, j_1, j_2, b_2, j_3,
        ..., j_t, b_t).  When a level has more than ``CAP`` open paths, an
        evenly spaced ``CAP`` of them go on, in order, so every first brick
        keeps its share, and every later yield says ``thinned``.  Every length
        yields, so the last yield tells whether the enumeration was
        complete.

        A lifting is a sum of pairs v = e_(b, j_up) - e_(b, j_down), one
        per brick, where coordinate (b, j) is b*k + j.  f(x+g) - f(x) sums
        (c + w).v + v'Qv over its pairs (``linear``, by pair id
        (b*k + j_up)*k + j_down) and v'(Q+Q')v'' over every two pairs, so a
        path's delta grows by one ``linear`` entry and four ``qsym``
        entries per pair already on it."""
        n, k, cap = self.kind.n, self.kind.k, self.CAP
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
            return tuple(a[np.arange(cap) * len(a) // cap] for a in paths)

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

        for level in range(1, min(n, k)):  # paths hold `level` pairs
            par, brick = np.nonzero(reach.take(open_s * n + first_b, axis=0) & free_b)
            close = down[brick, first_s.take(par)]
            cp = par[close]
            cycle_up, cycle_down, cycle_delta = extend(cp, brick[close], first_s.take(cp))
            yield np.concatenate([cycle_up, cycle_down], axis=1), cycle_delta, thinned
            if level + 2 > min(n, k):
                return
            at, slot = np.nonzero(down.take(brick, axis=0) & free_s.take(par, axis=0))
            par, brick, slot = thin(par.take(at), brick.take(at), slot)
            ups, downs, delta = extend(par, brick, slot)
            first_b, first_s, open_s = first_b.take(par), first_s.take(par), slot
            free_b, free_s = free_b.take(par, axis=0), free_s.take(par, axis=0)
            rows = np.arange(len(par))
            free_b[rows, brick] = free_s[rows, slot] = False

    def long_cycle(self, s, policy):
        """The long-cycle phase of seed ``s``: (the cycle to take or None,
        cycles evaluated, certificate).  The cycle is a copy, so a stored
        phase keeps no level's array alive.  Under ``"first"`` the first
        improving cycle, lengths ascending; under ``"best"`` the lowest
        delta, first wins ties.  Cycles evaluated counts up to the taken
        one under ``"first"``, all of them otherwise."""
        taken, low, examined, thinned = None, None, 0, False
        for cycles, delta, thinned in self.long_cycles(s):
            if policy == "first":
                hit = np.flatnonzero(delta < 0)
                if len(hit):
                    taken, examined = cycles[hit[0]].copy(), examined + int(hit[0]) + 1
                    break
            elif len(delta):
                j = int(np.argmin(delta))
                if delta[j] < 0 and (low is None or delta[j] < low):
                    taken, low = cycles[j].copy(), delta[j]
            examined += len(delta)
        return taken, examined, "thinned" if thinned else "full"

    def phase_key(self, s):
        """What seed ``s``'s long-cycle phase reads: x, and w unless
        w = (Q+Q')x exactly, as for rational data (float w is accumulated
        per step).  Object w keys on its values, not pointers."""
        x = self.x[s].tobytes()
        if self.scale is not None:
            return x
        w = self.w[s]
        return x, tuple(w.tolist()) if w.dtype == object else w.tobytes()

    def cycle_descent(self, s, policy, phases):
        """Seed ``s`` of an assignment instance, run to its terminal point
        by long-cycle phases: (steps, cycles evaluated, took a cycle,
        certificate of the last phase).

        ``phases``, shared by the seeds of one run, maps :meth:`phase_key`
        to the result of the phase run there, thinned or not; a phase reads
        nothing else, so any seed at that key replays it exactly."""
        steps = examined = 0
        while True:
            key = self.phase_key(s)
            if key not in phases:
                phases[key] = self.long_cycle(s, policy)
            cycle, seen, certificate = phases[key]
            examined += seen
            if cycle is None:
                return steps, examined, steps > 0, certificate
            t = len(cycle) // 2  # the t coordinates it goes up at, then the t it goes down at
            self.apply_support(np.array([s]), cycle[None], np.repeat([[1, -1]], t, axis=1))
            steps += 1

    def descend(self, policy):
        """Run every seed to its terminal point: per seed (steps, moves
        examined, took a room-graph move, certificate)."""
        count = len(self.x)
        if self.selfq is not None:
            phases = {}
            return [self.cycle_descent(s, policy, phases) for s in range(count)]
        steps = np.zeros(count, dtype=np.int64)
        scanned = np.zeros(count, dtype=np.int64)
        pointer = np.zeros(count, dtype=np.int64)  # where the seed's next window starts
        left = np.full(count, self.n_moves, dtype=np.int64)  # moves left in its pass
        window = np.full(count, self.WINDOW, dtype=np.int64)
        live = np.full(count, self.n_moves > 0)
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
            live[seeds[left[seeds] == 0]] = False
        return [(int(steps[s]), int(scanned[s]), False, "full") for s in range(count)]


def _descend(
    inst: QuadraticInstance, engine: _Lockstep, seeds: Sequence[np.ndarray], policy: str
) -> list[AugmentationResult]:
    """Descend every seed in ``engine``, in lockstep; results in seed order."""
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    for x in seeds:
        if not check_feasible(inst, x):
            raise InfeasibleError(f"starting point infeasible for {inst.name!r}")
    runs = engine.start(seeds).descend(policy)
    values = _terminal_values(inst, engine)
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


def _stored_basis(inst: QuadraticInstance, basis: Optional[GraverBasis]) -> Optional[GraverBasis]:
    """The basis a descent scans: ``basis`` when given, else the kind's own.
    None for an assignment instance, which takes no basis."""
    kind = inst.kind
    if isinstance(kind, Assignment):
        if basis is not None:
            raise ValueError("an assignment instance takes no basis: its descent finds every "
                             "cycle lifting that fits the box on the room graph")
        return None
    if basis is not None:
        return basis
    if isinstance(kind, Explicit):
        from .oracle import pottier_graver

        return pottier_graver(kind.rows)
    return build_basis(kind)


def augment(
    inst: QuadraticInstance, basis: Optional[GraverBasis], x0, policy: str = "first"
) -> AugmentationResult:
    """Descend from a feasible point until no move improves.

    ``basis`` None means the kind's own basis; an assignment instance
    takes None, and a basis for one is a ValueError.  With a basis, no
    feasible signed element strictly improves the returned point.  An
    assignment instance descends by long-cycle phases: each enumerates the
    feasible liftings at x and takes one that improves (the first, lengths
    ascending, or under ``"best"`` the lowest), or stops.  A level of that
    enumeration with more than ``_Lockstep.CAP`` open paths goes on with an
    evenly spaced ``CAP`` of them; the result's ``certificate`` is
    ``"full"`` when the last phase saw every lifting and ``"thinned"``
    otherwise.  No random numbers are drawn.

    This is a one-seed run of the engine :func:`solve` runs all seeds in.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    engine = prepare_moves(inst, _stored_basis(inst, basis))
    (result,) = _descend(inst, engine, [x0], policy)
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
    inst: QuadraticInstance, count: int, rng: np.random.Generator
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
        return seeds_qap(rng, kind.n, kind.k, inst.b, count)
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

    Deterministic for a fixed ``rng_seed`` and policy: ``rng_seed`` draws
    the seeds and descent draws nothing, so with ``seeds`` given it
    changes nothing but the report's field.  All seeds run in one lockstep
    engine in this process, so ``parallelism`` must be 1; to use more
    processors, run separate solves in separate processes.  ``basis`` replaces the
    kind's own; an assignment instance builds none and takes none (see
    :func:`augment`).  ``enumeration_cap`` is accepted and changes nothing.
    """
    if parallelism != 1:
        raise ValueError(
            f"parallelism={parallelism}: solve runs every seed in one lockstep engine "
            "in one process; run separate solves in separate processes instead"
        )
    basis = _stored_basis(inst, basis)

    if seeds is None:
        if seed_count is None:
            seed_count = default_seed_count(inst.kind)
        seed_rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(1)[0])
        seeds = generate_seeds(inst, seed_count, seed_rng)
    seeds = [np.asarray(s, dtype=np.int64) for s in seeds]
    if not seeds:
        raise InfeasibleError("no seeds to augment")
    results = _descend(inst, prepare_moves(inst, basis), seeds, policy)

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
