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
The engine keeps, per seed, the room of every coordinate of x: ``up``
(x_i < u_i) and ``down`` (x_i > l_i), read again at the coordinates
each move touches.  Every entry of a basis element carries one room id,
the ``up`` byte of its coordinate when the entry is positive and the
``down`` byte when it is negative, so +g passes when every byte it names
is set; for -g the two swap roles.  A seed's room keeps the byte +g
reads and the byte -g reads at each room id side by side, so one
two-byte gather per entry column tests both signs of every element in
the round.  Only moves that pass are evaluated.  For elements whose
entries are all +-1 the test is exact on any box; larger entries still
get the full bounds check, on the moves that pass.

All seeds of a run descend in lockstep: their points are rows of one
array, and each round evaluates every active seed's next window of moves
in one pass, so the per-call overhead of numpy is shared by the
seeds.  Under best-improvement every pass covers all moves from the first,
so a round is every live seed's whole pass, evaluated as element-major
tiles of [signed moves x seeds] straight from the per-element arrays.
x, w and the room bytes are transposed once per chunk of seeds, so each
gather at an entry column copies whole rows, one coordinate of every
seed of the chunk.  Each seed still takes exactly the moves of a descent
run on its own, so reports do not depend on which seeds share a round.
Descent draws no random numbers: randomness is in seeding only.

The instance's kind picks the moves.  Swap families and explicit
matrices scan their stored basis as above.  An assignment instance stores
no basis: its moves are the cycle liftings of the closed form, and a
lifting fits the box at x exactly when it is a directed alternating cycle
in the brick/slot graph whose arcs are the up and down room of x (the
cyclic exchanges of Thompson and Orlin, 1989).  Each of its steps grows
such paths level by level over lengths 2..min(n, k), the long-cycle
phase, and takes an improving cycle.  Its seeds run in lockstep rounds
as well: a round runs one batched phase for the distinct points that no
seed has met yet, within ``CAP`` open paths per level across its seeds,
and every seed takes its stored cycle, one update per cycle length.
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
from .problems import (InfeasibleError, QuadraticInstance, _feasible_rows, _int64_safe,
                       _integer_field, objective)
from .seeds import seeds_cbqp, seeds_qap, seeds_qsap1, seeds_qsap2

POLICIES = ("first", "best")
MAX_EASY_VALUES = 5  # classify_landscape: most distinct terminal values of an easy landscape
MIN_BEST_SHARE = 0.5  # and the least share of seeds that reach the best one
# a uint16 room pair with only +g's byte set, and one with only -g's (see _Lockstep._scan)
PLUS_BYTE, MINUS_BYTE = np.eye(2, dtype=np.uint8).view(np.uint16)[:, 0]


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
    (b*k + j_up)*k + j_down (see :meth:`_Lockstep.long_cycle`)."""
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


def _room_pairs(x, lower, upper) -> np.ndarray:
    """The room pair of each coordinate of x at room id i: +g's byte is
    ``up`` (x_i < u_i) and -g's is ``down`` (x_i > l_i).  At n + i they
    swap, which is the pair with its bytes swapped."""
    pair = np.multiply(x < upper, PLUS_BYTE, dtype=np.uint16)
    pair += np.multiply(x > lower, MINUS_BYTE, dtype=np.uint16)
    return pair


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
    moves after an accept and doubles on each miss, up to ``BLOCK``.  A
    :meth:`_scan` call costs a fixed part plus a part per signed move:
    about 58 us plus 13 ns on CBQP n=120 (2 vCPUs).  First windows of 16
    to 128 moves and rounds of 16k to 64k moves read the same within
    noise, so the schedule only has to keep both parts small: a short
    first window computes few deltas past the hit and reaches it in a few
    doublings, and a seed that certifies its terminal point scans in large
    blocks.  A round takes the active seeds in index order until it holds
    ``ROUND`` moves, which may split the last seed's window over two
    rounds (see :meth:`_first_rounds`).

    Under ``"best"`` a round is every live seed's whole pass, run by
    :meth:`best_moves` as tiles of [signed moves x seeds] read straight
    from the per-element arrays, with no per-move window indices.  Their
    x, w and room bytes are element-major, a row of every seed per
    coordinate (see :meth:`_chunk`), and they test room as :meth:`_scan`
    does.

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
    always has room.  As int32 it takes a quarter of ``idxm`` + ``valm``;
    it is stored column-major, so each entry column is contiguous.
    ``unit`` says every entry is +-1, which makes the room test exact.
    ``selfq``, set for an assignment instance only, holds v'Qv per pair for
    its long-cycle phase (see :func:`_pair_selfq`); such an instance has no
    stored elements.  ``scale``, ``has_fraction``: see :func:`_scan_data`.

    :meth:`start` puts the seeds in: ``x``, ``w`` and ``room``, the room
    pairs of x that :meth:`_scan` reads, the engine's only state.  Every
    move, a signed element or a room-graph cycle, updates w by the formula
    it starts with and reads the room pairs it touches again from x (see
    :meth:`apply_support`).

    An assignment instance has no signed moves: its seeds descend on the
    room graph by :meth:`cycle_rounds` instead.  Each round runs one
    batched long-cycle phase (:meth:`long_cycle`) for the distinct points
    of its live seeds that no phase has run at yet, every seed takes the
    stored result at its point, and the seeds that move apply their
    cycles with one :meth:`apply_support` per cycle length.  A phase is
    one loop over a stack of path levels (see :meth:`long_cycle`).
    """

    BLOCK = 4096
    WINDOW = 32
    ROUND = 4 * BLOCK
    CAP = 16_384  # open paths per level of a group of seeds in a long-cycle phase (see long_cycle)

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
        room_id = np.where(valm > 0, idxm, np.where(valm < 0, n + idxm, 2 * n))
        self.room_id = room_id.astype(np.int32, order="F")  # entry columns contiguous
        self.unit = bool(np.abs(valm).max(initial=0) <= 1)
        self.selfq = _pair_selfq(Q, inst.kind.n, inst.kind.k) if room else None
        if room:  # long-cycle masks: brick b' above brick b, and slot j' not j
            self.above = np.triu(np.ones((inst.kind.n,) * 2, dtype=bool), 1)
            self.other = ~np.eye(inst.kind.k, dtype=bool)

    def start(self, seeds: Sequence[np.ndarray]) -> _Lockstep:
        """Put one seed per row in ``x``, with ``w`` = (Q+Q')x and the room
        pairs of x (see :meth:`_scan`); returns the engine."""
        self.x = np.array(seeds, dtype=np.int64).reshape(len(seeds), len(self.lower))
        self.w = np.stack([self.qsym @ x for x in self.x])
        plus = _room_pairs(self.x, self.lower, self.upper)
        both = np.full((len(self.x), 1), PLUS_BYTE | MINUS_BYTE, dtype=np.uint16)
        self.room = np.concatenate([plus, plus.byteswap(), both], axis=1)
        return self

    def apply_support(self, seeds, idx, val):
        """Seed ``seeds[i]`` moves by ``val[i]`` at ``idx[i]``; seeds are distinct.

        Row i of w takes val[i] @ qsym[idx[i]] in every arithmetic, a sum
        over that row's entries alone, so a seed's w does not depend on
        which seeds share its round.  The room pairs at ``idx`` are read
        again from the new x.  Padding (index 0, value 0) moves nothing:
        ``np.add.at`` is unbuffered, it adds 0 to w, and the pair at 0 is
        read from x like the others."""
        rows = seeds[:, None]
        np.add.at(self.x, (rows, idx), val)
        self.w[seeds] += np.einsum("hk,hkn->hn", val, self.qsym[idx])
        plus = _room_pairs(self.x[rows, idx], self.lower[idx], self.upper[idx])
        self.room[rows, idx], self.room[rows, idx + len(self.lower)] = plus, plus.byteswap()

    def apply_moves(self, seeds, moves):
        """Seed ``seeds[i]`` takes signed move ``moves[i]``; seeds are distinct."""
        e, sign = moves >> 1, 1 - 2 * (moves & 1)
        self.apply_support(seeds, self.idxm[e], self.valm[e] * sign[:, None])

    def _scan(self, seeds, start, count):
        """Improving signed moves of one round, in which seed ``seeds[i]``
        scans ``count[i]`` moves from ``start[i]`` (cyclic): per improving
        move in scan order, (i, its offset in seed i's window, its signed
        index, its delta).

        The room test runs on whole elements, +g and -g side by side.  A
        seed's row of ``room`` holds two bytes per room id, the one +g
        needs and the one -g needs: (``up``, ``down``) at ``i``, (``down``,
        ``up``) at ``n + i`` and two set bytes at ``2n``.  So one ``uint16``
        gather per entry column reads both signs, and the ANDed pairs,
        viewed back as bytes, are the signed moves' mask in scan order on
        either byte order.  A window that starts or ends halfway through an
        element drops the other move.  ``owner`` holds each element's seed
        position: it offsets the room reads and names each passing move's
        seed."""
        n_elements, n = self.n_moves >> 1, self.x.shape[1]
        stop = start + count
        lo, skip = start >> 1, start & 1  # skip: the window starts at -g
        span = ((stop + 1) >> 1) - lo  # elements the window touches
        ends = np.cumsum(span)
        first = ends - span
        owner = np.repeat(np.arange(len(seeds)), span)
        e = np.repeat(lo - first, span)
        e += np.arange(len(e))
        np.subtract(e, n_elements, out=e, where=e >= n_elements)
        room, base = self.room[seeds].ravel(), owner * (2 * n + 1)
        pair = np.full(len(e), PLUS_BYTE | MINUS_BYTE, dtype=np.uint16)
        for ids in self.room_id.T:  # an entry column at a time, each contiguous
            pair &= room[base + ids[e]]
        ok = pair.view(bool)
        ok[2 * first] &= skip == 0  # else +g lies before the window
        ok[2 * ends - 1] &= stop & 1 == 0  # else -g lies after it
        at = np.flatnonzero(ok)
        half, odd = at >> 1, at & 1
        slot, e = owner[half], e[half]
        sign = 1 - 2 * odd
        base, w = seeds[slot] * n, self.w.reshape(-1)
        wg = np.zeros(len(e), dtype=w.dtype)
        # an entry column at a time, as in _tile; from 0 and left to right,
        # which is how a row sum of fewer than 8 floats rounds
        for i, v in zip(self.idxm.T, self.valm.T):
            wg += w[base + i[e]] * v[e]
        delta = sign * (self.cg[e] + wg) + self.qgg[e]
        improving = delta < 0
        if not self.unit:  # a room byte promises room for one unit step only
            idx, val = np.take(self.idxm, e, axis=0), np.take(self.valm, e, axis=0)
            moved = self.x.reshape(-1)[base[:, None] + idx] + sign[:, None] * val
            improving &= np.all((moved >= self.lower[idx]) & (moved <= self.upper[idx]), axis=1)
        at, slot = at[improving], slot[improving]
        offset = at - (2 * first + skip)[slot]
        return slot, offset, 2 * e[improving] + odd[improving], delta[improving]

    def _chunk(self, seeds):
        """What best-policy tiles of ``seeds`` read, element-major: a
        contiguous row of every seed per coordinate or room id.  x
        transposed, for the full bounds check; w signed by room id, w at
        ``i``, -w at ``n + i`` and 0 at ``2n``, so a gather at an entry's
        room ids is w times its sign; and per room id a row of +g's room
        bytes, then one of -g's, the two bytes of ``room``'s pairs."""
        xt, wt = self.x[seeds].T.copy(), self.w[seeds].T.copy()  # C order, so rows are contiguous
        pairs = self.room[seeds].T.copy().view(bool).reshape(self.room.shape[1], len(seeds), 2)
        room = pairs.transpose(0, 2, 1).copy()
        return xt, np.concatenate([wt, -wt, np.zeros_like(wt[:1])]), room

    def _tile(self, chunk, lo, hi):
        """The best-policy tile of signed moves ``2*lo .. 2*hi - 1`` x the
        seeds of ``chunk`` (see :meth:`_chunk`): their deltas, a [moves,
        seeds] array with 0 for each move that leaves the box.  The deltas
        are multiplied by the room mask in place, which gives 0 in every
        arithmetic (-0.0 on floats; NaN where a float delta overflowed to
        inf); as only a delta below 0 is taken, 0 and -0.0 stand for no move.

        Each entry column gathers whole rows at its room ids: the room
        bytes of +g and -g, and signed w.  A room byte promises room for one
        unit step only, so entries that are not all +-1 also get the full
        bounds check.  w.g sums from 0, a column at a time, as in
        :meth:`_scan`."""
        xt, ws, room = chunk
        ok = np.ones((hi - lo, 2, xt.shape[1]), dtype=bool)  # [element, sign, seed]
        wg = np.zeros((hi - lo, xt.shape[1]), dtype=ws.dtype)
        for i, v, ids in zip(self.idxm[lo:hi].T, self.valm[lo:hi].T, self.room_id[lo:hi].T):
            ok &= room[ids]
            if self.unit:
                wg += ws[ids]
                continue
            wg += ws[ids] * np.abs(v)[:, None]
            xi, low, high, v = xt[i], self.lower[i, None], self.upper[i, None], v[:, None]
            ok[:, 0] &= (xi + v >= low) & (xi + v <= high)
            ok[:, 1] &= (xi - v >= low) & (xi - v <= high)
        cg, q = self.cg[lo:hi, None], self.qgg[lo:hi, None]
        if np.can_cast(cg.dtype, wg.dtype, "same_kind"):
            wg += cg
        else:  # float c on integer Q: w.g stays exact, then rounds once
            wg = wg + cg
        delta = np.empty(ok.shape, dtype=np.result_type(wg, q))
        np.add(wg, q, out=delta[:, 0])
        np.subtract(q, wg, out=delta[:, 1])
        delta *= ok
        return delta.reshape(-1, xt.shape[1])

    def best_moves(self, seeds):
        """Per seed of ``seeds``, the best move of a whole pass, first wins
        ties, or -1 when no move improves.

        The pass runs as tiles of [signed moves x seeds] of at most
        ``ROUND`` moves (see :meth:`_tile`): all the seeds in one chunk when
        they fit, in blocks of ``ROUND // (2 * seeds)`` elements, else
        chunks of ``ROUND // 2`` seeds, an element at a time.  A tile's rows
        run in signed-move order, so one ``argmin`` takes each seed's first
        lowest, and a running minimum that only a strictly lower delta
        replaces gives ties to the lowest signed index across blocks too."""
        n_elements = self.n_moves >> 1
        step = max(1, self.ROUND // 2)  # seeds per chunk
        moves = np.full(len(seeds), -1, dtype=np.int64)
        for at in range(0, len(seeds), step):
            part, best = seeds[at : at + step], moves[at : at + step]
            size = max(1, self.ROUND // (2 * len(part)))  # elements per block
            chunk, cols = self._chunk(part), np.arange(len(part))
            low = np.zeros(len(part), dtype=np.result_type(self.w, self.c))  # float c on int Q too
            for lo in range(0, n_elements, size):
                delta = self._tile(chunk, lo, min(n_elements, lo + size))
                j = delta.argmin(axis=0)  # the first lowest
                d = delta[j, cols]
                better = d < low
                low[better] = d[better]
                best[better] = 2 * lo + j[better]
        return moves

    def long_cycle(self, seeds, policy):
        """The long-cycle phase at each of the engine's rows ``seeds``: per
        seed (the cycle to take or None, cycles evaluated, certificate).
        A cycle is a copy, so a stored phase keeps no level's array alive.
        Under ``"first"`` the first improving cycle, lengths ascending, and
        the seed leaves the enumeration there; under ``"best"`` the lowest
        delta, first wins ties.  Cycles evaluated counts up to the taken
        one under ``"first"``, all of them otherwise.  A cycle lists the t
        coordinates it goes up at, then the t it goes down at.

        The phase enumerates the feasible liftings of lengths 2..min(n, k).
        A path is a first brick b_1 with slots j_1 (up) and j_2 (down),
        then bricks b_2, b_3, ... above b_1, each entered at the open slot
        (up room there) and left at a new slot (down room there).  It
        closes when it leaves at j_1.  Each signed lifting is one such
        cycle with its smallest brick first, so each is found once.  Within
        a seed and a length the order is lexicographic in (b_1, j_1, j_2,
        b_2, j_3, ..., j_t, b_t).  When a seed's level has more than
        ``CAP`` open paths, an evenly spaced ``CAP`` of them go on, in
        order, so every first brick keeps its share, and the seed's
        certificate is ``"thinned"``.

        Every path array carries its seed's row.  One loop pops a group's
        level off a stack, opens its paths (:meth:`_grow`), closes their
        cycles (:meth:`_close`), takes each seed's hit, then pushes the
        next level in groups of whole seeds, in order, that hold at most
        ``CAP`` open paths together unless one seed alone holds them.  So
        each group runs its remaining levels before the next starts, no
        level holds more open paths than one seed's may, and a level is
        freed once its groups are open.  A seed that leaves opens no
        further level.

        A lifting is a sum of pairs v = e_(b, j_up) - e_(b, j_down), one
        per brick, where coordinate (b, j) is b*k + j.  f(x+g) - f(x) sums
        (c + w).v + v'Qv over its pairs (``linear``, by pair id
        (b*k + j_up)*k + j_down) and v'(Q+Q')v'' over every two pairs, so a
        path's delta grows by one ``linear`` entry and four ``qsym``
        entries per pair already on it."""
        n, k, cap, m = self.kind.n, self.kind.k, self.CAP, len(seeds)
        if min(n, k) < 2:  # no cycle fits
            return [(None, 0, "full")] * m
        taken, examined = [None] * m, np.zeros(m, dtype=np.int64)
        gone, thinned = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        x = self.x[seeds]
        up, down = (x < self.upper).reshape(m, n, k), (x > self.lower).reshape(m, n, k)
        cw = (self.c + self.w[seeds]).reshape(m, n, k, 1)
        linear = ((cw - cw.transpose(0, 1, 3, 2)).reshape(m, -1) + self.selfq).reshape(-1)
        low = np.zeros(m, dtype=linear.dtype)  # only a delta below a seed's low is taken
        # reach[(r*k + j)*n + b] lists the bricks above b with up room at slot j in seed r
        reach = (up.transpose(0, 2, 1)[:, :, None, :] & self.above).reshape(-1, n)

        def groups(members, row, *sel):
            """The selected paths of ``members``, each seed's thinned to ``CAP``, in groups."""
            count = np.bincount(row, minlength=m)
            if count.max(initial=0) > cap:
                thinned[count > cap] = True
                keep = np.minimum(count, cap)
                row = np.repeat(np.arange(m), keep)
                i = np.arange(len(row)) - np.repeat(np.cumsum(keep) - keep, keep)
                at = (np.cumsum(count) - count)[row] + i * count[row] // keep[row]
                sel, count = [a.take(at) for a in sel], keep
            ends, out, lo = np.cumsum(count[members]), [], 0
            while lo < len(members):
                top = int(ends[lo - 1]) if lo else 0
                hi = max(lo + 1, int(np.searchsorted(ends, top + cap, side="right")))
                out.append((members[lo:hi], [a[top : ends[hi - 1]] for a in (row, *sel)]))
                lo = hi
            return out

        # level 1 extends a root path per (seed, b_1, j_1) by b_1, left at j_2
        empty = np.zeros((m * n * k, 0), dtype=np.int64)
        root = (np.repeat(np.arange(m), n * k), np.tile(np.arange(k), m * n), empty, empty,
                np.zeros(m * n * k, dtype=linear.dtype), np.ones((m * n * k, n), dtype=bool),
                np.tile(self.other, (m * n, 1)))
        r, b, j, slot = np.nonzero(up[..., None] & down[:, :, None, :] & self.other)
        level1 = groups(np.arange(m), r, (r * n + b) * k + j, b, slot)
        stack = [(g, root, sel) for g, sel in reversed(level1)]
        down = down.reshape(-1, k)  # down[r*n + b]: brick b's down room in seed r
        del root, r, b, j, slot, level1
        while stack:
            members, parent, sel = stack.pop()
            paths = self._grow(linear, parent, sel)
            del parent, sel  # so a lone child frees its parent level once open
            (row, cycles, delta), (rp, par, brick) = self._close(reach, down, linear, paths)
            count = np.bincount(row, minlength=m)
            start = np.cumsum(count) - count
            examined += count
            hit = delta < low.take(row)
            if policy == "best" and len(delta):  # each seed's first lowest of this length
                held = count > 0
                hit &= delta == np.repeat(np.minimum.reduceat(delta, start[held]), count[held])
            hit = np.flatnonzero(hit)
            hit = hit[np.diff(row.take(hit), prepend=-1) != 0]  # each seed's first
            r = row.take(hit)
            low[r] = delta.take(hit)
            for i, j in zip(r.tolist(), hit.tolist()):
                taken[i] = cycles[j].copy()
            if policy == "first":
                examined[r] += hit - start[r] + 1 - count[r]
                gone[r] = True
            del row, cycles, delta  # so no level's cycles outlive it
            if paths[2].shape[1] + 2 <= min(n, k):  # a longer cycle fits
                if gone[members].any():  # seeds of this group left at this length
                    stay = ~gone[rp]
                    rp, par, brick, members = rp[stay], par[stay], brick[stay], members[~gone[members]]
                j, slot = np.nonzero(down.take(rp * n + brick, axis=0) & paths[6].take(par, axis=0))
                sel = groups(members, rp.take(j), par.take(j), brick.take(j), slot)
                stack += [(g, paths, s) for g, s in reversed(sel)]
                del j, slot, sel
            del paths, rp, par, brick
        return [(taken[i], int(examined[i]), "thinned" if thinned[i] else "full") for i in range(m)]

    def _extend(self, linear, paths, par, brick, slot):
        """Paths ``par`` with one more pair: ``brick`` entered at the open
        slot, left at ``slot``; (ups, downs, deltas)."""
        n, k = self.kind.n, self.kind.k
        q = self.qsym.reshape(-1)  # symmetric, so q[a*n*k + b] serves (a, b) and (b, a)
        row, open_s, ups, downs, delta = (paths[i] for i in range(5))
        new_up, new_down = brick * k + open_s.take(par), brick * k + slot
        old_up, old_down = ups.take(par, axis=0), downs.take(par, axis=0)
        row_up, row_down = (new_up * (n * k))[:, None], (new_down * (n * k))[:, None]
        cross = q.take(row_up + old_up) - q.take(row_down + old_up)
        cross -= q.take(row_up + old_down) - q.take(row_down + old_down)
        pair = (row.take(par) * n * k + new_up) * k + slot  # in the seed's block of linear
        grown = delta.take(par) + linear.take(pair) + cross.sum(axis=1)
        return np.column_stack([old_up, new_up]), np.column_stack([old_down, new_down]), grown

    def _grow(self, linear, parent, sel):
        """The paths that ``sel`` = (row, parent path, brick, slot) opens
        from ``parent``'s, one pair longer.  Paths are (row, open slot,
        ups, downs, delta, free bricks, free slots): per path its seed's
        row, the slot it is open at, the coordinates its pairs go up and
        down at, its delta, and the bricks and slots not on it."""
        row, par, brick, open_s = sel
        ups, downs, delta = self._extend(linear, parent, par, brick, open_s)
        free_b, free_s = parent[5].take(par, axis=0), parent[6].take(par, axis=0)
        at = np.arange(len(row))
        free_b[at, brick] = free_s[at, open_s] = False
        return row, open_s, ups, downs, delta, free_b, free_s

    def _close(self, reach, down, linear, paths):
        """The next bricks of ``paths``: per path, each free brick above its
        first with up room at its open slot.  Returns the cycles closed by
        leaving such a brick at the path's first slot, as (row, cycles
        [count, 2t], deltas), and the bricks, as (row, path, brick).
        ``down[r*n + b]`` is brick b's down room in seed r."""
        n, k = self.kind.n, self.kind.k
        row, open_s, ups, free_b = paths[0], paths[1], paths[2], paths[5]
        first_b, first_s = np.divmod(ups[:, 0], k)
        par, brick = np.nonzero(reach.take((row * k + open_s) * n + first_b, axis=0) & free_b)
        rp = row.take(par)
        close = down.reshape(-1).take((rp * n + brick) * k + first_s.take(par))
        cp = par[close]
        cycles = self._extend(linear, paths, cp, brick[close], first_s.take(cp))
        return (rp[close], np.concatenate(cycles[:2], axis=1), cycles[2]), (rp, par, brick)

    def phase_key(self, s):
        """What seed ``s``'s long-cycle phase reads: x, and w unless
        w = (Q+Q')x exactly, as for rational data (float w is accumulated
        per step).  Object w keys on its values, not pointers."""
        x = self.x[s].tobytes()
        if self.scale is not None:
            return x
        w = self.w[s]
        return x, tuple(w.tolist()) if w.dtype == object else w.tobytes()

    def cycle_rounds(self, policy):
        """Run every seed of an assignment instance to its terminal point by
        long-cycle phases, in lockstep rounds: per seed (steps, cycles
        evaluated, certificate of the last phase).

        ``phases`` maps :meth:`phase_key` to the result of the phase run
        there, thinned or not; a phase reads nothing else, so any seed at
        that key takes it exactly.  Each round runs one batched phase for
        the distinct keys that no seed has met yet, then every live seed
        takes its stored cycle or stops, each phase counting as if run."""
        count = len(self.x)
        steps, examined, certificate = [0] * count, [0] * count, ["full"] * count
        phases, live = {}, list(range(count))
        while live:
            keys = [self.phase_key(s) for s in live]
            new = {}
            for s, key in zip(live, keys):
                if key not in phases:
                    new.setdefault(key, s)
            if new:
                phases.update(zip(new, self.long_cycle(np.array(list(new.values())), policy)))
            movers = {}  # by cycle length
            for s, key in zip(live, keys):
                cycle, seen, certificate[s] = phases[key]
                examined[s] += seen
                if cycle is not None:
                    movers.setdefault(len(cycle), []).append((s, cycle))
                    steps[s] += 1
            for width, moved in movers.items():  # one width a call: each row of w sums as alone
                seeds, cycles = np.array([s for s, _ in moved]), np.array([c for _, c in moved])
                val = np.repeat([[1] * (width // 2) + [-1] * (width // 2)], len(moved), axis=0)
                self.apply_support(seeds, cycles, val)
            live = sorted(s for moved in movers.values() for s, _ in moved)
        return list(zip(steps, examined, certificate))

    def descend(self, policy):
        """Run every seed to its terminal point: per seed (steps, moves
        examined, certificate).  :func:`solve` alone calls it, once per run."""
        if self.selfq is not None:
            return self.cycle_rounds(policy)
        ran = np.zeros((2, len(self.x)), dtype=np.int64)  # per seed: steps, moves examined
        if self.n_moves:
            (self._best_rounds if policy == "best" else self._first_rounds)(ran)
        return [(steps, scanned, "full") for steps, scanned in zip(*ran.tolist())]

    def _best_rounds(self, ran):
        """Best-policy rounds: every live seed's whole pass, from the first
        move; a seed whose pass finds no improving move ends.  Adds each
        seed's steps and moves examined to ``ran``."""
        seeds = np.arange(len(self.x))
        while len(seeds):
            moves = self.best_moves(seeds)
            ran[1, seeds] += self.n_moves
            seeds, moves = seeds[moves >= 0], moves[moves >= 0]
            if len(seeds):
                self.apply_moves(seeds, moves)
                ran[0, seeds] += 1

    def _first_rounds(self, ran):
        """First-policy rounds: the live seeds in index order, a window each,
        until the round holds ``ROUND`` moves; a seed ends when a pass finds
        nothing, and its steps and moves examined go to ``ran``.  ``live``
        holds a column per live seed, so a round's seeds are its first
        columns and update in place: the seed, where its next window starts,
        the moves left in its pass, its next window, its steps and its moves
        examined."""
        live = np.zeros((6, len(self.x)), dtype=np.int64)
        live[0], live[2], live[3] = np.arange(len(self.x)), self.n_moves, self.WINDOW
        while live.shape[1]:
            seed, pointer, left, window, steps, scanned = live
            want = np.minimum(window, left)
            ends = np.cumsum(want)
            m = min(len(want), int(np.searchsorted(ends, self.ROUND)) + 1)
            want = want[:m]
            want[-1] -= max(0, int(ends[m - 1]) - self.ROUND)
            slot, offset, moves, _ = self._scan(seed[:m], pointer[:m], want)
            hit = np.empty(len(slot), dtype=bool)  # each seed's first hit
            hit[:1] = True
            np.not_equal(slot[1:], slot[:-1], out=hit[1:])
            slot, moves = slot[hit], moves[hit]
            want[slot] = offset[hit] + 1  # a hit ends the pass
            scanned[:m] += want
            pointer[:m] += want
            pointer[:m] %= self.n_moves
            left[:m] -= want
            np.minimum(2 * window[:m], self.BLOCK, out=window[:m])
            if len(slot):
                self.apply_moves(seed[slot], moves)
                steps[slot] += 1
                left[slot] = self.n_moves
                window[slot] = self.WINDOW
            if not left[:m].all():  # a pass that found nothing ends its seed
                done = left == 0
                ran[:, seed[done]] = live[4:, done]
                live = live[:, ~done]


def _stored_basis(inst: QuadraticInstance, basis: Optional[GraverBasis]) -> Optional[GraverBasis]:
    """The basis a descent scans: ``basis`` when given, else the kind's own.
    None for an assignment instance, which takes no basis.  A given basis must
    have the instance's dimension and A.g = 0 for every element g (exact, in blocks)."""
    kind = inst.kind
    if isinstance(kind, Assignment):
        if basis is not None:
            raise ValueError("an assignment instance takes no basis: its descent finds every "
                             "cycle lifting that fits the box on the room graph")
        return None
    if basis is not None:
        if basis.dim != inst.size:
            raise ValueError(f"basis has dimension {basis.dim}, the instance {inst.size}")
        A = inst.matrix.astype(object)  # exact: A.g may pass int64
        block = max(1, 250_000 // max(1, A.shape[0] * basis.idx.shape[1]))
        for start in range(0, len(basis), block):
            rows = slice(start, start + block)
            if np.any((A[:, basis.idx[rows]] * basis.val[rows]).sum(axis=2)):
                raise ValueError("basis has an element g with A.g != 0: its moves leave Ax = b")
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

    This is :func:`solve` with the one seed ``x0``, and its one result.
    """
    return solve(inst, policy=policy, seeds=[x0], basis=basis).results[0]


def verify_local_optimality(
    inst: QuadraticInstance, basis: GraverBasis, x
) -> list[tuple[int, int]]:
    """Independent post-pass: list of (element index, sign) moves that are
    feasible and strictly improving at x.  Empty means certified terminal.

    Uses direct objective evaluation, not the incremental delta path.
    """
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
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty report")
    if best_f is None:
        best_f = min(counts)
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
    kind's own, and must have the instance's dimension and A.g = 0 for every
    element g; an assignment instance builds none and takes none (see
    :func:`augment`).  ``enumeration_cap`` is accepted and changes nothing.
    Seeds are integer points: 2.0 passes, 1.7 is a ValueError.  Only here is
    the engine started (:func:`augment` is a one-seed solve), and its counts
    per seed, (steps, moves examined, certificate), read into the results.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
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
    seeds = [_integer_field("seeds", s) for s in seeds]
    if not seeds:
        raise InfeasibleError("no seeds to augment")
    if not _feasible_rows(inst, seeds).all():
        raise InfeasibleError(f"starting point infeasible for {inst.name!r}")
    engine = prepare_moves(inst, basis).start(seeds)
    runs = engine.descend(policy)
    values = _terminal_values(inst, engine)
    results = [
        AugmentationResult(
            seed_index=i,
            terminal_x=engine.x[i].copy(),
            terminal_f=values[i],
            steps=steps,
            moves_scanned=scanned,
            sampler_assisted=steps > 0 and isinstance(inst.kind, Assignment),
            certificate=certificate,
        )
        for i, (steps, scanned, certificate) in enumerate(runs)
    ]

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
