"""Closed-form Graver bases for four structured constraint families.

All families act on a flat integer vector made of n bricks of width k
(brick i owns coordinates [i*k, (i+1)*k)):

* ``Cardinality(n)``             A = 1_n^T, a single all-ones row.
* ``BrickCardinality(n, k)``     A = I_n (x) 1_k^T, one cardinality row per brick.
* ``CoordinateCardinality(n,k)`` A = 1_n^T (x) I_k, one row per coordinate slot.
* ``Assignment(n, k)``           both stacks at once (generalized Lawrence
                                 configuration): slot rows first, brick rows below.

The Graver basis of the all-ones row is the swap set {e_i - e_j : i < j},
up to sign.  The two Kronecker families inherit it brick-wise / slot-wise.
For the assignment family every kernel element is a lifting of a directed
cycle on the k slots into distinct bricks: brick b_s carries e_{j_s} - e_{j_s+1},
so brick sums and slot sums both cancel.  Enumerating every cycle together
with every injective brick placement produces the complete basis; when that
enumeration is too large, a bounded prefix (small cycle lengths) is stored
and a :class:`LiftingSampler` names the omitted lengths.  The enumerated
basis serves ``graveropt graver``, ``graveropt verify`` and the oracle
checks; descent on an assignment instance needs none, as it finds the
liftings that fit the box on its room graph (see :mod:`graveropt.solver`).

A basis is its padded int64 (index, value) arrays, one row per element,
built in numpy from index grids (``combinations`` for the swaps, cycles
times brick permutations for the liftings); the descent engine scans them
as they are, and the text format reads and writes them row by row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby, permutations
from typing import Optional, Sequence, Union

import numpy as np


class DimensionError(ValueError):
    """Constraint-family dimensions out of range (e.g. k < 2 for swaps)."""


# ---------------------------------------------------------------------------
# constraint families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cardinality:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError("Cardinality needs n >= 1")

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class _Bricks:
    """n bricks of width k; the three brick families differ only in A."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise DimensionError(f"{type(self).__name__} needs n >= 1 and k >= 1")

    @property
    def dim(self) -> int:
        return self.n * self.k


class BrickCardinality(_Bricks):
    """A = I_n (x) 1_k^T."""


class CoordinateCardinality(_Bricks):
    """A = 1_n^T (x) I_k."""


class Assignment(_Bricks):
    """Both stacks: slot rows first, brick rows below."""


@dataclass(frozen=True)
class Explicit:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise DimensionError("Explicit matrix must be nonempty")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise DimensionError("Explicit matrix rows must have equal length")

    @classmethod
    def from_matrix(cls, mat) -> "Explicit":
        """Integer entries only; integral floats such as 2.0 pass."""
        arr = np.asarray(mat)
        for v in arr.ravel().tolist() if arr.dtype.kind not in "biu" else ():
            if not (isinstance(v, numbers.Rational) and v.denominator == 1
                    or isinstance(v, float) and v.is_integer()):
                raise DimensionError(f"Explicit matrix has an entry that is not an integer: {v!r}")
        arr = arr.astype(np.int64)
        if arr.ndim != 2:
            raise DimensionError("Explicit matrix must be 2-dimensional")
        return cls(tuple(tuple(int(v) for v in row) for row in arr))

    @property
    def dim(self) -> int:
        return len(self.rows[0])


ConstraintKind = Union[Cardinality, BrickCardinality, CoordinateCardinality, Assignment, Explicit]


def realize_matrix(kind: ConstraintKind) -> np.ndarray:
    """Materialize the dense integer constraint matrix of a family."""
    if isinstance(kind, Cardinality):
        return np.ones((1, kind.n), dtype=np.int64)
    if isinstance(kind, BrickCardinality):
        return np.kron(np.eye(kind.n, dtype=np.int64), np.ones((1, kind.k), dtype=np.int64))
    if isinstance(kind, CoordinateCardinality):
        return np.kron(np.ones((1, kind.n), dtype=np.int64), np.eye(kind.k, dtype=np.int64))
    if isinstance(kind, Assignment):
        top = realize_matrix(CoordinateCardinality(kind.n, kind.k))
        bottom = realize_matrix(BrickCardinality(kind.n, kind.k))
        return np.vstack([top, bottom])
    if isinstance(kind, Explicit):
        return np.array(kind.rows, dtype=np.int64)
    raise TypeError(f"not a constraint kind: {kind!r}")


# ---------------------------------------------------------------------------
# directed cycles on the k coordinate slots
# ---------------------------------------------------------------------------

def hilbert_basis_cycles(k: int, max_len: Optional[int] = None) -> list[tuple[int, ...]]:
    """All directed cycles of length 2..min(max_len, k) on [0, k), as node
    tuples rotated so the smallest node leads, in the canonical order:
    length ascending, node subsets lexicographic, then permutations
    lexicographic.

    For each node subset the (t-1)! cycles are produced by fixing the
    smallest node first and permuting the rest, which is already the
    canonical rotation.  Direction is significant: for t >= 3 a cycle and
    its reversal are different tuples, which lift to an element and its
    negation via different brick orders.
    """
    if k < 2:
        raise DimensionError("need k >= 2")
    top = k if max_len is None else min(max_len, k)
    return [
        (subset[0],) + rest
        for t in range(2, top + 1)
        for subset in combinations(range(k), t)
        for rest in permutations(subset[1:])
    ]


def _lift(cycles: np.ndarray, bricks: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cycle liftings as (index, value) arrays sorted along the last axis.

    Brick bricks[..., s] carries e_{j_s} - e_{j_{s+1 mod t}} for the cycle
    nodes j = cycles[..., :], so every brick sums to zero and every slot
    appears once with +1 and once with -1; the 2t indices of one lifting
    are distinct, so nothing cancels.  Leading axes broadcast.
    """
    base = bricks * k
    nxt = np.concatenate([cycles[..., 1:], cycles[..., :1]], axis=-1)  # a cheaper np.roll
    idx = np.concatenate([base + cycles, base + nxt], axis=-1)
    order = np.argsort(idx, axis=-1)
    t = cycles.shape[-1]
    return np.take_along_axis(idx, order, axis=-1), np.where(order < t, 1, -1)


# ---------------------------------------------------------------------------
# streaming sampler for un-enumerated liftings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftingSampler:
    """The cycle lengths [t_min, t_max] that a truncated assignment basis
    leaves out, with a uniform random draw of one of their liftings.

    Holds no mutable state; callers supply their own random generator.
    Nothing in the package draws from it: descent finds the feasible
    liftings of every length on its room graph.
    """

    n: int
    k: int
    t_min: int
    t_max: int

    def __post_init__(self) -> None:
        if self.t_min < 2 or self.t_max > min(self.n, self.k) or self.t_min > self.t_max:
            raise DimensionError(
                f"cycle-length range [{self.t_min}, {self.t_max}] invalid for n={self.n}, k={self.k}"
            )

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One random lifting as (indices, values) sorted by index: t uniform
        on [t_min, t_max], then node subset, orientation and injective brick
        list uniform given t.  Every draw is a kernel element.
        """
        t = int(rng.integers(self.t_min, self.t_max + 1))
        nodes = np.sort(rng.choice(self.k, size=t, replace=False))
        rest = nodes[1:].tolist()
        rng.shuffle(rest)
        cycle = np.array([nodes[0], *rest], dtype=np.int64)
        return _lift(cycle, rng.choice(self.n, size=t, replace=False), self.k)


# ---------------------------------------------------------------------------
# Graver bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseIntVector:
    """One basis row as sorted (index, value) pairs; see :attr:`GraverBasis.elements`."""

    dim: int
    entries: tuple[tuple[int, int], ...]


@dataclass(eq=False)
class GraverBasis:
    """A sign-canonical set of kernel elements, optionally sampler-backed.

    The basis is the read-only int64 arrays ``idx`` (support indices,
    increasing) and ``val`` (nonzero values), one row per {g, -g} pair with
    its first nonzero positive, in a deterministic order; short rows are
    padded with index 0 and value 0.  ``sampler``, present only for a
    truncated assignment enumeration, names the omitted cycle lengths.
    """

    dim: int
    idx: np.ndarray
    val: np.ndarray
    sampler: Optional[LiftingSampler] = None

    def __post_init__(self) -> None:
        self.idx.flags.writeable = self.val.flags.writeable = False

    @cached_property
    def elements(self) -> tuple[SparseIntVector, ...]:
        # kept only for bench/gate.py's padded_moves; nothing in the package reads it
        return tuple(
            SparseIntVector(self.dim, tuple((i, v) for i, v in zip(row_i, row_v) if v))
            for row_i, row_v in zip(self.idx.tolist(), self.val.tolist())
        )

    def __len__(self) -> int:
        return len(self.idx)


def _swap_basis(pairs: np.ndarray, dim: int) -> GraverBasis:
    """Basis of swaps e_i - e_j from an array of (i, j) rows with i < j."""
    pairs = pairs.reshape(-1, 2)
    signs = np.tile(np.array([1, -1], dtype=np.int64), (len(pairs), 1))
    return GraverBasis(dim, pairs, signs)


def _pairs(m: int) -> np.ndarray:
    return np.array(list(combinations(range(m), 2)), dtype=np.int64).reshape(-1, 2)


def graver_ones(k: int) -> GraverBasis:
    """Graver basis of the all-ones row 1_k^T: the k(k-1)/2 swaps e_i - e_j, i < j."""
    if k < 2:
        raise DimensionError(f"need k >= 2, got {k}")
    return _swap_basis(_pairs(k), k)


def graver_brick_cardinality(n: int, k: int) -> GraverBasis:
    """Graver basis of I_n (x) 1_k^T: each swap placed in each brick."""
    if n < 1 or k < 2:
        raise DimensionError(f"need n >= 1 and k >= 2, got n={n}, k={k}")
    pairs = np.arange(n, dtype=np.int64)[:, None, None] * k + _pairs(k)
    return _swap_basis(pairs, n * k)


def graver_coordinate_cardinality(n: int, k: int) -> GraverBasis:
    """Graver basis of 1_n^T (x) I_k: brick swaps spread k apart, one per slot."""
    if n < 2 or k < 1:
        raise DimensionError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    pairs = _pairs(n)[:, None, :] * k + np.arange(k, dtype=np.int64)[None, :, None]
    return _swap_basis(pairs, n * k)


def assignment_basis_count(n: int, k: int, max_cycle_len: Optional[int] = None) -> int:
    """Predicted sign-canonical cardinality of the lifted assignment basis.

    Each directed t-cycle admits P(n, t) injective brick placements and the
    (t-1)! C(k, t) cycles of length t pair off with their reversals, giving
    (1/2) * sum_t P(k,t)/t * P(n,t) over the admissible lengths.
    """
    top = min(n, k)
    if max_cycle_len is not None:
        top = min(top, max_cycle_len)
    total = 0
    for t in range(2, top + 1):
        total += (math.perm(k, t) // t) * math.perm(n, t)
    return total // 2


def graver_assignment(
    n: int,
    k: int,
    max_cycle_len: Optional[int] = None,
    enumeration_cap: int = 10**6,
) -> GraverBasis:
    """Graver basis of the generalized Lawrence configuration for (n, k).

    This closed form serves ``graveropt graver``, ``graveropt verify`` and
    the oracle checks; ``solve`` builds none, as an assignment instance
    descends on its room graph.

    Enumerates, for each cycle length t up to min(n, k, max_cycle_len),
    every canonical directed cycle and every injective brick list, keeping
    the sign-canonical representative of each lifted pair.  Each {g, -g}
    pair arises from exactly two (cycle, bricks) combinations (reversal plus
    the transported brick order), so filtering on a positive leading entry
    is an exact dedup.

    When the predicted full cardinality exceeds ``enumeration_cap`` and no
    explicit ``max_cycle_len`` was given, enumeration stops at the largest
    length <= 4 that fits the cap and a sampler names the omitted lengths.
    When even the length-2 liftings exceed the cap, DimensionError is
    raised.  The liftings of one length are built at once, cycle-major over
    the brick permutations.
    """
    if n < 2 or k < 2:
        raise DimensionError(f"need n >= 2 and k >= 2, got n={n}, k={k}")
    t_full = min(n, k)
    if max_cycle_len is not None:
        if max_cycle_len < 2 or max_cycle_len > t_full:
            raise DimensionError(f"max_cycle_len must lie in [2, {t_full}]")
        t_top = max_cycle_len
    elif assignment_basis_count(n, k) <= enumeration_cap:
        t_top = t_full
    else:
        t_top = min(4, t_full)
        while assignment_basis_count(n, k, t_top) > enumeration_cap:
            if t_top == 2:
                raise DimensionError(
                    f"the {assignment_basis_count(n, k, 2)} length-2 liftings exceed "
                    f"enumeration_cap={enumeration_cap}"
                )
            t_top -= 1

    blocks = []
    for t, group in groupby(hilbert_basis_cycles(k, t_top), len):
        cycles = np.array(list(group), dtype=np.int64)
        bricks = np.array(list(permutations(range(n), t)), dtype=np.int64)
        idx, val = _lift(cycles[:, None, :], bricks[None, :, :], k)
        keep = val[..., 0] > 0
        pad = ((0, 0), (0, 2 * (t_top - t)))
        blocks.append((np.pad(idx[keep], pad), np.pad(val[keep], pad)))
    idx, val = (np.concatenate(parts) for parts in zip(*blocks))

    sampler = LiftingSampler(n, k, t_top + 1, t_full) if t_top < t_full else None
    return GraverBasis(n * k, idx, val, sampler)


def build_basis(
    kind: ConstraintKind,
    max_cycle_len: Optional[int] = None,
    enumeration_cap: int = 10**6,
) -> GraverBasis:
    """Construct the Graver basis for any structured family."""
    if isinstance(kind, Cardinality):
        return graver_ones(kind.n)
    if isinstance(kind, BrickCardinality):
        return graver_brick_cardinality(kind.n, kind.k)
    if isinstance(kind, CoordinateCardinality):
        return graver_coordinate_cardinality(kind.n, kind.k)
    if isinstance(kind, Assignment):
        return graver_assignment(kind.n, kind.k, max_cycle_len, enumeration_cap)
    raise TypeError(f"no closed-form construction for {kind!r}; use the completion oracle")


def predicted_cardinality(kind: ConstraintKind, max_cycle_len: Optional[int] = None) -> int:
    """Closed-form element count for each structured family."""
    if isinstance(kind, Cardinality):
        return math.comb(kind.n, 2)
    if isinstance(kind, BrickCardinality):
        return kind.n * math.comb(kind.k, 2)
    if isinstance(kind, CoordinateCardinality):
        return kind.k * math.comb(kind.n, 2)
    if isinstance(kind, Assignment):
        return assignment_basis_count(kind.n, kind.k, max_cycle_len)
    raise TypeError(f"no closed-form count for {kind!r}")


# ---------------------------------------------------------------------------
# text export / import
# ---------------------------------------------------------------------------

def _pack_rows(dim: int, rows: Sequence[Sequence[tuple[int, int]]]) -> GraverBasis:
    """A basis from rows of (index, value) pairs, in order, padded on the right."""
    width = max((len(row) for row in rows), default=1)
    idx = np.zeros((len(rows), width), dtype=np.int64)
    val = np.zeros((len(rows), width), dtype=np.int64)
    for e, row in enumerate(rows):
        for s, (i, v) in enumerate(row):
            idx[e, s], val[e, s] = i, v
    return GraverBasis(dim, idx, val)


def save_basis(basis: GraverBasis, path) -> None:
    """Write a basis as a `dim N` header plus one `index:value ...` line per element."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {basis.dim}\n")
        for row_i, row_v in zip(basis.idx.tolist(), basis.val.tolist()):
            fh.write(" ".join(f"{i}:{v}" for i, v in zip(row_i, row_v) if v) + "\n")


def load_basis(path) -> GraverBasis:
    """Read a basis written by :func:`save_basis`, checking every row, since
    the file may come from anywhere: indices strictly increasing in
    [0, dim), values nonzero."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dim":
            raise ValueError("basis file must start with a 'dim N' header")
        dim = int(header[1])
        if dim <= 0:
            raise DimensionError(f"dim must be positive, got {dim}")
        rows = []
        for number, line in enumerate(fh, start=2):
            row, prev = [], -1
            for token in line.split():
                i, sep, v = token.partition(":")
                if not sep:
                    raise ValueError(f"line {number}: {token!r} is not index:value")
                i, v = int(i), int(v)
                if not prev < i < dim:
                    raise ValueError(f"line {number}: indices must increase strictly in [0, {dim})")
                if v == 0:
                    raise ValueError(f"line {number}: stored values must be nonzero")
                row.append((i, v))
                prev = i
            if row:
                rows.append(row)
    return _pack_rows(dim, rows)
