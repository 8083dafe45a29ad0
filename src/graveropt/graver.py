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
and a streaming sampler covers the rest on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence, Union

import numpy as np


class DimensionError(ValueError):
    """Constraint-family dimensions out of range (e.g. k < 2 for swaps)."""


# ---------------------------------------------------------------------------
# sparse integer vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseIntVector:
    """Integer vector in Z^dim stored as sorted (index, value) pairs.

    Indices are strictly increasing, values never zero; instances are
    immutable and hashable so they can live in sets.
    """

    dim: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise DimensionError(f"dim must be positive, got {self.dim}")
        prev = -1
        for idx, val in self.entries:
            if idx <= prev or idx >= self.dim:
                raise ValueError(f"indices must be strictly increasing in [0, {self.dim})")
            if val == 0:
                raise ValueError("stored values must be nonzero")
            prev = idx

    @classmethod
    def from_dense(cls, vec: Sequence[int], dim: Optional[int] = None) -> "SparseIntVector":
        arr = np.asarray(vec)
        d = int(dim if dim is not None else arr.shape[0])
        entries = tuple((int(i), int(v)) for i, v in enumerate(arr.tolist()) if v != 0)
        return cls(d, entries)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        for idx, val in self.entries:
            out[idx] = val
        return out

    def __neg__(self) -> "SparseIntVector":
        return SparseIntVector(self.dim, tuple((i, -v) for i, v in self.entries))

    @property
    def is_canonical(self) -> bool:
        """True when the first nonzero entry is positive (or the vector is empty)."""
        return not self.entries or self.entries[0][1] > 0

    def canonical(self) -> "SparseIntVector":
        return self if self.is_canonical else -self

    def __len__(self) -> int:
        return len(self.entries)


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
class BrickCardinality:
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise DimensionError("BrickCardinality needs n >= 1 and k >= 1")

    @property
    def dim(self) -> int:
        return self.n * self.k


@dataclass(frozen=True)
class CoordinateCardinality:
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise DimensionError("CoordinateCardinality needs n >= 1 and k >= 1")

    @property
    def dim(self) -> int:
        return self.n * self.k


@dataclass(frozen=True)
class Assignment:
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise DimensionError("Assignment needs n >= 1 and k >= 1")

    @property
    def dim(self) -> int:
        return self.n * self.k


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
        arr = np.asarray(mat, dtype=np.int64)
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

@dataclass(frozen=True)
class DirectedCycle:
    """Directed cycle on distinct nodes, rotated so the smallest node leads.

    Direction is significant: for length >= 3 a cycle and its reversal are
    different objects (they lift to a Graver element and its negation
    respectively, via different brick orders).
    """

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a cycle needs at least 2 nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("cycle nodes must be distinct")
        if self.nodes[0] != min(self.nodes):
            raise ValueError("cycle must be rotated so the smallest node leads")

    @classmethod
    def from_nodes(cls, nodes: Sequence[int]) -> "DirectedCycle":
        """Build a cycle from any rotation of its node sequence."""
        nodes = tuple(int(v) for v in nodes)
        if not nodes:
            raise ValueError("empty node sequence")
        pivot = nodes.index(min(nodes))
        return cls(nodes[pivot:] + nodes[:pivot])

    def reversed(self) -> "DirectedCycle":
        return DirectedCycle.from_nodes(tuple(reversed(self.nodes)))

    def __len__(self) -> int:
        return len(self.nodes)


def hilbert_cycle_count(k: int) -> int:
    """Number of directed cycles of length 2..k on k labelled nodes."""
    if k < 2:
        raise DimensionError("need k >= 2")
    return sum(math.factorial(t - 1) * math.comb(k, t) for t in range(2, k + 1))


def _iter_cycles(k: int, top: int) -> Iterator[DirectedCycle]:
    """Directed cycles of length 2..top in the canonical deterministic order:
    length ascending, node subsets lexicographic, permutations lexicographic."""
    for t in range(2, top + 1):
        for subset in combinations(range(k), t):
            head = subset[0]
            for rest in permutations(subset[1:]):
                yield DirectedCycle((head,) + rest)


def hilbert_basis_cycles(k: int, max_len: Optional[int] = None) -> list[DirectedCycle]:
    """Enumerate all directed cycles of length 2..min(max_len, k) on [0, k).

    For each node subset the (t-1)! cycles are produced by fixing the
    smallest node first and permuting the rest, which is already the
    canonical rotation.
    """
    if k < 2:
        raise DimensionError("need k >= 2")
    top = k if max_len is None else min(max_len, k)
    return list(_iter_cycles(k, top))


def lift_cycle(cycle: DirectedCycle, bricks: Sequence[int], n: int, k: int) -> SparseIntVector:
    """Place a directed slot cycle into distinct bricks of an n*k vector.

    Brick bricks[s] receives e_{j_s} - e_{j_{s+1 mod t}} where j are the
    cycle nodes, so every brick sums to zero and every slot appears once
    with +1 and once with -1.  The result is a kernel element of the
    Assignment(n, k) matrix with exactly 2t nonzeros.
    """
    nodes = cycle.nodes
    t = len(nodes)
    bricks = [int(b) for b in bricks]
    if len(bricks) != t:
        raise ValueError("need exactly one brick per cycle node")
    if len(set(bricks)) != t:
        raise ValueError("bricks must be distinct")
    if any(b < 0 or b >= n for b in bricks):
        raise ValueError(f"brick indices must lie in [0, {n})")
    if any(j < 0 or j >= k for j in nodes):
        raise ValueError(f"cycle nodes must lie in [0, {k})")
    coeffs: dict[int, int] = {}
    for s in range(t):
        base = bricks[s] * k
        coeffs[base + nodes[s]] = coeffs.get(base + nodes[s], 0) + 1
        coeffs[base + nodes[(s + 1) % t]] = coeffs.get(base + nodes[(s + 1) % t], 0) - 1
    entries = tuple((i, v) for i, v in sorted(coeffs.items()) if v != 0)
    return SparseIntVector(n * k, entries)


# ---------------------------------------------------------------------------
# streaming sampler for un-enumerated liftings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftingSampler:
    """Draws uniform random cycle liftings with lengths in [t_min, t_max].

    Holds no mutable state; callers supply their own random generator, so
    independent workers can share one sampler.
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

    def draw(self, rng: np.random.Generator) -> SparseIntVector:
        return sample_lifting(rng, self.n, self.k, (self.t_min, self.t_max))


def sample_lifting(
    rng: np.random.Generator, n: int, k: int, t_range: tuple[int, int]
) -> SparseIntVector:
    """Draw one uniform random cycle lifting for the Assignment(n, k) family.

    The cycle length t is uniform on the closed interval t_range, the node
    subset, cycle orientation and injective brick list are uniform given t.
    Every draw is a kernel element by construction.
    """
    lo, hi = int(t_range[0]), int(t_range[1])
    if lo > hi:
        raise ValueError(f"empty cycle-length range [{lo}, {hi}]")
    if lo < 2 or hi > min(n, k):
        raise DimensionError(
            f"cycle-length range [{lo}, {hi}] outside [2, {min(n, k)}] for n={n}, k={k}"
        )
    t = int(rng.integers(lo, hi + 1))
    nodes = sorted(int(v) for v in rng.choice(k, size=t, replace=False))
    rest = list(nodes[1:])
    rng.shuffle(rest)
    cycle = DirectedCycle((nodes[0],) + tuple(rest))
    bricks = [int(v) for v in rng.choice(n, size=t, replace=False)]
    return lift_cycle(cycle, bricks, n, k)


# ---------------------------------------------------------------------------
# Graver bases
# ---------------------------------------------------------------------------

@dataclass
class GraverBasis:
    """A sign-canonical set of kernel elements, optionally sampler-backed.

    ``elements`` stores one representative per {g, -g} pair (first nonzero
    positive) in a deterministic enumeration order.  ``sampler`` is present
    only when the assignment-family enumeration was truncated; it yields the
    omitted cycle lengths on demand.  Instances are immutable after
    construction and safe for concurrent reads.
    """

    dim: int
    elements: tuple[SparseIntVector, ...]
    kind: Optional[ConstraintKind] = None
    sampler: Optional[LiftingSampler] = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SparseIntVector]:
        return iter(self.elements)

    def canonical_set(self) -> frozenset:
        """Hashable view for set comparison across construction routes."""
        return frozenset(g.canonical().entries for g in self.elements)

    def draw(self, rng: np.random.Generator) -> SparseIntVector:
        """Random signed element; mixes sampler draws in when truncated."""
        use_sampler = self.sampler is not None and (not self.elements or rng.random() < 0.5)
        if use_sampler:
            g = self.sampler.draw(rng)
        elif self.elements:
            g = self.elements[int(rng.integers(len(self.elements)))]
        else:
            raise ValueError("cannot draw from an empty basis without a sampler")
        return g if rng.integers(2) == 0 else -g


def graver_ones(k: int) -> GraverBasis:
    """Graver basis of the all-ones row 1_k^T: the k(k-1)/2 swaps e_i - e_j, i < j."""
    if k < 2:
        raise DimensionError(f"need k >= 2, got {k}")
    elements = tuple(
        SparseIntVector(k, ((i, 1), (j, -1))) for i, j in combinations(range(k), 2)
    )
    return GraverBasis(dim=k, elements=elements, kind=Cardinality(k))


def graver_brick_cardinality(n: int, k: int) -> GraverBasis:
    """Graver basis of I_n (x) 1_k^T: each swap placed in each brick."""
    if n < 1 or k < 2:
        raise DimensionError(f"need n >= 1 and k >= 2, got n={n}, k={k}")
    elements = []
    for brick in range(n):
        base = brick * k
        for i, j in combinations(range(k), 2):
            elements.append(SparseIntVector(n * k, ((base + i, 1), (base + j, -1))))
    return GraverBasis(dim=n * k, elements=tuple(elements), kind=BrickCardinality(n, k))


def graver_coordinate_cardinality(n: int, k: int) -> GraverBasis:
    """Graver basis of 1_n^T (x) I_k: brick swaps spread k apart, one per slot."""
    if n < 2 or k < 1:
        raise DimensionError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    elements = []
    for i, j in combinations(range(n), 2):
        for slot in range(k):
            elements.append(SparseIntVector(n * k, ((i * k + slot, 1), (j * k + slot, -1))))
    return GraverBasis(dim=n * k, elements=tuple(elements), kind=CoordinateCardinality(n, k))


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

    Enumerates, for each cycle length t up to min(n, k, max_cycle_len),
    every canonical directed cycle and every injective brick list, keeping
    the sign-canonical representative of each lifted pair.  Each {g, -g}
    pair arises from exactly two (cycle, bricks) combinations (reversal plus
    the transported brick order), so filtering on a positive leading entry
    is an exact dedup.

    When the predicted full cardinality exceeds ``enumeration_cap`` and no
    explicit ``max_cycle_len`` was given, enumeration stops at the largest
    length <= 4 that fits the cap (low-length liftings do most augmentation
    work in practice) and a sampler covers the omitted lengths.
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
        while t_top > 2 and assignment_basis_count(n, k, t_top) > enumeration_cap:
            t_top -= 1

    elements = []
    for cycle in _iter_cycles(k, t_top):
        for bricks in permutations(range(n), len(cycle)):
            g = lift_cycle(cycle, bricks, n, k)
            if g.entries[0][1] > 0:
                elements.append(g)

    sampler = None
    if t_top < t_full:
        sampler = LiftingSampler(n=n, k=k, t_min=t_top + 1, t_max=t_full)
    return GraverBasis(dim=n * k, elements=tuple(elements), kind=Assignment(n, k), sampler=sampler)


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

def save_basis(basis: GraverBasis, path) -> None:
    """Write a basis as a `dim N` header plus one `index:value ...` line per element."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {basis.dim}\n")
        for g in basis.elements:
            fh.write(" ".join(f"{i}:{v}" for i, v in g.entries) + "\n")


def load_basis(path) -> GraverBasis:
    """Read a basis written by :func:`save_basis`; the kind tag is not stored."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dim":
            raise ValueError("basis file must start with a 'dim N' header")
        dim = int(header[1])
        elements = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entries = []
            for token in line.split():
                idx, val = token.split(":")
                entries.append((int(idx), int(val)))
            elements.append(SparseIntVector(dim, tuple(entries)))
    return GraverBasis(dim=dim, elements=tuple(elements))
