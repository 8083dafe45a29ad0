"""Quadratic integer program instances over the structured families.

An instance is min c.x + x'Qx subject to Ax = b, l <= x <= u with A given
by a :class:`~graveropt.graver.ConstraintKind`.  Q is stored as-is (it is
not assumed symmetric, let alone PSD).  Arithmetic follows the dtype of the
data: integer or Fraction entries evaluate exactly, float entries in double
precision; descent comparisons elsewhere always use a strict ``<`` with no
tolerance in either mode.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .graver import (
    Assignment,
    BrickCardinality,
    Cardinality,
    ConstraintKind,
    CoordinateCardinality,
    Explicit,
    realize_matrix,
)

CLASS_KINDS = {"CBQP": Cardinality, "QSAP1": BrickCardinality, "QSAP2": CoordinateCardinality,
               "QAP": Assignment}
PROBLEM_CLASSES = tuple(CLASS_KINDS)


class InfeasibleError(ValueError):
    """No lattice point satisfies the requested constraints."""


def kind_for_class(klass: str, n: int, k: Optional[int] = None) -> ConstraintKind:
    if klass not in PROBLEM_CLASSES:  # a tuple, so an unhashable klass is just not in it
        raise ValueError(f"unknown problem class {klass!r}")
    return CLASS_KINDS[klass](n) if klass == "CBQP" else CLASS_KINDS[klass](n, k)


def class_for_kind(kind: ConstraintKind) -> str:
    return next((name for name, cls in CLASS_KINDS.items() if isinstance(kind, cls)), "explicit")


@dataclass
class QuadraticInstance:
    """Immutable problem data; ``matrix``, the realized A, is built once."""

    c: np.ndarray
    Q: np.ndarray
    kind: ConstraintKind
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    name: str = ""
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c)
        self.Q = np.asarray(self.Q)
        for label in ("b", "lower", "upper"):
            setattr(self, label, _integer_field(label, getattr(self, label)))
        size = self.kind.dim
        if self.c.shape != (size,):
            raise ValueError(f"c must have shape ({size},), got {self.c.shape}")
        if self.Q.shape != (size, size):
            raise ValueError(f"Q must have shape ({size}, {size}), got {self.Q.shape}")
        for label, data in (("c", self.c), ("Q", self.Q)):
            if not _all_finite(data):
                raise ValueError(f"{label} has a non-finite entry (inf or NaN)")
        if self.lower.shape != (size,) or self.upper.shape != (size,):
            raise ValueError("bounds must match the instance size")
        if np.any(self.lower > self.upper):
            raise ValueError("need l <= u componentwise")
        self.matrix = realize_matrix(self.kind)
        rows = self.matrix.shape[0]
        if self.b.shape != (rows,):
            raise ValueError(f"b must have shape ({rows},), got {self.b.shape}")

    @property
    def size(self) -> int:
        return self.kind.dim


def _integer_field(label: str, values) -> np.ndarray:
    """``values`` as int64, or a ValueError naming ``label`` for an entry
    that is not an integer in int64 range (integral floats such as 2.0 pass)."""
    try:
        raw = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape", which names no field
        raise ValueError(f"{label} is ragged: its lists differ in length") from None
    if raw.dtype.kind != "i":
        flat = raw.ravel().tolist()
        for v in flat:
            whole = isinstance(v, numbers.Rational) and v.denominator == 1
            if not (whole or isinstance(v, float) and v.is_integer()):
                raise ValueError(f"{label} has an entry that is not an integer: {v!r}")
        values = np.array([int(v) for v in flat], dtype=object).reshape(raw.shape)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{label} has an entry outside int64") from None


def _all_finite(data: np.ndarray) -> bool:
    if data.dtype == object:  # ints and Fractions are always finite
        return all(math.isfinite(v) for v in data.flat if isinstance(v, float))
    return bool(np.isfinite(data).all())


def _objective_scalar(inst: QuadraticInstance, x: np.ndarray):
    """Python-scalar evaluation: exact for ints and Fractions of any size."""
    xs = x.tolist()
    lin = sum(ci * xi for ci, xi in zip(inst.c.tolist(), xs))
    quad = 0
    for i, xi in enumerate(xs):
        if xi:
            row = inst.Q[i]
            quad += xi * sum(qij * xj for qij, xj in zip(row.tolist(), xs))
    return lin + quad


def _int64_safe(c: np.ndarray, Q: np.ndarray, norm: int) -> bool:
    """The int64 guard: max|Q| * norm**2 + max|c| * norm < 2**62.

    Then c.x + x'Qx, its partial sums and (Q+Q')x fit int64 for every
    integer x with |x|_1 <= norm.  The descent engine passes its box's
    largest |x|_1 plus its largest move weight, which bounds every move
    delta too.  Floats always pass: they saturate rather than wrap.
    """
    if c.dtype.kind == "f" or Q.dtype.kind == "f":
        return True
    maxc, maxq = (max(-int(a.min(initial=0)), int(a.max(initial=0))) for a in (c, Q))
    return maxq * norm * norm + maxc * norm < 2**62


def objective(inst: QuadraticInstance, x) -> object:
    """c.x + x'Qx as a plain scalar (int, Fraction or float per the data)."""
    x = np.asarray(x)
    if x.shape != (inst.size,):
        raise ValueError(f"x must have shape ({inst.size},), got {x.shape}")
    return batch_objective(inst, x[None])[0]


def batch_objective(inst: QuadraticInstance, points: np.ndarray) -> list:
    """:func:`objective` of every row of ``points``: exact on Python scalars for object
    arrays or past the int64 guard, floats row by row, int64 in one vectorized pass."""
    points = np.asarray(points)
    c, Q = inst.c, inst.Q
    kinds = {c.dtype.kind, Q.dtype.kind, points.dtype.kind}
    if "O" in kinds or not _int64_safe(c, Q, int(np.abs(points).sum(axis=1).max(initial=0))):
        return [_objective_scalar(inst, row) for row in points]
    if "f" in kinds:
        return [(c @ x + x @ Q @ x).item() for x in points]
    values = points @ c + np.einsum("ij,jk,ik->i", points, Q, points)
    return [v.item() for v in values]


def check_feasible(inst: QuadraticInstance, x) -> bool:
    """Ax = b and l <= x <= u, checked exactly."""
    return bool(_feasible_rows(inst, [x])[0])


def _feasible_rows(inst: QuadraticInstance, points) -> np.ndarray:
    """:func:`check_feasible` of every point, in one batched test."""
    for x in points:
        if np.shape(x) != (inst.size,):
            raise ValueError(f"x must have shape ({inst.size},), got {np.shape(x)}")
    xs = np.asarray(points).reshape(len(points), inst.size)
    in_box = np.all((xs >= inst.lower) & (xs <= inst.upper), axis=1)
    return in_box & _meets_equations(inst, xs)


def _meets_equations(inst: QuadraticInstance, xs: np.ndarray) -> np.ndarray:
    """Ax = b for every row x of ``xs`` that lies in the box, exact: in int64 while max|A|
    times the box's largest |x|_1 is below 2**63, which bounds every partial sum, else
    on Python ints.  A row outside the box may read either way, so callers mask it."""
    A = inst.matrix
    reach = sum(max(-lo, hi) for lo, hi in zip(inst.lower.tolist(), inst.upper.tolist()))
    if max(-int(A.min(initial=0)), int(A.max(initial=0))) * reach >= 2**63:
        A, xs = A.astype(object), xs.astype(object)
    return np.all(A @ xs.T == inst.b[:, None], axis=0)


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------

def generate_instance(
    rng: np.random.Generator,
    klass: str,
    n: int,
    k: Optional[int] = None,
    density: float = 1.0,
    value_range: tuple[int, int] = (-10, 10),
    convex: bool = False,
    name: Optional[str] = None,
) -> QuadraticInstance:
    """Random 0/1-bounded instance of one of the four problem classes.

    Q is a dense random integer matrix (not symmetrized, not PSD) with the
    given nonzero density; ``convex=True`` replaces it with M'M for a random
    integer M, which is PSD and keeps all arithmetic exact.  The right-hand
    side is always feasible: scalar b in [1, n-1] for CBQP, per-brick counts
    in [1, k] for QSAP1, per-slot counts in [1, n] for QSAP2, and for QAP
    the row/column sums of a random binary matrix (so the two halves agree).
    """
    if klass in PROBLEM_CLASSES[1:] and (k is None or k < 1):  # the classes with bricks
        raise ValueError(f"class {klass} needs k >= 1")
    kind = kind_for_class(klass, n, k)
    size = kind.dim
    lo, hi = value_range

    c = rng.integers(lo, hi + 1, size=size).astype(np.int64)
    if convex:
        m = rng.integers(-3, 4, size=(size, size)).astype(np.int64)
        Q = m.T @ m
    else:
        Q = rng.integers(lo, hi + 1, size=(size, size)).astype(np.int64)
        if density < 1.0:
            Q = Q * (rng.random((size, size)) < density)

    if klass == "CBQP":
        b = np.array([rng.integers(1, n)], dtype=np.int64) if n > 1 else np.array([1])
    elif klass == "QSAP1":
        b = rng.integers(1, k + 1, size=n).astype(np.int64)
    elif klass == "QSAP2":
        b = rng.integers(1, n + 1, size=k).astype(np.int64)
    else:  # QAP: margins of a random binary matrix guarantee feasibility
        witness = (rng.random((k, n)) < 0.5).astype(np.int64)
        b = np.concatenate([witness.sum(axis=1), witness.sum(axis=0)])

    if name is None:
        shape = f"{n}" if klass == "CBQP" else f"{k}x{n}"
        name = f"{klass}-{shape}"
    return QuadraticInstance(
        c=c,
        Q=Q,
        kind=kind,
        b=b,
        lower=np.zeros(size, dtype=np.int64),
        upper=np.ones(size, dtype=np.int64),
        name=name,
    )


# ---------------------------------------------------------------------------
# instance file format
# ---------------------------------------------------------------------------

def _encode_number(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    return v


def _decode_number(label, v):
    """A JSON number as it is, or a string such as "3/2" as a Fraction."""
    if isinstance(v, (int, float)):  # bool is an int
        return v
    if not isinstance(v, str):
        raise ValueError(f"{label} has an entry that is not a number: {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:  # Fraction("x"), Fraction("1/0")
        raise ValueError(f"{label} has an entry that is not a number: {exc}") from None


def _decode_array(label, data, shape):
    """A JSON list (``shape`` 1) or a list of equal-length lists (2) as an
    array; anything else is a ValueError naming ``label``."""
    rows = data if shape == 2 else [data]
    if not (isinstance(data, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"{label} must be a list" + " of lists" * (shape == 2))
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{label} has rows of unequal length")
    # most entries are plain numbers, and skipping the call keeps loading fast
    flat = [v if type(v) in (int, float) else _decode_number(label, v)
            for row in rows for v in row]
    # json.loads makes exact int, float and bool, never a subclass, and a bool
    # stays with the ints; one pass over the types is far faster than isinstance
    kinds = set(map(type, flat))
    if Fraction in kinds:
        arr = np.array(flat, dtype=object)
    elif float in kinds:
        arr = np.array(flat, dtype=np.float64)
    else:
        try:
            arr = np.array(flat, dtype=np.int64)
        except OverflowError:  # integers beyond int64 stay exact Python ints
            arr = np.array(flat, dtype=object)
    return arr.reshape(len(data), len(data[0]) if data else 0) if shape == 2 else arr


def serialize_instance(inst: QuadraticInstance) -> str:
    klass = class_for_kind(inst.kind)
    doc = {
        "name": inst.name,
        "class": klass,
        "n": getattr(inst.kind, "n", None),
        "k": getattr(inst.kind, "k", None),
        "c": [_encode_number(v) for v in inst.c.tolist()],
        "Q": [[_encode_number(v) for v in row] for row in inst.Q.tolist()],
        "b": inst.b.tolist(),
        "l": inst.lower.tolist(),
        "u": inst.upper.tolist(),
    }
    if isinstance(inst.kind, Explicit):
        doc["A"] = [list(row) for row in inst.kind.rows]
    return json.dumps(doc, indent=1)


def parse_instance(text: str) -> QuadraticInstance:
    """Instance from its JSON text; malformed text raises ValueError."""
    doc = json.loads(text)
    try:
        klass = doc["class"]
        if klass == "explicit":
            kind: ConstraintKind = Explicit.from_matrix(_integer_field("A", doc["A"]))
        else:
            k = doc.get("k")
            kind = kind_for_class(klass, _whole("n", doc["n"]), k if k is None else _whole("k", k))
        name = doc.get("name", "")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"name must be a string, got {name!r}")
        return QuadraticInstance(
            c=_decode_array("c", doc["c"], 1),
            Q=_decode_array("Q", doc["Q"], 2),
            kind=kind,
            b=doc["b"],
            lower=doc["l"],
            upper=doc["u"],
            name=name,
        )
    except KeyError as exc:
        raise ValueError(f"instance file lacks the field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"malformed instance file: {exc}") from None


def _whole(label: str, value) -> int:
    """One integer of an instance file, or a ValueError naming ``label``."""
    whole = _integer_field(label, value)
    if whole.ndim:
        raise ValueError(f"{label} must be one integer, got {value!r}")
    return int(whole)


def save_instance(inst: QuadraticInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst) + "\n")


def load_instance(path) -> QuadraticInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())
