"""Workload definitions: seeded instance sets and one timed pass over each.

Each workload is a closed loop with one caller: a pass solves the
workload's fixed instance set one ``solve`` at a time (or one
``graveropt solve`` call over all files), and the next pass starts only
when the previous one has returned.

Every instance has random ``c`` and ``Q`` from the seed and a half-full
right-hand side: b = n/2 for CBQP, k/2 ones per brick (QSAP1), n/2 per
slot (QSAP2) and checkerboard margins for QAP.  The right-hand side sets
how many signed moves are feasible, so a random one (as ``generate``
draws) makes the work of one CBQP n=120 solve swing eightfold with the
seed; fixing it keeps the per-pass time a property of the code.

* ``qap``: library ``solve`` on QAP 8x5 (the full 109 480-element basis)
  and QAP 7x7 (95 991 enumerated elements plus the lifting sampler for
  cycle lengths 5..7).  The only workload where basis construction, move
  preparation, the QAP seed walk and sampler draws are a visible share.
* ``swap-batch``: instance files for CBQP n=120, QSAP1 16x6 and QSAP2
  16x6 solved in one ``graveropt solve --threads 1 --no-timing`` call
  through ``graveropt.cli.main``.  Small bases on both sides of the
  256-element scanner switch, so per-block Python overhead, instance
  loading and the CLI dominate.  One worker thread: on a two-vCPU
  machine two GIL-bound threads were only about 10 % faster than one, and
  any other load on the machine slowed them about twice as much.  One
  file per family keeps a pass short enough for several passes per run.
* ``exact-box``: library ``solve`` on the other code paths: a 0..3 box
  (CBQP n=80), a 180-element integer basis (QSAP1 30x4), exact
  ``Fraction`` data on object arrays (QSAP1 12x4) and best-improvement
  descent (QSAP2 20x6).

``TINY`` holds the same shapes at toy sizes for the smoke test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

import graveropt.cli
import graveropt.solver
from graveropt import QuadraticInstance, generate_instance, save_instance


@dataclass(frozen=True)
class Spec:
    klass: str
    n: int
    k: Optional[int] = None
    upper: int = 1
    fraction: bool = False
    policy: str = "first"
    solve_kw: dict = field(default_factory=dict)


CLI_WORKLOADS = {"swap-batch"}

WORKLOADS = {
    "qap": [Spec("QAP", 8, 5), Spec("QAP", 7, 7)],
    "swap-batch": [Spec("CBQP", 120), Spec("QSAP1", 16, 6), Spec("QSAP2", 16, 6)],
    "exact-box": [
        Spec("CBQP", 80, upper=3),
        Spec("QSAP1", 30, 4),
        Spec("QSAP1", 12, 4, fraction=True),
        Spec("QSAP2", 20, 6, policy="best"),
    ],
}

TINY = {
    "qap": [
        Spec("QAP", 4, 3, solve_kw={"seed_count": 6}),
        Spec("QAP", 5, 5, solve_kw={"seed_count": 6, "enumeration_cap": 200}),
    ],
    "swap-batch": [Spec("CBQP", 12), Spec("QSAP1", 4, 3), Spec("QSAP2", 4, 3)],
    "exact-box": [
        Spec("CBQP", 10, upper=3),
        Spec("QSAP1", 5, 3),
        Spec("QSAP1", 4, 3, fraction=True),
        Spec("QSAP2", 4, 3, policy="best"),
    ],
}


def _fractions(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Divide integer data by random denominators in 1..6, as exact Fractions."""
    dens = rng.integers(1, 7, size=values.shape)
    flat = [Fraction(int(v), int(d)) for v, d in zip(values.ravel(), dens.ravel())]
    return np.array(flat, dtype=object).reshape(values.shape)


def half_full_rhs(spec: Spec) -> np.ndarray:
    n, k = spec.n, spec.k
    if spec.klass == "CBQP":
        return np.array([n // 2])
    if spec.klass == "QSAP1":
        return np.full(n, k // 2)
    if spec.klass == "QSAP2":
        return np.full(k, n // 2)
    witness = (np.add.outer(np.arange(k), np.arange(n)) % 2 == 0).astype(np.int64)
    return np.concatenate([witness.sum(axis=1), witness.sum(axis=0)])


def make_instance(rng: np.random.Generator, spec: Spec, name: str) -> QuadraticInstance:
    inst = generate_instance(rng, spec.klass, spec.n, spec.k, name=name)
    c, Q = inst.c, inst.Q
    if spec.fraction:
        c, Q = _fractions(rng, c), _fractions(rng, Q)
    return QuadraticInstance(
        c=c, Q=Q, kind=inst.kind, b=half_full_rhs(spec), lower=inst.lower,
        upper=np.full(inst.size, spec.upper, dtype=np.int64), name=name,
    )


def build_inputs(workload: str, seed: int, tiny: bool, out_dir) -> list:
    """Generate the workload's instances from ``seed`` and write them as files.

    Returns (instance, spec, path) triples in solve order.
    """
    specs = (TINY if tiny else WORKLOADS)[workload]
    streams = np.random.SeedSequence(seed).spawn(len(specs))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i, (spec, stream) in enumerate(zip(specs, streams)):
        shape = f"{spec.n}" if spec.k is None else f"{spec.n}x{spec.k}"
        name = f"{i:02d}-{spec.klass}-{shape}"
        inst = make_instance(np.random.default_rng(stream), spec, name)
        path = out_dir / f"{name}.json"
        save_instance(inst, path)
        inputs.append((inst, spec, path))
    return inputs


def library_pass(inputs, rng_seed: int) -> list:
    """One closed-loop pass of library solves; returns the reports."""
    return [
        graveropt.solver.solve(
            inst, policy=spec.policy, parallelism=1, rng_seed=rng_seed, **spec.solve_kw
        )
        for inst, spec, _ in inputs
    ]


def cli_pass(inputs, rng_seed: int, out_dir) -> tuple[int, str]:
    """One ``graveropt solve`` call over every instance file."""
    argv = ["solve", *(str(p) for _, _, p in inputs), "--threads", "1", "--no-timing", "--dump-seeds",
            "--rng-seed", str(rng_seed), "--out", str(out_dir)]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = graveropt.cli.main(argv)
    return code, captured.getvalue()


def cli_digests(inputs, out_dir, stdout: str) -> list[str]:
    """Per instance, the digest of its result file plus its summary row."""
    out_dir = Path(out_dir)
    rows = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    lines = stdout.splitlines()
    digests = []
    for i, (inst, _, _) in enumerate(inputs):
        h = hashlib.sha256((out_dir / f"{inst.name}.result.json").read_bytes())
        h.update(rows[i].encode() if i < len(rows) else b"missing row")
        h.update(lines[i].encode() if i < len(lines) else b"missing line")
        digests.append(h.hexdigest())
    return digests
