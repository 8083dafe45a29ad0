"""Command-line front end.

Subcommands:

* ``generate``  write random instance files for a problem class
* ``graver``    build a structured basis, report predicted vs actual size
* ``solve``     run the multi-seeded augmentation over instance files
* ``verify``    cross-check constructions against the completion oracle

Every subcommand is deterministic for a fixed ``--rng-seed``.  Arguments
out of range exit with status 2 and a message on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .graver import (
    Assignment,
    BrickCardinality,
    Cardinality,
    CoordinateCardinality,
    DimensionError,
    GraverBasis,
    assignment_basis_count,
    build_basis,
    predicted_cardinality,
    realize_matrix,
    save_basis,
)
from .oracle import ResourceBudgetError
from .problems import (
    InfeasibleError,
    PROBLEM_CLASSES,
    _encode_number,
    generate_instance,
    load_instance,
    save_instance,
)
from .solver import solve

CLI_KINDS = {
    "cardinality": lambda n, k: Cardinality(n),
    "brick": lambda n, k: BrickCardinality(n, k),
    "coordinate": lambda n, k: CoordinateCardinality(n, k),
    "assignment": lambda n, k: Assignment(n, k),
}

CSV_COLUMNS = ("instance", "size", "best_f", "distinct_terminals", "best_share", "wall_ms")


def _count(minimum: int):
    """An argument type: an integer of at least ``minimum``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{raw!r} is not a count of at least {minimum}")
        return value

    return parse


def _share(raw: str) -> float:
    """``--density``: a number in [0, 1]."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a number in [0, 1]")
    return value


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.klass != "CBQP" and args.k is None:
        print(f"class {args.klass} needs --k", file=sys.stderr)
        return 2
    lo, hi = args.value_range
    if lo > hi:
        print(f"--value-range {lo} {hi}: LO must not exceed HI", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    rng = np.random.default_rng(args.rng_seed)
    for i in range(args.count):
        shape = f"{args.n}" if args.klass == "CBQP" else f"{args.k}x{args.n}"
        name = f"{args.klass}_{shape}_{i:03d}"
        try:  # the dimensions are checked here, before anything is written
            inst = generate_instance(
                rng,
                args.klass,
                args.n,
                args.k,
                density=args.density,
                value_range=(lo, hi),
                name=name,
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        out_dir.mkdir(parents=True, exist_ok=True)
        save_instance(inst, out_dir / f"{name}.json")
    print(f"wrote {args.count} {args.klass} instance(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# graver
# ---------------------------------------------------------------------------

def cmd_graver(args) -> int:
    if args.kind != "cardinality" and args.k is None:
        print(f"kind {args.kind} needs --k", file=sys.stderr)
        return 2
    try:
        kind = CLI_KINDS[args.kind](args.n, args.k)
        if isinstance(kind, Assignment) and args.max_cycle_len is None:
            full = assignment_basis_count(kind.n, kind.k)
            if full > args.cap:
                raise DimensionError(
                    f"full enumeration has {full} elements (> cap {args.cap}); "
                    "pass --max-cycle-len to truncate explicitly"
                )
        basis = build_basis(kind, max_cycle_len=args.max_cycle_len, enumeration_cap=args.cap)
    except DimensionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    predicted = predicted_cardinality(kind, args.max_cycle_len)
    print(f"kind={args.kind} n={args.n} k={args.k} predicted={predicted} actual={len(basis)}")
    if predicted != len(basis):
        print("cardinality mismatch against the closed-form count", file=sys.stderr)
        return 1
    if basis.sampler is not None:
        print(
            f"sampler attached for cycle lengths {basis.sampler.t_min}..{basis.sampler.t_max}"
        )
    if args.out:
        try:
            save_basis(basis, args.out)
        except OSError as exc:
            print(f"cannot write the basis: {exc}", file=sys.stderr)
            return 2
        print(f"basis written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _report_document(report, seeds_dumped: bool, wall_ms: int) -> dict:
    doc = {
        "name": report.name,
        "best_objective": _encode_number(report.best.terminal_f),
        "best_x": report.best.terminal_x.tolist(),
        "seed_count": report.seed_count,
        "terminal_values": [
            [_encode_number(v), c]
            for v, c in sorted(report.terminal_value_counts.items(), key=lambda p: p[0])
        ],
        "path_lengths": [r.steps for r in report.results],
        "landscape": report.landscape,
        "policy": report.policy,
        "rng_seed": report.rng_seed,
        "sampler_assisted": report.sampler_assisted,
        "degenerate_optima": [x.tolist() for x in report.best_points],
        "wall_ms": wall_ms,
    }
    if seeds_dumped:
        doc["seeds"] = [s.tolist() for s in report.seeds]
    return doc


def cmd_solve(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    failed = False
    for path in args.instances:
        name, size = Path(path).stem, ""
        try:
            inst = load_instance(path)
            inst.name = (inst.name or name).replace(os.sep, "_")
            name, size = inst.name, inst.size
            started = time.perf_counter()
            report = solve(
                inst,
                seed_count=args.seeds,
                policy=args.policy,
                rng_seed=args.rng_seed,
            )
        except (InfeasibleError, ValueError, OSError, ResourceBudgetError) as exc:
            failed = True
            print(f"{name}: {exc}", file=sys.stderr)
            with open(out_dir / f"{name}.result.json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"name": name, "error": str(exc)}, indent=1))
            rows.append([name, size, "", 0, "", 0])
            continue
        wall_ms = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)
        doc = _report_document(report, args.dump_seeds, wall_ms)
        with open(out_dir / f"{inst.name}.result.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=1))
        if args.per_seed_csv:
            with open(out_dir / f"{inst.name}.seeds.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(("seed_index", "terminal_f", "steps"))
                for r in report.results:
                    writer.writerow((r.seed_index, _encode_number(r.terminal_f), r.steps))
        rows.append(
            [
                inst.name,
                inst.size,
                _encode_number(report.best.terminal_f),
                report.distinct_terminal_values,
                f"{report.best_share:.6f}",
                wall_ms,
            ]
        )
        print(
            f"{inst.name}: best={report.best.terminal_f} "
            f"terminals={report.distinct_terminal_values} landscape={report.landscape}"
        )
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _canonical_rows(basis: GraverBasis) -> list:
    """The rows as (index, value) tuples, padding dropped, first value made
    positive, sorted."""
    return sorted(
        tuple((i, v if row_v[0] > 0 else -v) for i, v in zip(row_i, row_v) if v)
        for row_i, row_v in zip(basis.idx.tolist(), basis.val.tolist())
    )


def _bases_match(a: GraverBasis, b: GraverBasis) -> bool:
    return a.dim == b.dim and _canonical_rows(a) == _canonical_rows(b)


def _verification_checks(max_dim: int):
    """Yield (label, callable) pairs; each callable returns True on success."""
    from .oracle import brute_force_solve, pottier_graver

    def formula_check(kind):
        return lambda: len(build_basis(kind)) == predicted_cardinality(kind)

    for n in range(2, 7):
        yield f"count cardinality n={n}", formula_check(Cardinality(n))
        for k in range(2, 7):
            yield f"count brick n={n} k={k}", formula_check(BrickCardinality(n, k))
            yield f"count coordinate n={n} k={k}", formula_check(CoordinateCardinality(n, k))
            yield f"count assignment n={n} k={k}", formula_check(Assignment(n, k))

    def oracle_check(kind):
        return lambda: _bases_match(build_basis(kind), pottier_graver(realize_matrix(kind)))

    for n in range(2, max_dim + 1):
        yield f"oracle cardinality n={n}", oracle_check(Cardinality(n))
    for n in range(1, max_dim + 1):
        for k in range(2, max_dim + 1):
            if n * k > max_dim:
                continue
            yield f"oracle brick n={n} k={k}", oracle_check(BrickCardinality(n, k))
    for n in range(2, max_dim + 1):
        for k in range(1, max_dim + 1):
            if n * k > max_dim:
                continue
            yield f"oracle coordinate n={n} k={k}", oracle_check(CoordinateCardinality(n, k))
    for n in range(2, max_dim + 1):
        for k in range(2, max_dim + 1):
            if n * k > max_dim:
                continue
            yield f"oracle assignment n={n} k={k}", oracle_check(Assignment(n, k))

    def exhaustive_check(klass, n, k, draw):
        def check():
            from .oracle import enumerate_feasible

            rng = np.random.default_rng(draw)
            inst = generate_instance(rng, klass, n, k)
            points = enumerate_feasible(inst)
            report = solve(inst, seeds=list(points))
            truth = brute_force_solve(inst)
            return report.best.terminal_f == truth.best_f

        return check

    for draw, (klass, n, k) in enumerate(
        [("CBQP", 8, None), ("QSAP1", 3, 3), ("QSAP2", 3, 3), ("QAP", 3, 3)]
    ):
        yield f"exhaustive-seed optimum {klass}", exhaustive_check(klass, n, k, draw)


def cmd_verify(args) -> int:
    failures = 0
    total = 0
    for label, check in _verification_checks(args.max_dim):
        total += 1
        ok = check()
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graveropt",
        description="Structured Graver bases and multi-seeded augmentation for quadratic integer programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write random instance files")
    p_gen.add_argument("--class", dest="klass", choices=PROBLEM_CLASSES, required=True)
    p_gen.add_argument("--n", type=int, required=True, help="number of bricks (or variables for CBQP)")
    p_gen.add_argument("--k", type=int, default=None, help="brick width (unused for CBQP)")
    p_gen.add_argument("--count", type=_count(0), default=1)
    p_gen.add_argument("--density", type=_share, default=1.0)
    p_gen.add_argument("--value-range", type=int, nargs=2, default=(-10, 10), metavar=("LO", "HI"))
    p_gen.add_argument("--rng-seed", type=int, default=0)
    p_gen.add_argument("--out-dir", default=".")
    p_gen.set_defaults(func=cmd_generate)

    p_graver = sub.add_parser("graver", help="build a structured Graver basis")
    p_graver.add_argument("--kind", choices=sorted(CLI_KINDS), required=True)
    p_graver.add_argument("--n", type=int, required=True)
    p_graver.add_argument("--k", type=int, default=None)
    p_graver.add_argument("--max-cycle-len", type=int, default=None)
    p_graver.add_argument("--cap", type=int, default=10**6, help="full-enumeration cap")
    p_graver.add_argument("--out", default=None, help="write the basis text file here")
    p_graver.set_defaults(func=cmd_graver)

    p_solve = sub.add_parser("solve", help="run augmentation over instance files")
    p_solve.add_argument("instances", nargs="+")
    p_solve.add_argument(
        "--seeds", type=_count(1), default=None, help="default: 50 for CBQP, n*k else"
    )
    p_solve.add_argument("--policy", choices=("first", "best"), default="first")
    p_solve.add_argument(
        "--threads", type=_count(1), default=1,
        help="accepted for compatibility; files are solved one after another",
    )
    p_solve.add_argument("--rng-seed", type=int, default=0)
    p_solve.add_argument(
        "--per-seed-csv", action="store_true",
        help="also write <name>.seeds.csv with seed_index,terminal_f,steps",
    )
    p_solve.add_argument("--dump-seeds", action="store_true", help="store seeds in result files")
    p_solve.add_argument(
        "--no-timing",
        action="store_true",
        help="write wall_ms as 0 so outputs are byte-reproducible",
    )
    p_solve.add_argument("--out", default=".", help="directory for result files and summary.csv")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="cross-check constructions against oracles")
    p_verify.add_argument(
        "--max-dim", type=_count(2), default=12,
        help="largest flat size checked against the oracle, at least 2",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
