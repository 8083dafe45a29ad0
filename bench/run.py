"""graveropt benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload qap --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy holding ``src/`` and ``bench/``).
The workload seed makes the instances; the solver sees only those inputs.

Set-up: imports plus instance generation and file writing, timed in a
fresh child process before passes, about ``SETUP_ROUNDS`` times spread
evenly over the measured time, and once after the last pass; ``setup_s``
is their median.  Spreading the rounds over the run keeps one
slow stretch of the shared machine from setting the figure.

Measurement: passes over the workload's fixed instance set (see
``workloads.py``) until they add up to ``--seconds``, at least one pass.
``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
median pass time.

Correctness: every pass must reproduce the first pass's outputs exactly,
and the first pass's outputs go through the gate in ``gate.py`` after the
timed passes.  Any failure is counted in ``failed`` and the exit code is 1.

The last line of standard output is the JSON result; a ``BENCH_*.json``
record and, for traced runs, the spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 6

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build_inputs({workload!r}, {seed}, {tiny}, {out!r})
print(time.perf_counter() - start)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("qap", "swap-batch", "exact-box"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="toy instance sizes (smoke test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def run_record(args) -> dict:
    import numpy as np

    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "src_lines": lines,
        "src_sha256": h.hexdigest(),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def timed_setup(args, out_dir: Path) -> float:
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), workload=args.workload,
                              seed=args.seed, tiny=args.tiny, out=str(out_dir))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    shutil.rmtree(out_dir)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs passes of one workload and keeps per-pass digests and timings."""

    def __init__(self, args, inputs, work: Path):
        import workloads

        self.workloads = workloads
        self.args = args
        self.inputs = inputs
        self.cli = args.workload in workloads.CLI_WORKLOADS
        self.out_dir = work / "out"
        self.first_outputs = None
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> dict:
        """Time one pass; returns {wall, cpu, start_ns, end_ns} or None on error."""
        count = len(self.inputs)
        self.attempted += count
        start_ns = time.perf_counter_ns()
        cpu0 = time.process_time()
        try:
            if self.cli:
                outputs = self.workloads.cli_pass(self.inputs, self.args.seed, self.out_dir)
            else:
                outputs = self.workloads.library_pass(self.inputs, self.args.seed)
        except Exception:  # a crashing solve is a failed operation, not a crashed benchmark
            self.failed += count
            self.problems.append(traceback.format_exc())
            return None
        end_ns = time.perf_counter_ns()
        cpu = time.process_time() - cpu0
        if self.cli and outputs[0] != 0:
            self.failed += count
            self.problems.append(f"graveropt solve exited with code {outputs[0]}")
            return None
        digests = self.digests(outputs)
        if self.first_digests is None:
            self.first_outputs, self.first_digests = outputs, digests
        else:
            changed = sum(a != b for a, b in zip(digests, self.first_digests))
            if changed:
                self.failed += changed
                self.problems.append(f"{changed} instance output(s) differ from the first pass")
        wall = (end_ns - start_ns) / 1e9
        return {"wall": wall, "cpu": cpu, "start_ns": start_ns, "end_ns": end_ns}

    def digests(self, outputs) -> list[str]:
        import gate

        if self.cli:
            return self.workloads.cli_digests(self.inputs, self.out_dir, outputs[1])
        return [gate.report_digest(r) for r in outputs]


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s over {n} pass(es)"
    if n < 20:
        return text + "; no percentile above the median has >= 10 samples beyond it"
    ordered = sorted(samples)
    return text + f"; p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s"


# ---------------------------------------------------------------------------
# correctness gate and workload properties
# ---------------------------------------------------------------------------

def gate_and_properties(runner: Runner) -> list[dict]:
    """Check the first pass's outputs; return one property row per instance.

    Besides the workload properties, each row carries the sums that the
    quality metrics need: f over the seeds, f over the terminal points and
    the best value, all exact until the final division.
    """
    import numpy as np

    import gate
    from graveropt import build_basis, objective

    def decode(v):  # result files write non-integer Fractions as strings
        return Fraction(v) if isinstance(v, str) else v

    rows = []
    for i, (inst, spec, _) in enumerate(runner.inputs):
        kw = spec.solve_kw
        basis = build_basis(inst.kind, kw.get("max_cycle_len"), kw.get("enumeration_cap", 10**6))
        moves = gate.padded_moves(basis)
        if runner.cli:
            doc = json.loads((runner.out_dir / f"{inst.name}.result.json").read_text("utf-8"))
            best = decode(doc["best_objective"])
            points = [(doc["best_x"], best)] + [(x, best) for x in doc["degenerate_optima"]]
            problems = gate.check_points(inst, points)
            values = [(decode(v), c) for v, c in doc["terminal_values"]]
            if min(v for v, _ in values) != best or sum(c for _, c in values) != doc["seed_count"]:
                problems.append(f"{inst.name}: terminal-value histogram disagrees with best")
            if gate.improving_moves(inst, basis, moves, np.array(doc["best_x"])):
                problems.append(f"{inst.name}: best point has an improving basis move")
            seeds = doc["seeds"]
            terminal_sum = sum(v * c for v, c in values)
            best_count = dict(values).get(best, 0)
        else:
            report = runner.first_outputs[i]
            problems = gate.check_report(inst, report, basis, moves)
            best = report.best.terminal_f
            seeds = report.seeds
            terminal_sum = sum(r.terminal_f for r in report.results)
            best_count = report.terminal_value_counts[best]
        if problems:
            runner.problems += problems
            runner.failed += runner.attempted // len(runner.inputs)
        sampler = basis.sampler
        rows.append({
            "instance": inst.name,
            "elements": len(basis),
            "sampler_t": f"{sampler.t_min}..{sampler.t_max}" if sampler else "-",
            "seeds": len(seeds),
            "dtype": "Fraction" if inst.Q.dtype == object else str(inst.Q.dtype),
            "bounds_width": int((inst.upper - inst.lower).max()),
            "policy": spec.policy,
            "seed_feasible_share": gate.seed_feasible_share(inst, moves, seeds),
            "best_f": best,
            "best_share": best_count / len(seeds),
            "seed_f_sum": sum(objective(inst, np.asarray(x)) for x in seeds),
            "terminal_f_sum": terminal_sum,
        })
        del basis, moves
    return rows


def seed_reach(rows) -> float:
    """Share of the way from the seeds to their instance's best value that
    the descents covered, pooled over all seeds: 1.0 when every seed ends
    at its instance's best."""
    gained = sum(r["seed_f_sum"] - r["terminal_f_sum"] for r in rows)
    possible = sum(r["seed_f_sum"] - r["seeds"] * r["best_f"] for r in rows)
    return float(gained / possible) if possible else 1.0


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYERS = ("graver", "seeds", "solver", "problems", "cli")
COUNTS = ("graver.elements", "graver.sampler_draws", "solver.moves_examined", "solver.steps")


def unit_of(name: str) -> str:
    if "ns_per_" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count" if name in COUNTS else "ratio"


def layer_values(spans) -> dict:
    """Per-layer times, counts and ratios of one traced pass."""
    from spans import self_time_by_layer

    def of(name):
        return [s for s in spans if s[1] == name]

    def secs(rows):
        return sum(s[3] - s[2] for s in rows) / 1e9

    build, draws, aug = of("graver.build_basis"), of("graver.sampler_draw"), of("solver.augment")
    elements = sum(s[6]["elements"] for s in build)
    moves = sum(s[6]["moves"] for s in aug)
    steps = sum(s[6]["steps"] for s in aug)
    per_seed = sorted((s[3] - s[2]) / 1e9 for s in aug) or [0.0]
    solve_s = secs(of("solver.solve"))
    values = {
        "graver.build_s": secs(build),
        "graver.elements": elements,
        "graver.build_ns_per_element": secs(build) * 1e9 / elements if elements else 0.0,
        "graver.sampler_draws": len(draws),
        "graver.sampler_draw_s": secs(draws),
        "seeds.seed_s": secs(of("seeds.generate_seeds")),
        "solver.prep_s": secs(of("solver.prepare_moves")),
        "solver.augment_s": secs(aug),
        "solver.augment_p50_s": per_seed[len(per_seed) // 2],
        "solver.augment_p90_s": per_seed[min(len(per_seed) - 1, len(per_seed) * 9 // 10)],
        "solver.moves_examined": moves,
        "solver.steps": steps,
        "solver.accept_ratio": steps / moves if moves else 0.0,
        "solver.ns_per_move": secs(aug) * 1e9 / moves if moves else 0.0,
        "solver.overlap": secs(aug) / solve_s if solve_s else 0.0,
        "problems.load_s": secs(of("problems.load_instance")),
        "problems.objective_s": secs(of("problems.objective")),
    }
    self_s = self_time_by_layer(spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return values


def per_layer_metrics(runner: Runner, tracer, plain, traced, properties) -> dict:
    """Medians over the traced passes; counts must repeat exactly."""
    per_pass = [
        layer_values([s for s in tracer.spans if t["start_ns"] <= s[2] <= t["end_ns"]])
        for t in traced
    ]
    if any(p[c] != per_pass[0][c] for p in per_pass for c in COUNTS):
        runner.failed += 1
        runner.problems.append("per-layer counts differ between traced passes")
    values = {
        name: per_pass[0][name] if name in COUNTS else statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    values["solver.seed_feasible_share"] = statistics.fmean(
        r["seed_feasible_share"] for r in properties) if properties else 0.0
    values["cli.cpu_per_wall"] = (
        statistics.median(t["cpu"] / t["wall"] for t in plain) if runner.cli else 0.0)
    values["trace.overhead_s"] = (
        statistics.median(t["wall"] for t in traced) - statistics.median(t["wall"] for t in plain))
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graveropt" / "__init__.py").is_file():
        print(f"no graveropt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    label = f"{args.workload}_s{args.seed}_t{args.trace}" + ("_tiny" if args.tiny else "")
    work = WORK / label
    work.mkdir(parents=True, exist_ok=True)

    import workloads
    from spans import Tracer, install

    inputs = workloads.build_inputs(args.workload, args.seed, args.tiny, work / "instances")
    runner = Runner(args, inputs, work)
    tracer = Tracer()
    setup, plain, traced = [], [], []
    measured = 0.0
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if use_trace:
            install(tracer)
        elif not args.trace and len(setup) <= measured * SETUP_ROUNDS / args.seconds:
            setup.append(timed_setup(args, work / "setup"))
        try:
            timing = runner.one_pass()
        finally:
            tracer.restore()
        if timing is None:
            break
        (traced if use_trace else plain).append(timing)
        measured = sum(t["wall"] for t in plain + traced)
        if measured >= args.seconds and (not args.trace or len(traced) == len(plain)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        setup.append(timed_setup(args, work / "setup"))

    properties = gate_and_properties(runner) if runner.first_outputs is not None else []
    walls = [t["wall"] for t in plain]

    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} instance(s) per pass")
    for row in properties:
        shown = {k: v for k, v in row.items() if not k.endswith("_sum")}
        print("property " + " ".join(f"{k}={v}" for k, v in shown.items()))
    if properties:
        print(f"quality best_f_sum={sum(r['best_f'] for r in properties)} "
              f"best_share={statistics.fmean(r['best_share'] for r in properties):.4f} "
              f"seed_reach={seed_reach(properties):.6f} "
              f"failed_share={runner.failed / max(runner.attempted, 1):.4f}")
    if runner.first_digests:
        digest = hashlib.sha256("".join(runner.first_digests).encode()).hexdigest()
        print(f"digest {args.workload} {digest}")
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if walls:
        print(f"solve_s {tail(walls)}")

    metrics: dict[str, dict] = {}
    if not args.trace and walls and properties:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "seed_reach": {"value": seed_reach(properties), "unit": "ratio"},
        }
    elif args.trace and traced:
        metrics = per_layer_metrics(runner, tracer, plain, traced, properties)
        tracer.write(work / "spans.jsonl")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")

    record = run_record(args)
    print("run_record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if metrics else max(runner.failed, 1),
        "metrics": metrics,
    }
    with open(WORK / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "properties": properties, "result": result,
                   "passes": {"untraced": walls, "traced": [t["wall"] for t in traced]},
                   "setup_s": setup, "problems": runner.problems}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
