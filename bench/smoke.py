"""Smoke test of the benchmark at toy sizes.

    python3 bench/smoke.py

Checks that every workload, untraced and traced, prints each metric named
in BENCHMARK.json with its unit and a correct result; that the same seed
reproduces the same output digest; that the gate trips on a corrupted
terminal point and agrees with ``verify_local_optimality``; and that a
copy without ``src/`` exits nonzero without printing a result.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "smoke"


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke FAIL: {what}")
        sys.exit(1)


def check_output(workload: str, trace: int, spec: dict) -> str:
    done = run(["bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--tiny"])
    label = f"{workload} trace={trace}"
    check(done.returncode == 0, f"{label} exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label} result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label} not correct")
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted), f"{label} metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{label} unit of {m['name']}")
        check(isinstance(got["value"], (int, float)), f"{label} value of {m['name']}")
        printed = [ln for ln in lines if ln.startswith(f"metric {m['name']} ")]
        check(len(printed) == 1 and printed[0].endswith(" " + m["unit"]),
              f"{label} printed line for {m['name']}")
    return next(ln for ln in lines if ln.startswith("digest "))


def check_gate() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import gate
    import workloads
    from graveropt import build_basis, solve, verify_local_optimality

    inputs = workloads.build_inputs("exact-box", 5, True, WORK / "gate")
    for inst, spec, _ in inputs:
        report = solve(inst, policy=spec.policy, rng_seed=5)
        basis = build_basis(inst.kind)
        moves = gate.padded_moves(basis)
        check(not gate.check_report(inst, report, basis, moves), f"gate rejects {inst.name}")

        bad = report.results[0]
        flipped = bad.terminal_x.copy()
        flipped[0] = inst.upper[0] + 1
        report.results[0] = replace(bad, terminal_x=flipped)
        check(gate.check_report(inst, report, basis, moves) != [], f"out-of-box point passes {inst.name}")
        report.results[0] = replace(bad, terminal_f=bad.terminal_f - 1)
        check(gate.check_report(inst, report, basis, moves) != [], f"wrong objective passes {inst.name}")
        report.results[0] = bad
        report.best = replace(report.best, terminal_x=report.seeds[0])
        if verify_local_optimality(inst, basis, report.seeds[0]):
            check(gate.check_report(inst, report, basis, moves) != [],
                  f"uncertified best point passes {inst.name}")
        for x in report.seeds[:5] + [r.terminal_x for r in report.results[:5]]:
            check(gate.improving_moves(inst, basis, moves, x)
                  == sorted(verify_local_optimality(inst, basis, np.asarray(x))),
                  f"certificate disagrees with verify_local_optimality on {inst.name}")


def check_bare_copy() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["bench/run.py", "--workload", "qap", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check(done.returncode != 0, "copy without src/ exits 0")
    check('"correct"' not in done.stdout, "copy without src/ prints a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        first = check_output(workload, 0, spec)
        check(check_output(workload, 1, spec) == first, f"{workload} digest differs between runs")
    check_gate()
    check_bare_copy()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
