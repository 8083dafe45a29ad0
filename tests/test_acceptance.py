"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All eleven criteria are expected to pass.  Criterion 5 checks the
one global guarantee of Graver augmentation: for a separable convex
objective (linear term plus a diagonal Q >= 0) on an integer box, every
seed ends at the global optimum.  A coupled PSD Q is outside that
guarantee; ``test_05_coupled_psd_gap`` pins a small instance whose
certified Graver-local point lies above the optimum.
"""

import math
import time

import numpy as np
from scipy import stats

from graveropt import (
    Assignment,
    BrickCardinality,
    Cardinality,
    CoordinateCardinality,
    QuadraticInstance,
    assignment_basis_count,
    augment,
    brute_force_solve,
    build_basis,
    check_feasible,
    classify_landscape,
    enumerate_feasible,
    generate_instance,
    graver_assignment,
    graver_brick_cardinality,
    graver_coordinate_cardinality,
    graver_ones,
    hilbert_basis_cycles,
    objective,
    pottier_graver,
    realize_matrix,
    seeds_cbqp,
    seeds_qap,
    seeds_qsap1,
    seeds_qsap2,
    solve,
    verify_local_optimality,
)
from graveropt.cli import main as cli_main
from graveropt.problems import kind_for_class
from references import dense_rows, dense_set, hilbert_cycle_count


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def binary_instance(kind, b, c=None, Q=None, name="t"):
    size = kind.dim
    return QuadraticInstance(
        c=np.zeros(size, dtype=np.int64) if c is None else np.asarray(c),
        Q=np.zeros((size, size), dtype=np.int64) if Q is None else np.asarray(Q),
        kind=kind,
        b=np.atleast_1d(b),
        lower=np.zeros(size, dtype=np.int64),
        upper=np.ones(size, dtype=np.int64),
        name=name,
    )


def random_dims(rng, klass):
    """Random (n, k) with flat size <= 12 for the given class."""
    if klass == "CBQP":
        return int(rng.integers(4, 13)), None
    pairs = [(n, k) for n in range(2, 7) for k in range(2, 7) if n * k <= 12]
    n, k = pairs[int(rng.integers(len(pairs)))]
    return n, k


def test_01_cardinality_anchor():
    started = time.perf_counter()
    count = len(graver_ones(50))
    elapsed = time.perf_counter() - started
    ok = count == 1225 and elapsed < 1.0
    report_line(1, ok, f"|G| for the 50-slot cardinality row = {count} in {elapsed:.3f}s")
    assert count == 1225
    assert elapsed < 1.0


def test_02_formula_suite():
    started = time.perf_counter()
    failures = []
    for k in range(2, 7):
        if len(graver_ones(k)) != math.comb(k, 2):
            failures.append(f"ones k={k}")
        if len(hilbert_basis_cycles(k)) != hilbert_cycle_count(k):
            failures.append(f"cycles k={k}")
        for n in range(2, 7):
            if len(graver_brick_cardinality(n, k)) != n * math.comb(k, 2):
                failures.append(f"brick {n},{k}")
            if len(graver_coordinate_cardinality(n, k)) != k * math.comb(n, 2):
                failures.append(f"coordinate {n},{k}")
            if len(graver_assignment(n, k)) != assignment_basis_count(n, k):
                failures.append(f"assignment {n},{k}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    report_line(2, ok, f"closed-form counts for 2<=k,n<=6 in {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 10.0


def test_03_oracle_equivalence():
    started = time.perf_counter()
    kinds = [Cardinality(n) for n in range(2, 13)]
    kinds += [
        BrickCardinality(n, k)
        for n in range(1, 7)
        for k in range(2, 13)
        if n * k <= 12
    ]
    kinds += [
        CoordinateCardinality(n, k)
        for n in range(2, 13)
        for k in range(1, 7)
        if n * k <= 12
    ]
    kinds += [
        Assignment(n, k) for n in range(2, 7) for k in range(2, 7) if n * k <= 12
    ]
    mismatches = []
    for kind in kinds:
        structured = build_basis(kind)
        oracle = pottier_graver(realize_matrix(kind))
        if dense_set(structured) != dense_set(oracle):
            mismatches.append(kind)
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    report_line(3, ok, f"structured == completion oracle for {len(kinds)} kinds in {elapsed:.1f}s")
    assert not mismatches, mismatches
    assert elapsed < 60.0


def test_04_lawrence_anchors():
    small = dense_set(graver_assignment(2, 2))
    count33 = len(graver_assignment(3, 3))
    oracle33 = len(pottier_graver(realize_matrix(Assignment(3, 3))))
    ok = small == {(1, -1, -1, 1)} and count33 == 15 and oracle33 == 15
    report_line(4, ok, f"2x2 basis = {sorted(small)}, 3x3 cardinality = {count33}")
    assert small == {(1, -1, -1, 1)}
    assert count33 == 15 == oracle33


def separable_convex_instance(rng, klass, max_box_points=200_000):
    """Random instance with c + diagonal Q >= 0 on a non-binary integer box.

    Bounds are 0 <= x_i <= u_i with u_i in {1, 2, 3}, redrawn until the box
    holds at most ``max_box_points`` points so brute force stays cheap; on a
    0/1 box the diagonal would collapse to a linear term.  b = A w for a
    random box point w, so the instance is feasible by construction.
    """
    n, k = random_dims(rng, klass)
    kind = kind_for_class(klass, n, k)
    size = kind.dim
    while True:
        upper = rng.integers(1, 4, size=size).astype(np.int64)
        if np.prod(upper + 1) <= max_box_points:
            break
    witness = rng.integers(0, upper + 1).astype(np.int64)
    return QuadraticInstance(
        c=rng.integers(-10, 11, size=size).astype(np.int64),
        Q=np.diag(rng.integers(0, 6, size=size)).astype(np.int64),
        kind=kind,
        b=realize_matrix(kind) @ witness,
        lower=np.zeros(size, dtype=np.int64),
        upper=upper,
        name=f"{klass}-separable",
    )


def test_05_convex_exactness():
    """Separable convex objectives: every seed terminal is the optimum.

    For a separable convex objective on an integer box, a feasible point
    with no improving signed Graver move is globally optimal: the step to
    an optimum is a sign-compatible sum of basis elements, and for a
    separable convex function the gain of that sum is at most the sum of
    the single-move gains (Murota-Saito-Weismantel 2004).  So every seed,
    under either descent policy, must end at the brute-force optimum.

    The guarantee needs separability.  For a coupled PSD Q a point can be
    better than all of its signed basis moves yet lie above the optimum;
    ``test_05_coupled_psd_gap`` pins a 4-variable instance that shows it.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    stuck = {"first": 0, "best": 0}
    instances = 0
    examined_seeds = 0
    for klass in ("CBQP", "QSAP1", "QSAP2", "QAP"):
        for _ in range(100):
            inst = separable_convex_instance(rng, klass)
            truth = brute_force_solve(inst)
            count = truth.feasible_count
            picks = sorted(rng.choice(count, size=min(5, count), replace=False))
            seeds = [truth.points[i] for i in picks]
            basis = build_basis(inst.kind)
            instances += 1
            examined_seeds += len(seeds)
            for policy in stuck:
                report = solve(inst, seeds=seeds, policy=policy, basis=basis)
                if any(r.terminal_f != truth.best_f for r in report.results):
                    stuck[policy] += 1
    elapsed = time.perf_counter() - started
    ok = not any(stuck.values()) and elapsed < 120.0
    report_line(
        5,
        ok,
        f"separable convex on integer boxes: {stuck['first']}/{instances} (first), "
        f"{stuck['best']}/{instances} (best) instances had a seed terminate above "
        f"the optimum ({examined_seeds} seeds, {elapsed:.1f}s)",
    )
    assert elapsed < 120.0
    assert stuck == {"first": 0, "best": 0}, (
        f"instances with a seed stuck above the optimum, by policy: {stuck} of "
        f"{instances}; Graver augmentation must be exact for separable convex "
        "objectives on integer boxes"
    )


def test_05_coupled_psd_gap():
    """Pinned data for the limit of criterion 5: a coupled PSD Q breaks it.

    Q = M'M is PSD but not diagonal.  x = (0,0,1,1) has f = -1 and every
    feasible swap from it has f >= 4, so it is certified Graver-local and
    augmentation stays there, while the global optimum is f = -4 at
    (1,1,0,0).  The improving step (1,1,-1,-1) is a sum of two swaps whose
    cross term in Q is negative, so neither swap alone improves.
    """
    M = np.array([[-2, 1, -1, 1], [2, -2, -1, 1]], dtype=np.int64)
    Q = M.T @ M
    assert Q.tolist() == [[8, -6, 0, 0], [-6, 5, 1, -1], [0, 1, 2, -2], [0, -1, -2, 2]]
    inst = binary_instance(Cardinality(4), [2], c=[-4, -1, -2, 1], Q=Q, name="coupled-psd-gap")
    basis = build_basis(inst.kind)
    x = np.array([0, 0, 1, 1], dtype=np.int64)

    assert objective(inst, x) == -1
    assert verify_local_optimality(inst, basis, x) == []
    swaps = [x + s * g for g in dense_rows(basis) for s in (1, -1)]
    assert min(objective(inst, y) for y in swaps if check_feasible(inst, y)) == 4
    for policy in ("first", "best"):
        assert augment(inst, basis, x, policy=policy).terminal_f == -1

    truth = brute_force_solve(inst)
    assert truth.best_f == -4
    assert truth.optima.tolist() == [[1, 1, 0, 0]]


def test_06_exhaustive_seed_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = []
    for klass in ("CBQP", "QSAP1", "QSAP2", "QAP"):
        for trial in range(50):
            n, k = random_dims(rng, klass)
            inst = generate_instance(rng, klass, n, k)
            truth = brute_force_solve(inst)
            report = solve(inst, seeds=list(enumerate_feasible(inst)))
            if report.best.terminal_f != truth.best_f:
                failures.append((klass, trial, "objective"))
                continue
            got = {x.tobytes() for x in report.best_points}
            want = {np.asarray(x).tobytes() for x in truth.optima}
            if got != want:
                failures.append((klass, trial, "degenerate optima"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 300.0
    report_line(6, ok, f"200 exhaustively seeded instances exact in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0


def test_07_local_optimality_certificates():
    rng = np.random.default_rng(123)
    checked = 0
    bad = 0
    for klass in ("CBQP", "QSAP1", "QSAP2", "QAP"):
        for trial in range(5):
            n, k = random_dims(rng, klass)
            inst = generate_instance(rng, klass, n, k)
            basis = build_basis(inst.kind)
            report = solve(inst, seed_count=10, rng_seed=trial, basis=basis)
            for r in report.results:
                checked += 1
                if verify_local_optimality(inst, basis, r.terminal_x):
                    bad += 1
    ok = bad == 0
    report_line(7, ok, f"{checked} terminals re-verified by an independent pass, {bad} violations")
    assert bad == 0


def test_08_seed_feasibility_and_coverage():
    started = time.perf_counter()
    draws = 10_000
    alpha = 1e-3
    problems = []

    rng = np.random.default_rng(31)
    cbqp = seeds_cbqp(rng, 4, 2, draws)
    inst = binary_instance(Cardinality(4), [2])
    if not all(check_feasible(inst, x) for x in cbqp):
        problems.append("cbqp feasibility")
    counts = {}
    for x in cbqp:
        counts[tuple(x)] = counts.get(tuple(x), 0) + 1
    if len(counts) != math.comb(4, 2):
        problems.append("cbqp coverage")
    if stats.chisquare(list(counts.values())).pvalue < alpha:
        problems.append("cbqp uniformity")

    rng = np.random.default_rng(32)
    q1 = seeds_qsap1(rng, 2, 3, [1, 2], draws)
    inst = binary_instance(BrickCardinality(2, 3), [1, 2])
    if not all(check_feasible(inst, x) for x in q1):
        problems.append("qsap1 feasibility")
    counts = {}
    for x in q1:
        counts[tuple(x)] = counts.get(tuple(x), 0) + 1
    if len(counts) != 9:
        problems.append("qsap1 coverage")
    if stats.chisquare(list(counts.values())).pvalue < alpha:
        problems.append("qsap1 uniformity")

    rng = np.random.default_rng(33)
    q2 = seeds_qsap2(rng, 3, 2, [1, 2], draws)
    inst = binary_instance(CoordinateCardinality(3, 2), [1, 2])
    if not all(check_feasible(inst, x) for x in q2):
        problems.append("qsap2 feasibility")
    counts = {}
    for x in q2:
        counts[tuple(x)] = counts.get(tuple(x), 0) + 1
    if len(counts) != 9:
        problems.append("qsap2 coverage")
    if stats.chisquare(list(counts.values())).pvalue < alpha:
        problems.append("qsap2 uniformity")

    # QAP walk: feasibility and coverage only, uniformity deliberately unchecked
    rng = np.random.default_rng(34)
    basis = graver_assignment(3, 3)
    b = np.ones(6, dtype=np.int64)
    qap = seeds_qap(rng, 3, 3, b, draws, basis)
    inst = binary_instance(Assignment(3, 3), b)
    if not all(check_feasible(inst, x) for x in qap):
        problems.append("qap feasibility")
    if len({tuple(x) for x in qap}) != 6:
        problems.append("qap permutation coverage")

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 120.0
    report_line(8, ok, f"4 samplers x {draws} draws in {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 120.0


def test_09_landscape_regimes():
    # convex objective: every seed reaches the single global value
    rng = np.random.default_rng(0)
    convex_inst = generate_instance(rng, "CBQP", 10, convex=True)
    convex = solve(convex_inst, seed_count=50, rng_seed=0)

    # mild ruggedness: two terminal values, most seeds at the best one
    rng = np.random.default_rng(21)
    easy_inst = generate_instance(rng, "CBQP", 12, value_range=(-30, 30))
    easy = solve(easy_inst, seed_count=60, rng_seed=0)

    # strong ruggedness: many terminal values, best reached by a minority
    rng = np.random.default_rng(0)
    hard_inst = generate_instance(rng, "CBQP", 16, value_range=(-50, 50))
    hard = solve(hard_inst, seed_count=60, rng_seed=0)

    got = (
        classify_landscape(convex),
        classify_landscape(easy),
        classify_landscape(hard),
    )
    detail = (
        f"convex: {convex.distinct_terminal_values} value(s) -> {got[0]}; "
        f"easy: {easy.distinct_terminal_values} values, share {easy.best_share:.2f} -> {got[1]}; "
        f"hard: {hard.distinct_terminal_values} values, share {hard.best_share:.2f} -> {got[2]}"
    )
    ok = got == ("convex-like", "easy-nonconvex", "hard-nonconvex")
    report_line(9, ok, detail)
    assert convex.distinct_terminal_values == 1
    assert 1 < easy.distinct_terminal_values <= 5 and easy.best_share >= 0.5
    assert hard.distinct_terminal_values > 5 or hard.best_share < 0.5
    assert got == ("convex-like", "easy-nonconvex", "hard-nonconvex")


def test_10_cli_determinism(tmp_path):
    inst_dir = tmp_path / "inst"
    cli_main([
        "generate", "--class", "QSAP1", "--n", "6", "--k", "4",
        "--count", "2", "--rng-seed", "8", "--out-dir", str(inst_dir),
    ])
    files = sorted(str(p) for p in inst_dir.glob("*.json"))
    outputs = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1"), ("d", "8")):
        out = tmp_path / tag
        code = cli_main([
            "solve", *files, "--seeds", "24", "--rng-seed", "3",
            "--threads", threads, "--no-timing", "--out", str(out),
        ])
        assert code == 0
        blob = (out / "summary.csv").read_bytes()
        for res in sorted(out.glob("*.result.json")):
            blob += res.read_bytes()
        outputs.append(blob)
    ok = all(o == outputs[0] for o in outputs)
    report_line(10, ok, "solve outputs byte-identical at parallelism 1 and 8, twice each")
    assert ok


def test_11_scaling_ladder():
    ladder = [(3, 12), (3, 15), (3, 18), (3, 20), (4, 15), (5, 18), (6, 18), (6, 20)]
    rng = np.random.default_rng(0)
    sizes = []
    times = []
    slow = []
    for k, n in ladder:
        inst = generate_instance(rng, "QSAP1", n, k)
        started = time.perf_counter()
        solve(inst, seed_count=k * n, rng_seed=0)
        elapsed = time.perf_counter() - started
        sizes.append(k * n)
        times.append(elapsed)
        if elapsed >= 60.0:
            slow.append((k, n, elapsed))
    slope = np.polyfit(sizes, np.log(times), 1)[0]
    ok = not slow and slope > 0
    report_line(
        11,
        ok,
        "ladder times "
        + ", ".join(f"{s}:{t:.2f}s" for s, t in zip(sizes, times))
        + f"; log-time slope {slope:.4f}/unit",
    )
    assert not slow, slow
    assert slope > 0
