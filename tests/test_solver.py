import contextlib
import functools
import hashlib
import math
import signal
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graveropt import (
    Cardinality,
    Explicit,
    InfeasibleError,
    QuadraticInstance,
    augment,
    brute_force_solve,
    build_basis,
    classify_landscape,
    enumerate_feasible,
    generate_instance,
    graver_assignment,
    graver_ones,
    load_instance,
    objective,
    parse_instance,
    pottier_graver,
    serialize_instance,
    solve,
    verify_local_optimality,
)
from graveropt import graver, oracle, problems, solver
from graveropt.problems import _int64_safe, _objective_scalar
from graveropt.solver import POLICIES, _Lockstep, prepare_moves
from references import basis_of, dense_rows


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


def report_signature(report):
    return [
        (r.seed_index, r.terminal_f, r.steps, r.terminal_x.tobytes())
        for r in report.results
    ]


class TestAugment:
    def test_convex_instance_all_seeds_reach_optimum(self):
        # pinned PSD instance where every feasible point descends to the optimum
        rng = np.random.default_rng(3)
        inst = generate_instance(rng, "CBQP", 4, convex=True)
        assert inst.b[0] == 2
        truth = brute_force_solve(inst)
        basis = build_basis(inst.kind)
        for seed in enumerate_feasible(inst):
            res = augment(inst, basis, seed)
            assert res.terminal_f == truth.best_f

    def test_empty_basis_returns_seed(self):
        kind = Explicit.from_matrix(np.eye(2, dtype=np.int64))
        inst = QuadraticInstance(
            c=np.array([1, -1]),
            Q=np.eye(2, dtype=np.int64),
            kind=kind,
            b=[1, 0],
            lower=[0, 0],
            upper=[1, 1],
        )
        empty = basis_of(2, [])
        res = augment(inst, empty, [1, 0])
        assert res.steps == 0
        assert list(res.terminal_x) == [1, 0]

    def test_concave_plateau_never_moves(self):
        # all feasible points of -I on the b=1 slice share f=-1; deltas are 0, not accepted
        inst = binary_instance(Cardinality(3), [1], Q=-np.eye(3, dtype=np.int64))
        for seed in np.eye(3, dtype=np.int64):
            res = augment(inst, graver_ones(3), seed)
            assert res.steps == 0
            assert res.terminal_f == -1

    def test_infeasible_seed_rejected(self):
        inst = binary_instance(Cardinality(3), [2])
        with pytest.raises(InfeasibleError):
            augment(inst, graver_ones(3), [1, 0, 0])

    @pytest.mark.parametrize("entry", ["augment", "solve", "verify"])
    def test_non_integer_points_are_refused(self, entry):
        # 1.7 used to be truncated to 1 and descended from; 2.0 still passes
        inst = generate_instance(np.random.default_rng(4), "QSAP1", 4, 3)
        seed = solve(inst, seed_count=1).seeds[0]
        basis = build_basis(inst.kind)
        run = {"augment": lambda x: augment(inst, None, x).terminal_x,
               "solve": lambda x: solve(inst, seeds=[seed, x]).results[1].terminal_x,
               "verify": lambda x: verify_local_optimality(inst, basis, x)}[entry]
        spoiled = seed.astype(float)
        spoiled[0] += 0.7
        label = "x" if entry == "verify" else "seeds"
        with pytest.raises(ValueError, match=f"{label} has an entry that is not an integer"):
            run(spoiled)
        assert np.array_equal(run(seed.astype(float)), run(seed))

    def test_terminal_objective_consistent(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = generate_instance(rng, "QSAP2", 3, 3)
            report = solve(inst, seed_count=5, rng_seed=0)
            for r in report.results:
                assert r.terminal_f == objective(inst, r.terminal_x)

    def test_strict_descent(self):
        rng = np.random.default_rng(10)
        inst = generate_instance(rng, "CBQP", 10)
        basis = build_basis(inst.kind)
        for seed in enumerate_feasible(inst)[:20]:
            res = augment(inst, basis, seed)
            if res.steps > 0:
                assert res.terminal_f < objective(inst, seed)
            else:
                assert res.terminal_f == objective(inst, seed)

    @pytest.mark.parametrize("policy", ["first", "best"])
    def test_certificate_both_policies(self, policy):
        rng = np.random.default_rng(11)
        inst = generate_instance(rng, "CBQP", 9)
        basis = build_basis(inst.kind)
        for seed in enumerate_feasible(inst)[:15]:
            res = augment(inst, basis, seed, policy=policy)
            assert verify_local_optimality(inst, basis, res.terminal_x) == []

    def test_bad_policy(self):
        inst = binary_instance(Cardinality(3), [1])
        with pytest.raises(ValueError):
            augment(inst, graver_ones(3), [1, 0, 0], policy="steepest")

    def test_bad_policy_fails_before_any_work(self, monkeypatch):
        # a bad policy fails at once: no completion basis, no seeds, no engine
        def refuse(*args, **kwargs):
            raise AssertionError("worked before checking the policy")

        monkeypatch.setattr(oracle, "pottier_graver", refuse)
        monkeypatch.setattr(solver, "build_basis", refuse)
        monkeypatch.setattr(solver, "generate_seeds", refuse)
        monkeypatch.setattr(solver, "prepare_moves", refuse)
        explicit = QuadraticInstance(
            c=np.array([3, 1, 4, 1]), Q=np.zeros((4, 4), dtype=np.int64),
            kind=Explicit.from_matrix([[1, 1, 1, 1]]), b=[2],
            lower=np.zeros(4, dtype=np.int64), upper=np.ones(4, dtype=np.int64),
        )
        qsap = generate_instance(np.random.default_rng(1), "QSAP1", 3, 3)
        message = r"policy must be one of \('first', 'best'\)"
        with pytest.raises(ValueError, match=message):
            solve(explicit, seeds=[[1, 1, 0, 0]], policy="worst")
        with pytest.raises(ValueError, match=message):
            solve(qsap, policy="worst")
        for inst in (explicit, qsap):
            with pytest.raises(ValueError, match=message):
                augment(inst, None, np.zeros(inst.size, dtype=np.int64), policy="worst")


class TestSolve:
    def test_exhaustive_seeding_is_exact(self):
        rng = np.random.default_rng(12)
        for klass, n, k in [("CBQP", 10, None), ("QSAP1", 3, 3), ("QSAP2", 3, 3), ("QAP", 3, 3)]:
            inst = generate_instance(rng, klass, n, k)
            truth = brute_force_solve(inst)
            report = solve(inst, seeds=list(enumerate_feasible(inst)))
            assert report.best.terminal_f == truth.best_f
            got = {x.tobytes() for x in report.best_points}
            want = {np.asarray(x).tobytes() for x in truth.optima}
            assert got == want  # all degenerate optima reported

    def test_single_feasible_point(self):
        inst = binary_instance(Cardinality(3), [3], c=np.array([1, 2, 3]))
        report = solve(inst, seed_count=6, rng_seed=0)
        assert report.distinct_terminal_values == 1
        assert report.best.terminal_f == 6

    def test_nonconvex_reaches_multiple_terminals(self):
        rng = np.random.default_rng(8)
        inst = generate_instance(rng, "CBQP", 12, value_range=(-30, 30))
        report = solve(inst, seed_count=60, rng_seed=0)
        assert report.distinct_terminal_values >= 2
        assert report.landscape != "convex-like"

    def test_determinism_across_parallelism(self, tmp_path):
        # the library runs every seed in one process and rejects other
        # parallelism; the CLI's output does not depend on --threads
        from graveropt import save_instance
        from graveropt.cli import main

        rng = np.random.default_rng(7)
        paths = []
        for i in range(3):
            inst = generate_instance(rng, "QSAP1", 6, 4, name=f"q{i}")
            paths.append(str(tmp_path / f"q{i}.json"))
            save_instance(inst, paths[-1])
        r1 = solve(load_instance(paths[0]), seed_count=24, rng_seed=5)
        r1b = solve(load_instance(paths[0]), seed_count=24, rng_seed=5)
        assert report_signature(r1) == report_signature(r1b)
        with pytest.raises(ValueError, match="one process"):
            solve(load_instance(paths[0]), seed_count=24, rng_seed=5, parallelism=8)
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}"
            assert main(["solve", *paths, "--seeds", "24", "--rng-seed", "5", "--threads", threads,
                         "--no-timing", "--per-seed-csv", "--out", str(out)]) == 0
            outputs.append([p.read_bytes() for p in sorted(out.iterdir())])
        assert outputs[0] == outputs[1]
        rows = (tmp_path / "t1" / "q0.seeds.csv").read_text().splitlines()[1:]
        assert rows == [f"{r.seed_index},{r.terminal_f!r},{r.steps}" for r in r1.results]

    def test_determinism_best_policy(self):
        # lockstep seeds take the moves of lone-seed descents
        rng = np.random.default_rng(7)
        inst = generate_instance(rng, "QSAP2", 4, 3)
        a = solve(inst, seed_count=12, rng_seed=2, policy="best")
        b = solve(inst, seed_count=12, rng_seed=2, policy="best")
        assert report_signature(a) == report_signature(b)
        basis = build_basis(inst.kind)
        for r, seed in zip(a.results, a.seeds):
            lone = augment(inst, basis, seed, policy="best")
            assert (lone.terminal_f, lone.steps, lone.moves_scanned) == (
                r.terminal_f, r.steps, r.moves_scanned)
            assert np.array_equal(lone.terminal_x, r.terminal_x)

    def test_best_is_minimum_of_terminals(self):
        rng = np.random.default_rng(15)
        inst = generate_instance(rng, "QAP", 3, 3)
        report = solve(inst, seed_count=10, rng_seed=0)
        assert report.best.terminal_f == min(r.terminal_f for r in report.results)
        assert sum(report.terminal_value_counts.values()) == report.seed_count

    def test_sampler_backed_basis(self):
        # an assignment instance stores no basis: every step enumerates the
        # liftings of lengths 2..n that fit the box on the room graph and
        # takes the first improving one (the lowest under "best"); brute
        # force over the closed form finds the same moves
        assisted = set()
        for instance_seed, n, seed_count, rng_seed in ((16, 5, 10, 3), (3, 4, 6, 3)):
            inst = generate_instance(np.random.default_rng(instance_seed), "QAP", n, n)
            full = graver_assignment(n, n)
            for policy in POLICIES:
                report = solve(inst, seed_count=seed_count, rng_seed=rng_seed, policy=policy)
                for r, seed in zip(report.results, report.seeds):
                    x, fx, steps, examined = reference_descent(inst, None, seed, policy)
                    assert (r.terminal_f, r.steps, r.moves_scanned) == (fx, steps, examined)
                    assert np.array_equal(r.terminal_x, x)
                    assert r.certificate == "full"
                    assert verify_local_optimality(inst, full, r.terminal_x) == []
                if report.sampler_assisted:
                    assisted.add((n, policy))
        assert assisted == {(n, policy) for n in (4, 5) for policy in POLICIES}

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 4), k=st.integers(2, 4), cut=st.booleans(), draw=st.integers(0, 99))
    def test_assignment_takes_no_basis(self, n, k, cut, draw):
        # the room graph holds every lifting, so a basis passed in would be
        # ignored; it is refused instead, truncated or whole
        inst = generate_instance(np.random.default_rng(draw), "QAP", n, k)
        seed = solve(inst, seed_count=1, rng_seed=draw).seeds[0]
        basis = graver_assignment(n, k, max_cycle_len=2 if cut else None)
        with pytest.raises(ValueError, match="takes no basis"):
            solve(inst, basis=basis)
        with pytest.raises(ValueError, match="takes no basis"):
            augment(inst, basis, seed)
        assert augment(inst, None, seed).terminal_f == solve(inst, seeds=[seed]).best.terminal_f

    @pytest.mark.parametrize("dim, message", [(20, "dimension 20, the instance 12"),
                                              (12, r"A\.g != 0")], ids=["dim", "kernel"])
    def test_a_passed_basis_is_checked(self, dim, message):
        # a basis of the wrong dimension used to stop in an IndexError, and
        # swaps that cross bricks led every seed out of Ax = b
        inst = generate_instance(np.random.default_rng(4), "QSAP1", 4, 3)
        seed = solve(inst, seed_count=1).seeds[0]
        basis = build_basis(Cardinality(dim))
        with pytest.raises(ValueError, match=message):
            solve(inst, basis=basis)
        with pytest.raises(ValueError, match=message):
            augment(inst, basis, seed)
        own = solve(inst, basis=build_basis(inst.kind), rng_seed=3)
        assert report_signature(own) == report_signature(solve(inst, rng_seed=3))

    def test_assignment_builds_no_basis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an assignment basis was built")

        monkeypatch.setattr(solver, "build_basis", refuse)
        monkeypatch.setattr(graver, "graver_assignment", refuse)
        inst = generate_instance(np.random.default_rng(5), "QAP", 5, 4)
        for policy in POLICIES:
            report = solve(inst, seed_count=4, rng_seed=1, policy=policy)
            assert augment(inst, None, report.seeds[0], policy=policy).terminal_f == (
                report.results[0].terminal_f)

    def test_float_instance_runs_in_double(self):
        rng = np.random.default_rng(17)
        base = generate_instance(rng, "CBQP", 8)
        inst = QuadraticInstance(
            c=base.c / 4.0,
            Q=base.Q / 4.0,
            kind=base.kind,
            b=base.b,
            lower=base.lower,
            upper=base.upper,
            name="float",
        )
        a = solve(inst, seed_count=10, rng_seed=1)
        b = solve(inst, seed_count=10, rng_seed=1)
        assert isinstance(a.best.terminal_f, float)
        assert report_signature(a) == report_signature(b)
        basis = build_basis(inst.kind)
        for r in a.results:
            assert verify_local_optimality(inst, basis, r.terminal_x) == []

    def test_explicit_kind_uses_completion(self):
        kind = Explicit.from_matrix([[1, 1, 1, 1]])
        inst = QuadraticInstance(
            c=np.array([3, 1, 4, 1]),
            Q=np.zeros((4, 4), dtype=np.int64),
            kind=kind,
            b=[2],
            lower=np.zeros(4, dtype=np.int64),
            upper=np.ones(4, dtype=np.int64),
        )
        report = solve(inst, seeds=list(enumerate_feasible(inst)))
        assert report.best.terminal_f == 2  # picks the two cheapest coordinates


class TestScannerEquivalence:
    """Every arithmetic route through the descent engine takes identical moves."""

    @pytest.mark.parametrize("policy", ["first", "best"])
    @pytest.mark.parametrize("klass", ["CBQP", "QSAP1", "QSAP2", "QAP"])
    @settings(max_examples=12, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        divisor=st.integers(2, 60),
        n=st.integers(2, 3),
        k=st.integers(2, 3),
    )
    def test_arithmetic_routes_agree(self, policy, klass, draw, divisor, n, k):
        # int64 data, the same data over a divisor as Fractions (scaled back
        # to integers), and the data times 2**56 (exact Python ints)
        if klass == "CBQP":
            n, k = 2 * n + 1, None
        inst = generate_instance(np.random.default_rng(draw), klass, n, k)

        def variant(c, Q, name):
            return QuadraticInstance(
                c=c, Q=Q, kind=inst.kind, b=inst.b, lower=inst.lower, upper=inst.upper, name=name
            )

        def over(a):
            return np.array([Fraction(int(v), divisor) for v in a.flat], dtype=object).reshape(
                a.shape
            )

        big = 2**56
        routes = [
            inst,
            variant(over(inst.c), over(inst.Q), "fraction"),
            variant(inst.c.astype(object) * big, inst.Q.astype(object) * big, "huge"),
        ]
        runs = [solve(r, seed_count=6, rng_seed=draw % 97, policy=policy) for r in routes]
        base = runs[0].results
        for run, scale in zip(runs[1:], (Fraction(1, divisor), big)):
            assert len(run.results) == len(base)
            for a, b in zip(base, run.results):
                assert (a.steps, a.moves_scanned) == (b.steps, b.moves_scanned)
                assert np.array_equal(a.terminal_x, b.terminal_x)
                assert b.terminal_f == a.terminal_f * scale

    def test_huge_values_fall_back_to_exact(self):
        # at 2**56 the conservative int64 bound trips and moves are evaluated
        # in exact Python ints on object arrays
        big = 2**56
        inst = QuadraticInstance(
            c=np.full(25, big, dtype=np.int64),
            Q=np.full((25, 25), big, dtype=np.int64),
            kind=Cardinality(25),
            b=[2],
            lower=np.zeros(25, dtype=np.int64),
            upper=np.ones(25, dtype=np.int64),
        )
        basis = build_basis(inst.kind)
        engine = prepare_moves(inst, basis)
        assert engine.cg.dtype == object and engine.qgg.dtype == object
        x0 = np.zeros(25, dtype=np.int64)
        x0[:2] = 1
        res = augment(inst, basis, x0)
        assert repr(res.terminal_f) == repr(objective(inst, res.terminal_x))


class TestTerminalValues:
    """Terminal values are read off the engine's scaled integers, and
    ``objective`` is the independent reference they must match, type and
    all: a Fraction exactly where ``objective`` gives one."""

    @staticmethod
    def variant(inst, data, rng, lower, upper):
        def over(a, dens):
            return np.array([Fraction(int(v), int(d)) for v, d in zip(a.flat, rng.choice(dens, a.size))],
                            dtype=object).reshape(a.shape)

        c, Q = inst.c, inst.Q
        if data == "huge":  # int64 data past the guard: the engine runs on Python ints
            c, Q = c * 2**56, Q * 2**56
        elif data in ("fraction", "json"):  # small denominators: int64 after scaling
            c, Q = over(c, (1, 2, 3, 4, 5, 6, 7)), over(Q, (1, 2, 3, 4, 5, 6, 7))
        elif data == "primes":  # an LCM past the guard: object after scaling
            c, Q = over(c, PRIMES), over(Q, PRIMES)
        elif data == "whole":  # Fraction(v, 1) everywhere: scale 1, Fraction values
            c, Q = over(c, (1,)), over(Q, (1,))
        out = QuadraticInstance(c=c, Q=Q, kind=inst.kind, b=inst.b, lower=lower, upper=upper)
        if data == "json":  # whole Fractions come back as ints beside the others
            out = parse_instance(serialize_instance(out))
            assert {type(v) for v in out.Q.flat} <= {int, Fraction}
        return out

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("data", ["int", "huge", "fraction", "primes", "whole", "json"])
    @settings(max_examples=10, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        klass=st.sampled_from(["CBQP", "QSAP1", "QSAP2", "QAP"]),
        box=st.booleans(),
    )
    def test_values_match_objective(self, policy, data, draw, klass, box):
        rng = np.random.default_rng(draw)
        n, k = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        if klass == "CBQP":
            n, k = 2 * n + 2, None
        elif klass == "QAP":  # lengths 2..4 on the room graph
            n, k = n + 1, k + 1
        base = generate_instance(rng, klass, n, k)
        lower, upper = base.lower, base.upper
        if box:
            lower, upper = -rng.integers(0, 2, size=base.size), rng.integers(1, 4, size=base.size)
        inst = self.variant(base, data, rng, lower, upper)
        report = solve(inst, seed_count=int(rng.integers(1, 7)), rng_seed=draw % 89,
                       policy=policy)
        for r in report.results:
            assert repr(r.terminal_f) == repr(objective(inst, r.terminal_x))

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=15, deadline=None)
    @given(draw=st.integers(0, 2**32 - 1))
    def test_fractions_only_in_rows_at_zero(self, policy, draw):
        # coordinates fixed at 0 by the box carry every Fraction of Q in
        # their rows; objective never reads those rows, so values are ints
        rng = np.random.default_rng(draw)
        base = generate_instance(rng, "CBQP", 8)
        zero = rng.choice(8, 3, replace=False)
        free = np.setdiff1d(np.arange(8), zero)
        Q = base.Q.astype(object)
        Q[zero] = [[Fraction(int(v), 3) for v in row] for row in base.Q[zero]]
        upper = np.ones(8, dtype=np.int64)
        upper[zero] = 0
        inst = QuadraticInstance(c=base.c, Q=Q, kind=base.kind, b=[2], lower=np.zeros(8),
                                 upper=upper)
        seeds = [np.isin(np.arange(8), rng.choice(free, 2, replace=False)).astype(np.int64)
                 for _ in range(4)]
        for r in solve(inst, seeds=seeds, policy=policy).results:
            assert type(r.terminal_f) is int
            assert repr(r.terminal_f) == repr(objective(inst, r.terminal_x))

    @pytest.mark.parametrize("data", ["int", "fraction"])
    def test_long_cycle_steps_keep_values_exact(self, data):
        # a golden QAP, whose long-cycle steps update the engine's (Q+Q')x
        # through apply_support
        inst = TestGoldenOutputs.instance("QAP", 5, 5, 32, None, data)
        report = solve(inst, rng_seed=13)
        assert report.sampler_assisted
        for r in report.results:
            assert repr(r.terminal_f) == repr(objective(inst, r.terminal_x))

    def test_solve_never_evaluates_fraction_data_directly(self, monkeypatch):
        # small denominators scale into int64, prime ones past it
        base = generate_instance(np.random.default_rng(45), "QSAP1", 5, 3)
        rng = np.random.default_rng(1)
        exact = [self.variant(base, data, rng, base.lower, base.upper)
                 for data in ("fraction", "primes")]
        basis = build_basis(base.kind)
        assert [prepare_moves(inst, basis).qgg.dtype for inst in exact] == [np.int64, object]

        def refuse(*args):
            raise AssertionError("solve evaluated the objective directly")

        monkeypatch.setattr(problems, "_objective_scalar", refuse)
        reports = [solve(inst, rng_seed=13, policy=policy) for inst in exact for policy in POLICIES]
        monkeypatch.undo()
        for inst, report in zip([i for i in exact for _ in POLICIES], reports):
            for r in report.results:
                assert isinstance(r.terminal_f, Fraction)
                assert repr(r.terminal_f) == repr(objective(inst, r.terminal_x))


class TestInt64Guard:
    """One guard, max|Q| * norm**2 + max|c| * norm < 2**62, picks int64 or
    exact Python ints for ``objective`` and the engine alike; either side
    of the bound gives the same results."""

    N, B = 8, 3  # CBQP size and cardinality: binary points have |x|_1 = 3

    def instance(self, maxq):
        sign = np.sign(generate_instance(np.random.default_rng(5), "CBQP", self.N).Q)
        return binary_instance(Cardinality(self.N), [self.B], Q=sign * maxq)

    def test_bound(self):
        assert _int64_safe(np.array([2**61 - 1]), np.zeros((1, 1), dtype=np.int64), 2)
        assert not _int64_safe(np.array([2**61]), np.zeros((1, 1), dtype=np.int64), 2)
        # |int64 min| wraps in np.abs; the guard reads it as 2**63
        assert not _int64_safe(np.array([-(2**63)]), np.zeros((1, 1), dtype=np.int64), 1)
        assert _int64_safe(np.array([1e300]), np.zeros((1, 1)), 10**9)  # floats always pass

    def test_engine_switches_at_the_bound(self, monkeypatch):
        # the engine's norm: |x|_1 at most N in the 0/1 box, plus the
        # weight 2 of a basis move e_i - e_j
        top = (2**62 - 1) // (self.N + 2) ** 2
        basis = build_basis(Cardinality(self.N))
        runs = []
        for maxq, dtype in ((top, np.int64), (top + 1, object)):
            inst = self.instance(maxq)
            assert prepare_moves(inst, basis).qgg.dtype == dtype
            report = solve(inst, seed_count=12, rng_seed=3)
            with monkeypatch.context() as m:  # the same data forced through Python ints
                m.setattr(solver, "_int64_safe", lambda *args: False)
                assert prepare_moves(inst, basis).qgg.dtype == object
                forced = solve(inst, seed_count=12, rng_seed=3)
            assert report_signature(report) == report_signature(forced)
            for r in report.results:
                assert repr(r.terminal_f) == repr(_objective_scalar(inst, r.terminal_x))
            runs.append(report)
        # Q differs by a positive factor, so both sides take the same moves
        below, above = runs
        for a, b in zip(below.results, above.results):
            assert (a.steps, a.moves_scanned, a.terminal_x.tobytes()) == (
                b.steps, b.moves_scanned, b.terminal_x.tobytes())
            assert a.terminal_f * (top + 1) == b.terminal_f * top
        assert any(r.steps for r in below.results)

    def test_objective_switches_at_the_bound(self, monkeypatch):
        top = (2**62 - 1) // self.B**2
        x = np.zeros(self.N, dtype=np.int64)
        x[:self.B] = 1
        for maxq, exact_path in ((top, False), (top + 1, True)):
            inst = self.instance(maxq)
            calls = []

            def spy(*args):
                calls.append(1)
                return _objective_scalar(*args)

            monkeypatch.setattr(problems, "_objective_scalar", spy)
            value = objective(inst, x)
            monkeypatch.undo()
            assert bool(calls) == exact_path
            assert type(value) is int and value == _objective_scalar(inst, x)


class TestRoomPrefilter:
    """The room test, one byte per coordinate read at each entry's room
    id, lets a round evaluate only the moves that stay in the box, and a
    best-policy tile checks the box itself; both must report exactly what
    a full bounds check does."""

    DATA = ["int", "float", "object", "fraction", "mixed"]

    @staticmethod
    def reference_deltas(engine, s, seq):
        """Signed moves ``seq`` of seed ``s`` gathered and checked against
        the box: (their deltas, whether each stays in the box)."""
        e, sign = seq >> 1, 1 - 2 * (seq & 1)
        idx, val = engine.idxm[e], engine.valm[e]
        moved = engine.x[s][idx] + sign[:, None] * val
        feasible = np.all((moved >= engine.lower[idx]) & (moved <= engine.upper[idx]), axis=1)
        delta = sign * (engine.cg[e] + (engine.w[s][idx] * val).sum(axis=1)) + engine.qgg[e]
        return delta, feasible

    @classmethod
    def reference_scan(cls, engine, s, start, count):
        """Every move of seed ``s``'s window gathered and checked against the box."""
        seq = (start + np.arange(count, dtype=np.int64)) % engine.n_moves
        delta, feasible = cls.reference_deltas(engine, s, seq)
        keep = feasible & (delta < 0)
        return np.flatnonzero(keep), seq[keep], delta[keep]

    @staticmethod
    def random_elements(rng, n, basis):
        if basis == "pottier":  # entries up to 3, placed across word boundaries
            from graveropt import pottier_graver

            rows = dense_rows(pottier_graver([[1, 2, 3]]))
            offsets = rng.choice(n - 2, size=min(n - 2, 4), replace=False)
            return [np.pad(g, (o, n - 3 - o)) for o in offsets for g in rows]
        top = 1 if basis == "unit" else 3
        elements = []
        for _ in range(int(rng.integers(1, 60))):
            idx = np.sort(rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False))
            g = np.zeros(n, dtype=np.int64)
            g[idx] = rng.integers(1, top + 1, size=len(idx)) * rng.choice([-1, 1], size=len(idx))
            elements.append(g)
        if top > 1 and all(np.abs(g).max() == 1 for g in elements):
            elements[0] *= 2  # a few short draws can all be +-1, which makes a unit basis
        return elements

    @classmethod
    def random_engine(cls, n, basis, draw, data="int"):
        """(rng, engine) for one to four random seeds in a random box; float
        ``data`` is non-dyadic, so every w.g sum rounds; ``"object"`` data
        fails the int64 guard, so the engine runs on Python ints;
        ``"fraction"`` data is scaled by the LCM of its denominators; and
        ``"mixed"`` is float c on integer Q."""
        rng = np.random.default_rng(draw)
        lower = rng.integers(-2, 2, size=n)
        upper = lower + rng.integers(0, 4, size=n)  # widths 0..3
        seeds = [rng.integers(lower, upper + 1) for _ in range(int(rng.integers(1, 5)))]
        c, Q = rng.integers(-9, 10, size=n), rng.integers(-9, 10, size=(n, n))
        if data == "float":
            c = c / 7.3 + rng.normal(0, 1e-3, size=n)
            Q = Q / 3.1 + rng.normal(0, 1e-3, size=(n, n))
        elif data == "object":
            c, Q = c * 2**58, Q * 2**58
        elif data == "fraction":
            c = np.array([Fraction(int(v), 1 + i % 5) for i, v in enumerate(c)], dtype=object)
            Q = np.array([Fraction(int(v), 1 + i % 7) for i, v in enumerate(Q.ravel())],
                         dtype=object).reshape(n, n)
        elif data == "mixed":
            c = c / 7.3
        inst = QuadraticInstance(c=c, Q=Q, kind=Cardinality(n), b=[int(seeds[0].sum())],
                                 lower=lower, upper=upper)
        engine = prepare_moves(inst, basis_of(n, cls.random_elements(rng, n, basis)))
        assert engine.unit == (basis == "unit")
        assert (engine.c.dtype == object) == (data == "object")
        return rng, engine.start(seeds)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([5, 63, 64, 65, 129]),
        basis=st.sampled_from(["unit", "wide", "pottier"]),
        draw=st.integers(0, 2**32 - 1),
        data=st.sampled_from(DATA),
    )
    def test_matches_full_bounds_check(self, n, basis, draw, data):
        # float deltas too must equal the reference's bit for bit: its
        # row sum adds a row of up to 6 entries from 0, left to right
        rng, engine = self.random_engine(n, basis, draw, data)
        assert 1 <= engine.idxm.shape[1] <= 6
        n_moves = engine.n_moves
        every = np.arange(len(engine.x))
        for _ in range(4):  # scan, then take a move per seed, so the room changes
            # one round: seeds in random order, random windows, some of a full
            # pass (which wraps), each from a random start
            order = rng.permutation(every)
            start = rng.integers(n_moves, size=len(every))
            count = np.where(rng.random(len(every)) < 0.3, n_moves,
                             rng.integers(1, n_moves + 1, size=len(every)))
            slot, offset, moves, delta = engine._scan(order, start, count)
            movers, taken = [], []
            for i, s in enumerate(order):
                offs, seq, want = self.reference_scan(engine, s, start[i], count[i])
                mine = slot == i
                assert np.array_equal(offset[mine], offs)
                assert np.array_equal(moves[mine], seq)
                assert np.array_equal(delta[mine], want)
                if len(seq):
                    movers.append(s)
                    taken.append(seq[0])
            if not movers:
                break
            engine.apply_moves(np.array(movers), np.array(taken))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([5, 63, 64, 65, 129]),
        basis=st.sampled_from(["unit", "wide", "pottier"]),
        draw=st.integers(0, 2**32 - 1),
        round_=st.sampled_from([2, 3, 8, _Lockstep.ROUND]),
        data=st.sampled_from(DATA),
    )
    @example(n=64, basis="wide", draw=0, round_=2, data="int")  # 4 seeds, chunks of 1
    def test_best_tiles_match_full_bounds_check(self, n, basis, draw, round_, data):
        # a tile holds every move's delta, 0 where it leaves the box, and
        # at most ROUND moves; small rounds split a pass over several blocks,
        # and a ROUND below twice the seeds splits the seeds into chunks too
        rng, engine = self.random_engine(n, basis, draw, data)
        n_elements = engine.n_moves >> 1
        sizes, chunks, tile, chunk = [], [], engine._tile, engine._chunk

        def recorded(part, lo, hi):
            out = tile(part, lo, hi)
            sizes.append(out.size)
            return out

        def chunked(seeds):
            chunks.append(len(seeds))
            return chunk(seeds)

        for _ in range(4):  # tiles and best moves, then take them, so the points change
            seeds = rng.permutation(len(engine.x))[: int(rng.integers(1, len(engine.x) + 1))]
            lo = int(rng.integers(n_elements))
            hi = int(rng.integers(lo + 1, n_elements + 1))
            deltas = engine._tile(engine._chunk(seeds), lo, hi)
            chunks.clear()
            with mock.patch.object(_Lockstep, "ROUND", round_), \
                    mock.patch.object(engine, "_tile", recorded), \
                    mock.patch.object(engine, "_chunk", chunked):
                best = engine.best_moves(seeds)
            assert max(sizes) <= round_
            step = max(1, round_ // 2)  # seeds per chunk
            assert chunks == [len(seeds[at : at + step]) for at in range(0, len(seeds), step)]
            for i, s in enumerate(seeds):
                delta, feasible = self.reference_deltas(engine, s, np.arange(2 * lo, 2 * hi))
                # an infeasible move reads 0, or -0.0 on floats, which equals it
                assert np.array_equal(deltas[:, i], np.where(feasible, delta, 0))
                delta, feasible = self.reference_deltas(engine, s, np.arange(engine.n_moves))
                pass_ = np.where(feasible, delta, 0)
                j = int(np.argmin(pass_))  # the first lowest
                assert best[i] == (j if pass_[j] < 0 else -1)
            if not (best >= 0).any():
                break
            engine.apply_moves(seeds[best >= 0], best[best >= 0])

    def test_room_ids_take_a_quarter_of_the_basis_memory(self):
        inst = binary_instance(Cardinality(200), [100])
        basis = build_basis(inst.kind)
        engine = prepare_moves(inst, basis)
        assert engine.room_id.shape == basis.idx.shape
        assert 4 * engine.room_id.nbytes == basis.idx.nbytes + basis.val.nbytes


def lifting(cycle, size):
    """A cycle of the long-cycle phase, its t up coordinates then its t
    down coordinates, as a dense move of length ``size``."""
    g = np.zeros(size, dtype=np.int64)
    t = len(cycle) // 2
    g[cycle[:t]], g[cycle[t:]] = 1, -1
    return g


def cycle_key(g, k):
    """A signed lifting as (b_1, j_1, j_2, b_2, j_3, ..., j_t, b_t): b_1 is
    its smallest brick, and brick b_s goes up at slot j_s and down at slot
    j_{s+1}, with j_{t+1} = j_1."""
    up = {int(i) // k: int(i) % k for i in np.flatnonzero(g > 0)}
    down = {int(i) // k: int(i) % k for i in np.flatnonzero(g < 0)}
    b = min(up)
    key = [b, up[b]]
    while down[b] != key[1]:
        j = down[b]
        b = next(other for other, slot in up.items() if slot == j)
        key += [j, b]
    return tuple(key)


@functools.lru_cache(maxsize=None)
def closed_form(n, k):
    return graver_assignment(n, k)


@functools.lru_cache(maxsize=None)
def long_cycle_moves(n, k):
    """Every lifting of the n x k closed form, both signs, in the long-cycle
    phase's order: length ascending, then ``cycle_key`` ascending."""
    keyed = []
    for g in dense_rows(closed_form(n, k)):
        t = np.count_nonzero(g) // 2
        for sign in (1, -1):
            dense = sign * g
            keyed.append(((t, cycle_key(dense, k)), dense))
    return [g for _, g in sorted(keyed, key=lambda pair: pair[0])]


def reference_descent(inst, basis, x, policy):
    """One seed's descent, move by move, on direct objective values:
    (terminal x, terminal f, steps, moves examined).  With a basis, under
    "first" the cyclic scan resumes just past the last accepted move and
    every move scanned is examined; under "best" every pass scans all moves
    from the first and the first best wins.  For an assignment instance
    (``basis`` None) every pass tries the liftings in ``long_cycle_moves``
    order from the first, and only the feasible ones count as examined."""
    room = basis is None
    if room:
        moves = long_cycle_moves(inst.kind.n, inst.kind.k)
    else:
        moves = [sign * g for g in dense_rows(basis) for sign in (1, -1)]
    x = np.asarray(x, dtype=np.int64)
    fx = objective(inst, x)
    steps = examined = pointer = 0

    def fits(y):
        return np.all((y >= inst.lower) & (y <= inst.upper))

    while True:
        found = None
        for t in range(len(moves)):
            j = t if policy == "best" or room else (pointer + t) % len(moves)
            y = x + moves[j]
            if fits(y):
                examined += room
                fy = objective(inst, y)
                if fy < (fx if found is None else found[1]):
                    found = (y, fy, j)
                    if policy == "first":
                        break
        if moves and not room:
            examined += t + 1
        if found is None:
            return x, fx, steps, examined
        x, fx, j = found
        steps += 1
        pointer = (j + 1) % len(moves)


def lockstep_instance(rng, klass, n, k, top, data):
    """(instance, its seeds or None) for a lockstep test, in a 0..top box.

    ``klass`` "explicit" is a 2 x 6 matrix whose completion basis has 3 to 5
    entries, up to 3, with two to six seeds drawn from its feasible points.
    ``data`` "int" keeps the generated c and Q, "fraction" divides each
    entry by a denominator up to 7, and "float" is non-dyadic (c/7.3,
    Q/3.1, plus noise, so Q is not symmetric), so every w update and delta
    rounds."""
    seeds = None
    if klass == "explicit":
        A = np.array([[1, 1, 1, 1, 1, 1], [1, 2, 0, 1, 3, 0]])
        points = np.indices((top + 1,) * 6).reshape(6, -1).T
        b = points[rng.integers(len(points))] @ A.T
        pool = points[np.all(points @ A.T == b, axis=1)]
        seeds = list(pool[rng.integers(len(pool), size=int(rng.integers(2, 7)))])
        base = QuadraticInstance(c=rng.integers(-10, 11, size=6),
                                 Q=rng.integers(-10, 11, size=(6, 6)),
                                 kind=Explicit.from_matrix(A), b=b, lower=np.zeros(6),
                                 upper=np.full(6, top))
    else:
        base = generate_instance(rng, klass, 2 * n + 2 if klass == "CBQP" else n,
                                 None if klass == "CBQP" else k)
    c, Q = base.c, base.Q
    if data == "float":
        c = c / 7.3 + rng.normal(0, 1e-3, size=base.size)
        Q = Q / 3.1 + rng.normal(0, 1e-3, size=Q.shape)
    elif data == "fraction":
        c, Q = (
            np.array([Fraction(int(v), int(d)) for v, d in zip(a.flat, rng.integers(1, 8, a.size))],
                     dtype=object).reshape(a.shape)
            for a in (c, Q)
        )
    inst = QuadraticInstance(c=c, Q=Q, kind=base.kind, b=base.b, lower=base.lower,
                             upper=np.full(base.size, top))
    return inst, seeds


class TestLockstep:
    """Every seed of a lockstep run takes the moves of its own descent,
    whatever seeds share its rounds and however windows are cut."""

    @pytest.mark.parametrize("policy", ["first", "best"])
    @pytest.mark.parametrize("klass", ["CBQP", "QSAP1", "QSAP2", "QAP"])
    @settings(max_examples=20, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        k=st.integers(2, 3),
        data=st.sampled_from(["int", "fraction", "object"]),
        tiny=st.booleans(),
    )
    def test_seeds_match_reference_descent(self, policy, klass, draw, n, k, data, tiny):
        rng = np.random.default_rng(draw)
        if klass == "CBQP":
            n, k = 2 * n + 2, None
        base = generate_instance(rng, klass, n, k)
        c, Q = base.c, base.Q
        if data != "int":  # small denominators scale into int64, large primes do not
            dens = (1, 2, 3, 4, 5, 6, 7) if data == "fraction" else PRIMES
            c, Q = (
                np.array([Fraction(int(v), int(d)) for v, d in zip(a.flat, rng.choice(dens, a.size))],
                         dtype=object).reshape(a.shape)
                for a in (c, Q)
            )
        # a random box around the binary seeds
        lower = -rng.integers(0, 2, size=base.size)
        upper = rng.integers(1, 4, size=base.size)
        inst = QuadraticInstance(c=c, Q=Q, kind=base.kind, b=base.b, lower=lower, upper=upper)
        basis = None if klass == "QAP" else build_basis(inst.kind)
        # tiny rounds split seeds and windows at odd offsets, and best
        # passes of more than 3 elements over several element blocks
        cut = mock.patch.multiple(_Lockstep, ROUND=7, WINDOW=3, BLOCK=12)
        with cut if tiny else contextlib.nullcontext():
            report = solve(inst, seed_count=int(rng.integers(1, 7)), rng_seed=draw % 89,
                           policy=policy, basis=basis)
        for r, seed in zip(report.results, report.seeds):
            x, fx, steps, examined = reference_descent(inst, basis, seed, policy)
            assert (r.terminal_f, r.steps, r.moves_scanned) == (fx, steps, examined)
            assert np.array_equal(r.terminal_x, x)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("klass", ["CBQP", "QSAP1", "QSAP2", "QAP", "explicit"])
    @settings(max_examples=8, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        k=st.integers(2, 5),
        top=st.integers(1, 3),
        tiny=st.booleans(),
        cap=st.integers(2, 24),
    )
    def test_float_seeds_match_lone_seeds(self, policy, klass, draw, n, k, top, tiny, cap):
        # the float goldens hold quarters, which sum exactly in any order;
        # here every w update and delta rounds, and a seed's rounding must
        # not depend on the seeds that share its rounds: its w too ends
        # bit for bit where a lone seed's does.  The closed forms' moves
        # have two entries of +-1, which round alike in any form; the
        # explicit matrix's completion basis has 3 to 5 entries, up to 3.
        # QAP rounds apply cycles of 2 to 5 pairs, and a tiny CAP thins
        # some seeds' phases, so one round mixes lengths and thinned seeds
        rng = np.random.default_rng(draw)
        inst, seeds = lockstep_instance(rng, klass, n, k, top, "float")
        basis = solver._stored_basis(inst, None)
        cut = mock.patch.multiple(_Lockstep, ROUND=7, WINDOW=3, BLOCK=12, CAP=cap)
        with cut if tiny else contextlib.nullcontext():
            report = solve(inst, seed_count=int(rng.integers(2, 7)), rng_seed=draw % 89,
                           policy=policy, seeds=seeds, basis=basis)
            engine = prepare_moves(inst, basis).start(report.seeds)
            engine.descend(policy)
            for i, (r, seed) in enumerate(zip(report.results, report.seeds)):
                alone = augment(inst, basis, seed, policy)
                assert (r.steps, r.moves_scanned, repr(r.terminal_f)) == (
                    alone.steps, alone.moves_scanned, repr(alone.terminal_f))
                assert np.array_equal(r.terminal_x, alone.terminal_x)
                lone = prepare_moves(inst, basis).start([seed])
                lone.descend(policy)
                assert lone.w[0].tobytes() == engine.w[i].tobytes()

    @pytest.mark.parametrize("klass", ["CBQP", "QSAP1", "QSAP2", "explicit"])
    @settings(max_examples=12, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        k=st.integers(2, 3),
        top=st.integers(1, 3),
        data=st.sampled_from(["int", "fraction", "float"]),
        window=st.sampled_from([1, 3, 32, 256]),
        block=st.sampled_from(["window", 4096]),
        round_=st.sampled_from([7, 16_384]),
    )
    def test_window_shape_never_changes_outputs(self, klass, draw, n, k, top, data, window,
                                                block, round_):
        # under "first" the window after an accept, the block it doubles up
        # to and the round that holds the windows only batch the moves:
        # every seed's result, and its w bit for bit, is that of the
        # default shape
        rng = np.random.default_rng(draw)
        inst, seeds = lockstep_instance(rng, klass, n, k, top, data)
        basis = solver._stored_basis(inst, None)
        if seeds is None:
            seeds = solve(inst, seed_count=int(rng.integers(2, 7)), rng_seed=draw % 89,
                          basis=basis).seeds

        def run():
            engines = []

            def spy(*args):
                engines.append(prepare_moves(*args))
                return engines[-1]

            with mock.patch.object(solver, "prepare_moves", spy):
                report = solve(inst, seeds=seeds, basis=basis)
            (engine,) = engines
            w = engine.w.tolist() if engine.w.dtype == object else engine.w.tobytes()
            return [(r.steps, r.moves_scanned, r.terminal_x.tobytes(), repr(r.terminal_f))
                    for r in report.results], w

        want = run()
        shape = mock.patch.multiple(_Lockstep, WINDOW=window, ROUND=round_,
                                    BLOCK=window if block == "window" else block)
        with shape:
            assert run() == want

    @pytest.mark.parametrize("tiny", [False, True])
    def test_best_ties_go_to_the_first_move(self, tiny):
        # from e_0 the seven swaps to e_1..e_7 all improve by 8; a tiny
        # ROUND, below the 56 signed moves, splits the pass into blocks of
        # 3 elements and puts the tied moves in different blocks
        inst = binary_instance(Cardinality(8), [1], c=[9, 1, 1, 1, 1, 1, 1, 1])
        basis = build_basis(inst.kind)
        seed = np.eye(8, dtype=np.int64)[0]
        tied = [e for e, idx in enumerate(basis.idx.tolist()) if 0 in idx]
        assert len({e // 3 for e in tied}) == 3
        cut = mock.patch.multiple(_Lockstep, ROUND=7, WINDOW=3, BLOCK=12)
        with cut if tiny else contextlib.nullcontext():
            r = augment(inst, basis, seed, policy="best")
        x, fx, steps, examined = reference_descent(inst, basis, seed, "best")
        assert (r.terminal_f, r.steps, r.moves_scanned) == (fx, steps, examined) == (1, 1, 112)
        assert np.array_equal(r.terminal_x, x)


def rational_scale(inst):
    """The LCM of the denominators of c and Q: the factor the engine scales rational data by."""
    return math.lcm(*(Fraction(v).denominator for v in [*inst.c.flat, *inst.Q.flat]))


class TestLongCycles:
    """The long-cycle phase finds exactly the liftings that fit the box."""

    @staticmethod
    def phase_levels(engine, cap):
        """A ``"best"`` long-cycle phase at the engine's row 0 with ``CAP`` =
        ``cap``: per length, in order, the (cycles, deltas) it closes, and
        the phase's certificate.  No seed leaves a ``"best"`` phase, so it
        closes every length."""
        levels, close = [], _Lockstep._close

        def spied(self, *args):
            closed = close(self, *args)
            levels.append(closed[0][1:])
            return closed

        with mock.patch.object(_Lockstep, "CAP", cap), mock.patch.object(_Lockstep, "_close", spied):
            [(_, _, certificate)] = engine.long_cycle(np.array([0]), "best")
        return levels, certificate

    @settings(max_examples=60, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        k=st.integers(2, 4),
        top=st.integers(1, 2),
        data=st.sampled_from(["int", "fraction"]),
    )
    def test_enumeration_is_the_full_basis_in_the_box(self, draw, n, k, top, data):
        rng = np.random.default_rng(draw)
        base = generate_instance(rng, "QAP", n, k)
        c, Q = base.c, base.Q
        if data == "fraction":
            c, Q = (
                np.array([Fraction(int(v), int(d)) for v, d in zip(a.flat, rng.integers(1, 8, a.size))],
                         dtype=object).reshape(a.shape)
                for a in (c, Q)
            )
        inst = QuadraticInstance(
            c=c, Q=Q, kind=base.kind, b=base.b, lower=np.zeros(base.size, dtype=np.int64),
            upper=np.full(base.size, top, dtype=np.int64),
        )
        x = rng.integers(0, top + 1, size=inst.size)  # any point of the box
        t_full = min(n, k)
        engine = prepare_moves(inst, None).start([x])
        scale, fx = rational_scale(inst), objective(inst, x)
        got = []
        levels, certificate = self.phase_levels(engine, 10**9)
        assert len(levels) == t_full - 1 and certificate == "full"
        for t, (cycles, delta) in enumerate(levels, start=2):
            assert cycles.shape == (len(delta), 2 * t)
            for row, d in zip(cycles, delta):
                g = lifting(row, inst.size)
                got.append(tuple(g))
                assert d == scale * (objective(inst, x + g) - fx)
        want = {
            tuple(sign * g)
            for g in dense_rows(graver_assignment(n, k))
            for sign in (1, -1)
            if np.all((x + sign * g >= inst.lower) & (x + sign * g <= inst.upper))
        }
        assert len(got) == len(set(got))
        assert set(got) == want

    @settings(max_examples=40, deadline=None)
    @given(draw=st.integers(0, 2**32 - 1), n=st.integers(3, 5), k=st.integers(3, 5))
    def test_best_takes_the_lowest_cycle_on_float_c_and_integer_q(self, draw, n, k):
        # w is integer but every delta is a float, so the running low of a
        # "best" phase must be a float too, or a later cycle between the
        # truncated low and the true one replaces the lowest
        rng = np.random.default_rng(draw)
        base = generate_instance(rng, "QAP", n, k)
        inst = QuadraticInstance(c=rng.normal(0, 1, base.size), Q=np.sign(base.Q), kind=base.kind,
                                 b=base.b, lower=base.lower, upper=base.upper)
        x = solve(base, seed_count=1, rng_seed=draw % 97).seeds[0]
        engine = prepare_moves(inst, None).start([x])
        levels, _ = self.phase_levels(engine, 10**9)
        cycles = [row for rows, _ in levels for row in rows]
        deltas = np.concatenate([delta for _, delta in levels])
        j = int(np.argmin(deltas)) if len(deltas) else None  # the first lowest, lengths ascending
        [(taken, _, _)] = engine.long_cycle(np.array([0]), "best")
        if j is not None and deltas[j] < 0:
            assert np.array_equal(taken, cycles[j])
        else:
            assert taken is None

    def test_cycles_come_in_the_documented_order(self):
        rng = np.random.default_rng(5)
        inst = generate_instance(rng, "QAP", 5, 6)
        x = rng.integers(0, 2, size=inst.size)  # a random 0/1 point has more cycles than a seed
        engine = prepare_moves(inst, None).start([x])
        keys = []
        for cycles, _ in self.phase_levels(engine, 10**9)[0]:
            for row in cycles:
                keys.append((len(row), cycle_key(lifting(row, inst.size), 6)))
        assert len(keys) > 100
        assert keys == sorted(keys)

    @staticmethod
    def strided_cycles(x, n, k, cap):
        """Per length, the cycles that the long-cycle phase closes at 0/1 point
        ``x`` with ``CAP`` = ``cap``, found path by path in plain Python:
        each level's open paths, in lexicographic order, are cut to
        paths[i * len // cap] for i < cap when there are more than ``cap``."""
        up = x.reshape(n, k) == 0
        down = ~up

        def thin(paths):
            return paths if len(paths) <= cap else [paths[i * len(paths) // cap] for i in range(cap)]

        # a path lists its pairs (brick, slot up, slot down)
        paths = thin([[(b, j, d)] for b in range(n) for j in range(k) for d in range(k)
                      if j != d and up[b, j] and down[b, d]])
        levels = []
        for _ in range(1, min(n, k)):
            cycles, grown = [], []
            for path in paths:
                (b1, j1, _), (_, _, open_slot) = path[0], path[-1]
                used_b, used_s = {p[0] for p in path}, {p[1] for p in path} | {open_slot}
                for b in range(b1 + 1, n):
                    if b in used_b or not up[b, open_slot]:
                        continue
                    if down[b, j1]:
                        cycles.append(path + [(b, open_slot, j1)])
                    grown += [path + [(b, open_slot, d)] for d in range(k)
                              if down[b, d] and d not in used_s]
            levels.append([[b * k + j for b, j, _ in c] + [b * k + d for b, _, d in c] for c in cycles])
            paths = thin(grown)
        return levels

    def test_thinned_enumeration_is_a_feasible_subset(self):
        inst = generate_instance(np.random.default_rng(8), "QAP", 5, 5)
        seed = solve(inst, seed_count=1, rng_seed=2).seeds[0]
        engine = prepare_moves(inst, None).start([seed])
        full = {tuple(g) for g in long_cycle_moves(5, 5) if np.all(seed + g <= 1) and np.all(seed + g >= 0)}
        fx = objective(inst, seed)

        def cycles(cap):
            out, rows = [], []
            levels, certificate = self.phase_levels(engine, cap)
            for found, delta in levels:
                rows.append(found.tolist())
                for row, d in zip(found, delta):
                    g = lifting(row, inst.size)
                    out.append(tuple(g))
                    assert d == objective(inst, seed + g) - fx
            return out, certificate, rows

        everything, certificate, rows = cycles(10**9)
        assert set(everything) == full and certificate == "full"
        assert rows == self.strided_cycles(seed, 5, 5, 10**9)
        for cap in (4, 7, 19):
            thin, certificate, rows = cycles(cap)
            assert certificate == "thinned" and set(thin) < full and len(set(thin)) == len(thin)
            assert rows == self.strided_cycles(seed, 5, 5, cap)  # the evenly spaced subset
            assert cycles(cap) == (thin, certificate, rows)  # and again the same

    @settings(max_examples=12, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        k=st.integers(2, 5),
        top=st.integers(1, 2),
        policy=st.sampled_from(POLICIES),
    )
    def test_certificates_hold_against_the_full_basis(self, draw, n, k, top, policy):
        # a seed certified "full" has no improving element of the whole
        # closed form, whatever the box 0..u with u <= 2
        rng = np.random.default_rng(draw)
        base = generate_instance(rng, "QAP", n, k)
        inst = QuadraticInstance(c=base.c, Q=base.Q, kind=base.kind, b=base.b, lower=base.lower,
                                 upper=rng.integers(1, top + 1, size=base.size))
        report = solve(inst, seed_count=int(rng.integers(1, 4)), rng_seed=draw % 89, policy=policy)
        full = closed_form(n, k)
        for r in report.results:
            assert r.certificate == "full"
            assert verify_local_optimality(inst, full, r.terminal_x) == []

    def test_cap_thins_the_phase(self, monkeypatch):
        monkeypatch.setattr(_Lockstep, "CAP", 3)
        inst = generate_instance(np.random.default_rng(16), "QAP", 5, 5)
        capped = solve(inst, seed_count=8, rng_seed=3)
        assert "thinned" in {r.certificate for r in capped.results}
        again = solve(inst, seed_count=8, rng_seed=3)
        assert report_signature(again) == report_signature(capped)

    @settings(max_examples=30, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        k=st.integers(2, 5),
        data=st.sampled_from(["int", "fraction", "float", "mixed"]),
        policy=st.sampled_from(POLICIES),
        cap=st.integers(2, 24),
    )
    def test_replayed_phases_match_lone_seeds(self, draw, n, k, data, policy, cap):
        # seeds of one run share every phase, thinned or not; each result
        # must still be the one augment gives its seed alone, so a phase
        # keyed on too little shows
        rng = np.random.default_rng(draw)
        base = generate_instance(rng, "QAP", n, k)
        c, Q = base.c, base.Q
        if data == "fraction":
            c, Q = (np.array([Fraction(int(v), 3) for v in a.flat], dtype=object).reshape(a.shape)
                    for a in (c, Q))
        elif data == "float":
            c, Q = c / 7.0, Q / 3.0
        elif data == "mixed":  # object arrays of ints and floats
            c, Q = (np.array([v / 7.0 if v % 2 else int(v) for v in a.flat], dtype=object)
                    .reshape(a.shape) for a in (c, Q))
        inst = QuadraticInstance(c=c, Q=Q, kind=base.kind, b=base.b, lower=base.lower,
                                 upper=base.upper)
        pool = solve(base, seed_count=3, rng_seed=draw % 97).seeds
        seeds = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(2, 6)))]
        with mock.patch.object(_Lockstep, "CAP", cap):
            report = solve(inst, seeds=seeds, policy=policy, rng_seed=draw % 89)
            for r, seed in zip(report.results, seeds):
                alone = augment(inst, None, seed, policy)
                assert np.array_equal(r.terminal_x, alone.terminal_x)
                assert (r.terminal_f, r.steps, r.moves_scanned, r.sampler_assisted, r.certificate) == (
                    alone.terminal_f, alone.steps, alone.moves_scanned, alone.sampler_assisted,
                    alone.certificate,
                )

    def test_a_repeated_seed_replays_every_phase(self):
        # at CAP 10 every phase of this seed thins, and is replayed all the same
        inst = generate_instance(np.random.default_rng(8), "QAP", 5, 5)
        seed = solve(inst, seed_count=1, rng_seed=2).seeds[0]
        phases = []  # the seeds handed to batched phases
        run = _Lockstep.long_cycle

        def counted(self, seeds, *rest):
            phases.extend(seeds.tolist())
            return run(self, seeds, *rest)

        for cap, certificate in ((_Lockstep.CAP, "full"), (10, "thinned")):
            phases.clear()
            with mock.patch.object(_Lockstep, "long_cycle", counted), \
                    mock.patch.object(_Lockstep, "CAP", cap):
                one = solve(inst, seeds=[seed])
                alone = len(phases)
                two = solve(inst, seeds=[seed, seed])
            assert alone > 1 and len(phases) == 2 * alone  # the second solve ran as many
            assert set(phases[alone:]) == {0}  # all of them for seed 0
            first, second = two.results
            assert first.certificate == second.certificate == certificate
            for r in (second, one.best):
                assert np.array_equal(r.terminal_x, first.terminal_x)
                assert (r.steps, r.moves_scanned) == (first.steps, first.moves_scanned)

    @settings(max_examples=20, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        k=st.integers(2, 5),
        data=st.sampled_from(["int", "float"]),
        policy=st.sampled_from(POLICIES),
        cap=st.integers(2, 24),
        rng_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
    )
    def test_given_seeds_ignore_the_rng_seed(self, draw, n, k, data, policy, cap, rng_seeds):
        # descent draws nothing, thinned phases included: with the seeds
        # given, rng_seed changes the report's own field and nothing else
        base = generate_instance(np.random.default_rng(draw), "QAP", n, k)
        inst = base if data == "int" else QuadraticInstance(
            c=base.c / 7.0, Q=base.Q / 3.0, kind=base.kind, b=base.b, lower=base.lower,
            upper=base.upper)
        seeds = solve(base, seed_count=4, rng_seed=draw % 97).seeds
        with mock.patch.object(_Lockstep, "CAP", cap):
            a, b = (solve(inst, seeds=seeds, policy=policy, rng_seed=r) for r in rng_seeds)
        assert [(r.seed_index, r.terminal_f, r.steps, r.moves_scanned, r.certificate)
                for r in a.results] == [(r.seed_index, r.terminal_f, r.steps, r.moves_scanned,
                                         r.certificate) for r in b.results]
        assert all(np.array_equal(p.terminal_x, q.terminal_x) for p, q in zip(a.results, b.results))
        assert (a.terminal_value_counts, a.landscape) == (b.terminal_value_counts, b.landscape)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_float_phases_key_on_w(self, dtype):
        # float w is accumulated per step, so seeds at one x may hold
        # different w; here seed 1's differs by far more than a rounding
        rng = np.random.default_rng(3)
        base = generate_instance(rng, "QAP", 4, 4)
        inst = QuadraticInstance(c=(base.c / 7.0).astype(dtype), Q=(base.Q / 3.0).astype(dtype),
                                 kind=base.kind, b=base.b, lower=base.lower, upper=base.upper)
        seed = solve(base, seed_count=1, rng_seed=1).seeds[0]
        shift = rng.normal(0, 20, size=inst.size)
        both, lone = (prepare_moves(inst, None).start(seeds) for seeds in ([seed, seed], [seed]))
        both.w[1] += shift
        lone.w[0] += shift
        runs = both.descend("first")
        assert runs[1] != runs[0]
        assert runs[1] == lone.descend("first")[0]
        assert np.array_equal(both.x[1], lone.x[0])

    @settings(max_examples=25, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        k=st.integers(2, 5),
        count=st.integers(4, 12),
        cap=st.integers(2, 24),
        policy=st.sampled_from(POLICIES),
    )
    def test_batched_phases_match_lone_seeds_within_cap(self, draw, n, k, count, cap, policy):
        # a round runs its new phases as one batch, whose levels go on in
        # groups of whole seeds: no level holds more than CAP open paths
        # unless they are a lone seed's, and each seed's result is still
        # the one augment gives it alone
        inst = generate_instance(np.random.default_rng(draw), "QAP", n, k)
        drawn = solve(inst, seed_count=count, rng_seed=draw % 97).seeds
        seeds = list({x.tobytes(): x for x in drawn}.values())  # distinct, in drawn order
        held = []  # per level step, (open paths, seeds they belong to)
        grow = _Lockstep._grow

        def spied(self, linear, parent, sel):
            rows = sel[0]  # the seed of each path the level opens
            held.append((len(rows), len(set(rows.tolist()))))
            return grow(self, linear, parent, sel)

        with mock.patch.object(_Lockstep, "CAP", cap):
            with mock.patch.object(_Lockstep, "_grow", spied):
                report = solve(inst, seeds=seeds, policy=policy)
            for r, seed in zip(report.results, seeds):
                alone = augment(inst, None, seed, policy)
                assert np.array_equal(r.terminal_x, alone.terminal_x)
                assert (r.terminal_f, r.steps, r.moves_scanned, r.sampler_assisted, r.certificate) == (
                    alone.terminal_f, alone.steps, alone.moves_scanned, alone.sampler_assisted,
                    alone.certificate,
                )
        assert held and all(paths <= cap or owners == 1 for paths, owners in held)

    def test_a_thinned_batch_stays_within_memory(self):
        # bench-shaped 10 x 10 solves whose seeds all thin: 8 drawn seeds,
        # then their terminal points, which all certify in one round; one
        # batch of all their levels at once would peak several times higher
        base = generate_instance(np.random.default_rng(5), "QAP", 10, 10)
        witness = np.add.outer(np.arange(10), np.arange(10)) % 2 == 0  # checkerboard margins
        inst = QuadraticInstance(c=base.c, Q=base.Q, kind=base.kind,
                                 b=np.concatenate([witness.sum(axis=1), witness.sum(axis=0)]),
                                 lower=base.lower, upper=base.upper)

        def traced(**kwargs):
            tracemalloc.start()
            try:
                return solve(inst, **kwargs), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        drawn, first = traced(seed_count=8, rng_seed=5)
        ends = list({r.terminal_x.tobytes(): r.terminal_x for r in drawn.results}.values())
        again, second = traced(seeds=ends)
        assert len(ends) > 2 and {r.steps for r in again.results} == {0}
        assert {r.certificate for r in drawn.results + again.results} == {"thinned"}
        assert max(first, second) < 16 * 2**20

    def test_stored_bases_certify_in_full(self):
        inst = generate_instance(np.random.default_rng(7), "QSAP1", 4, 3)
        report = solve(inst, seed_count=5, rng_seed=1)
        assert {r.certificate for r in report.results} == {"full"}


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the enclosed block, instead of hanging, once it runs ``seconds``."""
    def stop(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFloatTermination:
    """Float data is evaluated in double precision with a strict <, and
    rounding could in principle let a descent cycle.  On badly scaled data
    every descent must still end, at a point that direct evaluation
    certifies."""

    @settings(max_examples=40, deadline=None)
    @given(
        draw=st.integers(0, 2**32 - 1),
        klass=st.sampled_from(["CBQP", "QSAP1", "QSAP2"]),
        top=st.integers(1, 3),
        policy=st.sampled_from(POLICIES),
    )
    def test_badly_scaled_descent_terminates_and_certifies(self, draw, klass, top, policy):
        rng = np.random.default_rng(draw)
        if klass == "CBQP":
            n, k = int(rng.integers(4, 31)), None
        else:
            k = int(rng.integers(2, 6))
            n = int(rng.integers(2, 30 // k + 1))
        base = generate_instance(rng, klass, n, k)
        # every entry scaled by its own factor in 1e-3..1e12
        c = base.c * 10.0 ** rng.uniform(-3, 12, size=base.c.shape)
        Q = base.Q * 10.0 ** rng.uniform(-3, 12, size=base.Q.shape)
        inst = QuadraticInstance(c=c, Q=Q, kind=base.kind, b=base.b, lower=base.lower,
                                 upper=np.full(base.size, top, dtype=np.int64))
        with time_limit(30):
            report = solve(inst, seed_count=int(rng.integers(1, 9)), rng_seed=draw % 89,
                           policy=policy)
        basis = build_basis(inst.kind)
        for r in report.results:
            assert verify_local_optimality(inst, basis, r.terminal_x) == []


class TestSeparableConvexExactness:
    """Criterion 5 as a property on random small explicit matrices: with a
    separable convex objective on a box, the complete Graver basis of A
    leads every seed to the global optimum (see ``test_05_convex_exactness``
    in ``test_acceptance.py``)."""

    @settings(max_examples=60, deadline=None)
    @given(draw=st.integers(0, 2**32 - 1), rows=st.integers(1, 2), cols=st.integers(3, 5))
    def test_every_seed_reaches_the_optimum(self, draw, rows, cols):
        rng = np.random.default_rng(draw)
        A = rng.integers(-2, 3, size=(rows, cols))
        assume(A.any())  # the completion oracle needs a nonzero matrix
        upper = rng.integers(1, 4, size=cols)
        inst = QuadraticInstance(
            c=rng.integers(-10, 11, size=cols),
            Q=np.diag(rng.integers(0, 6, size=cols)),
            kind=Explicit.from_matrix(A),
            b=A @ rng.integers(0, upper + 1),
            lower=np.zeros(cols, dtype=np.int64),
            upper=upper,
        )
        truth = brute_force_solve(inst)
        basis = pottier_graver(A)
        for policy in POLICIES:
            report = solve(inst, seeds=list(truth.points), policy=policy, basis=basis)
            assert [r.terminal_f for r in report.results] == [truth.best_f] * truth.feasible_count


class TestClassifier:
    def test_single_value_is_convex_like(self):
        assert classify_landscape({5: 60}) == "convex-like"

    def test_few_values_majority_share(self):
        counts = {10: 80, 12: 15, 15: 5}
        assert classify_landscape(counts, best_f=10) == "easy-nonconvex"

    def test_many_values_minority_share(self):
        counts = {v: 5 for v in range(20)}
        counts[0] = 10  # 10 of 105 at the best value
        assert classify_landscape(counts, best_f=0) == "hard-nonconvex"

    def test_share_threshold(self):
        assert classify_landscape({0: 4, 1: 6}, best_f=0) == "hard-nonconvex"
        assert classify_landscape({0: 6, 1: 4}, best_f=0) == "easy-nonconvex"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty report"):
            classify_landscape({})


def _per_seed_digest(report):
    h = hashlib.sha256()
    for r in report.results:
        h.update(repr((r.seed_index, str(r.terminal_f), r.steps, r.moves_scanned,
                       r.sampler_assisted, r.terminal_x.tolist())).encode())
    return h.hexdigest()


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


class TestGoldenOutputs:
    """Pinned per-seed outputs of ``solve``.  A change to how the basis is
    stored or scanned must keep the move order and the random stream, so
    these digests only move when the descent itself is meant to change."""

    # (class, n, k, instance seed, box, policy, data, digest);
    # data "fraction" divides c and Q by ten primes above 100, whose LCM
    # trips the int64 bound (exact object arithmetic after scaling), and
    # "float" divides them by 4.0
    CASES = {
        # the three QAP digests were re-pinned when assignment instances
        # stopped storing a basis: their seeds now come from curveball
        # trades and every step is a room-graph move; each terminal point
        # is checked against the closed form below
        "qap_4x3_full": ("QAP", 4, 3, 39, None, "first", "int",
                            "ce4e05b0b6fd25266991bc0d3db6561515bd943ba96a31bb2a80cebbc3a579f4"),
        # "sampler" names the truncated basis this case once had; an
        # assignment instance now stores none (see test_per_seed_digest)
        "qap_5x5_sampler": ("QAP", 5, 5, 32, None, "first", "int",
                            "4f7cdb2d67828d248c47160166b877bd07143598208d95cb1f196a5427efdb81"),
        "qsap1_5x3": ("QSAP1", 5, 3, 32, None, "first", "int",
                            "4b75db176f9b59617017b7ead060f68e9b63579d97f8d0e053e90d0f0c8ddb02"),
        # n = 70, the largest CBQP case
        "cbqp_70": ("CBQP", 70, None, 41, None, "first", "int",
                            "1a3d3d104349d7b897c6c2fff294b8f7ac980ccb1739cd18ae865a1a98b66c04"),
        # a -1..2 box: seeds are binary, descent moves to both ends
        "cbqp_12_box": ("CBQP", 12, None, 43, (-1, 2), "first", "int",
                            "1a06b72d62c5c71805db0d4a0579a532a2ac1881f0f27693451edde2898e46a1"),
        "qsap2_6x4_best": ("QSAP2", 6, 4, 44, None, "best", "int",
                            "70ccbec7fc3253cf3cb3f30ef05049e5e95a592621f31b1f1fb7a235ccf4ebe4"),
        "qsap1_5x3_fraction": ("QSAP1", 5, 3, 45, None, "first", "fraction",
                            "64f4b324b88536ab2a70f681b3069bac86053190d7275c221a1b795f9f2f0ee0"),
        "cbqp_20_float": ("CBQP", 20, None, 46, None, "first", "float",
                            "521c45a8b9237b02a9669ae7682392fc7ad77f948d042c012690a7822405edbe"),
        # default seed count 72, the most seeds sharing a round here
        "qsap1_9x8": ("QSAP1", 9, 8, 47, None, "first", "int",
                            "ee54abef5fe6b28e14ad41c9aac33a42da7772d34baf429a26ee8ae7cc5a773d"),
        # the best policy on the paths above: float data, exact objects past
        # the int64 guard, a -1..2 box (its swap basis is still all +-1), the
        # long-cycle phase, and n = 70; test_pottier_basis_digest pins a
        # basis with larger entries
        "cbqp_20_float_best": ("CBQP", 20, None, 46, None, "best", "float",
                            "1c42651bf02593b5d514d3ccecc543564ee8255a89c4a6e9218c689a4e742805"),
        "qsap1_5x3_fraction_best": ("QSAP1", 5, 3, 45, None, "best", "fraction",
                            "6718546ada0c7a9c9b61c85cb1abf356b44def46844666148521a673faab4306"),
        "cbqp_12_box_best": ("CBQP", 12, None, 43, (-1, 2), "best", "int",
                            "d5911a607ed6e3139e2ddba0f55df37bf70c9fc2a06b1cc13713adcb2c3da0f4"),
        "qap_5x5_sampler_best": ("QAP", 5, 5, 32, None, "best", "int",
                            "c92da86998e867fb724f036fca48760efd2557a2c18046998231966b4dc6e1a6"),
        "cbqp_70_best": ("CBQP", 70, None, 41, None, "best", "int",
                            "21c9d6dbf3268788d6792fb1cf2af237537648d62faa3321d50b83ea6cec6159"),
    }

    @staticmethod
    def instance(klass, n, k, instance_seed, box, data):
        inst = generate_instance(np.random.default_rng(instance_seed), klass, n, k)
        c, Q = inst.c, inst.Q
        if data == "fraction":
            c, Q = (
                np.array([Fraction(int(v), PRIMES[i % 10]) for i, v in enumerate(a.flat)],
                         dtype=object).reshape(a.shape)
                for a in (c, Q)
            )
        elif data == "float":
            c, Q = c / 4.0, Q / 4.0
        lower, upper = (inst.lower, inst.upper) if box is None else (
            np.full(inst.size, box[0]), np.full(inst.size, box[1]))
        return QuadraticInstance(
            c=c, Q=Q, kind=inst.kind, b=inst.b, name=inst.name, lower=lower, upper=upper
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_per_seed_digest(self, case):
        klass, n, k, instance_seed, box, policy, data, want = self.CASES[case]
        inst = self.instance(klass, n, k, instance_seed, box, data)
        report = solve(inst, rng_seed=13, policy=policy)
        assert report.sampler_assisted == (klass == "QAP")  # every QAP step is a room-graph move
        if klass == "QAP":
            for r in report.results:
                assert r.certificate == "full"
                assert verify_local_optimality(inst, closed_form(n, k), r.terminal_x) == []
        assert _per_seed_digest(report) == want

    @pytest.mark.parametrize("policy, want", [
        ("first", "3c91dfe6165700a7f55ab71b44a712ebad14a3bd251f255f4e60ebe0d3c7c61a"),
        ("best", "324b45142381501f456a3ae11985d8352cd7b348b093ba3cf09da96793dbcf74"),
    ])
    def test_wide_box_digest(self, policy, want):
        # CBQP n = 40 on a 0..3 box: 780 elements, so under "first" windows
        # double past WINDOW, and 120 seeds fill some rounds to ROUND, which
        # splits the last seed's window; a best pass spans several tiles
        inst = self.instance("CBQP", 40, None, 48, (0, 3), "int")
        rounds, scan = [], _Lockstep._scan

        def spy(engine, seeds, start, count):
            rounds.append(count.copy())
            return scan(engine, seeds, start, count)

        with mock.patch.object(_Lockstep, "_scan", spy):
            report = solve(inst, seed_count=120, rng_seed=13, policy=policy)
        if policy == "first":
            assert max(c.max() for c in rounds) > _Lockstep.WINDOW
            assert any(c.sum() == _Lockstep.ROUND for c in rounds)
        assert _per_seed_digest(report) == want

    @pytest.mark.parametrize("policy, want", [
        ("first", "5a246c37c027601434f511006e37d4675bb20ec1dd339ffca90d2fe418c2579d"),
        ("best", "be6095a0421f508b0a1933dcea5e2bc9de4c1b314fa54123e9c94c3d636a5c89"),
    ])
    def test_pottier_basis_digest(self, policy, want):
        # a completion basis with entries up to 4, so not unit: the windowed
        # scan adds the full bounds check, and a tile's check is the only one
        rng = np.random.default_rng(1)
        A = rng.integers(-2, 3, size=(2, 6))
        upper = np.full(6, 3)
        Q = rng.integers(-9, 10, size=(6, 6))
        inst = QuadraticInstance(
            c=rng.integers(-20, 21, size=6), Q=Q, kind=Explicit.from_matrix(A),
            b=A @ rng.integers(0, upper + 1), lower=np.zeros(6, dtype=np.int64), upper=upper,
        )
        basis = pottier_graver(A)
        assert not prepare_moves(inst, basis).unit
        report = solve(inst, seeds=list(enumerate_feasible(inst)), policy=policy, basis=basis)
        assert _per_seed_digest(report) == want
